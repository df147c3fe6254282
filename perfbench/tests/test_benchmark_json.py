"""BENCHMARK.json lists exactly the metrics run.py prints, with its units."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(HERE))


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_units_match():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER_UNITS


def test_workloads_match():
    assert [w["name"] for w in _spec()["workloads"]] == list(wl.WORKLOADS)


def test_percentile():
    assert run.percentile([3, 1, 2], 50) == 2
    assert run.percentile([1, 2, 3, 4], 50) == 2.5
    assert run.percentile([1, 2, 3, 4, 5], 75) == 4
    assert run.percentile([1, 2, float("inf")], 75) == float("inf")


def test_scaled_times():
    nominal = calibrate.REFERENCE_NOMINAL_S
    assert calibrate.scaled([1.0, 3.0], [2 * nominal, nominal]) == [0.5, 3.0]
    with pytest.raises(ValueError):
        calibrate.scaled([1.0], [nominal, nominal])
    assert calibrate.reference_seconds(3) > 0

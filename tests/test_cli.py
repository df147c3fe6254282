"""Command line behaviour: outputs, exit codes, JSON round trips."""

import json
import os
import subprocess
import sys
from unittest import mock

import pytest

import tanglex
from tanglex import checks, diagram, invariant, oracle, statesum
from tanglex.cli import build_parser, main
from tanglex.invariant import EvaluatorMismatchError
from tanglex.laurent import LaurentPoly
from tanglex.diagram import (ClassVector, ConsistencyError, DiagramVector,
                             FlatDiagram)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAlexanderCommand:
    def test_trefoil_with_oracle(self, capsys):
        code, out, _ = run(capsys, "alexander", "--braid", "1 1 1",
                           "--strands", "2", "--oracle")
        assert code == 0
        assert "alexander = q^-2 - 1 + q^2" in out
        assert "AGREE" in out

    def test_straight_strand(self, capsys):
        code, out, _ = run(capsys, "alexander", "--text", "bottom 1 up;")
        assert code == 0
        assert "delta     = 1" in out and "tau       = 0" in out

    def test_link_oracle_agrees(self, capsys):
        for braid, strands, value in [
                ("1 1", "2", "-q^-1 + q"),          # Hopf link
                ("1 1 2 2", "3", "q^-2 - 2 + q^2"),  # 3-component chain
                ("1", "3", "0")]:                    # split link
            code, out, _ = run(capsys, "alexander", "--braid", braid,
                               "--strands", strands, "--oracle")
            assert code == 0, braid
            assert f"alexander = {value}" in out
            assert f"oracle    = {value}  [AGREE]" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "alexander", "--braid", "1 -2 1 -2",
                           "--strands", "3", "--oracle", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert LaurentPoly.from_json(doc["alexander"]) == \
            LaurentPoly.parse("-q^-2 + 3 - q^2")
        assert doc["oracle_agrees"] is True

    def test_parse_error_exit_2(self, capsys):
        code, _, err = run(capsys, "alexander", "--text", "zap;")
        assert code == 2 and "error" in err
        code, _, err = run(capsys, "alexander", "--text", "bottom 2 up up;")
        assert code == 2  # wrong endpoint count
        code, _, err = run(capsys, "alexander", "--braid", "5", "--strands", "2")
        assert code == 2

    def test_evaluator_both(self, capsys):
        code, out, _ = run(capsys, "alexander", "--braid", "1 1 1",
                           "--strands", "2", "--evaluator", "both")
        assert code == 0


class TestVectorCommand:
    def test_straight_strand(self, capsys):
        code, out, _ = run(capsys, "vector", "--text", "bottom 1 up;")
        assert code == 0
        assert out.splitlines() == ["S={}: 1", "S={1,2}: 1"]

    def test_empty_tangle(self, capsys):
        code, out, _ = run(capsys, "vector", "--text", "bottom 0;")
        assert code == 0 and out.strip() == "S={}: 1"

    def test_single_crossing_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "vector", "--text",
                           "bottom 2 up up; x+ 1;", "--format", "json")
        assert code == 0
        cv = ClassVector.from_json(json.loads(out))
        assert cv[(1, 2, 3, 4)] == LaurentPoly.q_power(1)
        assert cv[()] == -LaurentPoly.q_power(-1)

    def test_evaluator_both(self, capsys):
        code, _, _ = run(capsys, "vector", "--text",
                         "bottom 2 up down; x+ 1; x- 1;",
                         "--evaluator", "both")
        assert code == 0


class TestCheckCommand:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run(capsys, "check")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("PASS") for line in lines)
        assert len(lines) == 9           # 8 identity suites + default fuzz
        assert "move-fuzz" in lines[-1]

    def test_with_dims_and_fuzz(self, capsys):
        code, out, _ = run(capsys, "check", "--dims", "6",
                           "--fuzz", "10", "--seed", "7")
        assert code == 0
        assert "dimensions" in out and "move-fuzz" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "check", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True

    def test_fuzz_zero_runs_no_moves(self, capsys):
        code, out, _ = run(capsys, "check", "--fuzz", "0")
        assert code == 0
        assert out.splitlines()[-1].startswith("PASS move-fuzz: 0 random")

    @pytest.mark.parametrize("flag, value", [("--fuzz", "-3"),
                                             ("--dims", "-2")])
    def test_negative_count_refused(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["check", flag, value])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert f"argument {flag}: must be 0 or more" in out.err

    def test_dims_above_14_refused(self, capsys):
        # refused by argparse before any basis is enumerated
        with mock.patch.object(checks, "dimensions") as dimensions:
            with pytest.raises(SystemExit) as exc:
                main(["check", "--dims", "15"])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert "argument --dims: must be 14 or less, not 15" in out.err
        dimensions.assert_not_called()
        assert build_parser().parse_args(["check", "--dims", "14"]).dims == 14

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run(capsys, "check", "--fuzz", "5", "--seed", "3")
        _, out2, _ = run(capsys, "check", "--fuzz", "5", "--seed", "3")
        assert out1 == out2


class TestCheckFailures:
    @pytest.mark.parametrize("error", [
        ConsistencyError("state count 1 != 343"),
        ConsistencyError("slice transition moved a spectator"),
        checks.CheckFailed("R3 sides differ in the diagram space"),
    ])
    def test_error_in_a_check_is_a_fail_row(self, capsys, error):
        with mock.patch.object(checks, "expand_states", side_effect=error):
            code, out, _ = run(capsys, "check")
        assert code == 1
        assert f"FAIL reidemeister-3: {error}" in out.splitlines()
        assert sum(line.startswith("PASS") for line in out.splitlines()) == 8

    def test_evaluator_mismatch_propagates(self, capsys):
        # no check compares evaluators through tangle_invariant, so a
        # mismatch raised inside one is not a FAIL row
        error = EvaluatorMismatchError("dp and naive class vectors differ")
        with mock.patch.object(checks, "expand_states", side_effect=error):
            with pytest.raises(EvaluatorMismatchError):
                run(capsys, "check")

    def test_other_assertion_errors_propagate(self, capsys):
        # only the library's own ConsistencyError is a FAIL row
        with mock.patch.object(checks, "expand_states",
                               side_effect=AssertionError("not ours")):
            with pytest.raises(AssertionError, match="not ours"):
                run(capsys, "check")

    def test_broken_gram_fails_under_optimize(self):
        # python -O strips assert statements; the suite must still fail
        code = ("import sys\n"
                "from unittest import mock\n"
                "from tanglex import checks, cli\n"
                "with mock.patch.object(checks, 'glue_evaluate',\n"
                "                       return_value=7):\n"
                "    sys.exit(cli.main(['check']))\n")
        src = os.path.dirname(os.path.dirname(tanglex.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 1, out.stderr
        assert any(line.startswith("FAIL gram")
                   for line in out.stdout.splitlines())


class TestInternalErrors:
    @pytest.fixture
    def broken_pairing(self):
        # the kernel tables are cached: derive them again under the patch,
        # and once more after it
        statesum._kernel_table.cache_clear()
        try:
            with mock.patch.object(diagram, "glue_evaluate", return_value=7):
                yield
        finally:
            statesum._kernel_table.cache_clear()

    @pytest.mark.parametrize("argv", [
        ("alexander", "--braid", "1 1 1", "--strands", "2"),
        ("vector", "--text", "bottom 2 up up; x+ 1;"),
    ])
    def test_consistency_error_exit_5(self, capsys, broken_pairing, argv):
        code, out, err = run(capsys, *argv)
        assert code == 5 and out == ""
        assert err.startswith("internal error: ")
        assert len(err.splitlines()) == 1

    def test_naive_delta_check_exit_5(self, capsys):
        # a ticks term on the 2-point naive vector makes its two quotient
        # coordinates differ: a ConsistencyError, as on the dp
        evaluate = invariant.evaluate_naive
        tick = DiagramVector.single(FlatDiagram.make(2, [], [1, 2]))
        with mock.patch.object(invariant, "evaluate_naive",
                               lambda word: evaluate(word) + tick):
            code, out, err = run(capsys, "alexander", "--evaluator", "naive",
                                 "--braid", "1 1 1", "--strands", "2")
        assert code == 5 and out == ""
        assert err.startswith("internal error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("name, patch", [
        # det(I - R) = (1 + t)^2 leaves 1 + t, which no unit makes symmetric
        ("_det", dict(return_value=LaurentPoly.parse("1 + 2q + q^2"))),
        # det(I - R) = 1 is not divisible by 1 + t
        ("_det", dict(return_value=LaurentPoly.one())),
    ])
    def test_oracle_failure_exit_5(self, capsys, name, patch):
        with mock.patch.object(oracle, name, **patch):
            code, out, err = run(capsys, "alexander", "--braid", "1 1 1",
                                 "--strands", "2", "--oracle")
        assert code == 5 and out == ""
        assert err.startswith("internal error: ")
        assert len(err.splitlines()) == 1


def test_import_loads_no_dataclasses():
    # -S keeps site hooks from importing modules of their own
    code = ("import sys, tanglex, tanglex.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(tanglex.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


class TestInputHandling:
    def test_file_input(self, capsys, tmp_path):
        f = tmp_path / "word.tangle"
        f.write_text("bottom 1 up; cup 2 cw; x+ 1; cap 2;")
        code, out, _ = run(capsys, "alexander", "--file", str(f))
        assert code == 0 and "alexander = 1" in out

    def test_missing_input(self, capsys):
        code, _, err = run(capsys, "alexander")
        assert code == 2

    def test_braid_requires_strands(self, capsys):
        code, _, err = run(capsys, "alexander", "--braid", "1 1 1")
        assert code == 2

    @pytest.mark.parametrize("braid, item", [
        ("1,,2", 2), ("1,2,", 3), (",1", 1), ("1, ,2", 2)])
    def test_braid_refuses_empty_items(self, capsys, braid, item):
        for command in ("alexander", "vector"):
            code, out, err = run(capsys, command, "--braid", braid,
                                 "--strands", "3")
            assert code == 2 and out == "", (command, braid)
            assert f"item {item} is empty" in err, err

    @pytest.mark.parametrize("braid, spaced", [
        ("1, 2", "1 2"), ("1,2", "1 2"), (" 1 ,-2 ", "1 -2")])
    def test_braid_commas_separate_items(self, capsys, braid, spaced):
        want = run(capsys, "alexander", "--braid", spaced, "--strands", "3")
        assert run(capsys, "alexander", "--braid", braid,
                   "--strands", "3") == want
        assert want[0] == 0

"""Tests of the span wrappers, against the library in ../../src."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import spans  # noqa: E402
import tanglex  # noqa: E402
from tanglex import diagram, invariant, laurent, statesum  # noqa: E402


def test_install_reaches_call_site_imports_and_uninstall_restores():
    originals = (statesum.dotted_class, invariant.evaluate_dp,
                 laurent.LaurentPoly.__mul__, laurent.LaurentPoly.__rmul__,
                 laurent.LaurentPoly.__add__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert statesum.dotted_class is not originals[0]
        assert invariant.evaluate_dp is not originals[1]
        assert diagram.dotted_class is statesum.dotted_class
        tanglex.alexander_polynomial(tanglex.braid_to_tangle([1, -2, 1, -2], 3))
        tanglex.tangle_invariant(tanglex.parse("bottom 2 up up; x+ 1;"),
                                 evaluator="both")
    finally:
        tracer.uninstall()
    restored = (statesum.dotted_class, invariant.evaluate_dp,
                laurent.LaurentPoly.__mul__, laurent.LaurentPoly.__rmul__,
                laurent.LaurentPoly.__add__)
    assert restored == originals
    assert tracer.calls["invariant.alexander_polynomial"] == 1
    assert tracer.calls["tangle.parse"] == 1
    assert tracer.calls["statesum.evaluate_dp"] == 2
    assert tracer.calls["statesum.expand_states"] == 1
    assert tracer.calls["laurent.mul"] > 0
    assert tracer.counts["statesum.naive_raw_states"] == 7
    assert tracer.counts["statesum.dp_output_keys"] > 0


def test_self_time_excludes_wrapped_children():
    tracer = spans.Tracer()
    tracer.install()
    try:
        tanglex.alexander_polynomial(tanglex.braid_to_tangle([1, 1, 1], 2))
    finally:
        tracer.uninstall()
    by_id = {sid: (name, start, end) for _, sid, _, name, start, end
             in tracer.spans}
    top = [s for s in tracer.spans if s[3] == "invariant.alexander_polynomial"]
    assert len(top) == 1
    _, sid, parent, _, start, end = top[0]
    assert parent == 0
    child_ns = sum(e - s for _, _, p, _, s, e in tracer.spans if p == sid)
    assert tracer.self_ns["invariant.alexander_polynomial"] == (
        end - start - child_ns)
    for _, _, p, _, s, e in tracer.spans:
        if p:
            _, ps, pe = by_id[p]
            assert ps <= s <= e <= pe

"""Tests of the benchmark's own input generators and output checks.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import itertools
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import workloads as wl  # noqa: E402


def _take(stream, n):
    return list(itertools.islice(stream, n))


@pytest.mark.parametrize("workload", ["knot-cli-cold", "knot-batch-warm"])
def test_same_seed_same_braids(workload):
    a = _take(wl.knot_braids(workload, 3, "timed"), 20)
    b = _take(wl.knot_braids(workload, 3, "timed"), 20)
    c = _take(wl.knot_braids(workload, 4, "timed"), 20)
    assert a == b
    assert a != c
    assert len(set(a)) == len(a)


def test_same_seed_same_morse_texts():
    assert _take(wl.morse_texts(3), 20) == _take(wl.morse_texts(3), 20)
    assert _take(wl.morse_texts(3), 20) != _take(wl.morse_texts(4), 20)


def test_warm_timed_braids_skip_warmup():
    warm = _take(wl.knot_braids("knot-batch-warm", 1, "warmup"), 30)
    timed = _take(wl.knot_braids("knot-batch-warm", 1, "timed", warm), 200)
    assert not set(warm) & set(timed)


@pytest.mark.parametrize("strands", range(2, 10))
def test_knot_braid_terminates_and_closes_to_a_knot(strands):
    rng = random.Random(strands)
    length = gen.knot_length(strands)
    for _ in range(20):
        word = gen.knot_braid(rng, strands, length)
        assert len(word) == length
        assert all(1 <= abs(g) <= strands - 1 for g in word)
        assert gen.is_knot_braid(word, strands)


def test_workload_braids_close_to_knots():
    for braid in _take(wl.knot_braids("knot-cli-cold", 0, "timed"), 50):
        assert len(braid) == wl.KNOT_LETTERS
        assert gen.is_knot_braid(braid, wl.KNOT_STRANDS)


@pytest.mark.parametrize("strands", range(2, 10))
def test_knot_braid_refuses_wrong_parity(strands):
    with pytest.raises(ValueError):
        gen.knot_braid(random.Random(0), strands, gen.knot_length(strands) + 1)


def test_is_knot_braid():
    assert gen.is_knot_braid((1, 1, 1), 2)
    assert not gen.is_knot_braid((1, 1), 2)
    assert gen.is_knot_braid((1, -2, 1, -2), 3)
    assert not gen.is_knot_braid((1, 1, 2, 2), 3)


def _walk(text):
    """Replay a generated word: crossing count, cut widths, closed loops."""
    stmts = [s.split() for s in text.split(";") if s.strip()]
    assert stmts[0][0] == "bottom"
    k = int(stmts[0][1])
    dirs = [1 if o == "up" else -1 for o in stmts[0][2:]]
    comp = list(range(k))
    fresh, crossings, widths, loops = k, 0, [k], 0
    for st in stmts[1:]:
        p = int(st[1])
        if st[0] == "cup":
            dirs[p - 1:p - 1] = [1, -1] if st[2] == "cw" else [-1, 1]
            comp[p - 1:p - 1] = [fresh, fresh]
            fresh += 1
        elif st[0] == "cap":
            assert dirs[p - 1] == -dirs[p]
            a, b = comp[p - 1], comp[p]
            loops += a == b
            del dirs[p - 1:p + 1], comp[p - 1:p + 1]
            comp = [a if c == b else c for c in comp]
        else:
            assert st[0] in ("x+", "x-")
            dirs[p - 1], dirs[p] = dirs[p], dirs[p - 1]
            comp[p - 1], comp[p] = comp[p], comp[p - 1]
            crossings += 1
        widths.append(len(dirs))
    return k, crossings, widths, loops


def test_morse_texts_have_the_promised_shape():
    for text in _take(wl.morse_texts(0), 200):
        k, crossings, widths, loops = _walk(text)
        assert k in wl.VECTOR_BOTTOM
        lo, hi = wl.VECTOR_CROSSINGS
        assert lo <= crossings <= hi
        assert max(widths) <= wl.VECTOR_MAX_WIDTH
        assert loops == 0


def test_knot_polynomial_problem():
    assert checks.knot_polynomial_problem([[-2, 1], [0, -1], [2, 1]]) is None
    assert checks.knot_polynomial_problem([[0, 1]]) is None
    assert checks.knot_polynomial_problem([[-2, 1], [0, -1]]) is not None
    assert checks.knot_polynomial_problem([[-2, 1], [0, 1], [2, 1]]) is not None
    assert checks.knot_polynomial_problem("q") is not None


def test_class_vector_problem():
    good = {"boundary_count": 4, "coords": [[[], [[0, 1]]],
                                            [[1, 4], [[1, -1]]]]}
    assert checks.class_vector_problem(good) is None
    for coords in ([[[1], [[0, 1]]]], [[[4, 1], [[0, 1]]]],
                   [[[1, 5], [[0, 1]]]], [[[1, 2], []]]):
        bad = {"boundary_count": 4, "coords": coords}
        assert checks.class_vector_problem(bad) is not None


def test_digest_depends_on_outputs_in_order():
    a, b, c = checks.Digest(), checks.Digest(), checks.Digest()
    for d, outs in ((a, [1, 2]), (b, [1, 2]), (c, [2, 1])):
        for i, out in enumerate(outs):
            d.add(i, out)
    assert a.as_dict() == b.as_dict()
    assert a.as_dict()["all"] != c.as_dict()["all"]

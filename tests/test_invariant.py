"""Normalized Alexander polynomial and the vector-valued tangle invariant."""

import os
import random
import subprocess
import sys
from unittest import mock

import pytest

import tanglex
from tanglex import checks, invariant
from tanglex.laurent import LaurentPoly, ONE
from tanglex.diagram import ConsistencyError, DiagramVector, FlatDiagram
from tanglex.statesum import base_tables
from tanglex.oracle import KNOT_CORPUS, alexander_via_burau
from tanglex.tangle import (CAP, CUP, EndpointCountError, MorseWord, R1Move,
                            R2Move, R3Move, Slice, analyze, apply_move,
                            braid_to_tangle, move_sites, parse, random_word)
from tanglex.invariant import (NormalizedResult, alexander_polynomial,
                               minus_q_power, tangle_invariant, with_crossing,
                               with_crossing_smoothed)

Q = LaurentPoly.q_power(1)
QI = LaurentPoly.q_power(-1)
_DIR = {1: "up", -1: "down"}


def braid(word, strands):
    return braid_to_tangle(word, strands)


class TestAlexander:
    def test_unknot(self):
        r = alexander_polynomial(parse("bottom 1 up;"), "both")
        assert r.alexander == ONE and r.tau == 0 and r.delta == ONE

    def test_trefoil(self):
        r = alexander_polynomial(braid([1, 1, 1], 2), "both")
        assert r.alexander == LaurentPoly.parse("q^-2 - 1 + q^2")
        assert r.tau == -1
        assert r.delta == LaurentPoly.parse("-q^-3 + q^-1 - q")
        assert r.delta == minus_q_power(r.tau) * r.alexander

    def test_figure_eight(self):
        r = alexander_polynomial(braid([1, -2, 1, -2], 3), "both")
        assert r.alexander == LaurentPoly.parse("-q^-2 + 3 - q^2")

    def test_result_identity(self):
        rng = random.Random(0)
        for _ in range(10):
            w = random_word(rng, max_crossings=4, bottom=1)
            r = alexander_polynomial(w)
            assert r.alexander * minus_q_power(r.tau) == r.delta

    def test_normalized_result_validates(self):
        with pytest.raises(ValueError):
            NormalizedResult(ONE, 1, ONE)

    def test_normalized_result_check_survives_optimize_flag(self):
        # python -O strips assert statements; the check must still raise
        code = ("from tanglex.laurent import ONE\n"
                "from tanglex.invariant import NormalizedResult\n"
                "try:\n"
                "    NormalizedResult(ONE, 1, ONE)\n"
                "except ValueError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(1)\n")
        src = os.path.dirname(os.path.dirname(tanglex.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        r = subprocess.run([sys.executable, "-O", "-c", code], env=env)
        assert r.returncode == 0

    def test_replace_revalidates_result(self):
        res = alexander_polynomial(braid([1, 1, 1], 2))
        with pytest.raises(ValueError):
            res._replace(tau=res.tau + 1)

    def test_requires_two_endpoints(self):
        with pytest.raises(EndpointCountError):
            alexander_polynomial(parse("bottom 2 up up;"))

    @pytest.mark.parametrize("up", [True, False])
    @pytest.mark.parametrize("name, word, strands", KNOT_CORPUS)
    def test_bent_corpus_matches_burau(self, name, word, strands, up):
        # the closure of the braid with its open strand's bottom end bent
        # up (a cup on the left) or its top end bent down (a cap on the
        # left): the same knot, with tau read off both endpoint shapes
        w = braid(word, strands)
        if not up:
            w = MorseWord(1, [s._replace(label="ccw") if s.kind == CUP else s
                              for s in w.slices], ("down",))
        shifted = tuple(s._replace(pos=s.pos + 1) for s in w.slices)
        levels = analyze(w).levels
        d, top = levels[0][0], levels[-1][0]
        bent_up = MorseWord(0, (Slice(CUP, 1, "ccw" if d == 1 else "cw"),)
                            + shifted, ())
        bent_down = MorseWord(2, shifted + (Slice(CAP, 1),),
                              (_DIR[-top], _DIR[d]))
        want = alexander_via_burau(word, strands)
        for v in (bent_up, bent_down):
            assert alexander_polynomial(v, "both").alexander == want, name

    def test_bad_evaluator(self):
        with pytest.raises(ValueError):
            alexander_polynomial(parse("bottom 1 up;"), "fast")

    def test_naive_delta_check_fires(self):
        # a ticks term on the 2-point naive vector moves its S={} coordinate
        # off the S={1,2} one, which delta_from_class refuses
        evaluate = invariant.evaluate_naive
        tick = DiagramVector.single(FlatDiagram.make(2, [], [1, 2]))
        with mock.patch.object(invariant, "evaluate_naive",
                               lambda word: evaluate(word) + tick):
            with pytest.raises(ConsistencyError):
                alexander_polynomial(braid([1, 1, 1], 2), "naive")

    def test_evaluator_agreement_on_random_words(self):
        rng = random.Random(1)
        for _ in range(15):
            w = random_word(rng, max_crossings=5, bottom=1)
            alexander_polynomial(w, "both")  # raises on any mismatch


class TestMoveInvariance:
    def test_r1_defect_law(self):
        rng = random.Random(3)
        for _ in range(20):
            w = random_word(rng, max_crossings=4, bottom=1)
            base = alexander_polynomial(w)
            moves = [m for m in move_sites(w) if isinstance(m, R1Move)]
            mv = rng.choice(moves)
            res = alexander_polynomial(apply_move(w, mv))
            dtau = res.tau - base.tau
            assert dtau in (-1, 1)
            assert res.delta == base.delta * minus_q_power(dtau)

    def test_r1_factor_all_eight_curls(self):
        # every (side, over/under, strand direction) combination: the raw
        # value picks up exactly -q^(turning defect)
        for orient in ("up", "down"):
            w = parse(f"bottom 1 {orient};")
            for side in ("left", "right"):
                for crossing in ("over", "under"):
                    k = apply_move(w, R1Move(0, 1, side, crossing))
                    res = alexander_polynomial(k, "both")
                    dtau = res.tau
                    assert dtau in (-1, 1), (orient, side, crossing)
                    assert res.delta == -LaurentPoly.q_power(dtau), \
                        (orient, side, crossing)
                    assert res.alexander == ONE


class TestTangleInvariant:
    def test_even_boundary_enforced(self):
        # a valid word has 2k + 2(cups - caps) endpoints, so MorseWord's own
        # validation keeps every boundary even and tangle_invariant needs no
        # guard of its own
        cv = tangle_invariant(parse("bottom 2 up up; x+ 1;"), "both")
        assert len(cv) == 5
        rng = random.Random(25)
        for _ in range(50):
            w = random_word(rng, max_crossings=3, bottom=rng.randrange(4))
            assert w.endpoint_count % 2 == 0, str(w)
            assert tangle_invariant(w).boundary_count == w.endpoint_count

    def test_r1_multiplies_by_unit(self):
        rng = random.Random(5)
        for _ in range(20):
            w = random_word(rng, max_crossings=4, bottom=2)
            base = tangle_invariant(w)
            moves = [m for m in move_sites(w) if isinstance(m, R1Move)]
            mv = rng.choice(moves)
            moved = tangle_invariant(apply_move(w, mv))
            assert moved == base.scale(-Q) or moved == base.scale(-QI)


class TestSkeinTriple:
    def test_trefoil_all_crossings(self):
        w = braid([1, 1, 1], 2)
        for i in range(3):
            checks.skein_at(w, i)

    def test_r2_pair_reduces_to_hopf(self):
        # a strand and a circle joined by an R2 pair close to a split unlink;
        # switching one crossing turns the pair into a clasp (the Hopf link)
        w = parse("bottom 1 up; cup 2 cw; x+ 1; x- 1; cap 2;")
        assert alexander_polynomial(w, "both").alexander.is_zero()
        checks.skein_at(w, 0)
        checks.skein_at(w, 1)
        hopf = with_crossing(w, 1, "over")
        assert alexander_polynomial(hopf, "both").alexander == Q - QI

    def test_random_words_and_crossings(self):
        rng = random.Random(6)
        done = 0
        while done < 25:
            w = random_word(rng, max_crossings=6,
                            bottom=rng.choice((1, 2)))
            if w.crossing_count() == 0:
                continue
            i = rng.randrange(w.crossing_count())
            checks.skein_at(w, i)
            done += 1

    def test_bad_index(self):
        with pytest.raises(IndexError):
            checks.skein_at(braid([1], 2), 5)
        with pytest.raises(IndexError):
            with_crossing_smoothed(braid([1], 2), 2)

    def test_wrong_smoothing_fails(self):
        w = braid([1, 1, 1], 2)
        with mock.patch.object(checks, "with_crossing_smoothed",
                               lambda word, index: word):
            with pytest.raises(checks.CheckFailed, match="diagram space"):
                checks.skein_at(w, 1)


class TestRecords:
    @pytest.mark.parametrize("make, field", [
        (lambda: Slice("cup", 2), "pos"),
        (lambda: parse("bottom 1 up;"), "slices"),
        (lambda: analyze(parse("bottom 2 up up; x+ 1;")), "levels"),
        (lambda: analyze(parse("bottom 2 up up; x+ 1;")).crossings[0], "sign"),
        (lambda: R1Move(0, 1, "left", "over"), "side"),
        (lambda: R2Move(0, 1, "over"), "first"),
        (lambda: R3Move(0), "slice_index"),
        (lambda: FlatDiagram.make(2, [(1, 2, True)]), "chords"),
        (lambda: base_tables().five[(1, 0)][0], "coeff"),
        (lambda: alexander_polynomial(parse("bottom 1 up;")), "tau"),
    ])
    def test_fields_are_read_only(self, make, field):
        record = make()
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

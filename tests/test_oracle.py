"""The Burau determinant oracle: matrices, relations, Markov stability."""

import random
from unittest import mock

import pytest

from tanglex import oracle
from tanglex.laurent import LaurentPoly, ONE, ZERO
from tanglex.oracle import (KNOT_CORPUS, OracleError, alexander_via_burau,
                            braid_permutation, burau_reduced,
                            closure_components, unreduced_burau)

T = LaurentPoly.q_power(1)


class TestBurauMatrices:
    def test_empty_word_is_identity(self):
        m = burau_reduced([], 3)
        assert m == ((ONE, LaurentPoly.zero()), (LaurentPoly.zero(), ONE))

    def test_inverse_pair(self):
        for g in (1, 2):
            m = burau_reduced([g, -g], 3)
            assert m == burau_reduced([], 3)

    def test_sigma1_cubed_in_b2(self):
        m = burau_reduced([1, 1, 1], 2)
        assert m == ((LaurentPoly.monomial(-1, 3),),)

    def test_braid_relations(self):
        rng = random.Random(0)
        for strands in range(2, 6):
            gens = list(range(1, strands))
            # far commutation
            for i in gens:
                for j in gens:
                    if abs(i - j) >= 2:
                        assert unreduced_burau([i, j], strands) == \
                            unreduced_burau([j, i], strands)
            # the braid relation
            for i in gens[:-1]:
                assert unreduced_burau([i, i + 1, i], strands) == \
                    unreduced_burau([i + 1, i, i + 1], strands)
            # random word and a rewriting of it
            for _ in range(5):
                w = [rng.choice(gens) * rng.choice((1, -1)) for _ in range(6)]
                i = rng.randrange(len(w))
                w2 = w[:i] + [w[i], -w[i], w[i]] + w[i + 1:]
                assert unreduced_burau(w, strands) == \
                    unreduced_burau(w2, strands)

    def test_bad_generator(self):
        with pytest.raises(ValueError):
            unreduced_burau([3], 3)
        with pytest.raises(ValueError):
            braid_permutation([0], 2)

    @pytest.mark.parametrize("call", [braid_permutation, unreduced_burau,
                                      alexander_via_burau])
    @pytest.mark.parametrize("g", [1.0, True], ids=["float", "bool"])
    def test_generator_of_wrong_type(self, call, g):
        with pytest.raises(ValueError, match=f"generator {g!r} is not an int"):
            call([g], 2)


def laplace(m):
    """The determinant by expansion along the first row."""
    if not m:
        return ONE
    total = ZERO
    for j, x in enumerate(m[0]):
        minor = laplace([row[:j] + row[j + 1:] for row in m[1:]])
        total = total + (x * minor if j % 2 == 0 else -(x * minor))
    return total


class TestDeterminant:
    def test_zero_leading_pivot(self):
        assert oracle._det([[ZERO, ONE], [ONE, ZERO]]) == -ONE

    def test_singular(self):
        assert oracle._det([[T, ONE], [T * T, T]]) == ZERO
        assert oracle._det([[ZERO, ONE, T], [ZERO, T, ONE],
                            [ZERO, ONE, ONE]]) == ZERO

    def test_matches_expansion(self):
        # sparse entries make zero pivots and row swaps common
        rng = random.Random(3)
        entries = [ZERO, ZERO, ONE, -ONE, T, LaurentPoly({-1: 2, 2: -1})]
        for _ in range(400):
            n = rng.randint(0, 5)
            m = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            assert oracle._det(m) == laplace(m), m


class TestClosureCounting:
    def test_components(self):
        assert closure_components([], 1) == 1
        assert closure_components([], 3) == 3
        assert closure_components([1], 2) == 1
        assert closure_components([1, 1], 2) == 2      # Hopf link
        assert closure_components([1], 3) == 2


class TestAlexanderValues:
    def test_anchors(self):
        assert alexander_via_burau([], 1) == ONE
        assert alexander_via_burau([1, 1, 1], 2) == \
            LaurentPoly.parse("q^-2 - 1 + q^2")
        assert alexander_via_burau([1, -2, 1, -2], 3) == \
            LaurentPoly.parse("-q^-2 + 3 - q^2")

    def test_multi_component_rejected(self):
        # a link's value must have parity (-1)^(mu - 1) under q -> q^-1; a
        # determinant that breaks it is refused for both 2-component closures
        for det, word, strands in [
                ("1 + q^3", [1, 1], 2),            # Hopf link: 1 + t^2 left
                ("1 + 2q + 2q^2 + q^3", [1], 3)]:  # split link: 1 + t left
            assert closure_components(word, strands) == 2
            with mock.patch.object(oracle, "_det",
                                   return_value=LaurentPoly.parse(det)):
                with pytest.raises(OracleError, match="-1-symmetric"):
                    alexander_via_burau(word, strands)

    def test_link_values(self):
        hopf = alexander_via_burau([1, 1], 2)
        assert alexander_via_burau([-1, -1], 2) == -hopf
        assert alexander_via_burau([1, 1, 2, 2], 3) == \
            LaurentPoly.parse("q^-2 - 2 + q^2")            # 3-chain
        assert alexander_via_burau([1], 3).is_zero()       # split link
        assert alexander_via_burau([], 2).is_zero()        # 2-unlink

    def test_no_strands_rejected(self):
        with pytest.raises(ValueError):
            alexander_via_burau([], 0)

    @pytest.mark.parametrize("strands", [2.0, True], ids=["float", "bool"])
    def test_strand_count_of_wrong_type(self, strands):
        with pytest.raises(ValueError, match=f"strands, not {strands!r}$"):
            alexander_via_burau([1], strands)

    def test_markov_stability(self):
        # links too: stabilization moves n and the exponent sum together
        rng = random.Random(1)
        checked = 0
        while checked < 15:
            strands = rng.choice((2, 3, 4))
            w = tuple(rng.choice(range(1, strands)) * rng.choice((1, -1))
                      for _ in range(rng.randint(1, 8)))
            base = alexander_via_burau(w, strands)
            g = rng.choice(range(1, strands)) * rng.choice((1, -1))
            assert alexander_via_burau((g,) + w + (-g,), strands) == base
            assert alexander_via_burau(w + (strands,), strands + 1) == base
            assert alexander_via_burau(w + (-strands,), strands + 1) == base
            checked += 1

    def test_corpus_shape(self):
        assert len(KNOT_CORPUS) >= 10
        for name, word, strands in KNOT_CORPUS:
            assert len(word) <= 8, name
            assert closure_components(word, strands) == 1, name


class TestNormalization:
    def test_uniqueness(self):
        p = alexander_via_burau([1, 1, 1], 2)
        # no other +-q^k multiple is symmetric with value one at q=1
        for k in range(-3, 4):
            for sign in (1, -1):
                m = p * LaurentPoly.monomial(sign, k)
                if k == 0 and sign == 1:
                    continue
                assert not (m.invert_q() == m and m.eval_at_one() == 1)

    def test_failures(self):
        for det, word, strands, reason in [
                # (1 + t)^2 / (1 + t) = 1 + t: the trefoil's value is not
                # symmetric
                ("1 + 2q + q^2", [1, 1, 1], 2, "symmetric"),
                # 1 + t^2: q^-2 + q^2 is symmetric, but a knot needs value 1
                # at q = 1
                ("1 + q + q^2 + q^3", [1, 1, 1], 2, "at q = 1"),
                # a 2-component link's value must be odd: the Hopf link read
                # through 1 + t^3
                ("1 + q^3", [1, 1], 2, "symmetric")]:
            with mock.patch.object(oracle, "_det",
                                   return_value=LaurentPoly.parse(det)):
                with pytest.raises(OracleError, match=reason):
                    alexander_via_burau(word, strands)


class TestHopf:
    def test_value(self):
        # the positive Hopf link: one skein step from the split link (0) and
        # the unknot gives q - q^-1, odd under q -> q^-1 as a 2-component link
        v = alexander_via_burau([1, 1], 2)
        assert v == LaurentPoly.parse("-q^-1 + q")
        assert v.invert_q() == -v
        assert v.eval_at_one() == 0

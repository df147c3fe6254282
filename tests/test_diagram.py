"""Diagram gluing, the quotient-space basis, and coordinates."""

import os
import random
import subprocess
import sys
from unittest import mock

import pytest

import tanglex

from tanglex.laurent import LaurentPoly, ONE, ZERO
from tanglex.diagram import (ClassVector, DiagramVector, FlatDiagram,
                             canonical_rep, coordinates, dotted_class,
                             enumerate_basis, even_subsets, glue_evaluate,
                             inner_product, motzkin, saddle_element)


def fd(n, chords=(), ticks=()):
    return FlatDiagram.make(n, chords, ticks)


CHORD2 = fd(2, [(1, 2)])
DOT2 = fd(2, [(1, 2, True)])
TICKS2 = fd(2, [], [1, 2])


class TestFlatDiagram:
    def test_validation(self):
        with pytest.raises(ValueError):
            fd(4, [(1, 3)], [2])          # point 4 uncovered
        with pytest.raises(ValueError):
            fd(4, [(1, 3), (2, 4)])       # crossing chords
        with pytest.raises(ValueError):
            fd(2, [(1, 2)], [1])          # point used twice
        with pytest.raises(ValueError):
            fd(2, [(1, 5)])               # out of range
        fd(4, [(1, 3)], [2, 4])           # a lone long chord is planar

    def test_constructor_validates(self):
        with pytest.raises(ValueError, match=r"\[3, 4\]"):
            FlatDiagram(4, frozenset({(1, 2, True)}), frozenset())
        with pytest.raises(ValueError, match="i < j"):
            FlatDiagram(2, frozenset({(2, 1, False)}), frozenset())
        d = FlatDiagram(2, frozenset({(1, 2, True)}), frozenset())
        assert d == DOT2 and type(d) is FlatDiagram

    def test_replace_validates(self):
        # an unvalidated diagram used to fail later, with a KeyError inside
        # glue_evaluate
        with pytest.raises(ValueError, match=r"\[3, 4\]"):
            DOT2._replace(boundary_count=4)
        with pytest.raises(ValueError, match="cross"):
            fd(4, [(1, 2), (3, 4)])._replace(
                chords=frozenset({(1, 3, False), (2, 4, False)}))
        d = fd(4, [(1, 2)], [3, 4])._replace(
            chords=frozenset({(1, 4, False)}), ticks=frozenset({2, 3}))
        assert d == fd(4, [(1, 4)], [2, 3]) and type(d) is FlatDiagram

    def test_make_validates_once(self, monkeypatch):
        calls = []
        check = FlatDiagram.validate
        monkeypatch.setattr(FlatDiagram, "validate",
                            lambda self: calls.append(self) or check(self))
        fd(4, [(1, 4, True)], [2, 3])
        assert len(calls) == 1

    def test_text_roundtrip(self):
        d = fd(4, [(1, 4, True), (2, 3)], [])
        assert FlatDiagram.parse(str(d)) == d
        t = fd(4, [], [1, 2, 3, 4])
        assert FlatDiagram.parse(str(t)) == t
        assert str(d) == "n=4; chords=(1,4)*,(2,3); ticks="

    @pytest.mark.parametrize("text", [
        "n = 2; chords=(1,2)",                       # spaces around '='
        "chords=(1,2)",                              # no n
        "n=0; chord=(1,2)",                          # misspelt field
        "n=2; chords=(1,2); chords=(1,2)",           # repeated field
        "n=2; (1,2)",                                # no '='
        "n=4; chords=(1,2),(1,2); ticks=3,4",        # chord given twice
        "n=3; chords=(1,2); ticks=3,3",              # tick given twice
        "n=-2; ticks=",
        "n=4; chords=(1,2)(3,4)",                    # no ',' between chords
        "n=2; chords=(1,2),",                        # a trailing ','
        "n=4; chords=(1,2),,(3,4)",                  # an empty chord
        "n=4; ticks=1,2,3,",                         # a trailing ',' in ticks
        "n=4; ticks=1,,2,3,4",                       # an empty tick
    ])
    def test_text_refuses_bad(self, text):
        with pytest.raises(ValueError):
            FlatDiagram.parse(text)

    def test_json_roundtrip(self):
        d = fd(6, [(1, 6, True), (2, 5)], [3, 4])
        assert FlatDiagram.from_json(d.to_json()) == d

    @pytest.mark.parametrize("change", [
        {"boundary_count": 2.0},
        {"boundary_count": True, "chords": [], "ticks": [1]},
        {"boundary_count": -2},
        {"chords": [[1.0, 2, False]]},
        {"chords": [[1, 2, "yes"]]},
        {"chords": [[1, 2]]},
        {"chords": [[1, 2, False], [1, 2, False]], "boundary_count": 4,
         "ticks": [3, 4]},
        {"chords": [[1, 2, False], [2, 1, False]], "boundary_count": 4,
         "ticks": [3, 4]},
        {"chords": [], "ticks": [1, 2, 2]},
        {"chords": "(1,2)"},
        {"ticks": None},                             # missing key
        {"boundary_count": None},
        {"dots": []},                                # unknown key
    ])
    def test_json_refuses_bad(self, change):
        doc = {"boundary_count": 2, "chords": [[1, 2, False]], "ticks": []}
        doc.update(change)
        doc = {k: v for k, v in doc.items() if v is not None}
        with pytest.raises(ValueError):
            FlatDiagram.from_json(doc)

    def test_expand_dots(self):
        v = DOT2.expand_dots()
        assert v[CHORD2] == ONE and v[TICKS2] == -ONE and len(v) == 2
        plain = CHORD2.expand_dots()
        assert plain[CHORD2] == ONE and len(plain) == 1
        two = fd(4, [(1, 2, True), (3, 4, True)]).expand_dots()
        assert len(two) == 4
        signs = sorted(c.eval_at_one() for _, c in two.terms())
        assert signs == [-1, -1, 1, 1]


class TestGlue:
    def test_pinned_examples(self):
        assert glue_evaluate(CHORD2, CHORD2) == 0       # undotted loop
        assert glue_evaluate(DOT2, DOT2) == -1          # dotted loop
        assert glue_evaluate(DOT2, TICKS2) == 0         # dotted strand + tick
        assert glue_evaluate(CHORD2, TICKS2) == 1       # interior strand
        assert glue_evaluate(TICKS2, TICKS2) == 1

    def test_boundary_mismatch(self):
        with pytest.raises(ValueError):
            glue_evaluate(CHORD2, fd(4, [(1, 2)], [3, 4]))
        with pytest.raises(ValueError):
            inner_product(DiagramVector.single(CHORD2),
                          DiagramVector.single(fd(0)))

    def test_self_pairing_of_dotted_basis(self):
        # <D, D> = (-1)^(number of dotted chords)
        for n in (2, 4, 6):
            for d in enumerate_basis(n):
                dd = fd(n, [(i, j, True) for i, j, _ in d.chords], d.ticks)
                assert glue_evaluate(dd, dd) == (-1) ** len(dd.chords)

    def test_pairing_zero_iff_different_dotted_sets(self):
        for n in (2, 4):
            dotted = [fd(n, [(i, j, True) for i, j, _ in d.chords], d.ticks)
                      for d in enumerate_basis(n)]
            for a in dotted:
                for b in dotted:
                    g = glue_evaluate(a, b)
                    same = a.dotted_endpoints() == b.dotted_endpoints()
                    assert (g != 0) == same
                    assert g in (-1, 0, 1)

    def test_symmetry(self):
        rng = random.Random(1)
        basis = enumerate_basis(6)
        for _ in range(40):
            a, b = rng.choice(basis), rng.choice(basis)
            assert glue_evaluate(a, b) == glue_evaluate(b, a)


class TestBasis:
    def test_counts_match_motzkin(self):
        for n in range(9):
            b = enumerate_basis(n)
            assert len(b) == motzkin(n)
            assert len(set(b)) == len(b)
        assert [motzkin(n) for n in range(9)] == [1, 1, 2, 4, 9, 21, 51, 127, 323]

    def test_dotted_basis_count_equals_basis_count(self):
        # the dotted basis diagrams biject with the undotted ones
        for n in range(7):
            dotted = {fd(n, [(i, j, True) for i, j, _ in d.chords], d.ticks)
                      for d in enumerate_basis(n)}
            assert len(dotted) == motzkin(n)

    def test_small_cases(self):
        assert enumerate_basis(0) == [fd(0)]
        assert set(enumerate_basis(2)) == {CHORD2, TICKS2}
        assert len(enumerate_basis(4)) == 9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            enumerate_basis(-1)


class TestCanonicalRep:
    def test_pinned_examples(self):
        assert canonical_rep((1, 2, 3, 4), 4) == fd(4, [(2, 3, True), (1, 4, True)])
        assert canonical_rep((), 2) == TICKS2
        assert canonical_rep((1, 2), 4) == fd(4, [(1, 2, True)], [3, 4])

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            canonical_rep((1, 2, 3), 4)

    def test_nested_shape(self):
        rep = canonical_rep((1, 3, 4, 6, 7, 8), 8)
        assert rep.chords == frozenset({(4, 6, True), (3, 7, True), (1, 8, True)})

    def test_class_count(self):
        for n in range(1, 9):
            assert sum(1 for _ in even_subsets(n)) == 2 ** (n - 1)


class TestCoordinates:
    def test_undotted_chord(self):
        c = coordinates(DiagramVector.single(CHORD2))
        assert c[(1, 2)] == ONE and c[()] == ONE and len(c) == 2

    def test_canonical_rep_is_unit_vector(self):
        for n in (2, 4):
            for s in even_subsets(n):
                c = coordinates(DiagramVector.single(canonical_rep(s, n)))
                assert c[s] == ONE and len(c) == 1

    def test_adjacent_dotted_pair(self):
        v = DiagramVector.single(fd(4, [(1, 2, True), (3, 4, True)]))
        assert coordinates(v)[(1, 2, 3, 4)] == -ONE

    def test_linearity(self):
        rng = random.Random(7)
        basis = enumerate_basis(4)
        for _ in range(10):
            v = DiagramVector(4)
            w = DiagramVector(4)
            for d in rng.sample(basis, 3):
                v.add_term(d, LaurentPoly.monomial(rng.randint(-3, 3), rng.randint(-2, 2)))
                w.add_term(d, LaurentPoly.monomial(rng.randint(-3, 3), rng.randint(-2, 2)))
            a = LaurentPoly.monomial(rng.randint(-2, 2), rng.randint(-1, 1))
            left = coordinates(v.scale(a) + w)
            right = coordinates(v).scale(a) + coordinates(w)
            assert left == right

    def test_roundtrip_from_classvector(self):
        rng = random.Random(3)
        for n in (2, 4):
            cv = ClassVector(n)
            for s in even_subsets(n):
                c = rng.randint(-2, 2)
                if c:
                    cv.add(s, LaurentPoly.monomial(c, rng.randint(-1, 1)))
            # the diagram vector sum_S c_S * canonical_rep(S)
            v = DiagramVector(n)
            for s, c in cv.items():
                v.add_term(canonical_rep(s, n), c)
            assert coordinates(v) == cv

    def test_equivalent_diagrams_same_class_up_to_sign(self):
        # dotted basis diagrams with the same dotted endpoint set represent
        # the same class up to the sign glue * (-1)^(|S|/2)
        for n in (4, 6):
            diagrams = [fd(n, [(i, j, True) for i, j, _ in d.chords], d.ticks)
                        for d in enumerate_basis(n)]
            by_set = {}
            for d in diagrams:
                by_set.setdefault(tuple(sorted(d.dotted_endpoints())), []).append(d)
            for s, group in by_set.items():
                for a in group:
                    for b in group:
                        ca = coordinates(DiagramVector.single(a))
                        cb = coordinates(DiagramVector.single(b))
                        sign = glue_evaluate(a, b) * (-1) ** (len(s) // 2)
                        assert ca == cb.scale(LaurentPoly.monomial(sign))

    def test_loop_signs_match_gluing_on_every_basis_diagram(self):
        # c_S = (-1)^(|S|/2) <d, canonical_rep(S)> by one gluing per even
        # subset, on every basis diagram on n <= 8 points with every dot
        # pattern
        count = 0
        for n in range(9):
            reps = [(s, canonical_rep(s, n)) for s in even_subsets(n)]
            for d in enumerate_basis(n):
                chords = sorted(d.chords)
                for dots in range(1 << len(chords)):
                    dd = fd(n, [(i, j, bool(dots >> k & 1))
                                for k, (i, j, _) in enumerate(chords)],
                            d.ticks)
                    want = ClassVector(n)
                    for s, rep in reps:
                        g = glue_evaluate(dd, rep) * (-1) ** (len(s) // 2)
                        if g:
                            want.add(s, LaurentPoly.monomial(g))
                    assert coordinates(DiagramVector.single(dd)) == want, dd
                    count += 1
        assert count == 2849

    def test_coordinates_glue_no_diagrams(self):
        w = tanglex.parse("bottom 4 up up up up; x- 3; cup 1 cw; cap 2; "
                          "x+ 1; x+ 3; x+ 1; x+ 2; cup 4 ccw; x- 4; x+ 5; "
                          "cap 5; x- 3; x- 1;")
        v = tanglex.evaluate_naive(w)
        want = coordinates(v)
        assert w.crossing_count() == 9 and len(v) == 55 and len(want) == 46

        def refuse(*args):
            raise AssertionError("coordinates built or glued a diagram")

        with mock.patch.object(tanglex.diagram, "canonical_rep", refuse), \
                mock.patch.object(tanglex.diagram, "glue_evaluate", refuse):
            assert coordinates(v) == want

    def test_dotted_class_matches_coordinates(self):
        for n in (2, 4, 6):
            for d in enumerate_basis(n):
                dd = fd(n, [(i, j, True) for i, j, _ in d.chords], d.ticks)
                sign, s = dotted_class(dd)
                c = coordinates(DiagramVector.single(dd))
                assert c[s] == LaurentPoly.monomial(sign) and len(c) == 1

    def test_dotted_class_check_survives_optimize_flag(self):
        # under python -O a bare assert would let a bad pairing through
        code = ("import tanglex.diagram as d\n"
                "d.glue_evaluate = lambda x, y: 7\n"
                "try:\n"
                "    d.dotted_class(d.canonical_rep((1, 2), 2))\n"
                "except AssertionError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(1)\n")
        src = os.path.dirname(os.path.dirname(tanglex.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        r = subprocess.run([sys.executable, "-O", "-c", code], env=env)
        assert r.returncode == 0


class TestSaddle:
    def test_element(self):
        s = saddle_element()
        assert s[fd(4, [(1, 2, True), (3, 4, True)])] == ONE
        assert s[fd(4, [(1, 4, True), (2, 3, True)])] == ONE
        assert len(s) == 2

    def test_coordinates_vanish(self):
        assert coordinates(saddle_element()).is_zero()
        assert coordinates(saddle_element().expand_dots()).is_zero()


class TestClassVector:
    def test_json_and_text(self):
        cv = ClassVector(4)
        cv.add((1, 2), LaurentPoly.parse("q - q^-1"))
        cv.add((), ONE)
        assert ClassVector.from_json(cv.to_json()) == cv
        assert str(cv).splitlines() == ["S={}: 1", "S={1,2}: -q^-1 + q"]

    def test_odd_key_rejected(self):
        with pytest.raises(ValueError):
            ClassVector(4).add((1,), ONE)

    @pytest.mark.parametrize("key", [[1, 1], [5, 7], [0, 2], [2, -1]])
    def test_json_bad_key_rejected(self, key):
        # a repeated or out-of-range point is refused on load, not later
        doc = {"boundary_count": 2,
               "coords": [[[1, 2], [[0, 1]]], [key, [[0, 2]]]]}
        with pytest.raises(ValueError, match=r"boundary points in 1\.\.2"):
            ClassVector.from_json(doc)

    @pytest.mark.parametrize("count", [-3, 2.0, "2", True, None])
    def test_json_bad_boundary_count_rejected(self, count):
        doc = {"boundary_count": count, "coords": [[[], [[0, 1]]]]}
        with pytest.raises(ValueError, match="boundary_count"):
            ClassVector.from_json(doc)

    @pytest.mark.parametrize("again", [[1, 2], [2, 1]])
    def test_json_repeated_key_rejected(self, again):
        # two entries for one key are refused, not summed
        doc = {"boundary_count": 2,
               "coords": [[[1, 2], [[0, 1]]], [again, [[0, 2]]]]}
        with pytest.raises(ValueError, match="given twice"):
            ClassVector.from_json(doc)

    @pytest.mark.parametrize("doc, fault", [
        ({}, "exactly the keys"),
        ({"boundary_count": 2}, "exactly the keys"),
        ({"boundary_count": 2, "coords": [], "extra": 1}, "exactly the keys"),
        ([], "exactly the keys"),
        ({"boundary_count": 2, "coords": 5}, "coords 5 is not a list"),
        ({"boundary_count": 2, "coords": [[[1, 2]]]},
         r"entry \[\[1, 2\]\] is not \[key, polynomial\]"),
        ({"boundary_count": 2, "coords": [5]}, "entry 5 is not"),
        ({"boundary_count": 2, "coords": [[5, [[0, 1]]]]},
         "key 5 is not a set"),
        ({"boundary_count": 2, "coords": [[[1, 2], 5]]},
         "polynomial 5 is not a list"),
        ({"boundary_count": 2, "coords": [[[1, 2], [[0]]]]},
         r"term \[0\] is not \[exponent, coefficient\]"),
    ])
    def test_json_malformed_document_rejected(self, doc, fault):
        # each fault is named, not left to a KeyError, TypeError or an
        # unpacking error
        with pytest.raises(ValueError, match=fault):
            ClassVector.from_json(doc)

    def test_json_non_integer_point_rejected(self):
        doc = {"boundary_count": 2, "coords": [[[1.0, 2], [[0, 1]]]]}
        with pytest.raises(ValueError, match=r"boundary points in 1\.\.2"):
            ClassVector.from_json(doc)

    def test_algebra(self):
        a = ClassVector(2, {(1, 2): ONE})
        b = ClassVector(2, {(1, 2): -ONE, (): ONE})
        assert (a + b)[(1, 2)] == ZERO
        assert (a - a).is_zero()
        assert a.scale(LaurentPoly.q_power(2))[(1, 2)] == LaurentPoly.q_power(2)

"""Expansion tables, both evaluators, and the move identities."""

import ast
import importlib.util
import inspect
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

import tanglex
from tanglex import (checks, cli, diagram, invariant, laurent, oracle,
                     statesum, tangle)
from tanglex.laurent import LaurentPoly, ONE
from tanglex.diagram import (DiagramVector, FlatDiagram, canonical_rep,
                             coordinates, inner_product)
from tanglex.invariant import alexander_polynomial
from tanglex.oracle import alexander_via_burau, closure_components
from tanglex.tangle import (EndpointCountError, braid_to_tangle, parse,
                            random_word)
from tanglex.statesum import (base_tables, delta_from_class, evaluate_dp,
                              evaluate_naive, expand_states)

Q = LaurentPoly.q_power(1)
QI = LaurentPoly.q_power(-1)
Z = Q - QI

# every slice type's table key: (sign, rot) for the crossings, CUP and CAP
TABLE_KEYS = tuple(base_tables().five) + (tangle.CUP, tangle.CAP)


def kernel_tables():
    """Every cached dp table, forward and transposed, by (key, back)."""
    return {(key, back): statesum._kernel_table(key, back)
            for key in TABLE_KEYS for back in (False, True)}


def fd(n, chords=(), ticks=()):
    return FlatDiagram.make(n, chords, ticks)


def term_vector(terms):
    """A table (terms on corners 0..3) as a vector on boundary points 1..4."""
    v = DiagramVector(4)
    for t in terms:
        d = fd(4, [(a + 1, b + 1, dot) for a, b, dot in t.chords],
               [c + 1 for c in t.ticks])
        for dd, s in d.expand_dots().terms():
            v.add_term(dd, t.coeff * s)
    return v


class TestTables:
    def test_sizes(self):
        t = base_tables()
        for key in t.seven:
            assert len(t.seven[key]) == 7
            assert len(t.five[key]) == 5
        assert len(t.seven) == len(t.five) == 8

    def test_monomial_coefficients_in_seven(self):
        t = base_tables()
        for terms in t.seven.values():
            for term in terms:
                assert len(term.coeff.terms()) == 1
                assert abs(term.coeff.coeff(term.coeff.min_exp())) == 1

    def test_difference_is_smoothing(self):
        t = base_tables()
        for rot in range(4):
            diff = term_vector(t.seven[(1, rot)]) - term_vector(t.seven[(-1, rot)])
            sm = t.smoothing(rot)
            want = term_vector([sm]).scale(Z)
            assert diff == want, rot

    def test_dotted_tables_expand_to_undotted(self):
        t = base_tables()
        for sign in (1, -1):
            for rot in range(4):
                assert term_vector(t.five[(sign, rot)]) == \
                    term_vector(t.seven[(sign, rot)]), (sign, rot)

    def test_anchor_leading_terms(self):
        t = base_tables()
        pos, neg = t.seven[(1, 0)], t.seven[(-1, 0)]
        assert pos[0].coeff == Q and neg[0].coeff == QI
        assert pos[0].chords == neg[0].chords  # the two-cups smoothing


@st.composite
def morse_words(draw, max_bottom=3, max_width=7, max_crossings=6,
                min_bottom=0, open_top=False):
    """Valid oriented words with at most max_crossings crossings and every
    cut no wider than max_width, closed down by caps where the strand
    directions allow.  With ``open_top``, whether to close down is drawn, so
    a top may keep two adjacent antiparallel points."""
    bottom = draw(st.integers(min_bottom, max_bottom))
    dirs = draw(st.lists(st.sampled_from((1, -1)), min_size=bottom,
                         max_size=bottom))
    name = {1: "up", -1: "down"}
    parts = [" ".join(["bottom", str(bottom)] + [name[d] for d in dirs])]
    budget = draw(st.integers(0, max_crossings))
    for _ in range(draw(st.integers(budget, budget + 6))):
        w = len(dirs)
        caps = [p for p in range(1, w) if dirs[p - 1] == -dirs[p]]
        kinds = ((["x+", "x-"] if budget and w >= 2 else [])
                 + (["cup"] if w + 2 <= max_width else [])
                 + (["cap"] if caps else []))
        if not kinds:
            break
        kind = draw(st.sampled_from(kinds))
        if kind == "cup":
            p, cw = draw(st.integers(1, w + 1)), draw(st.booleans())
            parts.append(f"cup {p} {'cw' if cw else 'ccw'}")
            dirs[p - 1:p - 1] = [1, -1] if cw else [-1, 1]
        elif kind == "cap":
            p = draw(st.sampled_from(caps))
            parts.append(f"cap {p}")
            del dirs[p - 1:p + 1]
        else:
            p = draw(st.integers(1, w - 1))
            parts.append(f"{kind} {p}")
            dirs[p - 1], dirs[p] = dirs[p], dirs[p - 1]
            budget -= 1
    if open_top and not draw(st.booleans(), label="close down"):
        return parse("; ".join(parts) + ";")
    while caps := [p for p in range(1, len(dirs)) if dirs[p - 1] == -dirs[p]]:
        p = draw(st.sampled_from(caps))
        parts.append(f"cap {p}")
        del dirs[p - 1:p + 1]
    return parse("; ".join(parts) + ";")


class TestNaive:
    def test_single_positive_crossing_is_the_table(self):
        v, count = expand_states(parse("bottom 2 up up; x+ 1;"))
        assert count == 7
        assert len(v) == 6
        assert v[fd(4, [(1, 4), (2, 3)])] == Q
        assert v[fd(4, [(2, 4)], [1, 3])] == Q
        assert v[fd(4, [(2, 3)], [1, 4])] == -Q
        assert v[fd(4, [(1, 3)], [2, 4])] == QI
        assert v[fd(4, [(1, 4)], [2, 3])] == -QI
        assert v[fd(4, [], [1, 2, 3, 4])] == -Q - QI

    def test_straight_strand(self):
        v = evaluate_naive(parse("bottom 1 up;"))
        assert v == DiagramVector.single(fd(2, [(1, 2)]))

    def test_state_counts_are_powers(self):
        rng = random.Random(1)
        for _ in range(10):
            w = random_word(rng, max_crossings=4, bottom=1)
            _, count = expand_states(w)
            assert count == 7 ** w.crossing_count()

    # dp == naive compares quotient coordinates only; the skein relation
    # compares three naive diagram vectors, so a lost or misjoined term of
    # one shows here
    @settings(max_examples=100, deadline=None)
    @given(morse_words(), st.data())
    def test_skein_at_a_crossing_of_generated_words(self, w, data):
        assume(w.crossing_count())
        checks.skein_at(w, data.draw(
            st.integers(0, w.crossing_count() - 1), label="crossing"))

    # the 7-term tables, the cup's term and the bottom strands are undotted,
    # so no naive picture is dotted, also with antiparallel points at the top
    @settings(max_examples=100, deadline=None)
    @given(morse_words(open_top=True))
    def test_naive_vector_has_no_dotted_chord(self, w):
        v = evaluate_naive(w)
        assert not any(dot for d, _ in v.terms() for *_, dot in d.chords), \
            str(w)

    def test_split_circle_kills_everything(self):
        # a crossingless circle beside a strand is an undotted loop
        v = evaluate_naive(parse("bottom 1 up; cup 2 ccw; cap 2;"))
        assert v.is_zero()


class TestDp:
    def test_straight_strand(self):
        cv = evaluate_dp(parse("bottom 1 up;"))
        assert cv[(1, 2)] == ONE and cv[()] == ONE and len(cv) == 2

    def test_empty_tangle(self):
        cv = evaluate_dp(parse("bottom 0;"))
        assert cv[()] == ONE and len(cv) == 1

    def test_single_crossing_coordinates(self):
        cv = evaluate_dp(parse("bottom 2 up up; x+ 1;"))
        assert cv[(1, 2, 3, 4)] == Q
        assert cv[(1, 4)] == Z
        assert cv[(2, 4)] == Q
        assert cv[(1, 3)] == QI
        assert cv[()] == -QI
        assert len(cv) == 5

    def test_two_parallel_strands(self):
        cv = evaluate_dp(parse("bottom 2 up up;"))
        assert len(cv) == 4
        for s in ((), (1, 4), (2, 3), (1, 2, 3, 4)):
            assert cv[s] == ONE


class TestKernel:
    def test_local_states_are_canonical_reps(self):
        for loc, subset in enumerate([(), (1, 2), (1, 3), (2, 3)]):
            ends, done = statesum._LOCAL_STATES[loc]
            rep = statesum._finalize(ends, done, 1)
            assert rep == canonical_rep(subset, 3)

    def test_tables_are_not_derived_at_import(self):
        # a strand with no slice reads no table; one crossing reads the
        # forward tables of its three steps and the transposes of the two
        # above the split
        code = ("import tanglex\n"
                "from tanglex import statesum\n"
                "info = statesum._kernel_table.cache_info\n"
                "print(info().currsize)\n"
                "statesum.evaluate_dp(tanglex.parse('bottom 1 up;'))\n"
                "print(info().currsize)\n"
                "statesum.evaluate_dp(tanglex.parse(\n"
                "    'bottom 1 up; cup 2 cw; x+ 1; cap 2;'))\n"
                "print(info().currsize)\n")
        src = os.path.dirname(os.path.dirname(tanglex.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0", "0", "5"]

    def test_dp_derives_only_the_tables_it_reads(self):
        # a braid closure reads no rot 1 or 3 crossing, and the transposes
        # only of the steps above the split: here the crossings and the caps
        w = braid_to_tangle((1, -2, 1, -2), 3)
        statesum._kernel_table.cache_clear()
        try:
            with mock.patch.object(statesum, "_kernel_table",
                                   wraps=statesum._kernel_table) as read:
                evaluate_dp(w)
            derived = {call.args for call in read.call_args_list}
            assert derived == {((1, 0), False), ((-1, 0), False),
                               (tangle.CUP, False), (tangle.CAP, False),
                               ((1, 0), True), ((-1, 0), True),
                               (tangle.CAP, True)}
            assert statesum._kernel_table.cache_info().currsize == 7
            assert all(len(call.args) == 2 and not call.kwargs
                       for call in read.call_args_list)
        finally:
            statesum._kernel_table.cache_clear()
        # all ten slice types derive both ways, 20 entries in all
        assert len(kernel_tables()) == 20
        assert statesum._kernel_table.cache_info().currsize == 20

    def test_dp_never_derives_the_naive_plans(self):
        code = ("import tanglex\n"
                "from tanglex import statesum\n"
                "plans = statesum._naive_plans.cache_info\n"
                "print(plans().currsize)\n"
                "w = tanglex.braid_to_tangle([1, 1, 1], 2)\n"
                "statesum.evaluate_dp(w)\n"
                "tanglex.alexander_polynomial(w)\n"
                "print(plans().currsize)\n"
                "statesum.expand_states(w)\n"
                "print(plans().currsize)\n")
        src = os.path.dirname(os.path.dirname(tanglex.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["0", "0", "1"]

    # bottoms of 2 and more put spectator bits on both sides of a pair, so
    # the sign twist is exercised
    @settings(max_examples=150, deadline=None)
    @given(morse_words(open_top=True))
    def test_dp_matches_naive(self, w):
        assert evaluate_dp(w) == coordinates(evaluate_naive(w)), str(w)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_dp_alexander_matches_burau(self, data):
        # any closure: knots, links and split links
        n = data.draw(st.integers(1, 6), label="strands")
        gens = [g for i in range(1, n) for g in (i, -i)]
        word = data.draw(st.lists(st.sampled_from(gens), max_size=16)
                         if gens else st.just([]), label="braid")
        res = alexander_polynomial(braid_to_tangle(word, n))
        assert res.alexander == alexander_via_burau(word, n), (word, n)


class TestApplyPiece:
    """The per-cut rewrite of a slice, on the cases it handles specially."""

    CAP = statesum._CAP_TERM[0]
    # a cap-cup picture on a crossing's corners: chord (0, 1) below, (2, 3)
    # above
    CAP_CUP = statesum._term(ONE, [(0, 1, False), (2, 3, False)], [])
    ALL_TICKS = statesum._term(ONE, [], [0, 1, 2, 3])

    @staticmethod
    def apply(ends, term, where=0, consumed=True, produced=True,
              done=frozenset()):
        """One term applied to one state, read as (factor, ends', done'),
        or None when the term is killed; a negated coefficient is the
        factor -1."""
        outcomes, killed = statesum._apply_terms(tuple(ends), where, (term,),
                                                 consumed, produced)
        if killed:
            assert killed == 1 and not outcomes
            return None
        ((e2, added), (coeff, n)), = outcomes.items()
        assert n == 1 and coeff in (term.coeff, -term.coeff)
        return 1 if coeff == term.coeff else -1, e2, done | added

    @pytest.mark.parametrize("dot", [True, False])
    def test_one_strand_closed_by_a_cap(self, dot):
        # cut positions 0 and 1 are the two ends of one strand, beside a
        # strand from bottom point 1 to position 2
        ends = [("c", 1, dot), ("c", 0, dot), ("b", 1, False)]
        res = self.apply(ends, self.CAP, produced=False)
        if dot:
            assert res == (-1, (("b", 1, False),), frozenset())
        else:
            assert res is None

    @pytest.mark.parametrize("dot", [True, False])
    def test_one_strand_closed_at_a_crossing(self, dot):
        ends = [("b", 1, False), ("c", 2, dot), ("c", 1, dot)]
        res = self.apply(ends, self.CAP_CUP, where=1)
        if dot:
            assert res == (-1, (("b", 1, False), ("c", 2, False),
                                ("c", 1, False)), frozenset())
        else:
            assert res is None

    def test_dotted_chord_closes_an_undotted_strand(self):
        term = statesum._term(ONE, [(0, 1, True), (2, 3, False)], [])
        res = self.apply([("c", 1, False), ("c", 0, False)], term)
        assert res == (-1, (("c", 1, False), ("c", 0, False)), frozenset())

    def test_one_strand_becomes_a_path(self):
        # the strand's two term chords join it to the two new ports; the
        # dot of the strand stays on the path
        term = statesum._term(ONE, [(0, 2, False), (1, 3, False)], [])
        res = self.apply([("c", 1, True), ("c", 0, True)], term)
        assert res == (1, (("c", 1, True), ("c", 0, True)), frozenset())
        # ticked at both corners it is a path between two interior
        # vertices: deleted when undotted, killed when dotted
        res = self.apply([("c", 1, False), ("c", 0, False)], self.ALL_TICKS)
        assert res == (1, (("t", None, False), ("t", None, False)),
                       frozenset())
        assert self.apply([("c", 1, True), ("c", 0, True)],
                          self.ALL_TICKS) is None

    def test_dotted_strand_ending_at_a_tick_is_killed(self):
        # a dotted strand from bottom point 1 ticked at corner 0
        assert self.apply([("b", 1, True), ("b", 2, False)],
                          self.ALL_TICKS) is None
        # undotted, the ticks land on the bottom points
        res = self.apply([("b", 1, False), ("b", 2, False)], self.ALL_TICKS)
        assert res == (1, (("t", None, False), ("t", None, False)),
                       frozenset({("tick", 1), ("tick", 2)}))
        # a dotted term chord from a new port to an interior vertex
        term = statesum._term(ONE, [(0, 3, True)], [1, 2])
        assert self.apply([("t", None, False), ("b", 1, False)],
                          term) is None

    def test_cup_shifts_partners_from_where_by_two(self):
        # positions 0 and 2 are joined; position 1 runs to bottom point 1
        ends = [("c", 2, False), ("b", 1, False), ("c", 0, False)]
        cup = statesum._CUP_TERM_PLAIN[0]
        res = self.apply(ends, cup, where=2, consumed=False)
        assert res == (1, (("c", 4, False), ("b", 1, False),
                           ("c", 3, False), ("c", 2, False),
                           ("c", 0, False)), frozenset())
        res = self.apply(ends, cup, where=0, consumed=False)
        assert res == (1, (("c", 1, False), ("c", 0, False),
                           ("c", 4, False), ("b", 1, False),
                           ("c", 2, False)), frozenset())

    def test_cap_joins_two_strands(self):
        ends = [("b", 1, False), ("c", 3, True), ("b", 2, False),
                ("c", 1, True)]
        res = self.apply(ends, self.CAP, where=1, produced=False)
        assert res == (1, (("b", 1, False), ("b", 2, True)), frozenset())
        res = self.apply(ends, self.CAP, where=0, produced=False)
        assert res == (1, (("b", 2, False), ("b", 1, True)), frozenset())
        res = self.apply([("b", 1, True), ("b", 2, False)], self.CAP,
                         produced=False, done=frozenset({("tick", 3)}))
        assert res == (1, (), frozenset({("tick", 3),
                                         ("chord", 1, 2, True)}))

    def test_inconsistent_state_raises(self):
        # position 2 names position 0 as its partner, which runs to bottom
        # point 1 instead: the cap leaves it pointing into the gap
        ends = [("b", 1, False), ("b", 2, False), ("c", 0, False)]
        with pytest.raises(tanglex.ConsistencyError):
            self.apply(ends, self.CAP, produced=False)

    def test_duplicate_pictures_are_one_outcome(self):
        # the 7-term table's two all-tick pictures, -q and -q^-1, on two
        # strands from the bottom points: one outcome, two terms
        ends = (("b", 1, False), ("b", 2, False))
        outcomes, killed = statesum._apply_terms(
            ends, 0, base_tables().seven[(1, 0)], True, True)
        assert killed == 0 and len(outcomes) == 6
        key = ((statesum._INTERIOR,) * 2,
               frozenset({("tick", 1), ("tick", 2)}))
        assert outcomes[key] == [-Q - QI, 2]
        assert sum(n for _, n in outcomes.values()) == 7
        outcomes, killed = statesum._apply_terms(
            ends, 0, base_tables().five[(1, 0)], True, True)
        assert killed == 0 and len(outcomes) == 5

    @pytest.mark.parametrize("rot", range(4))
    def test_killed_terms_forward_no_raw_count(self, rot):
        # one undotted strand closed at a crossing: each term with the
        # chord (0, 1), two of them for rot 1 and 3, closes it into an
        # undotted loop and is killed; the others forward one count each
        terms = base_tables().seven[(1, rot)]
        outcomes, killed = statesum._apply_terms(
            (("c", 1, False), ("c", 0, False)), 0, terms, True, True)
        assert killed == sum((0, 1, False) in t.chords for t in terms)
        assert killed == (2 if rot % 2 else 0)
        assert sum(n for _, n in outcomes.values()) == 7 - killed

    def test_cancelled_cut_forwards_its_raw_count(self):
        # seven terms of one picture whose coefficients sum to zero
        coeffs = (Q, Q, Q, Q, -Q, -Q, -Q - Q)
        terms = tuple(statesum._term(c, [(0, 3, False), (1, 2, False)], [])
                      for c in coeffs)
        ends = (("b", 1, False), ("b", 2, False))
        outcomes, killed = statesum._apply_terms(ends, 0, terms, True, True)
        assert killed == 0
        assert list(outcomes.values()) == [[LaurentPoly.zero(), 7]]
        # a word expanded by it keeps no cut after the first slice: the dead
        # cut is rewritten once, to no picture, and not again, and its raw
        # count is still counted
        tables = statesum.ExpansionTable()
        tables.seven = {(s, r): terms for s in (1, -1) for r in range(4)}
        w = parse("bottom 2 up up; x+ 1; x+ 1;")
        with mock.patch.object(statesum, "base_tables", lambda: tables):
            statesum._naive_plans(tables)   # derived outside the count
            with mock.patch.object(statesum, "_rewrite",
                                   wraps=statesum._rewrite) as rewrite:
                v, count = expand_states(w)
        assert v.is_zero() and count == 49
        (call,) = rewrite.call_args_list
        assert call.args[:2] == ((-1, -2), 0)           # the int cut of ends
        assert call.args[2].pictures == () and call.args[2].zero == 7

    @pytest.mark.parametrize("text, raw", [
        # at the cap a state of the cut (-3,) cancels and another stays
        ("bottom 3 down up down; x- 1; cap 1;", 7),
        # at the second crossing the only state of the cut (interior,
        # interior) cancels, and later states of the slice fill it again
        ("bottom 2 down up; x+ 1; x+ 1; cap 1;", 49),
    ])
    def test_only_cuts_left_empty_after_the_slice_are_retired(self, text,
                                                               raw):
        w = parse(text)
        v, count = expand_states(w)
        assert count == raw
        assert not v.is_zero()
        assert coordinates(v) == evaluate_dp(w)

    def test_retired_cut_is_not_rewritten_again(self):
        # the only state of the cut (-1, interior) cancels at the first cap,
        # so the cut is retired there and the second cap does not rewrite it
        w = parse("bottom 2 up down; cup 3 cw; x+ 2; cap 2; cap 1;")
        statesum._naive_plans(base_tables())   # derived outside the count
        with mock.patch.object(statesum, "_rewrite",
                               wraps=statesum._rewrite) as rewrite:
            v, count = expand_states(w)
        assert count == 7
        assert len(rewrite.call_args_list) == 9
        assert coordinates(v) == evaluate_dp(w)


class TestPlans:
    """Each (table, view) plan's edits, applied to concrete int cuts of its
    view, give what every term of the table gives on the dotted form."""

    # layouts of a cut, left to right: "A" and "B" are the consumed corners
    # (the two ends of one strand on a loop view), "a" and "b" their partners
    # when their ends are cut positions; another letter is a spectator strand
    # between its two positions, "|" a spectator strand from a bottom point
    # and "T" an interior end
    CONSUMED = (
        "ABba",            # partners right of the pair
        "baAB",            # partners left of it
        "aABb",            # across it
        "|saABbs|",        # inside a strand across the piece
        "ABbuvvua",        # partners around strands the cap shifts
        "TbaABvv|",
    )
    LOOPS = ("AB", "AB|", "|sABvvs", "TABss")
    CUPS = ("", "|", "|svvsT", "svvs|")

    @staticmethod
    def build(layout, view):
        """(ends, where): the int cut of ``layout`` whose corners have
        ``view``, and the position of "A"; bottom points are numbered left
        to right."""
        strands, where = [], None          # the strand at each position
        for ch in layout:
            if ch == "A":
                where = len(strands)
            if ch in "AB" and view == "loop":
                strands.append("L")
            elif ch in "AB":
                kind = view[0] if ch == "A" else view[1]
                strands.append({"t": "T", "b": "|"}.get(kind, ch))
            elif ch in "ab":
                if (view[0] if ch == "a" else view[1]) == "c":
                    strands.append(ch.upper())
            else:
                strands.append(ch)
        ends, bottom = [], 0
        for p, strand in enumerate(strands):
            if strand == "T":
                ends.append(statesum._INTERIOR_END)
            elif strand == "|":
                bottom += 1
                ends.append(-bottom)
            else:
                (other,) = [q for q, s in enumerate(strands)
                            if s == strand and q != p]
                ends.append(other)
        return tuple(ends), where

    @classmethod
    def cuts(cls, view):
        """(ends, where) realizing ``view``: for a crossing or a cap, the
        consumed corners' ends as bottom points and as cut partners left of,
        right of and across the pair, beside spectator strands; for a cup,
        every position of spectator cuts."""
        if view is None:
            return [(cls.build(layout, view)[0], where) for layout in cls.CUPS
                    for where in range(len(layout) + 1)]
        return [cls.build(layout, view) for layout in
                (cls.LOOPS if view == "loop" else cls.CONSUMED)]

    @staticmethod
    def slices():
        """(plan key, terms, consumed, produced) for every table."""
        return ([(key, terms, True, True)
                 for key, terms in base_tables().seven.items()]
                + [(tangle.CUP, statesum._CUP_TERM_PLAIN, False, True),
                   (tangle.CAP, statesum._CAP_TERM, True, False)])

    def test_plans_match_every_term(self):
        plans, coeffs = statesum._naive_plans(base_tables())
        for key, terms, consumed, produced in self.slices():
            assert set(plans[key]) == set(statesum._VIEWS if consumed
                                          else (None,)), key
            shift = Q if consumed and produced else ONE
            for view, plan in plans[key].items():
                for pic in plan.pictures:
                    assert coeffs[pic.slot] == pic.coeff * shift, (key, view)
                    # (target mark, source mark): a target is a pair
                    # position or a consumed end's partner position
                    assert all(i in (0, 1) or view[i - 2] == "c"
                               for i, _ in pic.writes), (key, view)
                for ends, where in self.cuts(view):
                    case = (key, ends, where)
                    assert statesum._view(ends, where, consumed) == view, case
                    full, killed = statesum._apply_terms(
                        statesum._dotted_cut(ends), where, terms, consumed,
                        produced)
                    got = statesum._rewrite(ends, where, plan, consumed,
                                            produced)
                    # distinct edits stay distinct pictures on every cut
                    assert len({(e2, added) for e2, added, _, _ in got}) \
                        == len(got) == len(plan.pictures), case
                    assert [slot for *_, slot in got] \
                        == [pic.slot for pic in plan.pictures], case
                    assert {(statesum._dotted_cut(e2), added): [pic.coeff, n]
                            for (e2, added, n, _), pic
                            in zip(got, plan.pictures)} \
                        == {k: v for k, v in full.items() if v[0]}, case
                    assert plan.killed == killed, case
                    assert plan.zero == sum(n for c, n in full.values()
                                            if not c), case
                    assert sum(n for _, _, n, _ in got) + killed + plan.zero \
                        == len(terms), case
        # one table set: the eight 7-term crossing tables and the cap on
        # each of the 10 views, the cup on its one
        assert len(statesum._VIEWS) == 10
        assert len(plans) == len(self.slices()) == 10
        assert sum(len(by_view) for by_view in plans.values()) == 91

    def test_plans_merge_terms(self):
        # on two strands from bottom points the 7-term table's two all-tick
        # pictures are one; with both ends interior, all seven terms are one
        # picture
        plans = statesum._naive_plans(base_tables())[0][(1, 0)]
        plan = plans[("b", "b")]
        assert (len(plan.pictures), plan.killed, plan.zero) == (6, 0, 0)
        assert [pic.n for pic in plan.pictures] == [1, 1, 1, 2, 1, 1]
        assert plan.pictures[3].coeff == -Q - QI
        (pic,) = plans[("t", "t")].pictures
        assert pic.n == 7 and pic.coeff == -QI

    def test_cap_plans_write_targets_from_sources(self):
        # (target mark, source mark): a cap joining corner 0's partner
        # (mark 2) to corner 1's bottom point (mark 3) writes the bottom
        # point at the partner, and joining two partners writes each at the
        # other
        plans = statesum._naive_plans(base_tables())[0][tangle.CAP]
        assert plans[("c", "b")].pictures[0].writes == ((2, 3),)
        assert plans[("c", "c")].pictures[0].writes == ((2, 3), (3, 2))
        # positions 0 and 3 are joined, and so are 1 and 2: a cap at 0
        # writes 2 at position 3 and 3 at position 2, and closing its gap
        # leaves one strand between positions 0 and 1
        (pic,) = statesum._rewrite((3, 2, 1, 0), 0, plans[("c", "c")], True,
                                   False)
        assert pic[0] == (1, 0)

    def test_expansion_applies_no_terms_once_planned(self):
        # cups, caps and crossings of all four rotations
        w = parse("bottom 3 up down down; x+ 2; cup 1 cw; x- 3; x- 2; x+ 1; "
                  "x- 3; x- 3; cap 3; x+ 1;")
        want = expand_states(w)
        with mock.patch.object(statesum, "_apply_terms",
                               wraps=statesum._apply_terms) as apply:
            got = expand_states(w)
        assert apply.call_count == 0
        assert got == want


class TestNaivePacking:
    """The naive carries each state's coefficient as one int, the value of
    q^t * coeff at q = 2^B (see the statesum module docstring)."""

    NINE = ("bottom 2 up up; x+ 1; x+ 1; cup 2 ccw; x- 3; x+ 1; x- 2; x+ 2; "
            "x- 2; x+ 1; cup 4 cw; x+ 1; cap 1; cap 3; cup 3 ccw; cap 3;")

    def test_expansion_multiplies_no_polynomials(self):
        w = parse(self.NINE)
        want = expand_states(w)            # the plans derived outside
        calls = []
        mul = LaurentPoly.__mul__

        def counting(a, b):
            calls.append(b)
            return mul(a, b)

        with mock.patch.object(LaurentPoly, "__mul__", counting), \
                mock.patch.object(LaurentPoly, "__rmul__", counting):
            got = expand_states(w)
        assert w.crossing_count() == 9 and got[1] == 7 ** 9
        assert calls == [] and got == want

    @staticmethod
    def long_narrow_words():
        """40 seeded words with 16-24 crossings and cuts at most 4 wide: the
        digit width reaches 69 bits and the offset -24."""
        rng = random.Random(4040)
        words = []
        while len(words) < 40:
            w = random_word(rng, bottom=rng.randrange(3), max_width=4,
                            max_crossings=32)
            if 16 <= w.crossing_count() <= 24:
                words.append(w)
        return words

    def test_dp_matches_naive_on_long_narrow_words(self):
        words = self.long_narrow_words()
        assert max(w.crossing_count() for w in words) == 24
        assert statesum._naive_width(24) == 69
        for w in words:
            assert evaluate_dp(w) == coordinates(evaluate_naive(w)), str(w)

    def test_too_narrow_digits_are_caught(self):
        # a naive coefficient of 5 does not fit 3-bit digits
        w = parse("bottom 3 down down down; x- 1; x+ 2; x- 1; x- 1; x+ 2;")
        with mock.patch.object(statesum, "_naive_width", lambda c: 3):
            with pytest.raises((tanglex.ConsistencyError,
                                invariant.EvaluatorMismatchError)):
                invariant.tangle_invariant(w, "both")

    def test_too_narrow_digits_are_caught_by_the_naive_alone(self):
        # the coefficient of 5 overflows a 3-bit digit and carries 1 into
        # the odd digit above it; the L1 guard let this through
        w = parse("bottom 3 down down down; x- 1; x+ 2; x- 1; x- 1; x+ 2;")
        expand_states(w)
        with mock.patch.object(statesum, "_naive_width", lambda c: 3):
            with pytest.raises(tanglex.ConsistencyError, match="exponent"):
                expand_states(w)

    def test_decode_refuses_digits_off_the_even_exponents(self):
        # two crossings: q^2 * coeff has digits at offsets 0, 2 and 4 only
        assert (statesum._naive_decode(1 + (3 << 8) - (1 << 16), 4, -2)
                == LaurentPoly({-2: 1, 0: 3, 2: -1}))
        for v in (1 << 4, 1 << 12, -(1 << 4), 1 << 24):
            with pytest.raises(tanglex.ConsistencyError, match="exponent"):
                statesum._naive_decode(v, 4, -2)

    def test_l1_guard(self):
        # at 2-bit digits this word's last cut decodes to states of L1
        # norm 5, more than its 4 raw states can give; every overflow also
        # carries into an odd digit, which _naive_decode refuses first
        w = parse("bottom 3 up up up; x+ 1; x- 2; x+ 1; cup 3 ccw; cap 2;")
        expand_states(w)
        with mock.patch.object(statesum, "_naive_width", lambda c: 2):
            with pytest.raises(tanglex.ConsistencyError, match="exponent"):
                expand_states(w)
        # every packed picture coefficient doubled keeps each digit on its
        # exponent, so only the L1 guard sees it: the final cut's states
        # have L1 norm 2^5 times their true norm
        value = statesum._naive_value
        with mock.patch.object(statesum, "_naive_value",
                               lambda c, width: 2 * value(c, width)):
            with pytest.raises(tanglex.ConsistencyError, match="L1 norm"):
                expand_states(w)


def reference_coordinates(v):
    """c_S = (-1)^(|S|/2) <v, canonical_rep(S)> over every even subset."""
    n = v.boundary_count
    out = tanglex.ClassVector(n)
    for s in diagram.even_subsets(n):
        rep = canonical_rep(s, n)
        total = inner_product(v, DiagramVector.single(rep))
        out.add(s, total if len(s) % 4 == 0 else -total)
    return out


@st.composite
def diagram_vectors(draw, max_n=8, max_terms=5):
    """Sums of diagrams on n <= max_n points with dotted chords, undotted
    chords and ticks, and small Laurent coefficients."""
    n = draw(st.integers(0, max_n))
    basis = diagram.enumerate_basis(n)
    v = DiagramVector(n)
    for _ in range(draw(st.integers(1, max_terms))):
        d = draw(st.sampled_from(basis))
        dots = draw(st.lists(st.booleans(), min_size=len(d.chords),
                             max_size=len(d.chords)))
        d = fd(n, [(i, j, dot) for (i, j, _), dot
                   in zip(sorted(d.chords), dots)], d.ticks)
        coeff = LaurentPoly({draw(st.integers(-2, 2)):
                             draw(st.sampled_from((-2, -1, 1, 3)))})
        v.add_term(d, coeff)
    return v


class TestSparseCoordinates:
    """coordinates pairs each term only with the subsets it can pair to
    nonzero; the exhaustive pairing over all even subsets must agree."""

    @settings(max_examples=120, deadline=None)
    @given(diagram_vectors())
    def test_generated_vectors(self, v):
        assert coordinates(v) == reference_coordinates(v), repr(v)

    @settings(max_examples=80, deadline=None)
    @given(morse_words(max_bottom=2, max_width=6, max_crossings=5))
    def test_naive_expansions(self, w):
        v = expand_states(w)[0]
        assert coordinates(v) == reference_coordinates(v), str(w)


class TestMoveInvariance:
    """tangle_invariant is a regular-isotopy invariant: R2 and R3 moves
    leave the class vector unchanged, on both evaluators."""

    @staticmethod
    def assert_unchanged(w, move):
        assert move in tangle.move_sites(w), (str(w), move)
        moved = tangle.apply_move(w, move)
        assert (tanglex.tangle_invariant(moved, "both")
                == tanglex.tangle_invariant(w, "both")), (str(w), move)

    # bottoms of 2 and more give R2 sites at every level and spectators on
    # both sides of the moved crossings
    @settings(max_examples=100, deadline=None)
    @given(morse_words(min_bottom=2, max_width=6, max_crossings=5),
           st.data())
    def test_r2(self, w, data):
        sites = [m for m in tangle.move_sites(w)
                 if isinstance(m, tangle.R2Move)]
        self.assert_unchanged(w, data.draw(st.sampled_from(sites),
                                           label="move"))

    # R3 sites are rare in random words, so one is put in: three crossings
    # on strands x, x+1, x+2 whose outer strands point the same way, which
    # leaves the direction of every strand above them as it was
    @settings(max_examples=60, deadline=None)
    @given(morse_words(min_bottom=3, max_width=6, max_crossings=3),
           st.data())
    def test_r3(self, w, data):
        an = tangle.analyze(w)
        spots = [(t, x) for t, dirs in enumerate(an.levels)
                 for x in range(len(dirs) - 2) if dirs[x] == dirs[x + 2]]
        assume(spots)
        t, x = data.draw(st.sampled_from(spots), label="spot")
        kinds = data.draw(st.sampled_from(sorted(tangle.VALID_R3_TRIPLES)),
                          label="kinds")
        outer, middle = data.draw(st.sampled_from(
            ((x + 1, x + 2), (x + 2, x + 1))), label="positions")
        triple = [tangle.Slice(k, p)
                  for k, p in zip(kinds, (outer, middle, outer))]
        w3 = tangle.MorseWord(w.bottom_count,
                              w.slices[:t] + tuple(triple) + w.slices[t:],
                              w.bottom_orientations)
        self.assert_unchanged(w3, tangle.R3Move(t))


class TestPacking:
    """The dp evaluates every coefficient at q^2 = 2^B as one int."""

    def test_table_bounds(self):
        for key in TABLE_KEYS:
            table = statesum._kernel_table(key, False)
            if key in (tangle.CUP, tangle.CAP):
                assert table.shift == 0, key
            else:
                assert table.shift == 1 and table.norm == 3, key
        assert statesum._kernel_table(tangle.CUP, False).norm == 2
        assert statesum._kernel_table(tangle.CAP, False).norm == 1

    def test_every_shifted_exponent_is_even(self):
        # q^shift * c is a polynomial in q^2 for every entry c of all 10
        # tables and their transposes, so the kernel may pack at q^2
        tables = kernel_tables()
        assert len(tables) == 20
        for key, table in tables.items():
            for row in table.rows:
                for part in row:
                    for _, c in part:
                        assert all((e + table.shift) % 2 == 0
                                   for e, _ in c.terms()), (key, str(c))

    def test_table_bound_refuses_odd_shifted_exponent(self):
        part = ((0, ONE), (3, Q))
        with pytest.raises(tanglex.ConsistencyError):
            statesum._table_bound(((part, part),))

    def test_digit_width(self):
        # |coefficient| <= 2^k * prod(norms) = M < 2^(B-1)
        assert statesum._digit_width(0, []) == 2
        assert statesum._digit_width(1, [3, 3]) == 6     # M = 18
        assert statesum._digit_width(2, [2, 1, 2]) == 6  # M = 16

    def test_encode_decode_round_trip(self):
        # the kernel packs at q^2: every shifted exponent is even
        rng = random.Random(6)
        cases = []
        for _ in range(300):
            width = rng.randint(2, 70)
            top = (1 << (width - 1)) - 1
            pool = [top, -top, -top - 1, 1, -1,
                    rng.randint(-top - 1, top)]
            lo = rng.randint(-6, 6)
            # exponents left out of the dict are zero digits
            coeffs = {e: rng.choice(pool)
                      for e in range(lo, lo + 2 * rng.randint(0, 9), 2)
                      if rng.random() < 0.6}
            cases.append((LaurentPoly(coeffs), width))
        cases += [(LaurentPoly({3: -1}), 2),             # negative leading
                  (LaurentPoly({-2: -31, 4: 31}), 6),    # zero digits
                  (LaurentPoly({0: -32, 2: -32}), 6),    # lowest digit value
                  (LaurentPoly(), 5)]
        for p, width in cases:
            shift = (-p.min_exp() if p else 0) + 2 * rng.randint(0, 2)
            v = statesum._value(statesum._digits(p, shift), width)
            assert statesum._decode(v, width, -shift) == p, (p, shift, width)
        # every packed operand of every table, forward and transposed,
        # decodes to its row entry
        for key, table in kernel_tables().items():
            for width in (4, 38, 70):
                form, ops = statesum._pack(table, width)
                assert form is table.form
                if form is statesum.BLOCK:
                    d0, d3, lo, b, c, d = ops
                    hi = 3 - lo
                    packed = [(0, 0, d0), (3, 3, d3), (lo, hi, b),
                              (hi, lo, c), (hi, hi, d)]
                elif form is statesum.SCATTER:
                    packed = [(i, out, v) for i, row in enumerate(ops)
                              for out, v in row[0]]
                else:
                    assert ops == table.operands
                    continue
                for i, out, v in packed:
                    got = statesum._decode(v, width, -table.shift)
                    assert got == dict(table.rows[i][0])[out], (
                        key, i, out, width)

    def test_kernel_multiplies_no_polynomials(self):
        w = braid_to_tangle([1, -2, 1, -2, 3, 2, -3], 4)
        want = evaluate_dp(w)           # derives the kernel tables once

        def refuse(*args):
            raise AssertionError("LaurentPoly product in the dp kernel")

        with mock.patch.object(LaurentPoly, "__mul__", refuse), \
                mock.patch.object(LaurentPoly, "__rmul__", refuse):
            got = evaluate_dp(w)
        assert got == want

    @settings(max_examples=80, deadline=None)
    @given(morse_words())
    def test_wider_digits_change_nothing(self, w):
        # a digit width too small for some coefficient would show as a
        # difference against one 17 bits wider
        want = evaluate_dp(w)
        width = statesum._digit_width
        with mock.patch.object(statesum, "_digit_width",
                               lambda k, norms: width(k, norms) + 17):
            assert evaluate_dp(w) == want, str(w)

    def test_table_forms(self):
        # read off the rows: twist-free crossings (rot 0 and 2) are blocks,
        # the twisted rot 1 and 3 crossings are scattered
        tables = kernel_tables()
        for sign in (1, -1):
            for rot in range(4):
                want = statesum.BLOCK if rot in (0, 2) else statesum.SCATTER
                assert tables[(sign, rot), False].form == want, (sign, rot)
        assert tables[tangle.CUP, False].form == statesum.FAN_OUT
        assert tables[tangle.CAP, False].form == statesum.FAN_IN

    @staticmethod
    def patched(tables):
        """The dp reading ``tables``, by (key, back), for the cached ones."""
        return mock.patch.object(statesum, "_kernel_table",
                                 lambda key, back: tables[key, back])

    @staticmethod
    def edited(key, edit, tables=None):
        """The kernel tables with the rows of one table edited, its form
        read off the edited rows, and its transpose made from them."""
        tables = dict(tables or kernel_tables())
        consumed, produced = key != tangle.CUP, key != tangle.CAP
        rows = edit(tables[key, False].rows)
        tables[key, False] = statesum._make_table(rows, consumed, produced)
        tables[key, True] = statesum._make_table(
            statesum._transpose(rows, produced), produced, consumed)
        return tables

    @staticmethod
    def all_scattered(tables=None):
        return {key: table._replace(form=statesum.SCATTER,
                                    operands=statesum._operands(
                                        statesum.SCATTER, table.rows,
                                        table.shift))
                for key, table in (tables or kernel_tables()).items()}

    def test_crossing_out_of_shape_is_scattered(self):
        # a rot-0 table with an added 00 -> 11 entry q: on one crossing the
        # key 00 (coefficient 1) also reaches 11, adding q at S = {3, 4}
        w = parse("bottom 2 up up; x+ 1;")
        want = evaluate_dp(w) + diagram.ClassVector(4, {(3, 4): Q})
        tables = self.edited((1, 0), lambda rows: (
            tuple(part + ((3, Q),) for part in rows[0]),) + rows[1:])
        assert tables[(1, 0), False].form == statesum.SCATTER
        assert tables[(1, 0), True].form == statesum.SCATTER
        with self.patched(tables):
            assert evaluate_dp(w) == want

    @settings(max_examples=40, deadline=None)
    @given(morse_words())
    def test_negated_cup_and_cap_are_scattered(self, w):
        # negated cup and cap tables (00 entry -1) fit no form, and negate
        # the result once per cup and cap
        def negate(rows):
            return tuple(tuple(tuple((out, -c) for out, c in part)
                               for part in row) for row in rows)

        tables = self.edited(tangle.CAP, negate,
                             self.edited(tangle.CUP, negate))
        for key in (tangle.CUP, tangle.CAP):
            for back in (False, True):
                assert tables[key, back].form == statesum.SCATTER, (key, back)
        flips = sum(sl.kind in (tangle.CUP, tangle.CAP) for sl in w.slices)
        want = evaluate_dp(w).scale(-ONE if flips % 2 else ONE)
        with self.patched(tables):
            assert evaluate_dp(w) == want, str(w)

    OUT_OF_SHAPE = {
        # a twisted row that differs from its plain row
        "crossing twisted": ((1, 0), lambda rows: rows[:2] + (
            (rows[2][0], tuple((out, -c) for out, c in rows[2][1])),)
            + rows[3:]),
        "cup untwisted": (tangle.CUP, lambda rows: ((rows[0][0],) * 2,)),
        "cup 11 entry 2": (tangle.CUP, lambda rows: tuple(
            tuple(tuple((out, c + c if out else c) for out, c in part)
                  for part in row) for row in rows)),
        "cap untwisted": (tangle.CAP, lambda rows: tuple(
            (plain, plain) for plain, _ in rows)),
        "cap 11 entry 2": (tangle.CAP, lambda rows: rows[:3] + (
            tuple(tuple((out, c + c) for out, c in part)
                  for part in rows[3]),)),
    }

    @pytest.mark.parametrize("name", sorted(OUT_OF_SHAPE))
    def test_tables_out_of_shape_are_scattered(self, name):
        # the edited table fits no form, and the kernel gives what the
        # scatter loop gives on every table
        tables = self.edited(*self.OUT_OF_SHAPE[name])
        assert tables[self.OUT_OF_SHAPE[name][0], False].form == \
            statesum.SCATTER
        rng = random.Random(name)
        words = [random_word(rng, max_crossings=6, bottom=b % 4)
                 for b in range(24)]
        words += [braid_to_tangle(word, n) for word, n in
                  (([1], 2), ([1, -2, 1, -2], 3), ([1, 2, -3, 2, -1, 3], 4))]
        with self.patched(tables):
            got = [evaluate_dp(w) for w in words]
        with self.patched(self.all_scattered(tables)):
            assert got == [evaluate_dp(w) for w in words]

    @settings(max_examples=80, deadline=None)
    @given(morse_words())
    def test_twisted_loop_changes_nothing(self, w):
        # every slice through the scatter loop gives the same output as
        # each table applied in its form
        want = evaluate_dp(w)
        with self.patched(self.all_scattered()):
            assert evaluate_dp(w) == want, str(w)

    def test_twisted_loop_changes_nothing_on_knot_braids(self):
        # closures of 2-7 strands: cuts up to 13 wide
        rng = random.Random(9)
        words = []
        for n in range(2, 8):
            for length in (n - 1, n + 5, 3 * n + 1):
                while True:
                    word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                            for _ in range(length)]
                    if closure_components(word, n) == 1:
                        break
                words.append(braid_to_tangle(word, n))
        want = [evaluate_dp(w) for w in words]
        with self.patched(self.all_scattered()):
            assert [evaluate_dp(w) for w in words] == want

    def test_dp_alexander_matches_burau_on_wide_knots(self):
        # 7-8 strands, 20-25 letters: larger coefficients and digit widths
        # than the generated braids of TestKernel
        rng = random.Random(7)
        for n, length in ((7, 20), (7, 24), (8, 21), (8, 25)):
            while True:
                word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                        for _ in range(length)]
                if closure_components(word, n) == 1:
                    break
            res = alexander_polynomial(braid_to_tangle(word, n))
            assert res.alexander == alexander_via_burau(word, n), (word, n)

    @staticmethod
    def digit_width(w):
        return statesum._digit_width(w.bottom_count, [
            statesum._kernel_table(step[0], False).norm
            for step in statesum._steps(w)])

    def test_table_sets_at_one_width_keep_their_own_operands(self):
        # one word under three table sets of one digit width, interleaved:
        # the scattered set holds the real rows in another form, the edited
        # one negated cup and cap rows, and neither may read the operands
        # packed for another
        w = braid_to_tangle((1, -2, 1, -2, 3, 2, -3), 4)
        want = coordinates(evaluate_naive(w))
        flips = sum(sl.kind in (tangle.CUP, tangle.CAP) for sl in w.slices)

        def negate(rows):
            return tuple(tuple(tuple((out, -c) for out, c in part)
                               for part in row) for row in rows)

        edited = self.edited(tangle.CAP, negate,
                             self.edited(tangle.CUP, negate))
        sets = [(kernel_tables(), want),
                (self.all_scattered(), want),
                (edited, want.scale(-ONE if flips % 2 else ONE))]
        for tables, expected in sets + sets[::-1] + sets:
            with self.patched(tables):
                assert evaluate_dp(w) == expected

    def test_words_at_three_widths_interleaved(self):
        # knots of three digit widths and vector words, interleaved twice
        rng = random.Random(17)
        cases = []
        for n in (3, 5, 7):
            while True:
                word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                        for _ in range(3 * n + 1)]
                if closure_components(word, n) == 1:
                    break
            cases.append((braid_to_tangle(word, n),
                          alexander_via_burau(word, n)))
        words = [random_word(rng, max_crossings=4, bottom=b)
                 for b in (0, 2, 3)]
        assert len({self.digit_width(w) for w, _ in cases}) == 3
        for _ in range(2):
            for w, want in cases:
                assert alexander_polynomial(w).alexander == want, str(w)
            for w in words:
                assert evaluate_dp(w) == coordinates(evaluate_naive(w)), str(w)


class TestSchedule:
    @staticmethod
    def cut_widths(word, steps):
        widths = [word.bottom_count]
        for _, _, width_in, width_out in steps:
            widths.append(widths[-1] + width_out - width_in)
        return tuple(widths)

    @staticmethod
    def unscheduled():
        return mock.patch.object(statesum, "_schedule", list)

    def test_braid_closure_cuts_narrow(self):
        # each cup rises to just below the first crossing on its strand
        w = braid_to_tangle((1, -2, 3, 1, -2, 3), 4)
        steps = statesum._steps(w)
        assert self.cut_widths(w, steps) == (1, 3, 5, 7, 7, 7, 7, 7, 7, 7,
                                             5, 3, 1)
        assert self.cut_widths(w, statesum._schedule(steps)) == (
            1, 3, 3, 5, 5, 7, 7, 7, 7, 7, 5, 3, 1)

    @settings(max_examples=150, deadline=None)
    @given(morse_words())
    def test_no_cut_widens_and_outputs_agree(self, w):
        steps = statesum._steps(w)
        scheduled = statesum._schedule(steps)
        assert all(after <= before for before, after in
                   zip(self.cut_widths(w, steps),
                       self.cut_widths(w, scheduled))), str(w)
        # crossings keep their keys and their order
        def crossings(seq):
            return [s[0] for s in seq if s[0] not in (tangle.CUP, tangle.CAP)]
        assert crossings(scheduled) == crossings(steps)
        want = evaluate_dp(w)
        with self.unscheduled():
            assert evaluate_dp(w) == want, str(w)

    def test_outputs_agree_on_knot_braids(self):
        # closures of 2-9 strands: cuts up to 17 wide before the pass
        rng = random.Random(12)
        words = []
        for n in range(2, 10):
            for length in (n - 1, 3 * n + 1):
                while True:
                    word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                            for _ in range(length)]
                    if closure_components(word, n) == 1:
                        break
                words.append(braid_to_tangle(word, n))
        want = [evaluate_dp(w) for w in words]
        with self.unscheduled():
            assert [evaluate_dp(w) for w in words] == want


class TestMeet:
    """The top part of the step list runs backward from the output keys."""

    @staticmethod
    def assert_every_split_agrees(w):
        steps = statesum._schedule(statesum._steps(w))
        want = evaluate_dp(w)
        for t in range(len(steps) + 1):
            with mock.patch.object(statesum, "_split",
                                   lambda steps, top, t=t: t):
                assert evaluate_dp(w) == want, (str(w), t)

    @settings(max_examples=80, deadline=None)
    @given(morse_words())
    def test_every_split_agrees(self, w):
        assume(w.endpoint_count - w.bottom_count <= 1)
        self.assert_every_split_agrees(w)

    def test_every_split_agrees_on_two_endpoint_words(self):
        rng = random.Random(13)
        for _ in range(40):
            self.assert_every_split_agrees(random_word(rng, bottom=1))

    def test_braid_closure_runs_both_ways(self):
        w = braid_to_tangle((1, -2, 3, 1, -2, 3), 4)
        want = evaluate_dp(w)
        with mock.patch.object(statesum, "_sweep",
                               wraps=statesum._sweep) as sweep:
            assert evaluate_dp(w) == want
        assert [len(call.args[1]) for call in sweep.call_args_list] == [6, 6]

    def test_back_tables(self):
        for key in TABLE_KEYS:
            consumed = key != tangle.CUP
            table = statesum._kernel_table(key, False)
            back = statesum._kernel_table(key, True)
            want = {tangle.CUP: statesum.FAN_IN,
                    tangle.CAP: statesum.FAN_OUT}.get(key, table.form)
            assert back.form == want, key
            assert back.shift == table.shift, key
            assert statesum._transpose(back.rows, consumed) == table.rows, key
            assert statesum._kernel_table(key, True) is back, key

    def test_block_back_swaps_the_odd_entries(self):
        # the transposed odd block trades lo -> hi for hi -> lo
        for key in TABLE_KEYS:
            table = statesum._kernel_table(key, False)
            if table.form is not statesum.BLOCK:
                continue
            d0, d3, lo, b, c, d = table.operands
            assert statesum._kernel_table(key, True).operands == (
                d0, d3, lo, c, b, d), key

    def test_fewer_live_keys_on_warm_braids(self):
        # the keys each step reads, summed over the first 150 braids of the
        # seed-1 knot-batch-warm stream; counts, not times (364,349 against
        # 620,157 forward only when this was written)
        spec = importlib.util.spec_from_file_location(
            "perfbench_gen",
            os.path.join(os.path.dirname(__file__), "..", "perfbench",
                         "gen.py"))
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        rng = random.Random("knot-batch-warm/1/timed")
        words = [braid_to_tangle(gen.knot_braid(rng, 6, 19), 6)
                 for _ in range(150)]
        sweep = statesum._sweep

        def live_key_steps():
            count = 0

            def counted(state, steps, packed):
                nonlocal count
                for step in steps:
                    count += len(state)
                    state = sweep(state, [step], packed)
                return state

            with mock.patch.object(statesum, "_sweep", counted):
                for w in words:
                    evaluate_dp(w)
            return count

        met = live_key_steps()
        with mock.patch.object(statesum, "_split",
                               lambda steps, top: len(steps)):
            forward = live_key_steps()
        assert met <= 0.7 * forward, (met, forward)

    def test_dp_alexander_matches_burau_at_10_and_11_strands(self):
        # the first two rows past perfbench's --scaling table
        rng = random.Random(1110)
        for n in (10, 11):
            while True:
                word = [rng.choice((1, -1)) * rng.randint(1, n - 1)
                        for _ in range(3 * n + 1)]
                if closure_components(word, n) == 1:
                    break
            res = alexander_polynomial(braid_to_tangle(word, n))
            assert res.alexander == alexander_via_burau(word, n), (word, n)


class TestBoundedMemory:
    @staticmethod
    def module_cache_sizes():
        sizes = {}
        for mod in (tangle, statesum, diagram, laurent, oracle, invariant,
                    checks, cli):
            for name, obj in vars(mod).items():
                info = getattr(obj, "cache_info", None)
                if callable(info):
                    sizes[mod.__name__, name] = info().currsize
                elif isinstance(obj, (dict, list, set)):
                    sizes[mod.__name__, name] = len(obj)
        return sizes

    def test_no_module_level_cache_grows(self):
        rng = random.Random(5)
        w = random_word(rng)
        kernel_tables()                 # derives every dp table both ways
        expand_states(w)                # and the naive plans
        before = self.module_cache_sizes()
        words = set()
        while len(words) < 500:
            words.add(random_word(rng, max_crossings=4,
                                  bottom=rng.choice((0, 1, 2))))
        # the naive rewrite's distinct inputs repeat often across words, but
        # no memo of them is kept either
        for w in words:
            evaluate_dp(w)
            expand_states(w)
            tanglex.tangle_invariant(w, "both")
        assert self.module_cache_sizes() == before
        assert statesum._kernel_table.cache_info().currsize == 20
        assert not hasattr(tangle.analyze, "cache_info")

    def test_dp_rebinds_no_module_name(self):
        # the dp keeps nothing between words but its derived tables: words
        # of three digit widths, and one under other tables, leave every
        # name of the module bound to the object it was bound to
        words = [braid_to_tangle((1, -2, 1, -2), 3),
                 braid_to_tangle((1, 2, -3, 2, -1, 3), 4),
                 parse("bottom 2 up up; x+ 1;")]
        evaluate_dp(words[0])           # derives the kernel tables once
        before = dict(vars(statesum))
        assert len({TestPacking.digit_width(w) for w in words}) == 3
        for w in words:
            evaluate_dp(w)
        with TestPacking.patched(TestPacking.all_scattered()):
            evaluate_dp(words[0])
        after = vars(statesum)
        assert after.keys() == before.keys()
        assert [name for name, obj in before.items()
                if after[name] is not obj] == []

    def test_no_assert_statements_in_evaluator_modules(self):
        # python -O strips assert statements; result checks must raise
        for mod in (diagram, statesum, tangle, laurent, oracle, invariant,
                    cli, checks):
            tree = ast.parse(inspect.getsource(mod))
            found = [n.lineno for n in ast.walk(tree)
                     if isinstance(n, ast.Assert)]
            assert not found, (mod.__name__, found)


class TestDelta:
    def test_examples(self):
        def delta(text):
            return alexander_polynomial(parse(text), "naive").delta
        assert delta("bottom 1 up;") == ONE
        assert delta("bottom 1 up; cup 2 cw; x+ 1; cap 2;") == -QI

    def test_requires_two_endpoints(self):
        with pytest.raises(EndpointCountError):
            alexander_polynomial(parse("bottom 2 up up;"), "naive")
        with pytest.raises(EndpointCountError):
            delta_from_class(evaluate_dp(parse("bottom 2 up up;")))

    def test_three_routes_agree(self):
        from tanglex.diagram import canonical_rep, inner_product
        rng = random.Random(4)
        for _ in range(15):
            w = random_word(rng, max_crossings=5, bottom=1)
            v = evaluate_naive(w)
            lam = v[fd(2, [(1, 2)])]
            via_dotted = -inner_product(v, DiagramVector.single(
                canonical_rep((1, 2), 2)))
            via_ticks = inner_product(v, DiagramVector.single(
                canonical_rep((), 2)))
            assert lam == via_dotted == via_ticks
            assert delta_from_class(evaluate_dp(w)) == lam

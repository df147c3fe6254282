"""The identity suite: the local identities the construction rests on.

One function per identity.  Each returns a one-line detail when the identity
holds and raises CheckFailed when it does not; none relies on ``assert``, so
the suite decides the same under ``python -O``.  ``tanglex check`` runs
SUITE (plus ``dimensions`` and ``move_fuzz``), and the acceptance tests call
the same functions under their time budgets.  ``skein_at`` checks the skein
relation at one crossing of any word; ``skein`` runs it on the four
one-crossing words, and the tests run it on longer ones.

The words the checks evaluate are parsed once, when this module is imported,
so a timed check measures the evaluation and not the parser.
"""

from __future__ import annotations

import random

from .laurent import ZERO, LaurentPoly
from .diagram import (DiagramVector, FlatDiagram, canonical_rep, coordinates,
                      enumerate_basis, even_subsets, glue_evaluate,
                      inner_product, motzkin, saddle_element)
from .tangle import (MorseWord, analyze, apply_move, parse, random_move,
                     random_word, turning_number)
from .statesum import base_tables, evaluate_dp, evaluate_naive, expand_states
from .invariant import (alexander_polynomial, minus_q_power, with_crossing,
                        with_crossing_smoothed)

_Z = LaurentPoly.q_power(1) - LaurentPoly.q_power(-1)


class CheckFailed(Exception):
    """An identity of the suite does not hold; the message says where."""


def _require(ok: bool, *context) -> None:
    # context is formatted only on failure, so passing checks stay cheap
    if not ok:
        raise CheckFailed(" ".join(map(str, context)))


def _add(out: dict, key, c: LaurentPoly) -> None:
    v = out.get(key, ZERO) + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


def _expanded(terms) -> dict:
    """A table as {(chords, ticks): coeff} on the corners 0..3, each dotted
    chord replaced by the undotted chord minus its two ticks."""
    out = {}
    for t in terms:
        plain = [(a, b) for a, b, dot in t.chords if not dot]
        dotted = [(a, b) for a, b, dot in t.chords if dot]
        for bits in range(1 << len(dotted)):
            chords, ticks, sign = list(plain), set(t.ticks), 1
            for i, pair in enumerate(dotted):
                if bits >> i & 1:
                    chords.append(pair)
                else:
                    sign = -sign
                    ticks.update(pair)
            _add(out, (tuple(sorted(chords)), frozenset(ticks)),
                 t.coeff if sign > 0 else -t.coeff)
    return out


def crossing_tables() -> str:
    tables = base_tables()
    for rot in range(4):
        pos, neg = tables.seven[(1, rot)], tables.seven[(-1, rot)]
        _require(len(pos) == len(neg) == 7, "pattern", rot, "table sizes",
                 len(pos), len(neg))
        diff = {}
        for t in pos:
            _add(diff, (t.chords, t.ticks), t.coeff)
        for t in neg:
            _add(diff, (t.chords, t.ticks), -t.coeff)
        sm = tables.smoothing(rot)
        _require(diff == {(sm.chords, sm.ticks): _Z}, "pattern", rot,
                 "difference", diff)
    return "7-term tables, difference = (q - q^-1) * smoothing, 4 patterns"


def dotted_equivalence() -> str:
    tables = base_tables()
    for sign in (1, -1):
        for rot in range(4):
            five = tables.five[(sign, rot)]
            seven = tables.seven[(sign, rot)]
            _require(len(five) == 5 and len(seven) == 7, "case", (sign, rot),
                     "table sizes", len(five), len(seven))
            _require(_expanded(five) == _expanded(seven),
                     "case", (sign, rot), "5-term and 7-term tables differ")
    return "5-term dotted tables expand to the 7-term tables, 8 cases"


_STRAND = FlatDiagram.make(2, [(1, 2, False)])

# (name, curl, turning number tau): the curl evaluates to -q^tau * strand
_R1_CURLS = tuple((name, parse(text), tau) for name, text, tau in (
    ("right over", "bottom 1 up; cup 2 cw; x+ 1; cap 2;", -1),
    ("right under", "bottom 1 up; cup 2 cw; x- 1; cap 2;", -1),
    ("left over", "bottom 1 up; cup 1 ccw; x+ 2; cap 1;", 1),
    ("left under", "bottom 1 up; cup 1 ccw; x- 2; cap 1;", 1),
))


def reidemeister_1() -> str:
    for name, curl, tau in _R1_CURLS:
        want = DiagramVector.single(_STRAND, LaurentPoly.monomial(-1, tau))
        _require(evaluate_naive(curl) == want, name,
                 "curl is not -q^tau times the strand, tau =", tau)
        got = turning_number(curl)
        _require(got == tau, name, "turning number", got, "!=", tau)
    return "four R1 curls evaluate to -q^-1 / -q with matching turning numbers"


_PARALLEL = ("up up", "down down")
_ANTIPARALLEL = ("up down", "down up")
_R2_ORDERS = ("x+ 1; x- 1", "x- 1; x+ 1")
_IDENTITY = {o: parse(f"bottom 2 {o};") for o in _PARALLEL + _ANTIPARALLEL}
_R2_PARALLEL = {o: parse(f"bottom 2 {o}; x+ 1; x- 1;") for o in _PARALLEL}
_R2_ANTIPARALLEL = {(o, order): parse(f"bottom 2 {o}; {order};")
                    for o in _ANTIPARALLEL for order in _R2_ORDERS}


def reidemeister_2() -> str:
    for orient, two in _R2_PARALLEL.items():
        defect = evaluate_naive(two) - evaluate_naive(_IDENTITY[orient])
        _require(defect.is_zero(), orient, "R2 defect is not 0")
    sad = saddle_element().expand_dots()
    ident = {o: evaluate_naive(_IDENTITY[o]) for o in _ANTIPARALLEL}
    for (orient, order), two in _R2_ANTIPARALLEL.items():
        # the defect is the saddle element, sign fixed by the reflection
        # convention: identity minus crossings
        _require(ident[orient] - evaluate_naive(two) == sad, orient, order,
                 "R2 defect is not the saddle element")
    # every antiparallel defect equals sad, so this covers each of them
    _require(coordinates(sad).is_zero(),
             "saddle element is not 0 in the quotient")
    return ("R2 defect: 0 (parallel), saddle element (antiparallel), "
            "0 in quotient")


_R3_SIDES = (parse("bottom 3 up up up; x+ 1; x+ 2; x+ 1;"),
             parse("bottom 3 up up up; x+ 2; x+ 1; x+ 2;"))


def reidemeister_3() -> str:
    a, b = _R3_SIDES
    (va, ca), (vb, cb) = expand_states(a), expand_states(b)
    _require(va == vb, "R3 sides differ in the diagram space")
    _require(ca == cb == 343, "R3 naive state counts", ca, cb, "!= 343")
    _require(evaluate_dp(a) == evaluate_dp(b) == coordinates(va),
             "R3 class vectors differ")
    return "R3 sides agree (343 naive terms each)"


_SKEIN_WORDS = tuple(parse(f"bottom 2 {o}; x+ 1;")
                     for o in _PARALLEL + _ANTIPARALLEL)


def skein_at(word: MorseWord, index: int) -> None:
    """T+ - T- = (q - q^-1) * T0 at crossing ``index`` of ``word``, where the
    three words differ only there: in the diagram space (naive) and in the
    quotient (dp)."""
    over = with_crossing(word, index, "over")
    under = with_crossing(word, index, "under")
    smooth = with_crossing_smoothed(word, index)
    if analyze(over).crossings[index].sign == 1:
        pos_w, neg_w = over, under
    else:
        pos_w, neg_w = under, over
    pos, neg = evaluate_naive(pos_w), evaluate_naive(neg_w)
    _require(pos - neg == evaluate_naive(smooth).scale(_Z), word, "crossing",
             index, "skein fails in the diagram space")
    _require(evaluate_dp(pos_w) - evaluate_dp(neg_w)
             == evaluate_dp(smooth).scale(_Z), word, "crossing", index,
             "skein fails in the quotient")


def skein() -> str:
    for word in _SKEIN_WORDS:
        skein_at(word, 0)
    return "skein identity in all four orientation patterns"


def negligibility() -> str:
    basis = enumerate_basis(4)
    _require(len(basis) == 9 == motzkin(4), "size-4 basis has", len(basis),
             "diagrams")
    sad = saddle_element()
    for y in basis:
        _require(inner_product(sad, y).is_zero(),
                 "saddle pairs to nonzero with", y)
    _require(inner_product(sad, sad).is_zero(),
             "saddle pairs to nonzero with itself")
    return "saddle element pairs to 0 with all 9 basis diagrams of size 4"


def gram() -> str:
    for n in (2, 4, 6):
        subsets = list(even_subsets(n))
        _require(len(subsets) == 2 ** (n - 1), "n =", n, len(subsets),
                 "classes")
        reps = [canonical_rep(s, n) for s in subsets]
        for i, a in enumerate(reps):
            for j, b in enumerate(reps):
                g = glue_evaluate(a, b)
                want = (-1) ** (len(subsets[i]) // 2) if i == j else 0
                _require(g == want, "n =", n, subsets[i], subsets[j],
                         "pair to", g, "not", want)
    return "Gram matrices diagonal with entries (-1)^(|S|/2) for n=[2, 4, 6]"


SUITE = (
    ("crossing-tables", crossing_tables),
    ("dotted-equivalence", dotted_equivalence),
    ("reidemeister-1", reidemeister_1),
    ("reidemeister-2", reidemeister_2),
    ("reidemeister-3", reidemeister_3),
    ("skein", skein),
    ("negligibility", negligibility),
    ("gram", gram),
)


def dimensions(limit: int) -> str:
    details = []
    for n in range(0, limit + 1):
        _require(len(enumerate_basis(n)) == motzkin(n), "n =", n,
                 "basis size is not Motzkin")
        if n >= 1:
            _require(sum(1 for _ in even_subsets(n)) == 2 ** (n - 1),
                     "n =", n, "class count is not 2^(n-1)")
        details.append(f"{n}:{motzkin(n)}")
    return ("basis counts Motzkin [" + " ".join(details)
            + f"], class counts 2^(n-1) for n<= {limit}")


def move_fuzz(moves: int, seed: int) -> str:
    """Random R1/R2/R3 moves applied in chains of four from a random word
    with 2 endpoints; every word of a chain has the chain's first Alexander
    polynomial, and its delta differs by (-q)^(change of turning number)."""
    rng = random.Random(seed)
    done = 0
    while done < moves:
        w = random_word(rng, max_crossings=8, bottom=1)
        base = alexander_polynomial(w)
        for _ in range(min(4, moves - done)):
            mv = random_move(rng, w)
            moved = apply_move(w, mv)
            res = alexander_polynomial(moved)
            _require(res.alexander == base.alexander,
                     "alexander changed by", mv, "on", w)
            dtau = res.tau - base.tau
            _require(res.delta == base.delta * minus_q_power(dtau),
                     "delta is not (-q)^dtau times the chain's first after",
                     mv, "on", w)
            w = moved
            done += 1
    return (f"{moves} random R1/R2/R3 moves in chains of 4, exact invariance "
            f"(seed {seed})")

"""Crossing expansion tables and the two tangle evaluators.

A crossing is rewritten as a formal sum of crossingless local pictures on its
four corners.  Corners are numbered 0 = bottom-left, 1 = bottom-right,
2 = top-right, 3 = top-left (circularly).  The base tables are stated for the
positive and negative crossing with both strands pointing up; the tables for
the other three orientation patterns rotate every local picture by the
quarter-turn count carried in CrossingInfo.rot (resolutions are unoriented,
so rotation only permutes corner labels).

Two table forms are kept: the 7-term undotted form and the equivalent 5-term
dotted form.  ``evaluate_naive`` expands with the 7-term tables and reduces
each state inside the diagram space.

A naive state is a partial diagram below a cut: for each cut position, the
far end of its strand (another cut position, a bottom point, or an interior
vertex) and the strand's dot, plus the chords and ticks already closed off
among the bottom points.  A slice rewrites it locally.  Each corner of the
piece has one end on the state side (the far end of a consumed strand, or
the new cut position of a produced corner) and meets exactly one chord or
tick of the term, so every chord joins two ends and every tick joins an end
to an interior vertex, and the joined strand is written back at its two
ends.  When the consumed pair is one strand, it either closes into a loop
with the term's chord (0, 1) (dotted: factor -1; undotted: killed) or links
the two other ends of its corners' term elements.  A dotted strand that
reaches an interior vertex is killed.  Identical states are merged after
every slice, and each state's coefficient is multiplied once per distinct
table coefficient.

``evaluate_dp`` composes slice by slice in the quotient space, carrying
coordinates in the canonical dotted basis: at most 2^(width+bottom-1) keys
per cut.  A key is an int with bit i-1 set for each boundary point i of its
even subset.  Every transition is local: a slice changes only the pair of
bits under it, and shifts the higher bits up (cup) or down (cap) by 2.  The
coefficient comes from a 4x4 local table of the slice type and, for the
entries that create or destroy the pair as a whole (a crossing taking the
pair 00 <-> 11, a cap destroying 11, a cup creating 11), a twist
(-1)^(floor(lo/2) + floor(hi/2)), where lo / hi count the key's bits below /
above the pair.  The local tables are derived from the 5-term tables by
diagram surgery on a 3-point cut, once, on the first dp evaluation; no
transition cache is kept.

The dp does no polynomial arithmetic.  Each table has a shift s (minus its
lowest exponent: 1 for a crossing, 0 for a cup or cap), and every entry
times q^s is a polynomial in q^2: a crossing entry has only odd exponents,
a cup or cap entry is a constant.  So q^(sum of s) * p(q) is a polynomial in
q^2 too, and each key's coefficient is carried as one int, its value at
q^2 = 2^B (Kronecker substitution); shifted exponent e sits at digit e/2.
Each table also has a row L1 norm: the largest sum, over one input pair and
twist, of the L1 norms of the coefficients of a row (3 for a crossing, 2 for
a cup, 1 for a cap).  The total L1 norm of the state starts at 2^bottom and
each slice multiplies it at most by its row norm, so every coefficient of
the result is bounded by M = 2^bottom * prod(row norms).  With
B = bitlength(M) + 1, the coefficients are the unique balanced base-2^B
digits of the int, in [-2^(B-1), 2^(B-1)), read once per key at the end,
from exponent -(sum of s) upward in steps of 2.

A crossing table whose twisted rows equal its plain rows (rot 0 and 2, so
every braid crossing) is twist-free: the kernel reads no spectator bits for
it and applies it as nk = key ^ dx over the rows' (dx, c), where
dx = (input pair ^ output pair) << (lowest bit of the pair).  Cups, caps
and rot 1/3 crossings keep the twisted loop.

``expand_states`` and the Burau oracle keep ``LaurentPoly`` arithmetic: they
are the independent checks of the dp, so they share none of its packing.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .laurent import LaurentPoly, ONE, ZERO
from .diagram import (ClassVector, ConsistencyError, DiagramVector,
                      FlatDiagram, dotted_class)
from .tangle import (CAP, CUP, OVER, UNDER, EndpointCountError, MorseWord,
                     analyze)

_Q = LaurentPoly.q_power(1)
_QI = LaurentPoly.q_power(-1)
_Z = _Q - _QI          # q - q^-1


class TableTerm(NamedTuple):
    coeff: LaurentPoly
    chords: tuple     # ((corner, corner, dotted), ...)
    ticks: frozenset  # of corners


def _term(coeff, chords, ticks):
    norm = tuple(sorted((min(a, b), max(a, b), bool(d)) for a, b, d in chords))
    return TableTerm(coeff, norm, frozenset(ticks))


def _rotate(term: TableTerm, k: int) -> TableTerm:
    if k % 4 == 0:
        return term
    return _term(term.coeff,
                 [((a + k) % 4, (b + k) % 4, d) for a, b, d in term.chords],
                 [(c + k) % 4 for c in term.ticks])


_POS5 = (
    _term(_Q, [(0, 3, True), (1, 2, True)], []),
    _term(_Z, [(0, 3, True)], [1, 2]),
    _term(_Q, [(1, 3, True)], [0, 2]),
    _term(_QI, [(0, 2, True)], [1, 3]),
    _term(-_QI, [], [0, 1, 2, 3]),
)
_NEG5 = (
    _term(_QI, [(0, 3, True), (1, 2, True)], []),
    _term(-_Z, [(1, 2, True)], [0, 3]),
    _term(_QI, [(0, 2, True)], [1, 3]),
    _term(_Q, [(1, 3, True)], [0, 2]),
    _term(-_Q, [], [0, 1, 2, 3]),
)
_POS7 = (
    _term(_Q, [(0, 3, False), (1, 2, False)], []),
    _term(_Q, [(1, 3, False)], [0, 2]),
    _term(-_Q, [(1, 2, False)], [0, 3]),
    _term(-_Q, [], [0, 1, 2, 3]),
    _term(_QI, [(0, 2, False)], [1, 3]),
    _term(-_QI, [(0, 3, False)], [1, 2]),
    _term(-_QI, [], [0, 1, 2, 3]),
)
_NEG7 = (_term(_QI, [(0, 3, False), (1, 2, False)], []),) + _POS7[1:]


class ExpansionTable:
    """All 8 (sign, orientation pattern) crossing tables, dotted and undotted."""

    def __init__(self):
        self.five = {}
        self.seven = {}
        for rot in range(4):
            self.five[(1, rot)] = tuple(_rotate(t, rot) for t in _POS5)
            self.five[(-1, rot)] = tuple(_rotate(t, rot) for t in _NEG5)
            self.seven[(1, rot)] = tuple(_rotate(t, rot) for t in _POS7)
            self.seven[(-1, rot)] = tuple(_rotate(t, rot) for t in _NEG7)

    def smoothing(self, rot: int) -> TableTerm:
        """The oriented-smoothing resolution (the two-cups picture) for a
        pattern; it carries coefficient q / q^-1 in the two tables."""
        return _rotate(_term(ONE, [(0, 3, False), (1, 2, False)], []), rot)


@lru_cache(maxsize=1)
def base_tables() -> ExpansionTable:
    return ExpansionTable()


# ---------------------------------------------------------------------------
# one local piece applied to a partial-diagram state
#
# A state is (ends, done):
#   ends[p]  for cut position p (0-based): ('c', partner_position, dot)
#            | ('b', bottom_point, dot) | ('t', None, dot)
#   done     frozenset of ('chord', i, j, dot) and ('tick', i) on bottom points
# The strand dot flag is stored at both ends of a strand.

_CUP_TERM_PLAIN = (_term(ONE, [(2, 3, False)], []),)
_CUP_TERMS_DOTTED = (_term(ONE, [(2, 3, True)], []),
                     _term(ONE, [], [2, 3]))
_CAP_TERM = (_term(ONE, [(0, 1, False)], []),)

_INTERIOR = ("t", None, False)


def _apply_piece(ends, done, where, term, consumed, produced):
    """Apply one local picture.  ``where`` is the 0-based position of the
    piece's left corner.  Returns (factor, ends', done') or None if killed.

    The rewrite is the one the module docstring describes.  A corner's
    state-side end is written like an entry of ``ends``; a produced corner's
    is ('c', its own new cut position, False), so a join writes a new cut
    position the same way as an old one."""
    ends = list(ends)
    if produced and not consumed:          # cup: make room first
        for i, e in enumerate(ends):
            if e[0] == "c" and e[1] >= where:
                ends[i] = ("c", e[1] + 2, e[2])
        ends[where:where] = [None, None]
    # the state-side end of each corner; corners 2, 3 are read only when
    # the piece produces them
    side = [None, None, ("c", where + 1, False), ("c", where, False)]
    loop = None
    if consumed:
        a = ends[where]
        if a[0] == "c" and a[1] == where + 1:
            loop = a[2]                    # corners 0, 1 end one strand
        else:
            side[0], side[1] = a, ends[where + 1]
    joins = [(side[u], side[v], dot) for u, v, dot in term.chords]
    joins += [(side[c], _INTERIOR, False) for c in term.ticks]
    factor = 1
    if loop is not None:
        merged = [j for j in joins if j[0] is None or j[1] is None]
        joins = [j for j in joins if j[0] is not None and j[1] is not None]
        if len(merged) == 1:               # the chord (0, 1): a closed loop
            if not (loop or merged[0][2]):
                return None
            factor = -1
        else:
            (x, y, d), (u, v, e) = merged
            joins.append((y if x is None else x, v if u is None else u,
                          loop or d or e))
    added = []
    for x, y, dot in joins:
        dot = dot or x[2] or y[2]
        if y[0] == "t":
            x, y = y, x
        if x[0] == "t":                    # a path to an interior vertex
            if dot:
                return None
            if y[0] == "b":
                added.append(("tick", y[1]))
            elif y[0] == "c":
                ends[y[1]] = _INTERIOR
        elif x[0] == "b" and y[0] == "b":
            added.append(("chord", min(x[1], y[1]), max(x[1], y[1]), dot))
        else:
            if x[0] == "b":
                x, y = y, x
            ends[x[1]] = (y[0], y[1], dot)
            if y[0] == "c":
                ends[y[1]] = ("c", x[1], dot)
    if consumed and not produced:          # cap: close the gap
        del ends[where:where + 2]
        for i, e in enumerate(ends):
            if e[0] == "c" and e[1] >= where:
                if e[1] <= where + 1:
                    raise ConsistencyError(
                        "cap left a strand ending in its gap")
                ends[i] = ("c", e[1] - 2, e[2])
    return factor, tuple(ends), done.union(added) if added else done


def _finalize(ends, done, bottom_count: int) -> FlatDiagram:
    w = len(ends)
    n = bottom_count + w

    def idx(pos0):
        return bottom_count + w - pos0

    chords = []
    ticks = []
    for item in done:
        if item[0] == "chord":
            chords.append((item[1], item[2], item[3]))
        else:
            ticks.append(item[1])
    for p, e in enumerate(ends):
        if e[0] == "c":
            if e[1] > p:
                chords.append((idx(p), idx(e[1]), e[2]))
        elif e[0] == "b":
            chords.append((e[1], idx(p), e[2]))
        else:
            ticks.append(idx(p))
    return FlatDiagram.make(n, chords, ticks)


# ---------------------------------------------------------------------------
# the multilinear (state sum) evaluator


def expand_states(word: MorseWord, dotted: bool = False):
    """Expand every crossing by its table and reduce each state.

    Returns (DiagramVector, raw_state_count); the count includes states that
    were pruned, so it always equals (7 or 5)^(number of crossings).
    """
    an = analyze(word)
    tables = base_tables().five if dotted else base_tables().seven
    branch = 5 if dotted else 7
    k = word.bottom_count

    suffix = [0] * (len(word.slices) + 1)
    for i in range(len(word.slices) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + (word.slices[i].kind in (OVER, UNDER))

    init = (tuple(("b", p + 1, False) for p in range(k)), frozenset())
    states = {init: (ONE, 1)}
    killed = 0
    ci = iter(an.crossings)
    for t, sl in enumerate(word.slices):
        after = branch ** suffix[t + 1]
        if sl.kind == CUP:
            terms, consumed, produced = _CUP_TERM_PLAIN, False, True
        elif sl.kind == CAP:
            terms, consumed, produced = _CAP_TERM, True, False
        else:
            info = next(ci)
            terms = tables[(info.sign, info.rot)]
            consumed = produced = True
        where = sl.pos - 1
        # a state's coefficient is multiplied once per distinct table
        # coefficient (4 of them in a 7-term table, 1 for a cup or cap)
        coeffs = list(dict.fromkeys(term.coeff for term in terms))
        slots = [(term, coeffs.index(term.coeff)) for term in terms]
        new = {}
        for (ends, done), (coeff, count) in states.items():
            prods = [coeff * c for c in coeffs]
            for term, slot in slots:
                res = _apply_piece(ends, done, where, term, consumed, produced)
                if res is None:
                    killed += count * after
                    continue
                factor, e2, d2 = res
                c = prods[slot]
                if factor < 0:
                    c = -c
                key = (e2, d2)
                old_c, old_n = new.get(key, (ZERO, 0))
                # cancelled states are carried with coefficient zero so the
                # raw-state tally stays exact
                new[key] = (old_c + c, old_n + count)
        states = new
    vec = DiagramVector(word.endpoint_count)
    total = killed
    for (ends, done), (coeff, count) in states.items():
        total += count
        if coeff:
            vec.add_term(_finalize(ends, done, k), coeff)
    expected = branch ** word.crossing_count()
    if total != expected:
        raise ConsistencyError(f"state count {total} != {expected}")
    return vec, total


def evaluate_naive(word: MorseWord) -> DiagramVector:
    """Full expansion over the 7-term tables, reduced in the diagram space."""
    return expand_states(word, dotted=False)[0]


# ---------------------------------------------------------------------------
# the slice-composition evaluator in the quotient space
#
# Keys are laid out as in the module docstring.  Boundary points run right
# to left along a cut, so the left strand of a pair has the higher bit.

# the four states of a 3-point cut (bottom point 1 below a width-2 cut)
# whose top pair carries bits (left, right): canonical_rep of the subset,
# which holds point 1 exactly when it holds one top point
_LOCAL_STATES = (
    ((("t", None, False), ("t", None, False)), frozenset({("tick", 1)})),
    ((("t", None, False), ("b", 1, True)), frozenset()),
    ((("b", 1, True), ("t", None, False)), frozenset()),
    ((("c", 1, True), ("c", 0, True)), frozenset({("tick", 1)})),
)


def _local_table(terms, consumed, produced):
    """The transitions of one slice type on its pair of bits.

    They are read off the expansion terms applied to a 3-point cut
    (crossings, caps) or to the empty cut (cups), where no spectator twists
    the sign.  Returns one row per input pair value (a single row for a cup);
    ``row[flip]`` lists (output pair value, coefficient), where flip = 1
    negates the terms that create or destroy the pair as a whole."""
    k = 1 if consumed else 0
    rows = []
    for loc in (range(4) if consumed else (0,)):
        ends, done = _LOCAL_STATES[loc] if consumed else ((), frozenset())
        acc = {}
        for term in terms:
            res = _apply_piece(ends, done, 0, term, consumed, produced)
            if res is None:
                continue
            factor, e2, d2 = res
            sign, subset = dotted_class(_finalize(e2, d2, k))
            bits = sum(1 << (p - 1) for p in subset)
            if consumed and bits & 1 != loc.bit_count() & 1:
                raise ConsistencyError("slice transition moved a spectator")
            out = bits >> k
            coeff = term.coeff if factor * sign > 0 else -term.coeff
            acc[out] = acc.get(out, ZERO) + coeff
        plain = tuple((out, c) for out, c in sorted(acc.items()) if c)
        twisted = tuple(
            (out, -c if (loc == 3) != (produced and out == 3) else c)
            for out, c in plain)
        rows.append((plain, twisted))
    return tuple(rows)


class _KernelTable(NamedTuple):
    rows: tuple        # per input pair value: (plain, twisted) (out, coeff)
    shift: int         # q^shift * c is a polynomial in q^2, for every entry c
    norm: int          # row L1 norm
    twist_free: bool   # every twisted row equals its plain row


def _table_bound(rows):
    """(shift, norm) of a local table: shift = -(lowest exponent of any
    entry), and norm = the largest sum, over one row (input pair value and
    twist), of the L1 norms of its coefficients.  Every shifted exponent
    must be even, since the kernel packs at q^2."""
    parts = [part for row in rows for part in row]
    shift = -min(c.min_exp() for part in parts for _, c in part)
    if any((e + shift) % 2 for part in parts for _, c in part
           for e, _ in c.terms()):
        raise ConsistencyError(
            "a local table entry times q^shift is not a polynomial in q^2")
    norm = max(sum(abs(a) for _, c in part for _, a in c.terms())
               for part in parts)
    return shift, norm


@lru_cache(maxsize=1)
def _kernel_tables() -> dict:
    """Local tables of all slice types, with their bounds: (sign, rot) for
    the crossings, CUP and CAP.  Derived on the first evaluation, not at
    import."""
    rows = {key: _local_table(terms, True, True)
            for key, terms in base_tables().five.items()}
    rows[CUP] = _local_table(_CUP_TERMS_DOTTED, False, True)
    rows[CAP] = _local_table(_CAP_TERM, True, False)
    return {key: _KernelTable(r, *_table_bound(r),
                              all(plain == twisted for plain, twisted in r))
            for key, r in rows.items()}


def _digit_width(k: int, norms) -> int:
    """A digit width B for which every coefficient of the result lies in
    [-2^(B-1), 2^(B-1)).  The total L1 norm of the state (over all keys and
    coefficients) starts at 2^k and each slice multiplies it by at most the
    row norm of its table, so M = 2^k * prod(norms) bounds every
    coefficient."""
    m = 1 << k
    for norm in norms:
        m *= norm
    return m.bit_length() + 1


def _encode(p: LaurentPoly, shift: int, width: int) -> int:
    """q^shift * p(q) at q^2 = 2^width; shift must leave every exponent
    even and nonnegative."""
    v = 0
    for e, a in p.terms():
        if e + shift < 0 or (e + shift) % 2:
            raise ValueError(f"shift {shift} leaves exponent {e + shift}")
        v += a << (width * ((e + shift) >> 1))
    return v


def _decode(v: int, width: int, offset: int) -> LaurentPoly:
    """Inverse of _encode: the polynomial whose coefficients are the
    balanced base-2^width digits of v, in [-2^(width-1), 2^(width-1)),
    with the lowest digit at exponent offset (= -shift) and each next digit
    2 exponents higher."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    coeffs = {}
    e = offset
    while v:
        d = ((v + half) & mask) - half
        if d:
            coeffs[e] = d
        v = (v - d) >> width
        e += 2
    return LaurentPoly(coeffs)


def _pack(table: _KernelTable, width: int) -> tuple:
    """The table's rows with each coefficient encoded at q^2 = 2^width."""
    return tuple(tuple(tuple((out, _encode(c, table.shift, width))
                             for out, c in part) for part in row)
                 for row in table.rows)


def evaluate_dp(word: MorseWord) -> ClassVector:
    """Coordinates of the tangle in the canonical basis of the quotient
    space, computed by composing one slice at a time."""
    tables = _kernel_tables()
    an = analyze(word)
    k = word.bottom_count
    # one step per slice: table key, ib (lowest bit of the pair), and
    # width_in / width_out (pair bits consumed / produced by the slice)
    steps = []
    ci = iter(an.crossings)
    w = k
    for sl in word.slices:
        if sl.kind == CUP:
            step = (CUP, k + w - sl.pos + 1, 0, 2)
        elif sl.kind == CAP:
            step = (CAP, k + w - sl.pos - 1, 2, 0)
        else:
            info = next(ci)
            step = ((info.sign, info.rot), k + w - sl.pos - 1, 2, 2)
        steps.append(step)
        w += step[3] - step[2]
    used = [tables[step[0]] for step in steps]
    width = _digit_width(k, [table.norm for table in used])
    offset = -sum(table.shift for table in used)
    packed = {key: _pack(tables[key], width)
              for key in {step[0] for step in steps}}
    # initial sliver: nested undotted strands from bottom p to cut p, each
    # with coefficient 1
    state = {}
    for bits in range(1 << k):
        key = 0
        for p in range(k):
            if bits >> p & 1:
                key |= (1 << p) | (1 << (2 * k - 1 - p))
        state[key] = 1
    for table_key, ib, width_in, width_out in steps:
        table = packed[table_key]
        pair_mask = (1 << width_in) - 1
        new = {}
        if tables[table_key].twist_free:
            # a crossing: the pair is rewritten in place and no spectator is
            # read (a cup creating 11 or a cap destroying 11 always twists)
            rows = [tuple(((pair ^ out) << ib, c) for out, c in row[0])
                    for pair, row in enumerate(table)]
            for key, coeff in state.items():
                for dx, c in rows[(key >> ib) & pair_mask]:
                    nk = key ^ dx
                    new[nk] = new.get(nk, 0) + coeff * c
        else:
            low_mask = (1 << ib) - 1
            for key, coeff in state.items():
                low = key & low_mask
                high = key >> (ib + width_in)
                rest = low | (high << (ib + width_out))
                # the twist (-1)^(floor(lo/2) + floor(hi/2)) over the
                # spectators
                flip = ((low.bit_count() >> 1) + (high.bit_count() >> 1)) & 1
                for out, c in table[(key >> ib) & pair_mask][flip]:
                    nk = rest | (out << ib)
                    new[nk] = new.get(nk, 0) + coeff * c
        state = {key: c for key, c in new.items() if c}
    n = k + w
    return ClassVector(n, {tuple(i + 1 for i in range(n) if key >> i & 1):
                           _decode(c, width, offset)
                           for key, c in state.items()})


# ---------------------------------------------------------------------------
# the scalar invariant of a 2-endpoint tangle


def delta_from_class(cv: ClassVector) -> LaurentPoly:
    """The same scalar read off the quotient coordinates of a 2-endpoint
    tangle; the two keys carry equal values for any true tangle image."""
    if cv.boundary_count != 2:
        raise EndpointCountError("expected a 2-endpoint class vector")
    lam = cv[(1, 2)]
    if lam != cv[()]:
        raise ConsistencyError(
            "inconsistent quotient coordinates: not a tangle image")
    return lam

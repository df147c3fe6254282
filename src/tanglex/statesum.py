"""Crossing expansion tables and the two tangle evaluators.

A crossing is rewritten as a formal sum of crossingless local pictures on its
four corners.  Corners are numbered 0 = bottom-left, 1 = bottom-right,
2 = top-right, 3 = top-left (circularly).  The base tables are stated for the
positive and negative crossing with both strands pointing up; the tables for
the other three orientation patterns rotate every local picture by the
quarter-turn count carried in CrossingInfo.rot (resolutions are unoriented,
so rotation only permutes corner labels).

Two table forms are kept: the 7-term undotted form and the equivalent 5-term
dotted form.  The dp is derived from the 5-term tables and ``evaluate_naive``
expands with the 7-term tables, reducing each state inside the diagram
space, so the naive checks the dp on a table set the dp does not read
(``checks.dotted_equivalence`` checks that the two sets agree).

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
reaches an interior vertex is killed.  ``_apply_terms`` is this rewrite,
term by term.  It reads only a state's cut (the ``ends``), never what is
closed off below it, so the states are kept grouped by cut, each cut with
its raw state count; a slice rewrites each distinct cut once, and each state
of the cut goes to each resulting picture with at most one product of
packed ints (below).  No naive cut carries a dot: the bottom strands, the
cup's term and the 7-term tables have none, so no rewrite can make one.  So
``expand_states`` keeps each cut as a tuple of ints, an int cut: p >= 0 for
a strand to cut position p, -b for a strand to bottom point b and one
negative sentinel, ``_INTERIOR_END``, for an interior end.  For the same
reason every chord a naive state closes off among the bottom points is
undotted, so the state is keyed by one int, its mask: a bit per item
closed off, the tick on bottom point b or the chord between i < j
(``_item_bit``: item (i, j), a tick being (b, b), is bit j(j - 1)/2 + i - 1,
so k bottom points have k(k + 1)/2 bits).  The dots are for the dp's local
tables, which ``_apply_terms`` derives from the 5-term tables on dotted
cuts, whose entries have the 3-field form (kind, far field, dot), and
which ``_finalize`` reads into diagrams.  ``_apply_terms`` and the plans'
sample cuts keep that form.  The naive reads its own final cuts: each
cut's chords and ticks once (cut position p is boundary point
bottom + width - p), then each state's mask (``_read_mask``), and every
diagram is built through ``FlatDiagram``, which validates it.

What a table does to a cut is decided by the cut's view at the piece.  For
a consumed pair that is one strand, the view is the loop; otherwise it is,
for each of the two consumed corners, the kind of its state-side end
(interior, a bottom point or a cut position).  That is 10 views for a
crossing or a cap, and a cup has one, so the eight crossing tables, the cup
and the cap have 91 plans.  For each (table, view) a plan is derived once, by
``_apply_terms`` with all the table's terms on a sample cut of the view,
written in marks: the pair sits at positions 0 and 1, and the far field of
corner 0's end (its bottom point, or its partner's position) is 2, that of
corner 1's is 3.  The plan keeps each picture that does not sum to zero as
a cut edit, with its summed coefficient and its term count n (the 7-term
table's two all-tick pictures become one, -(q + q^-1)): the entries of the
sample that the picture changes, each as a pair (target mark, source mark),
the source being the mark the new entry names, or 4 for an interior end;
and the items it closes off among the bottom points, each as a pair of
marks (x, x) for a tick, (x, y) for a chord.  The plan also counts the
killed terms and the terms whose pictures sum to zero.  ``expand_states``
then rewrites an int cut without ``_apply_terms`` (``_rewrite``, once per
cut): for each picture it copies the cut (a cup first makes room, shifting
the partners at or right of the pair by 2), sets out[marks[i]] = marks[x]
for each write (i, x), with marks = (where, where + 1, ends[where],
ends[where + 1], interior), and a cap then deletes the pair and shifts the
partners right of it down by 2, refusing a strand left ending in its gap;
each item (x, y) becomes the bit of the bottom points -marks[x] and
-marks[y], and the picture's mask is the union of its bits.  The
value written carries its kind: on the sample and on every cut of the view
alike, marks 0 and 1 are cut positions and marks 2 and 3 far fields of the
kind the view gives the consumed ends, so the cut's value at a source mark
is of the kind the sample's entry has.  A target is 0 or 1, or 2 or 3 where
the view makes that consumed end a partner position.

The relabelling is exact.  The rewrite tests a position only in the loop
test, which the view holds, and the cup's and cap's shifts, which are done
on the concrete cut; otherwise it only moves ends about and compares
kinds.  So it commutes with renaming the sample's pair positions, far
fields and bottom points to those of any cut of the view: each picture on
that cut is the sample's picture, renamed.  The renaming is one to one, so
distinct pictures on the sample stay distinct on every cut and no edit needs
merging, and an entry a picture leaves as it was on the sample is as it was
on the cut too.  The plans are derived on the first naive expansion
(``_naive_plans``); the dp never reads them.

Each picture forwards the cut's raw count times n to its new cut, and each
state of the cut, with mask done, to the state done | mask there, straight
into the slice's new cuts.  No state of a cut has closed off a bottom point
whose strand still reaches the cut, and only such points are at marks 2 and
3, so done and mask share no bit.  Killed
terms and terms whose pictures sum to zero count it times 7 to the number
of crossings left, into the pruned tally.  A state whose coefficient
cancels to 0 is dropped from its new cut as it cancels, and the cut is
noted; after the slice (a later picture may refill it), each noted cut left
with no state is counted into the tally the same way: it adds nothing to
the vector, so it is retired and not rewritten again.  So the total is
exactly 7^c, and it is checked on every cut that carries a state.

The naive carries each state's coefficient as one int.  Every raw term
coefficient is +-q^+-1 (the cup's and the cap's is 1), so after t crossings
a state's coefficient has exponents in [-t, t], and q^t * coeff has them in
[0, 2t].  The naive keeps the value of q^t * coeff at q = 2^B (Kronecker
substitution), with B = bitlength(7^c) + 1 for a word of c crossings.  The
distinct picture coefficients of the plans, each times q for a crossing's,
are numbered once (``_naive_plans``: each picture's ``slot``) and packed
once per call, so a crossing multiplies a state by one packed int, and a
picture whose packed coefficient is 1 (every cup's and cap's) multiplies by
nothing.  Evaluation at 2^B is a ring homomorphism from Z[q], so the sums
and products of packed ints are exactly those of the polynomials, and a
final int decodes to its polynomial when every coefficient lies in
[-2^(B-1), 2^(B-1)).  They do, by L1 norms: a picture of n terms has a
coefficient of L1 norm at most n and forwards the count n times, so by
induction over the slices the L1 norms of a cut's states sum to at most its
raw count (a cancellation only lowers them), which is at most 7^c <
2^(B-1).  Each final coefficient is read as the balanced base-2^B digits of
its int, from exponent -c upward in steps of 1.  After decoding, a final
cut whose states' L1 norms sum to more than its raw count raises
``ConsistencyError``: by the bound it cannot happen unless the packing is
at fault, as a total other than 7^c means the counting is.  That bound is
loose (7^9 raw states against about 9 kept terms), so the decode also
checks each digit exactly.  Every crossing multiplies a state by q * coeff,
coeff a sum of +-q^+-1, and the cup and the cap by 1, so q^c * coeff is a
polynomial in q^2 of degree at most 2c: every digit at an odd distance from
exponent -c, and every digit above exponent c, is 0.  A coefficient too wide
for its digit would leave a carry of +-1 in the odd digit above it, so
``_naive_decode`` raises ``ConsistencyError`` on any nonzero digit there.
The L1 guard still sees a fault that leaves every digit on its exponent,
such as a packed coefficient scaled by a constant.

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
diagram surgery on a 3-point cut.  ``_kernel_table(key, back)`` derives
each table, and each transpose (below), once, on the first dp evaluation
that reads it (no braid closure reads the rot 1 and 3 crossings), and
caches it: at most 10 slice types times 2 directions.  No transition cache
is kept, and these tables are all the dp keeps between evaluations.

The dp's work at a slice grows with the live keys at its cut, about
2^(bottom + width), and ``braid_to_tangle`` puts every cup before the braid
and every cap after it, so every level of an n-strand closure is 2n-1 wide.
So before the slices run, ``_schedule`` moves cups as late and caps as
early as planar isotopy lets them go, on the kernel's own step list of
(table key, ib, width_in, width_out).  It swaps two adjacent steps A, B (A
first) when the swap moves a cup up (A is a cup and B is not) or a cap down
(B is a cap and A is not), and only when their bits are disjoint.  If B's
bits lie below A's (ib_B + in_B <= ib_A), B keeps its ib and A's shifts by
out_B - in_B; if they lie above (ib_B >= ib_A + out_A), B's ib shifts by
-(out_A - in_A) and A keeps its own.  Each swap narrows the one cut between
A and B and leaves every other cut as it was, so the pass ends.  A
crossing's (sign, rot) key travels with its step, and the dp reads no cup
label.  Only the dp is scheduled: ``expand_states`` and the Burau oracle
take the word as written, so wherever they are compared with the dp they
check the pass as well.

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

B depends only on the bottom count and the row norms of the word's slices:
every 6-strand 19-letter knot braid has B = 38, but words of varied shapes
change it from word to word, so no table is kept packed at any B.  Each
cached table, forward or transposed, keeps instead the operands its form
reads (below) with every coefficient c as its digits, the coefficients of
q^s * c as a polynomial in q^2, derived with the table.  ``evaluate_dp``
packs only the tables its steps read, in the direction it reads them, at
the word's B, with one shift and add per digit; the operand of a FAN_OUT or
FAN_IN table is a sign and is not packed.

Every table keeps the parity of its pair (the even block is 00/11, the odd
block 01/10), so each output coefficient of a slice reads at most one key
and its partner key ^ (3 << ib), where ib is the lowest bit of the pair.
``_table_form`` reads off each table's rows the form the kernel applies it
in; the first four write each output once, with no accumulation:

- BLOCK, a crossing whose twisted rows equal its plain rows (rot 0 and 2,
  so every braid crossing): 00 and 11 keys are multiplied in place by one
  packed scalar each, and each 01/10 partner pair is rewritten once by the
  2x2 odd block.  No spectator bit is read.
- SWAP, a sideways crossing (rot 1 and 3: its strands point opposite
  ways), whose odd block sends 01 to 10 and 10 to 01 alone and whose even
  block is diagonal but for one entry from src, one of 00 and 11, to the
  other, dst, the entry that the twist negates: in place, each odd key
  moves to its partner times its entry, and each src key with its dst
  partner is rewritten once by the 2x2 even block, the twist read only
  there.  A dst output that cancels is dropped in the same pass.
- FAN_OUT, the cup: each key writes its 00 output times 1 and its 11 output
  times +-1 by the twist; outputs of distinct keys never collide.
- FAN_IN, the cap: each 00 key is summed with its 11 partner, signed by the
  twist; 01 and 10 keys drop.
- SCATTER, any other table (no derived table is one): every row entry is
  added into its output key, and zero sums are dropped after the slice.  It
  is the fallback for a table of no known shape, and the tests compare
  every other form against it.

By the end of a braid closure most live keys can no longer reach an output
key, so ``evaluate_dp`` meets in the middle.  The first ``_split`` steps run
forward from the initial sliver; the rest run backward, from the top down
to the split cut, on a costate seeded with 1 on every output key, and each
output coefficient is the sum of state times costate over the keys of the
split cut.  A backward step applies the transposed table,
``_kernel_table(key, True)``, with the step's width_in and width_out
swapped.  The twist reads only spectator bits, which are the same
on both sides of a slice, so the plain and the twisted rows transpose each
on their own, and ``_table_form`` reads the transposes off as they are: a
BLOCK crossing stays BLOCK with its lo -> hi and hi -> lo entries traded,
a SWAP crossing stays SWAP with its 01 -> 10 and 10 -> 01 entries traded
and src and dst exchanged, the cup's transpose is FAN_IN and the cap's
FAN_OUT.  One costate serves every coordinate because no
slice touches a bottom bit (every ib is at least k): a key keeps its bottom
bits, its sector, from the bottom to the top, and with at most one top
point each sector has exactly one output key, sector | parity(sector) << k
for one top point and the sector itself (even sectors only) for none.  So
distinct sectors never mix, and the c_{} and c_{1,2} of a closure, which
``delta_from_class`` compares, come out separately.  With two or more top
points a sector has several output keys, each of which would need its own
costate, so ``_split`` returns len(steps) there and the backward part is
empty.  Otherwise it returns len(steps) // 2: on 150 6-strand knot braids
that reads as few live keys as splitting at the middle crossing.  Each
result int is the forward one, because the packed tables are integer
matrices and their product is associative; so B (from the forward tables'
norms), the offset and ``_decode`` are as above.

The naive packs on its own (``_naive_width``, ``_naive_value``,
``_naive_decode``), not with the dp's ``_digits``, ``_value`` and
``_decode``: it is the dp's independent check, and the two packings differ
in width, in variable (q against q^2) and in exponent step, so a fault in
one of them cannot give the same wrong vector on both sides.  The Burau
oracle keeps ``LaurentPoly`` arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import NamedTuple

from .laurent import LaurentPoly, ONE, Q, QINV, ZERO
from .diagram import (ClassVector, ConsistencyError, DiagramVector,
                      FlatDiagram, dotted_class)
from .tangle import CAP, CUP, EndpointCountError, MorseWord, analyze

_Z = Q - QINV  # q - q^-1


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
    _term(Q, [(0, 3, True), (1, 2, True)], []),
    _term(_Z, [(0, 3, True)], [1, 2]),
    _term(Q, [(1, 3, True)], [0, 2]),
    _term(QINV, [(0, 2, True)], [1, 3]),
    _term(-QINV, [], [0, 1, 2, 3]),
)
_NEG5 = (
    _term(QINV, [(0, 3, True), (1, 2, True)], []),
    _term(-_Z, [(1, 2, True)], [0, 3]),
    _term(QINV, [(0, 2, True)], [1, 3]),
    _term(Q, [(1, 3, True)], [0, 2]),
    _term(-Q, [], [0, 1, 2, 3]),
)
_POS7 = (
    _term(Q, [(0, 3, False), (1, 2, False)], []),
    _term(Q, [(1, 3, False)], [0, 2]),
    _term(-Q, [(1, 2, False)], [0, 3]),
    _term(-Q, [], [0, 1, 2, 3]),
    _term(QINV, [(0, 2, False)], [1, 3]),
    _term(-QINV, [(0, 3, False)], [1, 2]),
    _term(-QINV, [], [0, 1, 2, 3]),
)
_NEG7 = (_term(QINV, [(0, 3, False), (1, 2, False)], []),) + _POS7[1:]


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
# one slice applied to the cut of partial-diagram states
#
# A state is (ends, done): its cut and what it has closed off among the
# bottom points.  ``_apply_terms`` and ``_finalize`` read the dotted form,
# which the dp's local states need:
#   ends[p]  for cut position p (0-based): ('c', partner_position, dot)
#            | ('b', bottom_point, dot) | ('t', None, dot)
# with the strand dot flag stored at both ends of a strand, and done a
# frozenset of ('chord', i, j, dot) and ('tick', i).  No naive cut carries a
# dot, so ``expand_states`` keeps each cut as a tuple of ints:
#   ends[p]  partner_position (>= 0) | -bottom_point | _INTERIOR_END
# and done as the int mask of its items (``_item_bit``).  The rewrite reads
# only ``ends``, never ``done``.

_CUP_TERM_PLAIN = (_term(ONE, [(2, 3, False)], []),)
_CUP_TERMS_DOTTED = (_term(ONE, [(2, 3, True)], []),
                     _term(ONE, [], [2, 3]))
_CAP_TERM = (_term(ONE, [(0, 1, False)], []),)

_INTERIOR = ("t", None, False)
_INTERIOR_END = -1 << 62           # below -bottom_point for any word


def _open_gap(ends, where):
    """A copy of an int cut as a cup at ``where`` leaves it before its pair
    is written: two empty positions at ``where``, and every partner at or
    right of it moved up by 2."""
    out = [e + 2 if e >= where else e for e in ends]
    out[where:where] = (None, None)
    return out


def _close_gap(out, where):
    """Close a cap's pair at ``where`` in the int cut ``out``: delete its two
    positions and move every partner right of them down by 2.  A strand
    still ending in the gap means the cut was inconsistent."""
    del out[where:where + 2]
    for i, e in enumerate(out):
        if e >= where:
            if e <= where + 1:
                raise ConsistencyError("cap left a strand ending in its gap")
            out[i] = e - 2


def _apply_terms(ends, where, terms, consumed, produced):
    """Apply every local picture of a slice's table to one cut.  ``where``
    is the 0-based position of the piece's left corner.

    Returns (outcomes, killed): ``outcomes`` maps (ends', added), the new
    cut and the frozenset of items the term closes off among the bottom
    points, to [summed signed coefficient, number of terms]; ``killed`` is
    the number of killed terms.  Terms giving the same picture are merged
    into one outcome, which may sum to zero.

    The rewrite is the one the module docstring describes.  The cup shift,
    the corners' state-side ends and the loop test are done once for the
    cut.  A corner's state-side end is written like an entry of ``ends``; a
    produced corner's is ('c', its own new cut position, False), so a join
    writes a new cut position the same way as an old one."""
    if produced and not consumed:          # a cup: make room for the pair
        ends = [("c", e[1] + 2, e[2]) if e[0] == "c" and e[1] >= where else e
                for e in ends]
        ends[where:where] = [None, None]
    else:
        ends = list(ends)
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
    outcomes = {}
    killed = 0
    for term in terms:
        coeff = term.coeff
        joins = [(side[u], side[v], dot) for u, v, dot in term.chords]
        joins += [(side[c], _INTERIOR, False) for c in term.ticks]
        if loop is not None:
            merged = [j for j in joins if j[0] is None or j[1] is None]
            joins = [j for j in joins if j[0] is not None and j[1] is not None]
            if len(merged) == 1:           # the chord (0, 1): a closed loop
                if not (loop or merged[0][2]):
                    killed += 1
                    continue
                coeff = -coeff
            else:
                (x, y, d), (u, v, e) = merged
                joins.append((y if x is None else x, v if u is None else u,
                              loop or d or e))
        out = ends.copy()
        added = []
        for x, y, dot in joins:
            dot = dot or x[2] or y[2]
            if y[0] == "t":
                x, y = y, x
            if x[0] == "t":                # a path to an interior vertex
                if dot:
                    break
                if y[0] == "b":
                    added.append(("tick", y[1]))
                elif y[0] == "c":
                    out[y[1]] = _INTERIOR
            elif x[0] == "b" and y[0] == "b":
                added.append(("chord", min(x[1], y[1]), max(x[1], y[1]), dot))
            else:
                if x[0] == "b":
                    x, y = y, x
                out[x[1]] = (y[0], y[1], dot)
                if y[0] == "c":
                    out[y[1]] = ("c", x[1], dot)
        else:
            if consumed and not produced:  # a cap: close its gap
                del out[where:where + 2]
                for i, e in enumerate(out):
                    if e[0] == "c" and e[1] >= where:
                        if e[1] <= where + 1:
                            raise ConsistencyError(
                                "cap left a strand ending in its gap")
                        out[i] = ("c", e[1] - 2, e[2])
            key = (tuple(out), frozenset(added))
            acc = outcomes.get(key)
            if acc is None:
                outcomes[key] = [coeff, 1]
            else:
                acc[0] = acc[0] + coeff
                acc[1] += 1
            continue
        killed += 1                        # a dotted path met a tick
    return outcomes, killed


# ---------------------------------------------------------------------------
# naive plans: each table's pictures on a cut, as edits of the cut
#
# What a table does to a cut depends only on the cut's view at the piece (see
# the module docstring), so its pictures are derived once per (table, view),
# not once per cut, and a cut is rewritten by relabelling them.

# the 10 views of a crossing or a cap: a loop, or the kinds of the two
# consumed corners' ends; a cup's one view is None
_VIEWS = ("loop",) + tuple((a, b) for a in "tbc" for b in "tbc")


def _view(ends, where, consumed):
    """The view of an int cut at the piece whose left corner is ``where``."""
    if not consumed:
        return None
    a, b = ends[where], ends[where + 1]
    if a == where + 1:
        return "loop"
    return ("c" if a >= 0 else "t" if a == _INTERIOR_END else "b",
            "c" if b >= 0 else "t" if b == _INTERIOR_END else "b")


def _view_sample(view):
    """A cut with ``view`` at position 0, written in marks: width 4 for a
    crossing or a cap, empty for a cup.  The far field of corner 0's end
    (its bottom point or its partner's position) is 2, that of corner 1's is
    3; a position 2 or 3 that is no partner holds a spectator strand from
    bottom point 4 or 5."""
    if view is None:
        return ()
    if view == "loop":
        return (("c", 1, False), ("c", 0, False),
                ("b", 4, False), ("b", 5, False))
    sample = [None, None, ("b", 4, False), ("b", 5, False)]
    for i, kind in enumerate(view):
        if kind == "t":
            sample[i] = _INTERIOR
        else:
            sample[i] = (kind, 2 + i, False)
            if kind == "c":
                sample[2 + i] = ("c", i, False)
    return tuple(sample)


class _Picture(NamedTuple):
    coeff: LaurentPoly  # the summed coefficient of the picture's terms
    n: int              # table terms the picture stands for
    writes: tuple       # (target mark, source mark): new entries
    added: tuple        # items closed off among the bottom points, as mark
                        # pairs (x, y), x == y for a tick
    slot: int           # the index of q^shift * coeff in the plans' coeffs


class _Plan(NamedTuple):
    pictures: tuple     # one per picture whose terms do not sum to zero
    killed: int         # terms killed on the view
    zero: int           # terms whose pictures sum to zero


def _plan(terms, consumed, produced, view, slots) -> _Plan:
    """The pictures ``terms`` give on the sample cut of ``view``, each as
    the edit that makes it: every entry that differs from the sample, as
    (target mark, source mark) (a cap's output is read back across the gap
    it closed), and the items it closes off, each as a pair of marks (a
    tick's mark twice; a dotted chord has no mask bit and is refused).  The
    source mark is the mark the new entry names, or 4 for an interior end;
    the sample gives each mark one kind of end, so the value an int cut has
    at the source mark carries the entry's kind.  Each picture's q^shift *
    coeff, shift 1 for a crossing and 0 for a cup or a cap, gets the next
    slot of ``slots`` unless it has one."""
    sample = _view_sample(view)
    off = 2 if consumed and not produced else 0
    outcomes, killed = _apply_terms(sample, 0, terms, consumed, produced)
    shift = Q if consumed and produced else ONE
    pictures, zero = [], 0
    for (out, added), (coeff, n) in outcomes.items():
        if not coeff:
            zero += n
            continue
        writes = []
        for p, e in enumerate(out, off):
            if e[0] == "c":
                e = ("c", e[1] + off, e[2])
            if p >= len(sample) or e != sample[p]:
                writes.append((p, 4 if e[1] is None else e[1]))
        items = []
        for item in sorted(added):
            if item[0] == "tick":
                items.append((item[1], item[1]))
            elif item[3]:
                raise ConsistencyError("a naive picture closes off a dotted "
                                       "chord")
            else:
                items.append(item[1:3])
        slot = slots.setdefault(coeff * shift, len(slots))
        pictures.append(_Picture(coeff, n, tuple(writes), tuple(items),
                                 slot))
    return _Plan(tuple(pictures), killed, zero)


@lru_cache(maxsize=1)
def _naive_plans(tables: ExpansionTable) -> tuple:
    """(plans, coeffs): plans[key][view] for every slice the naive
    expansion applies, key a crossing's (sign, rot), CUP or CAP, and the
    distinct q^shift * coeff of their pictures, each picture's at its slot.
    Derived on the first naive expansion, not at import; the dp never reads
    them."""
    slices = {key: (terms, True, True) for key, terms in tables.seven.items()}
    slices[CUP] = (_CUP_TERM_PLAIN, False, True)
    slices[CAP] = (_CAP_TERM, True, False)
    slots = {}
    plans = {key: {view: _plan(terms, consumed, produced, view, slots)
                   for view in (_VIEWS if consumed else (None,))}
             for key, (terms, consumed, produced) in slices.items()}
    return plans, tuple(slots)


def _item_bit(i: int, j: int) -> int:
    """The mask bit of an item closed off among the bottom points: the tick
    on bottom point i when j == i, else the undotted chord between i and j.
    Item (i, j), i <= j, is bit j(j - 1)/2 + i - 1, so every tick and chord
    on any number of bottom points has its own bit."""
    if i > j:
        i, j = j, i
    return 1 << (j * (j - 1) // 2 + i - 1)


def _read_mask(mask: int):
    """(chords, ticks) of the items whose bits are set in ``mask``: each
    chord as (i, j, False) with i < j, each tick as its bottom point."""
    chords, ticks = [], []
    while mask:
        low = mask & -mask
        mask ^= low
        bit = low.bit_length() - 1
        j = (isqrt(8 * bit + 1) + 1) // 2
        i = bit - j * (j - 1) // 2 + 1
        if i == j:
            ticks.append(i)
        else:
            chords.append((i, j, False))
    return chords, ticks


def _rewrite(ends, where, plan, consumed, produced, count, states, new,
             values, emptied):
    """Forward one int cut of ``plan``'s view, with its raw ``count`` and
    its ``states`` ({done mask: packed coeff}), through each picture of the
    plan into ``new``, the slice's new cuts ({ends': [raw count, states]}).

    Each picture's edit is read with marks 0 and 1 as the pair's positions,
    2 and 3 as the consumed corners' ends (a partner position or a bottom
    point) and 4 as an interior end, and its items as the mask of their bits
    on the bottom points at marks 2 and 3.  The picture adds count * n to
    its new cut's raw count and each state (done, x) as (done | mask, x *
    values[slot]); a state that cancels there is dropped, and the new cut
    appended to ``emptied``.  So the pictures are what ``_apply_terms``
    gives with the table's terms, less those that sum to zero."""
    if consumed:
        base = ends
        marks = (where, where + 1, ends[where], ends[where + 1],
                 _INTERIOR_END)
    else:
        base = _open_gap(ends, where)
        marks = (where, where + 1)
    for _, n, writes, added, slot in plan.pictures:
        out = list(base)
        for i, x in writes:
            out[marks[i]] = marks[x]
        if not produced:
            _close_gap(out, where)
        out = tuple(out)
        mask = 0
        for x, y in added:
            mask |= _item_bit(-marks[x], -marks[y])
        v = values[slot]
        cut = new.get(out)
        if cut is None:
            cut = new[out] = [0, {}]
        cut[0] += n * count
        target = cut[1]
        for done, x in states.items():
            done |= mask
            if v != 1:
                x *= v
            old = target.get(done)
            if old is not None:
                x += old
                if not x:
                    # a cancelled state is dropped where it cancels
                    del target[done]
                    emptied.append(out)
                    continue
            target[done] = x


def _finalize(ends, done, bottom_count: int) -> FlatDiagram:
    """The diagram of a cut of the dp's local states, in the dotted form,
    with the items ``done`` closed off below it.  Cut position p is
    boundary point n - p; every chord is written smaller point first, as
    ``FlatDiagram`` stores it (``done`` holds them so already)."""
    n = bottom_count + len(ends)
    chords = []
    ticks = []
    for item in done:
        if item[0] == "chord":
            chords.append(item[1:])
        else:
            ticks.append(item[1])
    for p, e in enumerate(ends):
        if e[0] == "c":
            if e[1] > p:
                chords.append((n - e[1], n - p, e[2]))
        elif e[0] == "b":
            chords.append((e[1], n - p, e[2]))
        else:
            ticks.append(n - p)
    return FlatDiagram(n, frozenset(chords), frozenset(ticks))


# ---------------------------------------------------------------------------
# the multilinear (state sum) evaluator


def _naive_width(crossings: int) -> int:
    """The naive's digit width B: every coefficient of a state's q^t *
    coeff lies in [-2^(B-1), 2^(B-1)), since its L1 norm is at most the raw
    count of its cut, at most 7^crossings (see the module docstring)."""
    return (7 ** crossings).bit_length() + 1


def _naive_value(c: LaurentPoly, width: int) -> int:
    """c at q = 2^width, for c with no negative exponent."""
    return sum(a << (width * e) for e, a in c.terms())


def _naive_decode(v: int, width: int, offset: int) -> LaurentPoly:
    """The polynomial whose coefficients are the balanced base-2^width
    digits of v, in [-2^(width-1), 2^(width-1)), with the lowest digit at
    exponent offset and each next digit 1 exponent higher.

    v packs q^c * coeff for a state of a word of c = -offset crossings,
    a polynomial in q^2 of degree at most 2c, so ``ConsistencyError`` is
    raised on a nonzero digit at an odd distance from offset or above
    exponent c (see the module docstring)."""
    half = 1 << (width - 1)
    mask = (1 << width) - 1
    coeffs = {}
    e = offset
    while v:
        d = ((v + half) & mask) - half
        if d:
            if (e - offset) & 1 or e > -offset:
                raise ConsistencyError(
                    f"packed coefficient has digit {d} at exponent {e}, but "
                    f"{-offset} crossings give only exponents {offset}, "
                    f"{offset + 2}, ..., {-offset}")
            coeffs[e] = d
        v = (v - d) >> width
        e += 1
    return LaurentPoly(coeffs)


def expand_states(word: MorseWord):
    """Expand every crossing by its table and reduce each state.

    The states are grouped by int cut, and each cut is rewritten once per
    slice by the edits of the plan of its view, which forward its states
    into the slice's new cuts; each state is keyed by the int mask of the
    items it has closed off among the bottom points, and its coefficient is
    carried as one packed int (see the module docstring).  Each final cut's
    chords and ticks are read once, and each of its states' masks into the
    rest of its diagram.  Returns (DiagramVector, raw_state_count); the
    count includes the states pruned: those of killed terms, of pictures
    whose terms sum to zero and of cuts left with no state after a slice (a
    state is dropped as it cancels), each counted times the states the
    crossings left would have made.  So
    it always equals 7^(number of crossings), and ``ConsistencyError`` is
    raised if it does not, if a packed coefficient has a nonzero digit off
    the exponents -c, -c + 2, ..., c for c crossings, or if the states of a
    final cut have a larger L1 norm than its raw count.
    """
    an = analyze(word)
    plans, coeffs = _naive_plans(base_tables())
    k = word.bottom_count
    crossings = len(an.crossings)
    width = _naive_width(crossings)
    values = [_naive_value(c, width) for c in coeffs]   # by slot

    # the states grouped by cut: {ends: [raw count, {done: packed coeff}]},
    # done the mask of the items closed off among the bottom points
    cuts = {tuple(-p - 1 for p in range(k)): [1, {0: 1}]}
    killed = 0
    ci = iter(an.crossings)
    left = crossings           # crossings above the slice being expanded
    for sl in word.slices:
        if sl.kind == CUP:
            table, consumed, produced = plans[CUP], False, True
        elif sl.kind == CAP:
            table, consumed, produced = plans[CAP], True, False
        else:
            info = next(ci)
            table = plans[(info.sign, info.rot)]
            consumed = produced = True
            left -= 1
        after = 7 ** left
        where = sl.pos - 1
        new = {}
        emptied = []           # the new cuts a state cancelled in
        for ends, (count, states) in cuts.items():
            plan = table[_view(ends, where, consumed)]
            killed += (plan.killed + plan.zero) * count * after
            _rewrite(ends, where, plan, consumed, produced, count, states,
                     new, values, emptied)
        # a cut a state cancelled in may have been refilled later in the
        # slice; one still left with no state is retired: its raw count goes
        # to the pruned tally and it is not rewritten again
        for e2 in emptied:
            cut = new.get(e2)
            if cut is not None and not cut[1]:
                killed += cut[0] * after
                del new[e2]
        cuts = new
    vec = DiagramVector(word.endpoint_count)
    total = killed
    for ends, (count, states) in cuts.items():
        total += count
        # the cut's own chords and ticks, read once: cut position p is
        # boundary point n - p, every chord smaller point first
        n = k + len(ends)
        chords, ticks = [], []
        for p, e in enumerate(ends):
            if e == _INTERIOR_END:
                ticks.append(n - p)
            elif e < 0:
                chords.append((-e, n - p, False))
            elif e > p:
                chords.append((n - e, n - p, False))
        norm = 0
        for done, x in states.items():
            coeff = _naive_decode(x, width, -crossings)
            norm += sum(abs(a) for _, a in coeff.terms())
            below, closed = _read_mask(done)
            vec.add_term(FlatDiagram(n, frozenset(chords + below),
                                     frozenset(ticks + closed)), coeff)
        if norm > count:
            raise ConsistencyError(
                f"states of L1 norm {norm} on a cut of {count} raw states")
    expected = 7 ** crossings
    if total != expected:
        raise ConsistencyError(f"state count {total} != {expected}")
    return vec, total


def evaluate_naive(word: MorseWord) -> DiagramVector:
    """Full expansion over the 7-term tables, reduced in the diagram space."""
    return expand_states(word)[0]


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
        outcomes, _ = _apply_terms(ends, 0, terms, consumed, produced)
        for (e2, added), (coeff, _) in outcomes.items():
            sign, subset = dotted_class(_finalize(e2, done | added, k))
            bits = sum(1 << (p - 1) for p in subset)
            if consumed and bits & 1 != loc.bit_count() & 1:
                raise ConsistencyError("slice transition moved a spectator")
            out = bits >> k
            acc[out] = acc.get(out, ZERO) + (coeff if sign > 0 else -coeff)
        plain = tuple((out, c) for out, c in sorted(acc.items()) if c)
        twisted = tuple(
            (out, -c if (loc == 3) != (produced and out == 3) else c)
            for out, c in plain)
        rows.append((plain, twisted))
    return tuple(rows)


# the forms a local table can take in the kernel (see the module docstring)
BLOCK, SWAP, FAN_OUT, FAN_IN, SCATTER = (
    "block", "swap", "fan-out", "fan-in", "scatter")


class _KernelTable(NamedTuple):
    rows: tuple        # per input pair value: (plain, twisted) (out, coeff)
    shift: int         # q^shift * c is a polynomial in q^2, for every entry c
    norm: int          # row L1 norm
    form: str          # BLOCK, SWAP, FAN_OUT, FAN_IN or SCATTER, read off
                       # the rows
    operands: tuple    # what the kernel reads in that form, as digits


def _table_form(rows, consumed: bool, produced: bool) -> str:
    """The form in which the kernel applies a local table, read off its rows
    (the module docstring says what each form does):

    BLOCK     a crossing whose twisted rows equal its plain rows, with no
              zero entry, taking 00 and 11 each to itself alone, one odd
              pair value (lo) to the other (hi) alone, and hi to both;
    SWAP      a crossing with no zero entry taking 01 to 10 alone and 10 to
              01 alone, one even pair value (src) to both 00 and 11 and the
              other to itself alone, whose twisted rows equal its plain
              rows but for the src -> 3 - src entry, which is negated;
    FAN_OUT   a cup creating 00 with 1 and 11 with s, twisted -s (s = +-1);
    FAN_IN    a cap taking 00 to 1 and 11 to s, twisted -s, and 01, 10 to 0;
    SCATTER   any other table."""
    one = ((0, ONE),)
    if consumed and produced:
        outs = [[out for out, _ in plain] for plain, _ in rows]
        if (all(plain == twisted for plain, twisted in rows)
                and all(c for plain, _ in rows for _, c in plain)
                and outs[0] == [0] and outs[3] == [3]
                and (outs[1], outs[2]) in (([2], [1, 2]), ([1, 2], [1]))):
            return BLOCK
        if (all(c for plain, _ in rows for _, c in plain)
                and outs[1] == [2] and outs[2] == [1]
                and (outs[0], outs[3]) in (([0, 3], [3]), ([0], [0, 3]))
                and all(twisted == tuple((out, -c if {i, out} == {0, 3} else c)
                                         for out, c in plain)
                        for i, (plain, twisted) in enumerate(rows))):
            return SWAP
    elif produced:
        if any(rows == ((one + ((3, s),), one + ((3, -s),)),)
               for s in (ONE, -ONE)):
            return FAN_OUT
    elif any(rows == ((one, one), ((), ()), ((), ()), (((0, s),), ((0, -s),)))
             for s in (ONE, -ONE)):
        return FAN_IN
    return SCATTER


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


def _transpose(rows, produced: bool) -> tuple:
    """The rows of the transposed table: per output pair value of ``rows``,
    (plain, twisted) lists of (input pair value, coeff).  The twist reads
    only spectator bits, the same on both sides of a slice, so each part
    transposes on its own."""
    return tuple(tuple(tuple((i, c) for i, row in enumerate(rows)
                             for o, c in row[flip] if o == out)
                       for flip in (0, 1))
                 for out in range(4 if produced else 1))


def _digits(c: LaurentPoly, shift: int) -> tuple:
    """The coefficients of q^shift * c(q) as a polynomial in q^2, that of
    the highest power first.  ``_table_bound`` has checked that every
    shifted exponent is even, and shift = -(lowest exponent) keeps them
    nonnegative."""
    if not c:
        return ()
    return tuple(c.coeff(e) for e in range(c.max_exp(), -shift - 1, -2))


def _operands(form: str, rows, shift: int) -> tuple:
    """What the kernel's loop for a form reads off the rows, each
    coefficient as its ``_digits``: for BLOCK the entries (d0, d3, lo, b, c,
    d) of 00 -> 00, 11 -> 11, lo -> hi, hi -> lo and hi -> hi; for SWAP
    (src, ds, dd, e, b, c), src the even pair value that reaches both, and
    the plain entries src -> src, dst -> dst, src -> dst, 01 -> 10 and
    10 -> 01 (dst = 3 - src); for FAN_OUT and FAN_IN (s < 0,); for SCATTER
    the rows themselves."""
    if form is FAN_OUT:
        return (rows[0][0][1][1] != ONE,)
    if form is FAN_IN:
        return (rows[3][0][0][1] != ONE,)
    rows = tuple(tuple(tuple((out, _digits(c, shift)) for out, c in part)
                       for part in row) for row in rows)
    if form is BLOCK:
        (_, d0), = rows[0][0]
        (_, d3), = rows[3][0]
        lo = 1 if len(rows[1][0]) == 1 else 2
        (_, b), = rows[lo][0]
        hi_row = dict(rows[3 - lo][0])
        return d0, d3, lo, b, hi_row[lo], hi_row[3 - lo]
    if form is SWAP:
        src = 0 if len(rows[0][0]) == 2 else 3
        src_row = dict(rows[src][0])
        (_, dd), = rows[3 - src][0]
        (_, b), = rows[1][0]
        (_, c), = rows[2][0]
        return src, src_row[src], dd, src_row[3 - src], b, c
    return rows


def _make_table(rows, consumed: bool, produced: bool) -> _KernelTable:
    """A local table with its bound, form and operands."""
    shift, norm = _table_bound(rows)
    form = _table_form(rows, consumed, produced)
    return _KernelTable(rows, shift, norm, form, _operands(form, rows, shift))


@lru_cache(maxsize=None)
def _kernel_table(key, back: bool) -> _KernelTable:
    """The local table of one slice type, key a crossing's (sign, rot), CUP
    or CAP, or with ``back`` its transpose, which consumes what the table
    produces and produces what it consumes.  Each is derived on its first
    read, not at import: no braid closure reads the rot 1 and 3 crossings.
    Called with both arguments positional, so at most 10 keys x 2
    directions are kept."""
    consumed, produced = key != CUP, key != CAP
    if back:
        rows = _kernel_table(key, False).rows
        return _make_table(_transpose(rows, produced), produced, consumed)
    terms = (_CUP_TERMS_DOTTED if key == CUP else _CAP_TERM if key == CAP
             else base_tables().five[key])
    return _make_table(_local_table(terms, consumed, produced),
                       consumed, produced)


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


def _decode(v: int, width: int, offset: int) -> LaurentPoly:
    """The polynomial whose coefficients are the balanced base-2^width
    digits of v, in [-2^(width-1), 2^(width-1)), with the lowest digit at
    exponent offset (= -shift) and each next digit 2 exponents higher."""
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


def _value(digits, width: int) -> int:
    """The polynomial in q^2 whose ``_digits`` are given, at q^2 = 2^width."""
    v = 0
    for d in digits:
        v = (v << width) + d
    return v


def _pack(table: _KernelTable, width: int) -> tuple:
    """(form, operands) of a table with each coefficient at q^2 = 2^width:
    BLOCK's and SWAP's as scalars, a pair value kept as it is, SCATTER's as
    its rows; FAN_OUT's and FAN_IN's sign is not packed."""
    ops = table.operands
    if table.form is BLOCK:
        d0, d3, lo, b, c, d = ops
        ops = (_value(d0, width), _value(d3, width), lo, _value(b, width),
               _value(c, width), _value(d, width))
    elif table.form is SWAP:
        src, ds, dd, e, b, c = ops
        ops = (src, _value(ds, width), _value(dd, width), _value(e, width),
               _value(b, width), _value(c, width))
    elif table.form is SCATTER:
        ops = tuple(tuple(tuple((out, _value(c, width)) for out, c in part)
                          for part in row) for row in ops)
    return table.form, ops


def _steps(word: MorseWord) -> list:
    """One step per slice of the word: (table key, ib, width_in,
    width_out), where ib is the lowest bit of the slice's pair and
    width_in / width_out count the pair bits it consumes / produces."""
    an = analyze(word)
    k = word.bottom_count
    steps = []
    ci = iter(an.crossings)
    for sl, dirs in zip(word.slices, an.levels):
        w = len(dirs)
        if sl.kind == CUP:
            step = (CUP, k + w - sl.pos + 1, 0, 2)
        elif sl.kind == CAP:
            step = (CAP, k + w - sl.pos - 1, 2, 0)
        else:
            info = next(ci)
            step = ((info.sign, info.rot), k + w - sl.pos - 1, 2, 2)
        steps.append(step)
    return steps


def _schedule(steps) -> list:
    """The steps reordered by planar isotopy, cups as late and caps as
    early as they go (the module docstring gives the swap rule)."""
    steps = list(steps)
    i = 0
    while i + 1 < len(steps):
        a, b = steps[i], steps[i + 1]
        if (a[0] == CUP and b[0] != CUP) or (b[0] == CAP and a[0] != CAP):
            key_a, ib_a, in_a, out_a = a
            key_b, ib_b, in_b, out_b = b
            if ib_b + in_b <= ib_a:        # B's bits lie below A's
                steps[i:i + 2] = [b, (key_a, ib_a + out_b - in_b, in_a, out_a)]
                i = max(i - 1, 0)
                continue
            if ib_b >= ib_a + out_a:       # B's bits lie above A's
                steps[i:i + 2] = [(key_b, ib_b - out_a + in_a, in_b, out_b), a]
                i = max(i - 1, 0)
                continue
        i += 1
    return steps


def _sweep(state: dict, steps, packed: dict) -> dict:
    """The state after ``steps``, each table applied in its form with its
    packed operands, ``packed[table key]`` = (form, operands) (the module
    docstring says what each form does); ``state`` may be rewritten in
    place."""
    for table_key, ib, width_in, width_out in steps:
        form, ops = packed[table_key]
        m = 3 << ib                        # the pair's two bits
        if form is BLOCK:
            # a crossing, rewritten in place: an output key takes input only
            # from itself and its partner key ^ m, and no spectator is read
            d0, d3, lo, b, c, d = ops
            get = state.get
            drop = []
            add = []
            for key, x in state.items():
                pair = key >> ib & 3
                if pair == 0:
                    state[key] = x * d0
                elif pair == 3:
                    state[key] = x * d3
                elif pair == lo:
                    y = get(key ^ m)
                    if y is None:
                        drop.append(key)
                        add.append((key ^ m, x * b))
                    else:
                        state[key] = y * c
                        v = x * b + y * d
                        if v:
                            state[key ^ m] = v
                        else:
                            drop.append(key ^ m)
                elif key ^ m not in state:   # hi; with a lo partner, done there
                    add.append((key ^ m, x * c))
                    state[key] = x * d
            for key in drop:
                del state[key]
            state.update(add)
            continue
        if form is SWAP:
            # a sideways crossing, rewritten in place: an odd key moves to
            # its partner key ^ m, and a dst key also takes its src partner
            # key ^ m times e, signed by the twist, which is read only there
            src, ds, dd, e, b, c = ops
            get = state.get
            low_mask = (1 << ib) - 1
            drop = []
            add = []
            for key, x in state.items():
                pair = key >> ib & 3
                if pair == src:
                    state[key] = x * ds
                    x *= e
                    if (((key & low_mask).bit_count() >> 1)
                            + ((key >> (ib + 2)).bit_count() >> 1)) & 1:
                        x = -x
                    y = get(key ^ m)
                    if y is None:
                        add.append((key ^ m, x))
                    else:
                        v = y * dd + x
                        if v:
                            state[key ^ m] = v
                        else:
                            drop.append(key ^ m)
                elif pair == 1:
                    y = get(key ^ m)
                    if y is None:
                        drop.append(key)
                        add.append((key ^ m, x * b))
                    else:
                        state[key] = y * c
                        state[key ^ m] = x * b
                elif key ^ m not in state:   # 10, or dst with no src partner
                    if pair == 2:
                        drop.append(key)
                        add.append((key ^ m, x * c))
                    else:
                        state[key] = x * dd
            for key in drop:
                del state[key]
            state.update(add)
            continue
        new = {}
        low_mask = (1 << ib) - 1
        if form is FAN_OUT:
            # a cup: a key gives 00 times 1 and 11 times s, negated by the
            # twist; distinct keys give distinct outputs
            neg, = ops
            for key, x in state.items():
                low = key & low_mask
                high = key >> ib
                rest = low | (high << (ib + 2))
                new[rest] = x
                if ((low.bit_count() >> 1) + (high.bit_count() >> 1)
                        + neg) & 1:
                    new[rest | m] = -x
                else:
                    new[rest | m] = x
        elif form is FAN_IN:
            # a cap: a 00 key gives its coefficient plus s times that of its
            # 11 partner, negated by the twist; 01 and 10 keys give nothing
            neg, = ops
            get = state.get
            for key, x in state.items():
                pair = key >> ib & 3
                if pair == 0:
                    y = get(key | m)
                elif pair == 3 and key ^ m not in state:   # no 00 partner
                    x, y = 0, x
                else:
                    continue
                low = key & low_mask
                high = key >> (ib + 2)
                if y is not None:
                    if ((low.bit_count() >> 1) + (high.bit_count() >> 1)
                            + neg) & 1:
                        x -= y
                    else:
                        x += y
                    if not x:
                        continue
                new[low | (high << ib)] = x
        else:
            pair_mask = (1 << width_in) - 1
            for key, coeff in state.items():
                low = key & low_mask
                high = key >> (ib + width_in)
                rest = low | (high << (ib + width_out))
                # the twist (-1)^(floor(lo/2) + floor(hi/2)) over the
                # spectators
                flip = ((low.bit_count() >> 1) + (high.bit_count() >> 1)) & 1
                for out, c in ops[(key >> ib) & pair_mask][flip]:
                    nk = rest | (out << ib)
                    new[nk] = new.get(nk, 0) + coeff * c
            new = {key: c for key, c in new.items() if c}
        state = new
    return state


def _split(steps, top: int) -> int:
    """How many steps run forward before the costate meets the state: half
    of them when the top has at most one point, else all of them."""
    return len(steps) // 2 if top <= 1 else len(steps)


def evaluate_dp(word: MorseWord) -> ClassVector:
    """Coordinates of the tangle in the canonical basis of the quotient
    space, computed by composing one slice at a time: the bottom part of
    the step list forward from the bottom, the top part backward from the
    output keys (see the module docstring)."""
    k = word.bottom_count
    steps = _schedule(_steps(word))
    used = [_kernel_table(step[0], False) for step in steps]
    width = _digit_width(k, [table.norm for table in used])
    offset = -sum(table.shift for table in used)
    top = k + sum(step[3] - step[2] for step in steps)
    split = _split(steps, top)
    # initial sliver: nested undotted strands from bottom p to cut p, each
    # with coefficient 1
    state = {}
    for bits in range(1 << k):
        key = 0
        for p in range(k):
            if bits >> p & 1:
                key |= (1 << p) | (1 << (2 * k - 1 - p))
        state[key] = 1
    # each table the forward steps read, and the transpose of each one the
    # backward steps read, packed at this word's width
    state = _sweep(state, steps[:split],
                   {key: _pack(_kernel_table(key, False), width)
                    for key in {step[0] for step in steps[:split]}})
    if split < len(steps):
        # the costate, seeded with 1 on every output key, one per sector
        costate = _sweep(
            {key: 1 for key in range(1 << (k + top))
             if not key.bit_count() & 1},
            [(key, ib, width_out, width_in)
             for key, ib, width_in, width_out in reversed(steps[split:])],
            {key: _pack(_kernel_table(key, True), width)
             for key in {step[0] for step in steps[split:]}})
        low_mask = (1 << k) - 1
        meet = {}
        for key, x in state.items():
            y = costate.get(key)
            if y:
                sector = key & low_mask
                out = sector | (sector.bit_count() & 1) << k
                meet[out] = meet.get(out, 0) + x * y
        state = {key: v for key, v in meet.items() if v}
    n = k + top
    # each key is read once, as a sorted tuple, and each value is nonzero
    return ClassVector.trusted(n, {
        tuple(i + 1 for i in range(n) if key >> i & 1):
        _decode(c, width, offset) for key, c in state.items()})


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

"""Crossingless diagrams in a disk and the diagram spaces they span.

A diagram has n boundary points, numbered 1..n clockwise starting after a
basepoint fixed at the far left of the disk.  Every boundary point is either
an endpoint of an embedded chord (which may carry a dot) or is "ticked",
meaning its strand ends at an interior 1-valent vertex.  Chords are pairwise
noncrossing.  Closed loops and interior-interior strands are never stored:
they are evaluated away on the spot by the defining relations

    undotted closed loop          -> factor 0
    closed loop carrying a dot    -> factor -1
    dotted strand with a tick end -> factor 0
    undotted interior-interior    -> factor 1 (deleted)

A dotted chord abbreviates (chord) - (two ticks); two dots on a strand equal
one dot, so a single boolean per chord suffices.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .laurent import LaurentPoly, ONE, ZERO


class ConsistencyError(AssertionError):
    """A consistency check of the library's own computation failed: a state
    count, a dotted class, a cap gap, a turning number.  It is raised
    explicitly, so ``python -O`` keeps it."""


# ---------------------------------------------------------------------------
# diagrams


def _crossing_pair(a, b, c, d):
    """True if chords (a,b), (c,d) interleave in the circular order."""
    return (a < c < b < d) or (c < a < d < b)


class _FlatFields(NamedTuple):
    boundary_count: int
    chords: frozenset  # of (i, j, dotted) with i < j
    ticks: frozenset   # of boundary points


class FlatDiagram(_FlatFields):
    """A crossingless diagram: noncrossing (optionally dotted) chords plus ticks."""

    __slots__ = ()

    def __new__(cls, boundary_count, chords, ticks):
        self = super().__new__(cls, boundary_count, chords, ticks)
        self.validate()
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: route it through the check
        return cls(*iterable)

    @staticmethod
    def make(n, chords=(), ticks=()) -> "FlatDiagram":
        norm = set()
        for ch in chords:
            if len(ch) == 2:
                i, j, dot = ch[0], ch[1], False
            else:
                i, j, dot = ch
            if i == j:
                raise ValueError(f"degenerate chord ({i},{j})")
            if i > j:
                i, j = j, i
            norm.add((i, j, bool(dot)))
        return FlatDiagram(n, frozenset(norm), frozenset(ticks))

    def validate(self) -> None:
        n = self.boundary_count
        seen = set()
        for i, j, _ in self.chords:
            if not i < j:
                raise ValueError(f"chord ({i},{j}) is not stored as i < j")
            for p in (i, j):
                if not 1 <= p <= n:
                    raise ValueError(f"boundary point {p} out of range 1..{n}")
                if p in seen:
                    raise ValueError(f"boundary point {p} used twice")
                seen.add(p)
        for p in self.ticks:
            if not 1 <= p <= n:
                raise ValueError(f"boundary point {p} out of range 1..{n}")
            if p in seen:
                raise ValueError(f"boundary point {p} used twice")
            seen.add(p)
        if len(seen) != n:
            missing = sorted(set(range(1, n + 1)) - seen)
            raise ValueError(f"boundary points {missing} have no chord end "
                             f"or tick")
        cl = sorted(self.chords)
        for x in range(len(cl)):
            a, b, _ = cl[x]
            for y in range(x + 1, len(cl)):
                c, d, _ = cl[y]
                if _crossing_pair(a, b, c, d):
                    raise ValueError(f"chords ({a},{b}) and ({c},{d}) cross")

    def dotted_endpoints(self) -> frozenset:
        return frozenset(p for i, j, dot in self.chords if dot for p in (i, j))

    def is_dotted_basis(self) -> bool:
        """Every chord dotted: one basis diagram of the quotient space."""
        return all(dot for _, _, dot in self.chords)

    def expand_dots(self) -> "DiagramVector":
        """Replace each dotted chord by (chord) - (two ticks)."""
        dotted = sorted((i, j) for i, j, dot in self.chords if dot)
        plain = [(i, j, False) for i, j, dot in self.chords if not dot]
        v = DiagramVector(self.boundary_count)
        for keep in itertools.product((True, False), repeat=len(dotted)):
            chords = list(plain)
            ticks = set(self.ticks)
            sign = 1
            for (i, j), k in zip(dotted, keep):
                if k:
                    chords.append((i, j, False))
                else:
                    sign = -sign
                    ticks.update((i, j))
            v.add_term(FlatDiagram.make(self.boundary_count, chords, ticks),
                       LaurentPoly.monomial(sign))
        return v

    # -- text and JSON forms, e.g.  n=4; chords=(1,4)*,(2,3); ticks=  -------

    def __str__(self) -> str:
        ch = ",".join(f"({i},{j})" + ("*" if dot else "")
                      for i, j, dot in sorted(self.chords))
        tk = ",".join(str(p) for p in sorted(self.ticks))
        return f"n={self.boundary_count}; chords={ch}; ticks={tk}"

    @staticmethod
    def parse(text: str) -> "FlatDiagram":
        parts = {}
        for stmt in (s.strip() for s in text.split(";")):
            if not stmt:
                continue
            field, eq, value = stmt.partition("=")
            if field not in ("n", "chords", "ticks") or not eq:
                raise ValueError(f"bad diagram field {stmt!r}")
            if field in parts:
                raise ValueError(f"diagram field {field!r} given twice")
            parts[field] = value
        if "n" not in parts:
            raise ValueError("diagram text has no 'n='")
        n = int(parts["n"])
        chords = []
        body = parts.get("chords", "").replace(" ", "")
        while body:
            if not body.startswith("("):
                raise ValueError(f"bad chord list at {body!r}")
            close = body.index(")")
            i, j = (int(x) for x in body[1:close].split(","))
            rest = body[close + 1:]
            dot = rest.startswith("*")
            if dot:
                rest = rest[1:]
            chords.append((i, j, dot))
            # chords are separated by one ',' and the list ends on a chord
            if rest and (not rest.startswith(",") or rest == ","):
                raise ValueError(f"bad chord list at {rest!r}")
            body = rest[1:]
        ticks = parts.get("ticks", "").replace(" ", "")
        ticks = [int(x) for x in ticks.split(",")] if ticks else []
        return FlatDiagram._load(n, chords, ticks)

    def to_json(self):
        return {
            "boundary_count": self.boundary_count,
            "chords": [[i, j, dot] for i, j, dot in sorted(self.chords)],
            "ticks": sorted(self.ticks),
        }

    @staticmethod
    def from_json(data) -> "FlatDiagram":
        if (not isinstance(data, dict)
                or set(data) != {"boundary_count", "chords", "ticks"}
                or not isinstance(data["chords"], list)
                or not isinstance(data["ticks"], list)):
            raise ValueError("a diagram document has exactly the keys "
                             "boundary_count, chords and ticks, the last two "
                             "lists")
        return FlatDiagram._load(data["boundary_count"], data["chords"],
                                 data["ticks"])

    @staticmethod
    def _load(n, chords, ticks) -> "FlatDiagram":
        # a document is refused, not coerced: make() trusts its callers (it
        # sits on the naive expansion's hot loop), so it would read 2.0 as a
        # count and "yes" as a dot, and its set would merge a repeated chord
        if type(n) is not int or n < 0:
            raise ValueError(f"boundary_count {n!r} is not a count")
        for ch in chords:
            if (not isinstance(ch, (list, tuple)) or len(ch) != 3
                    or type(ch[0]) is not int or type(ch[1]) is not int
                    or type(ch[2]) is not bool):
                raise ValueError(f"chord {ch!r} is not [i, j, dotted] with "
                                 f"integer ends and a boolean dot")
        if any(type(p) is not int for p in ticks):
            raise ValueError(f"ticks {ticks!r} are not all integers")
        points = [p for ch in chords for p in ch[:2]] + list(ticks)
        if len(set(points)) != len(points):
            raise ValueError("a boundary point is given twice")
        return FlatDiagram.make(n, chords, ticks)


# ---------------------------------------------------------------------------
# gluing and inner products


def glue_evaluate(x: FlatDiagram, y: FlatDiagram) -> int:
    """Evaluate the closed diagram obtained by gluing x to mirror(y).

    Boundary point i of x meets boundary point i of y.  Composite strands are
    traced and the defining relations applied; the result is the product of
    the per-component factors, hence one of -1, 0, +1 up to sign for basis
    inputs (in general (+/-1)^loops or 0).
    """
    if x.boundary_count != y.boundary_count:
        raise ValueError("boundary_count mismatch")
    sides = []
    for d in (x, y):
        edge = {}
        for i, j, dot in d.chords:
            edge[i] = (j, dot)
            edge[j] = (i, dot)
        for p in d.ticks:
            edge[p] = (None, False)
        sides.append(edge)

    result = 1
    seen = [set(), set()]  # points whose x-side / y-side edge was traversed
    for start in range(1, x.boundary_count + 1):
        for side0 in (0, 1):
            if start in seen[side0]:
                continue
            # walk the component through alternating sides
            dots = 0
            open_ends = 0
            p, side = start, side0
            while True:
                partner, dot = sides[side][p]
                seen[side].add(p)
                dots += dot
                if partner is None:
                    open_ends += 1
                    if open_ends == 2:
                        break
                    # restart the walk from the other side of the start point
                    p, side = start, 1 - side0
                    if p in seen[side]:
                        break
                    continue
                seen[side].add(partner)
                p, side = partner, 1 - side
                if p == start and side == side0:
                    break
            if open_ends == 0:
                result *= -1 if dots else 0
            else:
                # a path between two interior endpoints
                result *= 0 if dots else 1
            if result == 0:
                return 0
    return result


def inner_product(v, w) -> LaurentPoly:
    """Bilinear extension of glue_evaluate (integer scalars are self-conjugate)."""
    if isinstance(v, FlatDiagram):
        v = DiagramVector.single(v)
    if isinstance(w, FlatDiagram):
        w = DiagramVector.single(w)
    if v.boundary_count != w.boundary_count:
        raise ValueError("boundary_count mismatch")
    total = ZERO
    for d1, c1 in v.terms():
        for d2, c2 in w.terms():
            g = glue_evaluate(d1, d2)
            if g:
                total = total + c1 * c2 * LaurentPoly.monomial(g)
    return total


# ---------------------------------------------------------------------------
# formal sums of diagrams


class DiagramVector:
    """A finitely supported LaurentPoly-weighted sum of FlatDiagrams."""

    __slots__ = ("boundary_count", "_terms")

    def __init__(self, boundary_count: int):
        self.boundary_count = boundary_count
        self._terms = {}

    @staticmethod
    def single(d: FlatDiagram, coeff: LaurentPoly = ONE) -> "DiagramVector":
        v = DiagramVector(d.boundary_count)
        v.add_term(d, coeff)
        return v

    def add_term(self, d: FlatDiagram, coeff: LaurentPoly) -> None:
        if d.boundary_count != self.boundary_count:
            raise ValueError("boundary_count mismatch")
        c = self._terms.get(d, ZERO) + coeff
        if c:
            self._terms[d] = c
        elif d in self._terms:
            del self._terms[d]

    def terms(self):
        return list(self._terms.items())

    def __getitem__(self, d: FlatDiagram) -> LaurentPoly:
        return self._terms.get(d, ZERO)

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "DiagramVector") -> "DiagramVector":
        v = DiagramVector(self.boundary_count)
        v._terms = dict(self._terms)
        for d, c in other._terms.items():
            v.add_term(d, c)
        return v

    def __sub__(self, other: "DiagramVector") -> "DiagramVector":
        return self + other.scale(LaurentPoly.monomial(-1))

    def scale(self, coeff: LaurentPoly) -> "DiagramVector":
        v = DiagramVector(self.boundary_count)
        if coeff:
            v._terms = {d: c * coeff for d, c in self._terms.items()}
        return v

    def __eq__(self, other) -> bool:
        return (isinstance(other, DiagramVector)
                and self.boundary_count == other.boundary_count
                and self._terms == other._terms)

    def __repr__(self) -> str:
        body = " + ".join(f"({c})[{d}]" for d, c in sorted(
            self._terms.items(), key=lambda t: str(t[0])))
        return f"<DiagramVector n={self.boundary_count}: {body or '0'}>"

    def expand_dots(self) -> "DiagramVector":
        """Rewrite every term over undotted diagrams."""
        v = DiagramVector(self.boundary_count)
        for d, c in self._terms.items():
            for dd, s in d.expand_dots().terms():
                v.add_term(dd, c * s)
        return v

    def is_zero(self) -> bool:
        return not self._terms


# ---------------------------------------------------------------------------
# bases


def enumerate_basis(n: int) -> list:
    """All undotted basis diagrams on n points: noncrossing partial matchings
    with unmatched points ticked.  The count is the n-th Motzkin number."""
    if n < 0:
        raise ValueError("n must be nonnegative")

    def rec(points):
        if not points:
            yield ((), ())
            return
        p, rest = points[0], points[1:]
        for chords, ticks in rec(rest):
            yield chords, (p,) + ticks
        for k in range(len(rest)):
            inside, outside = rest[:k], rest[k + 1:]
            for ci, ti in rec(inside):
                for co, to in rec(outside):
                    yield ((p, rest[k], False),) + ci + co, ti + to

    return [FlatDiagram.make(n, ch, tk) for ch, tk in rec(tuple(range(1, n + 1)))]


def motzkin(n: int) -> int:
    """Motzkin numbers via M(n+1) = M(n) + sum M(k) M(n-1-k)."""
    m = [1, 1]
    while len(m) <= n:
        k = len(m)
        m.append(m[k - 1] + sum(m[i] * m[k - 2 - i] for i in range(k - 1)))
    return m[n]


def canonical_rep(subset, n: int) -> FlatDiagram:
    """The chosen dotted basis diagram for an even subset S of {1..n}:
    nested (rainbow) dotted chords over sorted S, ticks elsewhere."""
    s = sorted(subset)
    if len(s) % 2:
        raise ValueError("subset must have even size")
    if s and (s[0] < 1 or s[-1] > n):
        raise ValueError("subset out of range")
    half = len(s) // 2
    chords = [(s[i], s[len(s) - 1 - i], True) for i in range(half)]
    ticks = sorted(set(range(1, n + 1)) - set(s))
    return FlatDiagram.make(n, chords, ticks)


def dotted_class(d: FlatDiagram):
    """Express a dotted basis diagram as sign * canonical_rep(S).

    Returns (sign, S) where S is the sorted tuple of dotted endpoints.  Valid
    because equivalent dotted basis diagrams agree up to sign in the quotient
    and <C_S, C_S> = (-1)^(|S|/2).
    """
    if not d.is_dotted_basis():
        raise ValueError("diagram has undotted chords")
    s = tuple(sorted(d.dotted_endpoints()))
    c = canonical_rep(s, d.boundary_count)
    g = glue_evaluate(d, c)
    if g not in (-1, 1):
        raise ConsistencyError(f"{d} pairs to {g} with its canonical rep")
    sign = g * (-1) ** (len(s) // 2)
    return sign, s


# ---------------------------------------------------------------------------
# coordinates in the quotient space


class ClassVector:
    """Coordinates of a diagram vector in the canonical dotted basis, keyed by
    even subsets S of the boundary points (2^(n-1) possible keys)."""

    __slots__ = ("boundary_count", "_coords")

    def __init__(self, boundary_count: int, coords=None):
        self.boundary_count = boundary_count
        self._coords = {}
        if coords:
            for s, c in (coords.items() if isinstance(coords, dict) else coords):
                self.add(s, c)

    @classmethod
    def trusted(cls, boundary_count: int, coords: dict) -> "ClassVector":
        """A class vector holding ``coords`` itself, as the evaluators build
        it: each key a sorted tuple of boundary points, given once, with a
        nonzero polynomial.  Only the parity of each key is checked; an odd
        key raises ``ConsistencyError``."""
        for s in coords:
            if len(s) & 1:
                raise ConsistencyError(f"odd key {s} in a class vector")
        cv = cls.__new__(cls)
        cv.boundary_count = boundary_count
        cv._coords = coords
        return cv

    def add(self, subset, coeff: LaurentPoly) -> None:
        s = tuple(sorted(subset))
        if len(s) % 2:
            raise ValueError("keys must be even subsets")
        c = self._coords.get(s, ZERO) + coeff
        if c:
            self._coords[s] = c
        elif s in self._coords:
            del self._coords[s]

    def __getitem__(self, subset) -> LaurentPoly:
        return self._coords.get(tuple(sorted(subset)), ZERO)

    def items(self):
        return sorted(self._coords.items(), key=lambda t: (len(t[0]), t[0]))

    def __len__(self) -> int:
        return len(self._coords)

    def is_zero(self) -> bool:
        return not self._coords

    def __eq__(self, other) -> bool:
        return (isinstance(other, ClassVector)
                and self.boundary_count == other.boundary_count
                and self._coords == other._coords)

    def __add__(self, other: "ClassVector") -> "ClassVector":
        v = ClassVector(self.boundary_count, dict(self._coords))
        for s, c in other._coords.items():
            v.add(s, c)
        return v

    def __sub__(self, other: "ClassVector") -> "ClassVector":
        return self + other.scale(LaurentPoly.monomial(-1))

    def scale(self, coeff: LaurentPoly) -> "ClassVector":
        v = ClassVector(self.boundary_count)
        if coeff:
            v._coords = {s: c * coeff for s, c in self._coords.items()}
        return v

    def __str__(self) -> str:
        lines = [f"S={{{','.join(map(str, s))}}}: {c}" for s, c in self.items()]
        return "\n".join(lines) if lines else "0"

    def __repr__(self) -> str:
        return f"<ClassVector n={self.boundary_count} ({len(self._coords)} keys)>"

    def to_json(self):
        return {
            "boundary_count": self.boundary_count,
            "coords": [[list(s), c.to_json()] for s, c in self.items()],
        }

    @staticmethod
    def from_json(data) -> "ClassVector":
        if (not isinstance(data, dict)
                or set(data) != {"boundary_count", "coords"}):
            raise ValueError("a class vector document has exactly the keys "
                             "boundary_count and coords")
        n = data["boundary_count"]
        if type(n) is not int or n < 0:
            raise ValueError(f"boundary_count {n!r} is not a count")
        v = ClassVector(n)
        # add() trusts its keys, which the evaluators build, sums a key it
        # sees twice and drops a zero sum; a document may carry any list, so
        # each key must be a set of boundary points, given once, with a
        # nonzero polynomial, as to_json writes it
        points = set(range(1, n + 1))
        seen = set()
        if not isinstance(data["coords"], list):
            raise ValueError(f"coords {data['coords']!r} is not a list")
        for entry in data["coords"]:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(f"coords entry {entry!r} is not [key, "
                                 f"polynomial]")
            s, c = entry
            if (not isinstance(s, list) or any(type(p) is not int for p in s)
                    or len(set(s)) != len(s) or not set(s) <= points):
                raise ValueError(f"key {s} is not a set of distinct boundary "
                                 f"points in 1..{n}")
            key = frozenset(s)
            if key in seen:
                raise ValueError(f"key {s} given twice")
            seen.add(key)
            c = LaurentPoly.from_json(c)
            if not c:
                raise ValueError(f"key {s} has the zero polynomial")
            v.add(s, c)
        return v


def even_subsets(n: int):
    """All even-cardinality subsets of {1..n} as sorted tuples."""
    pts = range(1, n + 1)
    for k in range(0, n + 1, 2):
        yield from itertools.combinations(pts, k)


def coordinates(v: DiagramVector) -> ClassVector:
    """Coordinates of the image of v in the quotient space.

    c_S = (-1)^(|S|/2) * <v, canonical_rep(S)>, using orthogonality of the
    canonical representatives.

    Each term d is paired only with the representatives it can pair to
    nonzero: S = (endpoints of every dotted chord of d) + (any union of its
    undotted chords), 2^(undotted chords) subsets instead of 2^(n-1).  Every
    chord of canonical_rep(S) is dotted, and a tick on either side makes its
    component a path, which is 0 when it carries a dot.  So a point of S
    ticked in d, a dotted chord of d leaving S, or an undotted chord of d
    with one end in S gives 0.

    For such an S the pairing is (-1)^loops, where loops counts the cycles
    formed by d's chords on S alternating with the rainbow chords
    s[i] -- s[m-1-i] of sorted S = (s[0], ..., s[m-1]); no diagram is built
    or glued.  Proof: take a point outside S.  The representative ticks it,
    and d either ticks it or holds it in an undotted chord with both ends
    outside S, so its component is an undotted path, with factor 1.  Every
    point of S lies on a chord on both sides, so the components through S
    are closed loops, and each one holds a dotted rainbow chord, with factor
    -1.  So each term adds (-1)^(loops + |S|/2) * c to c_S.
    """
    totals = {}
    for d, c in v.terms():
        mate = {}
        for i, j, _ in d.chords:
            mate[i] = j
            mate[j] = i
        dotted = [p for i, j, dot in d.chords if dot for p in (i, j)]
        plain = [(i, j) for i, j, dot in d.chords if not dot]
        for bits in range(1 << len(plain)):
            s = tuple(sorted(dotted + [p for k, pair in enumerate(plain)
                                       if bits >> k & 1 for p in pair]))
            rainbow = dict(zip(s, reversed(s)))
            # the parity of loops + |S|/2
            odd = len(s) // 2
            for p in s:
                if p in rainbow:
                    odd += 1
                    # walk the loop, a rainbow chord then a chord of d, and
                    # drop each rainbow chord as it is crossed
                    while p in rainbow:
                        r = rainbow.pop(p)
                        del rainbow[r]
                        p = mate[r]
            totals[s] = totals.get(s, ZERO) + (-c if odd & 1 else c)
    # each key is a sorted tuple of chord ends, given once
    return ClassVector.trusted(v.boundary_count,
                               {s: c for s, c in totals.items() if c})


def saddle_element() -> DiagramVector:
    """The 4-point element (both horizontal dotted chords) + (both vertical
    dotted chords); it pairs to zero with everything."""
    v = DiagramVector(4)
    v.add_term(FlatDiagram.make(4, [(1, 2, True), (3, 4, True)]), ONE)
    v.add_term(FlatDiagram.make(4, [(1, 4, True), (2, 3, True)]), ONE)
    return v

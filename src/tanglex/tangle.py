"""Oriented tangle diagrams in Morse position.

A tangle is a bottom-to-top word of elementary slices acting on a row of
strands: ``cup i`` births two strands at positions i, i+1; ``cap i`` joins the
strands at i, i+1; ``x+ i`` / ``x- i`` cross them with the left strand passing
over / under.  Each strand is oriented where it is born: by its bottom
endpoint's ``up``/``down`` or by its cup's ``cw``/``ccw``, which the cup's
``Slice`` carries as its ``label`` (no other slice has one).  A cap must join
two strands of opposite directions; a word that caps parallel strands is
rejected.

Every layer reads two facts off a word, computed once when it is built
(``analyze``): the direction of each strand at each level, +1 up or -1 down,
left to right, and each crossing's sign and pattern.  Level t lies below slice
t, so a word of n slices has n + 1 levels.

The turning number of a 2-endpoint word is a sum of half turns read off its
cups and caps (see ``turning_number``); the sum is even because the widths fix
cups - caps.

Boundary points of the whole tangle are numbered clockwise from a basepoint at
the far left: bottom endpoints 1..k left to right, then top endpoints right to
left.

Sign convention: a crossing where the left strand passes over and both strands
point upward is positive; the sign is unchanged when both strand directions
reverse.
"""

from __future__ import annotations

import random
from typing import NamedTuple


class TangleError(Exception):
    pass


class TangleSyntaxError(TangleError):
    pass


class WidthError(TangleError):
    pass


class OrientationError(TangleError):
    pass


class EndpointCountError(TangleError):
    pass


class MoveError(TangleError):
    pass


CUP, CAP, OVER, UNDER = "cup", "cap", "over", "under"
_CROSSINGS = (OVER, UNDER)


class Slice(NamedTuple):
    kind: str
    pos: int
    label: str | None = None  # 'cw' / 'ccw' on a cup, None on any other slice


class _MorseFields(NamedTuple):
    bottom_count: int
    slices: tuple               # Slice per slice, bottom to top
    bottom_orientations: tuple  # 'up' / 'down' per bottom endpoint


class MorseWord(_MorseFields):
    """An oriented tangle diagram as a validated slice word."""

    def __new__(cls, bottom_count, slices, bottom_orientations):
        # tuples, so the word cannot change under its cached analysis
        self = super().__new__(cls, bottom_count, tuple(slices),
                               tuple(bottom_orientations))
        # validates widths and orientations; analyze(self) returns the result,
        # kept in the instance dict (this subclass declares no __slots__)
        self._analysis = _analyze(self)
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: route it through the check
        return cls(*iterable)

    @property
    def top_count(self) -> int:
        return len(analyze(self).levels[-1])

    @property
    def endpoint_count(self) -> int:
        return self.bottom_count + self.top_count

    def crossing_count(self) -> int:
        return len(analyze(self).crossings)

    def __str__(self) -> str:
        return format_word(self)


class _Analysis(NamedTuple):
    """Derived structure of a word: strand directions and crossings."""

    levels: tuple     # per level, +1 (up) / -1 (down) per strand, left to right
    crossings: tuple  # CrossingInfo per crossing slice


class CrossingInfo(NamedTuple):
    slice_index: int
    pos: int
    d1: int  # direction of the strand on the "/" diagonal (+1 = upward)
    d2: int  # direction of the strand on the "\" diagonal
    sign: int
    rot: int  # quarter-turns carrying the up-up pattern to this one


_ROT_OF_PATTERN = {(1, 1): 0, (-1, 1): 1, (-1, -1): 2, (1, -1): 3}


def _crossing_sign(kind: str, d1: int, d2: int) -> int:
    parallel = d1 == d2
    if kind == OVER:
        return 1 if parallel else -1
    return -1 if parallel else 1


def analyze(word: MorseWord) -> _Analysis:
    """The derived structure of a word, computed once when it was built."""
    return word._analysis


def _analyze(word: MorseWord) -> _Analysis:
    """Orient each strand where it is born, check each cap, and classify the
    crossings.

    ``current`` holds the direction of every strand at the present level: a
    cup inserts ``(d, -d)`` with d = +1 for ``cw``, a cap must join two
    opposite directions, and a crossing swaps the two it crosses."""
    k = word.bottom_count
    if type(k) is not int:
        raise WidthError(f"bottom count must be an int, not {k!r}")
    if k < 0:
        raise WidthError("negative bottom count")
    if len(word.bottom_orientations) != k:
        raise OrientationError("need one up/down per bottom endpoint")

    current = []
    for o in word.bottom_orientations:
        if o not in ("up", "down"):
            raise OrientationError(f"bad bottom orientation {o!r}")
        current.append(1 if o == "up" else -1)
    levels = [tuple(current)]
    crossings = []
    for t, sl in enumerate(word.slices):
        if not isinstance(sl, Slice):
            raise TangleSyntaxError(f"slice {t}: {sl!r} is not a Slice")
        if type(sl.pos) is not int:
            raise WidthError(f"slice {t}: {sl.kind} position must be an int, "
                             f"not {sl.pos!r}")
        w = len(current)
        if sl.kind == CUP:
            if not 1 <= sl.pos <= w + 1:
                raise WidthError(
                    f"slice {t}: cup {sl.pos} out of range at width {w}")
            if sl.label not in ("cw", "ccw"):
                raise OrientationError(
                    f"slice {t}: cup needs cw or ccw, not {sl.label!r}")
            d = 1 if sl.label == "cw" else -1
            current[sl.pos - 1:sl.pos - 1] = (d, -d)
        elif sl.label is not None:
            raise OrientationError(
                f"slice {t}: only a cup takes a label, not {sl.kind} "
                f"{sl.pos} {sl.label!r}")
        elif sl.kind == CAP:
            if not 1 <= sl.pos <= w - 1:
                raise WidthError(
                    f"slice {t}: cap {sl.pos} out of range at width {w}")
            if current[sl.pos - 1] == current[sl.pos]:
                raise OrientationError(
                    f"slice {t}: inconsistent strand orientations")
            del current[sl.pos - 1:sl.pos + 1]
        elif sl.kind in _CROSSINGS:
            if not 1 <= sl.pos <= w - 1:
                raise WidthError(
                    f"slice {t}: crossing {sl.pos} out of range at width {w}")
            d1, d2 = current[sl.pos - 1], current[sl.pos]
            crossings.append(CrossingInfo(
                t, sl.pos, d1, d2, _crossing_sign(sl.kind, d1, d2),
                _ROT_OF_PATTERN[(d1, d2)]))
            current[sl.pos - 1], current[sl.pos] = d2, d1
        else:
            raise TangleError(f"unknown slice kind {sl.kind!r}")
        levels.append(tuple(current))
    return _Analysis(tuple(levels), tuple(crossings))


# ---------------------------------------------------------------------------
# the tangle language


def parse(text: str) -> MorseWord:
    """Parse the tangle language: ';'-separated statements
    ``bottom <k> [up|down]{k}``, ``cup <i> cw|ccw``, ``cap <i>``,
    ``x+ <i>``, ``x- <i>``."""
    bottom = None
    orients = ()
    slices = []
    for idx, stmt in enumerate(text.split(";")):
        words = stmt.split()
        if not words:
            continue
        head = words[0]
        try:
            if head == "bottom":
                if bottom is not None:
                    raise TangleSyntaxError(
                        f"statement {idx}: duplicate bottom declaration")
                k = int(words[1])
                if len(words) != 2 + k:
                    raise TangleSyntaxError(
                        f"statement {idx}: bottom {k} needs {k} orientations")
                orients = tuple(words[2:])
                if any(o not in ("up", "down") for o in orients):
                    raise TangleSyntaxError(
                        f"statement {idx}: orientations must be up/down")
                bottom = k
            elif head == "cup":
                if len(words) != 3 or words[2] not in ("cw", "ccw"):
                    raise TangleSyntaxError(
                        f"statement {idx}: expected 'cup <i> cw|ccw'")
                slices.append(Slice(CUP, int(words[1]), words[2]))
            elif head == "cap":
                if len(words) != 2:
                    raise TangleSyntaxError(
                        f"statement {idx}: expected 'cap <i>'")
                slices.append(Slice(CAP, int(words[1])))
            elif head in ("x+", "x-"):
                if len(words) != 2:
                    raise TangleSyntaxError(
                        f"statement {idx}: expected '{head} <i>'")
                slices.append(Slice(OVER if head == "x+" else UNDER,
                                    int(words[1])))
            else:
                raise TangleSyntaxError(
                    f"statement {idx}: unknown statement {head!r}")
        except ValueError as exc:
            raise TangleSyntaxError(f"statement {idx}: {exc}") from exc
    if bottom is None:
        raise TangleSyntaxError("missing 'bottom' declaration")
    return MorseWord(bottom, slices, orients)


def format_word(word: MorseWord) -> str:
    parts = [" ".join(["bottom", str(word.bottom_count),
                       *word.bottom_orientations]).rstrip()]
    for sl in word.slices:
        if sl.kind == CUP:
            parts.append(f"cup {sl.pos} {sl.label}")
        elif sl.kind == CAP:
            parts.append(f"cap {sl.pos}")
        else:
            parts.append(f"{'x+' if sl.kind == OVER else 'x-'} {sl.pos}")
    return "; ".join(parts) + ";"


# ---------------------------------------------------------------------------
# turning number


def turning_number(word: MorseWord) -> int:
    """Signed count of oriented loops after smoothing every crossing.

    Counted in half turns over the critical points (Whitney's rotation
    number): a minimum traversed left to right or a maximum traversed right
    to left is +1, the reverses -1.  So each cup gives minus the direction
    of its left strand (+1 for ``ccw``, -1 for ``cw``), and each cap the
    direction of its right strand, both read off the analysis.  The
    oriented smoothing adds nothing: at an antiparallel crossing it makes a
    maximum and a minimum whose half turns cancel.  The single open strand
    is an embedded arc in the disk, so its turn depends only on its ends and
    is subtracted: a cap's when both ends are at the bottom, a cup's when both
    are at the top, 0 when it runs from bottom to top; those ends' directions
    are read off the first and last levels.

    The sum is always even: cups - caps = (top - bottom) / 2 is odd exactly
    when the open strand adds a term, so there is an even number of +-1
    terms.
    """
    if word.endpoint_count != 2:
        raise EndpointCountError("turning number needs exactly 2 endpoints")
    levels = analyze(word).levels
    half = 0
    for t, sl in enumerate(word.slices):
        if sl.kind == CUP:
            half -= levels[t + 1][sl.pos - 1]
        elif sl.kind == CAP:
            half += levels[t][sl.pos]
    if word.bottom_count == 2:
        half -= levels[0][1]
    elif word.bottom_count == 0:
        half += levels[-1][0]
    return half // 2


# ---------------------------------------------------------------------------
# braids


def braid_to_tangle(word, strands: int) -> MorseWord:
    """A 2-endpoint tangle whose closure is the braid closure: strands 2..n
    are trace-closed to the right by nested cups and caps, strand 1 is cut."""
    if type(strands) is not int or strands < 1:
        raise ValueError(f"strands must be an int >= 1, not {strands!r}")
    for g in word:
        if type(g) is not int:
            raise ValueError(f"generator {g!r} is not an int")
        if g == 0 or abs(g) > strands - 1:
            raise ValueError(f"generator {g} out of range for {strands} strands")
    slices = [Slice(CUP, i, "cw") for i in range(2, strands + 1)]
    slices += [Slice(OVER if g > 0 else UNDER, abs(g)) for g in word]
    slices += [Slice(CAP, i) for i in range(strands, 1, -1)]
    return MorseWord(1, slices, ("up",))


# ---------------------------------------------------------------------------
# Reidemeister moves


class R1Move(NamedTuple):
    slice_index: int
    position: int
    side: str       # 'left' | 'right': which side the curl bulges to
    crossing: str   # 'over' | 'under'


class R2Move(NamedTuple):
    slice_index: int
    position: int
    first: str      # kind of the lower inserted crossing: 'over' | 'under'


class R3Move(NamedTuple):
    slice_index: int  # start of three consecutive crossing slices


# Slice-level R3 triples (a, b, c): [a@p, b@p+1, c@p] <-> [c@p+1, b@p, a@p+1].
# Valid exactly when the braid identity s_i^a s_{i+1}^b s_i^c =
# s_{i+1}^c s_i^b s_{i+1}^a holds; the two alternating mixed triples fail it.
VALID_R3_TRIPLES = frozenset(
    t for t in [(OVER, OVER, OVER), (UNDER, UNDER, UNDER),
                (OVER, OVER, UNDER), (UNDER, UNDER, OVER),
                (OVER, UNDER, UNDER), (UNDER, OVER, OVER)])


def _strand_dir_at(word: MorseWord, level: int, position: int) -> int:
    if not 0 <= level <= len(word.slices):
        raise MoveError(f"level {level} out of range")
    dirs = analyze(word).levels[level]
    if not 1 <= position <= len(dirs):
        raise MoveError(f"no strand at position {position} of level {level}")
    return dirs[position - 1]


def apply_move(word: MorseWord, move) -> MorseWord:
    """Return a word differing from ``word`` by one oriented Reidemeister
    move.  Raises MoveError when the move does not apply at the site."""
    if isinstance(move, (R1Move, R2Move, R3Move)) and move.slice_index < 0:
        raise MoveError(f"negative slice index {move.slice_index}")
    slices = list(word.slices)
    if isinstance(move, R1Move):
        t, p, kind = move.slice_index, move.position, move.crossing
        if kind not in _CROSSINGS:
            raise MoveError(f"bad R1 crossing {kind!r}")
        d = _strand_dir_at(word, t, p)
        if move.side == "right":
            slices[t:t] = [Slice(CUP, p + 1, "cw" if d == 1 else "ccw"),
                           Slice(kind, p), Slice(CAP, p + 1)]
        elif move.side == "left":
            slices[t:t] = [Slice(CUP, p, "cw" if d == -1 else "ccw"),
                           Slice(kind, p + 1), Slice(CAP, p)]
        else:
            raise MoveError(f"bad R1 side {move.side!r}")
        return word._replace(slices=slices)
    if isinstance(move, R2Move):
        t, p = move.slice_index, move.position
        levels = analyze(word).levels
        level_width = len(levels[t]) if t < len(levels) else -1
        if not 1 <= p <= level_width - 1:
            raise MoveError(f"no adjacent strand pair at position {p}")
        first = move.first
        if first not in _CROSSINGS:
            raise MoveError(f"bad R2 first crossing {first!r}")
        second = UNDER if first == OVER else OVER
        slices[t:t] = [Slice(first, p), Slice(second, p)]
        return word._replace(slices=slices)
    if isinstance(move, R3Move):
        t = move.slice_index
        try:
            s1, s2, s3 = slices[t], slices[t + 1], slices[t + 2]
        except IndexError:
            raise MoveError("R3 needs three consecutive slices") from None
        kinds = (s1.kind, s2.kind, s3.kind)
        if not all(k in _CROSSINGS for k in kinds):
            raise MoveError("R3 site must be three crossings")
        p = s1.pos
        if s3.pos != p or s2.pos not in (p - 1, p + 1):
            raise MoveError("R3 site must look like p, p+-1, p")
        if kinds not in VALID_R3_TRIPLES:
            raise MoveError(f"not a valid R3 triple: {kinds}")
        q = s2.pos
        slices[t:t + 3] = [Slice(s3.kind, q), Slice(s2.kind, p),
                           Slice(s1.kind, q)]
        return word._replace(slices=slices)
    raise MoveError(f"unknown move {move!r}")


def move_sites(word: MorseWord):
    """All applicable move descriptors on ``word`` (used by the fuzzers)."""
    out = []
    for t, dirs in enumerate(analyze(word).levels):
        w = len(dirs)
        for p in range(1, w + 1):
            for side in ("left", "right"):
                for cr in ("over", "under"):
                    out.append(R1Move(t, p, side, cr))
        for p in range(1, w):
            for first in ("over", "under"):
                out.append(R2Move(t, p, first))
    for t in range(len(word.slices) - 2):
        s1, s2, s3 = word.slices[t:t + 3]
        if (s1.kind in _CROSSINGS and s2.kind in _CROSSINGS
                and s3.kind in _CROSSINGS and s1.pos == s3.pos
                and s2.pos in (s1.pos - 1, s1.pos + 1)
                and (s1.kind, s2.kind, s3.kind) in VALID_R3_TRIPLES):
            out.append(R3Move(t))
    return out


def random_move(rng: random.Random, word: MorseWord):
    sites = move_sites(word)
    if not sites:
        raise MoveError("no move applies: the word has no strands")
    return rng.choice(sites)


def random_word(rng: random.Random, max_crossings: int = 8,
                bottom: int = 1, max_width: int = 7) -> MorseWord:
    """A random valid oriented word, used by the fuzz suites.

    A cup is drawn only while it leaves the cut at most ``max_width`` wide,
    so no cut is wider than the larger of ``max_width`` and ``bottom``.  With
    bottom=1 the result always has exactly 2 endpoints.
    """
    orients = tuple(rng.choice(("up", "down")) for _ in range(bottom))
    slices = []
    dirs = list(1 if o == "up" else -1 for o in orients)
    budget = rng.randint(0, max_crossings)
    steps = rng.randint(budget, budget + 6)
    for _ in range(steps):
        w = len(dirs)
        choices = []
        if w + 2 <= max_width:
            choices.append(CUP)
        if budget > 0 and w >= 2:
            choices += [OVER, UNDER]
        cap_sites = [p for p in range(1, w) if dirs[p - 1] == -dirs[p]]
        if cap_sites:
            choices.append(CAP)
        if not choices:
            break
        kind = rng.choice(choices)
        if kind == CUP:
            p = rng.randint(1, w + 1)
            lab = rng.choice(("cw", "ccw"))
            slices.append(Slice(CUP, p, lab))
            dirs[p - 1:p - 1] = [1, -1] if lab == "cw" else [-1, 1]
        elif kind == CAP:
            p = rng.choice(cap_sites)
            slices.append(Slice(CAP, p))
            del dirs[p - 1:p + 1]
        else:
            p = rng.randint(1, w - 1)
            slices.append(Slice(kind, p))
            dirs[p - 1], dirs[p] = dirs[p], dirs[p - 1]
            budget -= 1
    # close down to the smallest width the orientations allow
    while True:
        cap_sites = [p for p in range(1, len(dirs)) if dirs[p - 1] == -dirs[p]]
        if not cap_sites:
            break
        p = rng.choice(cap_sites)
        slices.append(Slice(CAP, p))
        del dirs[p - 1:p + 1]
    return MorseWord(bottom, slices, orients)

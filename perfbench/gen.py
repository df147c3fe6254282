"""Seeded input generators owned by the benchmark.

Nothing here calls into tanglex, so a library change cannot change what a
workload feeds it.  Every generator takes a ``random.Random`` and draws from
it only, so the same seed always gives the same inputs.
"""

from __future__ import annotations

import random

MAX_TRIES = 10_000


class GeneratorError(Exception):
    """No input with the requested properties was found within MAX_TRIES."""


def braid_permutation(word, strands: int):
    """Top position of each bottom strand after the braid word."""
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return perm


def is_knot_braid(word, strands: int) -> bool:
    """Whether the closure has one component: the permutation is one cycle."""
    perm = braid_permutation(word, strands)
    j, steps = perm[0], 1
    while j != 0:
        j, steps = perm[j], steps + 1
    return steps == strands


def knot_braid(rng: random.Random, strands: int, length: int) -> tuple:
    """A uniform random braid word on ``strands`` strands whose closure is a
    knot.  A product of ``length`` transpositions is an n-cycle only if
    ``length`` has the parity of n - 1, so any other length is refused up
    front instead of retried forever."""
    if strands < 1:
        raise ValueError("strands must be >= 1")
    if strands == 1:
        if length:
            raise ValueError("a 1-strand braid has no letters")
        return ()
    if length % 2 != (strands - 1) % 2:
        raise ValueError(f"a knot braid on {strands} strands needs a length "
                         f"of parity {(strands - 1) % 2}, got {length}")
    gens = [g for i in range(1, strands) for g in (i, -i)]
    for _ in range(MAX_TRIES):
        word = tuple(rng.choice(gens) for _ in range(length))
        if is_knot_braid(word, strands):
            return word
    raise GeneratorError(f"no {strands}-strand knot braid of length {length} "
                         f"in {MAX_TRIES} tries")


def knot_length(strands: int) -> int:
    """Letters per knot braid: 3n + 1, which always has the parity of n - 1
    (6 strands: 19 letters; 9 strands: 28)."""
    return 3 * strands + 1


def morse_text(rng: random.Random, bottom: int, crossings: int,
               max_width: int) -> str:
    """Tangle-language text of a random oriented Morse word with exactly
    ``crossings`` crossings, ``bottom`` bottom endpoints, every cut at most
    ``max_width`` wide and no closed component (a closed component makes the
    whole vector zero).  Cups, caps and crossings are drawn as the word
    grows; after the last crossing the word closes down with the caps its
    orientations allow."""
    if bottom < 2 or max_width < bottom or crossings < 0:
        raise ValueError("need bottom >= 2 and max_width >= bottom")
    dirs = [rng.choice((1, -1)) for _ in range(bottom)]
    # comp[p]: the strand through cut position p; the two cut ends of one
    # strand carry the same label, and capping them would close a loop
    comp = list(range(bottom))
    fresh = bottom
    parts = ["bottom " + " ".join([str(bottom)]
                                  + ["up" if d == 1 else "down" for d in dirs])]

    def cap_sites():
        return [p for p in range(1, len(dirs))
                if dirs[p - 1] == -dirs[p] and comp[p - 1] != comp[p]]

    def cap(p):
        a, b = comp[p - 1], comp[p]
        del dirs[p - 1:p + 1], comp[p - 1:p + 1]
        comp[:] = [a if c == b else c for c in comp]
        parts.append(f"cap {p}")

    placed = steps = 0
    while placed < crossings:
        steps += 1
        if steps > MAX_TRIES:
            raise GeneratorError(f"{crossings} crossings not placed in "
                                 f"{MAX_TRIES} steps")
        w = len(dirs)
        choices = ["x", "x", "x"]
        if w + 2 <= max_width:
            choices.append("cup")
        sites = cap_sites() if w > bottom else []
        if sites:
            choices.append("cap")
        kind = rng.choice(choices)
        if kind == "cup":
            p = rng.randint(1, w + 1)
            lab = rng.choice(("cw", "ccw"))
            dirs[p - 1:p - 1] = [1, -1] if lab == "cw" else [-1, 1]
            comp[p - 1:p - 1] = [fresh, fresh]
            fresh += 1
            parts.append(f"cup {p} {lab}")
        elif kind == "cap":
            cap(rng.choice(sites))
        else:
            p = rng.randint(1, w - 1)
            dirs[p - 1], dirs[p] = dirs[p], dirs[p - 1]
            comp[p - 1], comp[p] = comp[p], comp[p - 1]
            parts.append(f"{rng.choice(('x+', 'x-'))} {p}")
            placed += 1
    while len(dirs) > bottom and cap_sites():
        cap(rng.choice(cap_sites()))
    return "; ".join(parts) + ";"

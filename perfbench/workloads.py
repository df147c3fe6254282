"""The benchmark's workloads: what each one sends and why it was chosen.

Every workload is a closed loop with one client: the next request is sent
only after the previous one has completed.  Inputs come from ``gen`` and are
a pure function of (workload, seed, part), so the same seed gives the same
inputs on every run and on every version of the library.
"""

from __future__ import annotations

import random

import gen

KNOT_STRANDS = 6
KNOT_LETTERS = gen.knot_length(KNOT_STRANDS)      # 19

WORKLOADS = {
    "knot-cli-cold": {
        "why": ("what a CLI user pays per call: a fresh process with an empty "
                "dp transition cache, so transition building dominates"),
        "request": (f"spawn `tanglex alexander --braid W --strands "
                    f"{KNOT_STRANDS} --oracle --format json`"),
        "inputs": (f"distinct {KNOT_STRANDS}-strand {KNOT_LETTERS}-letter "
                   f"knot braids"),
        "tail_percentile": 75,
        "setup": "spawn, import tanglex, base_tables()",
        "setup_repeats": 9,
    },
    "knot-batch-warm": {
        "why": ("one long-lived process after a warm-up: dp transitions are "
                "cached, so slice composition and LaurentPoly arithmetic "
                "dominate"),
        "request": "braid_to_tangle + alexander_polynomial(evaluator='dp')",
        "inputs": (f"distinct {KNOT_STRANDS}-strand {KNOT_LETTERS}-letter "
                   f"knot braids, none seen in the warm-up"),
        "tail_percentile": 90,
        "setup": ("spawn, import tanglex, base_tables(), warm-up over "
                  "WARMUP_BRAIDS distinct braids"),
        "setup_repeats": 3,
    },
    "tangle-vector-both": {
        "why": ("wide cuts with multi-key vector outputs: parse, analyze, the "
                "naive 7-term expansion and coordinates do most of the work"),
        "request": "parse + tangle_invariant(evaluator='both')",
        "inputs": ("oriented Morse words as text: bottom 2-3, cut width <= 6, "
                   "exactly 6-9 crossings, no closed component"),
        "tail_percentile": 90,
        "setup": "spawn, import tanglex, base_tables()",
        "setup_repeats": 9,
    },
}
for _name, _w in WORKLOADS.items():
    _w.update(loop="closed", clients=1,
              seed="--seed n; inputs drawn from random.Random(f'{workload}/"
                   "{n}/{part}')")

WARMUP_BRAIDS = 60
VECTOR_BOTTOM = (2, 3)
VECTOR_MAX_WIDTH = 6
VECTOR_CROSSINGS = (6, 9)


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}/{seed}/{part}")


def knot_braids(workload: str, seed: int, part: str, exclude=()):
    """Endless stream of distinct knot braids, skipping ``exclude``."""
    rng = _rng(workload, seed, part)
    seen = set(exclude)
    while True:
        braid = gen.knot_braid(rng, KNOT_STRANDS, KNOT_LETTERS)
        if braid not in seen:
            seen.add(braid)
            yield braid


def morse_texts(seed: int, part: str = "timed"):
    """Endless stream of tangle-language texts for tangle-vector-both."""
    rng = _rng("tangle-vector-both", seed, part)
    while True:
        yield gen.morse_text(rng, rng.choice(VECTOR_BOTTOM),
                             rng.randint(*VECTOR_CROSSINGS), VECTOR_MAX_WIDTH)

"""Output checks that do not trust the library, and the run digest.

Polynomials are checked in their JSON form, ``[[exponent, coefficient], ...]``,
so a fault in ``LaurentPoly`` cannot hide itself.
"""

from __future__ import annotations

import hashlib
import json

# outputs of the first DIGEST_REQUESTS requests are hashed; a run on the same
# seed completes at least this many, so two runs compare exactly
DIGEST_REQUESTS = 16


def knot_polynomial_problem(poly_json) -> str | None:
    """Why a normalized knot Alexander polynomial is wrong, or None: it must
    be symmetric under q <-> q^-1 and equal 1 at q = 1."""
    try:
        coeffs = {int(e): int(c) for e, c in poly_json}
    except (TypeError, ValueError):
        return f"not a polynomial: {poly_json!r}"
    if any(c == 0 for c in coeffs.values()):
        return "zero coefficient stored"
    if any(coeffs.get(-e) != c for e, c in coeffs.items()):
        return "not symmetric under q <-> q^-1"
    if sum(coeffs.values()) != 1:
        return f"value {sum(coeffs.values())} at q = 1, not 1"
    return None


def class_vector_problem(cv_json) -> str | None:
    """Why a class vector is malformed, or None: every key must be a sorted
    even subset of the boundary points 1..n and every coefficient nonzero."""
    n = cv_json["boundary_count"]
    seen = set()
    for subset, poly in cv_json["coords"]:
        s = tuple(subset)
        if len(s) % 2:
            return f"odd key {s}"
        if list(s) != sorted(set(s)) or (s and (s[0] < 1 or s[-1] > n)):
            return f"key {s} is not a subset of 1..{n}"
        if s in seen:
            return f"key {s} repeated"
        seen.add(s)
        if not poly:
            return f"zero coefficient stored at {s}"
    return None


class Digest:
    """SHA-256 over the canonical JSON of (input, output) per request, for
    the first DIGEST_REQUESTS requests and for all of them."""

    def __init__(self):
        self._head = hashlib.sha256()
        self._all = hashlib.sha256()
        self.count = 0

    def add(self, inp, out):
        line = json.dumps([inp, out], sort_keys=True).encode() + b"\n"
        if self.count < DIGEST_REQUESTS:
            self._head.update(line)
        self._all.update(line)
        self.count += 1

    def as_dict(self) -> dict:
        return {f"first_{DIGEST_REQUESTS}": self._head.hexdigest()[:16],
                "all": self._all.hexdigest()[:16], "requests": self.count}

"""Top-level invariants: the normalized Alexander polynomial of a 2-endpoint
tangle's closure, and the vector-valued invariant of an arbitrary tangle.

The raw scalar changes by -q or -q^-1 under the first Reidemeister move
(according to the turning defect of the curl), so the normalized value
(-q)^(-tau) * delta is what is invariant under all moves.  The vector
invariant is left unnormalized: it is a regular-isotopy invariant with a
controlled defect, since any turning-number convention for tangles with more
than two endpoints would be an arbitrary choice.
"""

from __future__ import annotations

from typing import NamedTuple

from .laurent import LaurentPoly
from .diagram import ClassVector, coordinates
from .tangle import (CAP, CUP, CrossingInfo, EndpointCountError, MorseWord,
                     Slice, analyze, turning_number)
from .statesum import delta_from_class, evaluate_dp, evaluate_naive


class EvaluatorMismatchError(Exception):
    """Two supposedly equal evaluation routes disagreed."""


def minus_q_power(k: int) -> LaurentPoly:
    """(-q)^k for any integer k."""
    return LaurentPoly.monomial(-1 if k % 2 else 1, k)


class _NormalizedFields(NamedTuple):
    delta: LaurentPoly
    tau: int
    alexander: LaurentPoly


class NormalizedResult(_NormalizedFields):
    __slots__ = ()

    def __new__(cls, delta, tau, alexander):
        if alexander * minus_q_power(tau) != delta:
            raise ValueError(
                f"alexander {alexander} times (-q)^{tau} is not "
                f"delta {delta}")
        return super().__new__(cls, delta, tau, alexander)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: route it through the check
        return cls(*iterable)


def alexander_polynomial(word: MorseWord, evaluator: str = "dp") -> NormalizedResult:
    """Delta, the turning number, and the normalized Alexander polynomial of
    the closure.  Delta is read off the class vector of ``tangle_invariant``
    with the same evaluator: 'dp' (default), 'naive', or 'both' (the two
    class vectors must agree)."""
    if word.endpoint_count != 2:
        raise EndpointCountError("the tangle must have exactly 2 endpoints")
    lam = delta_from_class(tangle_invariant(word, evaluator))
    tau = turning_number(word)
    return NormalizedResult(lam, tau, minus_q_power(-tau) * lam)


def tangle_invariant(word: MorseWord, evaluator: str = "dp") -> ClassVector:
    """The image of the tangle in the quotient space, in canonical
    coordinates.  Invariant under Reidemeister II and III; each R1 curl
    multiplies it by -q or -q^-1."""
    if evaluator == "dp":
        return evaluate_dp(word)
    if evaluator == "naive":
        return coordinates(evaluate_naive(word))
    if evaluator == "both":
        cv = evaluate_dp(word)
        cv2 = coordinates(evaluate_naive(word))
        if cv != cv2:
            raise EvaluatorMismatchError("dp and naive class vectors differ")
        return cv
    raise ValueError(f"unknown evaluator {evaluator!r}")


def _crossing(word: MorseWord, index: int) -> CrossingInfo:
    crossings = analyze(word).crossings
    if not 0 <= index < len(crossings):
        raise IndexError(f"crossing index {index} out of range")
    return crossings[index]


def with_crossing(word: MorseWord, index: int, kind: str) -> MorseWord:
    """Copy of the word with crossing number ``index`` set to over/under."""
    info = _crossing(word, index)
    slices = list(word.slices)
    slices[info.slice_index] = Slice(kind, info.pos)
    return word._replace(slices=slices)


def with_crossing_smoothed(word: MorseWord, index: int) -> MorseWord:
    """Copy of the word with crossing ``index`` replaced by its oriented
    smoothing (identity for parallel strands, a cap-cup for antiparallel)."""
    info = _crossing(word, index)
    t = info.slice_index
    slices = list(word.slices)
    if info.d1 == info.d2:
        del slices[t]
    else:
        label = "cw" if info.d2 == 1 else "ccw"
        slices[t:t + 1] = [Slice(CAP, info.pos), Slice(CUP, info.pos, label)]
    return word._replace(slices=slices)

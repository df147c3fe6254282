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
from .diagram import ClassVector, FlatDiagram, canonical_rep, coordinates, inner_product
from .tangle import CAP, CUP, EndpointCountError, MorseWord, Slice, analyze, turning_number
from .statesum import delta_from_class, evaluate_dp, evaluate_naive

_CROSS_KINDS = ("over", "under")


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


def _delta_naive_checked(word: MorseWord) -> LaurentPoly:
    """The scalar via the full expansion, cross-checked three ways: the bare
    coefficient, and the pairings against both 2-point canonical diagrams."""
    v = evaluate_naive(word)
    lam = v[FlatDiagram.make(2, [(1, 2, False)], [])]
    via_dotted = -inner_product(v, canonical_rep((1, 2), 2).expand_dots())
    via_ticks = inner_product(v, canonical_rep((), 2).expand_dots())
    if not (lam == via_dotted == via_ticks):
        raise EvaluatorMismatchError(
            f"naive delta routes disagree: {lam} / {via_dotted} / {via_ticks}")
    return lam


def alexander_polynomial(word: MorseWord, evaluator: str = "dp") -> NormalizedResult:
    """Delta, the turning number, and the normalized Alexander polynomial of
    the closure.  evaluator: 'dp' (default), 'naive', or 'both' (must agree)."""
    if word.endpoint_count != 2:
        raise EndpointCountError("the tangle must have exactly 2 endpoints")
    if evaluator not in ("dp", "naive", "both"):
        raise ValueError(f"unknown evaluator {evaluator!r}")
    lam = None
    if evaluator in ("dp", "both"):
        lam = delta_from_class(evaluate_dp(word))
    if evaluator in ("naive", "both"):
        lam_naive = _delta_naive_checked(word)
        if lam is not None and lam != lam_naive:
            raise EvaluatorMismatchError(
                f"dp delta {lam} != naive delta {lam_naive}")
        lam = lam_naive if lam is None else lam
    tau = turning_number(word)
    return NormalizedResult(lam, tau, minus_q_power(-tau) * lam)


def tangle_invariant(word: MorseWord, evaluator: str = "dp") -> ClassVector:
    """The image of the tangle in the quotient space, in canonical
    coordinates.  Invariant under Reidemeister II and III; each R1 curl
    multiplies it by -q or -q^-1."""
    if word.endpoint_count % 2:
        raise EndpointCountError("tangle boundary size must be even")
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


def _crossing_slice_indices(word: MorseWord):
    return [t for t, s in enumerate(word.slices) if s.kind in _CROSS_KINDS]


def with_crossing(word: MorseWord, index: int, kind: str) -> MorseWord:
    """Copy of the word with crossing number ``index`` set to over/under."""
    slots = _crossing_slice_indices(word)
    if not 0 <= index < len(slots):
        raise IndexError(f"crossing index {index} out of range")
    t = slots[index]
    slices = list(word.slices)
    slices[t] = Slice(kind, slices[t].pos)
    return MorseWord(word.bottom_count, tuple(slices),
                     word.bottom_orientations, word.cup_orientations)


def with_crossing_smoothed(word: MorseWord, index: int) -> MorseWord:
    """Copy of the word with crossing ``index`` replaced by its oriented
    smoothing (identity for parallel strands, a cap-cup for antiparallel)."""
    slots = _crossing_slice_indices(word)
    if not 0 <= index < len(slots):
        raise IndexError(f"crossing index {index} out of range")
    t = slots[index]
    info = next(c for c in analyze(word).crossings if c.slice_index == t)
    slices = list(word.slices)
    cups = list(word.cup_orientations)
    if info.d1 == info.d2:
        del slices[t]
    else:
        label = "cw" if info.d2 == 1 else "ccw"
        slices[t:t + 1] = [Slice(CAP, slices[t].pos), Slice(CUP, slices[t].pos)]
        cup_at = sum(1 for s in word.slices[:t] if s.kind == CUP)
        cups.insert(cup_at, label)
    return MorseWord(word.bottom_count, tuple(slices),
                     word.bottom_orientations, tuple(cups))


def skein_triple_check(word: MorseWord, crossing_index: int,
                       evaluator: str = "dp") -> bool:
    """Whether Delta(T+) - Delta(T-) = (q - q^-1) * Delta(T0) holds at the
    given crossing, with the three words differing only there.  Compares
    scalars for 2-endpoint tangles, class vectors otherwise."""
    pos_w = with_crossing(word, crossing_index, "over")
    neg_w = with_crossing(word, crossing_index, "under")
    sm_w = with_crossing_smoothed(word, crossing_index)
    t = _crossing_slice_indices(word)[crossing_index]
    sign_of_over = next(c.sign for c in analyze(pos_w).crossings
                        if c.slice_index == t)
    if sign_of_over < 0:
        pos_w, neg_w = neg_w, pos_w
    z = LaurentPoly.q_power(1) - LaurentPoly.q_power(-1)
    if word.endpoint_count == 2:
        def ev(w):
            return alexander_polynomial(w, evaluator).delta
        return ev(pos_w) - ev(neg_w) == z * ev(sm_w)
    vp = tangle_invariant(pos_w, evaluator)
    vn = tangle_invariant(neg_w, evaluator)
    vs = tangle_invariant(sm_w, evaluator)
    return vp - vn == vs.scale(z)

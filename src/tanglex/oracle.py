"""Independent Alexander polynomial oracle via the reduced Burau matrices.

The unreduced Burau representation sends generator i of the braid group on n
strands to the identity with the 2x2 block [[1-t, t], [1, 0]] at rows/columns
(i, i+1).  It fixes the all-ones vector, so it descends to the (n-1)-
dimensional quotient R.  For a braid with exponent sum e whose closure has mu
components, the normalized Alexander polynomial of the closure is

    Delta(q) = (-1)^(mu-1) q^(n-1-e) [det(I - R) / (1 + t + ... + t^(n-1))]

at t = q^2 (Kassel and Turaev, Braid Groups, ch. 3).  The formula fixes the
unit, so knots and links alike need no search; the result is checked to
satisfy Delta(q^-1) = (-1)^(mu-1) Delta(q), and Delta(1) = 1 for a knot.
"""

from __future__ import annotations

from .laurent import LaurentPoly, ONE, ZERO


class OracleError(Exception):
    pass


_T = LaurentPoly.q_power(1)       # the Burau variable, substituted later
_TI = LaurentPoly.q_power(-1)
_GEN_BLOCK = ((ONE - _T, _T), (ONE, ZERO))
_INV_BLOCK = ((ZERO, ONE), (_TI, ONE - _TI))


def braid_permutation(word, strands: int):
    """Bottom-to-top strand permutation: perm[i] = top position of bottom i."""
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        if g == 0 or i >= strands - 1:
            raise ValueError(f"generator {g} out of range")
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    return tuple(perm)


def closure_components(word, strands: int) -> int:
    perm = braid_permutation(word, strands)
    seen = [False] * strands
    n = 0
    for i in range(strands):
        if not seen[i]:
            n += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return n


def unreduced_burau(word, strands: int):
    # right-multiplying by a generator rewrites only columns i and i+1:
    # col_i, col_i+1 = x*a + y*c, x*b + y*d for the block ((a, b), (c, d))
    m = [[ONE if i == j else ZERO for j in range(strands)]
         for i in range(strands)]
    for g in word:
        i = abs(g) - 1
        if g == 0 or i >= strands - 1:
            raise ValueError(f"generator {g} out of range")
        (a, b), (c, d) = _GEN_BLOCK if g > 0 else _INV_BLOCK
        for row in m:
            x, y = row[i], row[i + 1]
            row[i], row[i + 1] = x * a + y * c, x * b + y * d
    return tuple(tuple(row) for row in m)


def burau_reduced(word, strands: int):
    """The quotient of the unreduced matrix by its fixed all-ones vector."""
    m = unreduced_burau(word, strands)
    n = strands
    return tuple(tuple(m[i][j] - m[n - 1][j] for j in range(n - 1))
                 for i in range(n - 1))


def _det(m) -> LaurentPoly:
    """Bareiss fraction-free elimination.  After step k each entry (i, j)
    of the trailing block is the minor of m (rows swapped so far) on rows
    0..k, i and columns 0..k, j, so the division by the previous pivot is
    exact.  A zero pivot is swapped with a nonzero entry below it, which
    negates the result; with none, m is singular."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return ONE
    negate = False
    prev = ONE
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    negate = not negate
                    break
            else:
                return ZERO
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            x = row[k]
            for j in range(k + 1, n):
                v = row[j] * pivot
                if not x.is_zero():
                    v = v - x * row_k[j]
                row[j] = v.divexact(prev)
        prev = pivot
    return -a[n - 1][n - 1] if negate else a[n - 1][n - 1]


def alexander_via_burau(word, strands: int) -> LaurentPoly:
    """Normalized Alexander polynomial of the braid closure."""
    if strands < 1:
        raise ValueError(f"a braid needs 1 or more strands, not {strands}")
    mu = closure_components(word, strands)
    red = burau_reduced(word, strands)
    n = len(red)
    diff = tuple(tuple((ONE if i == j else ZERO) - red[i][j]
                       for j in range(n)) for i in range(n))
    cyclo = LaurentPoly({k: 1 for k in range(strands)})  # 1 + t + ... + t^(n-1)
    e = sum(1 if g > 0 else -1 for g in word)
    sign = (-1) ** (mu - 1)
    p = (_det(diff).divexact(cyclo).subst_square()
         * LaurentPoly.monomial(sign, strands - 1 - e))
    if p.invert_q() != (p if sign == 1 else -p):
        raise OracleError(f"{p} is not {sign:+d}-symmetric under q -> q^-1")
    if mu == 1 and p.eval_at_one() != 1:
        raise OracleError(f"knot value {p} is {p.eval_at_one()} at q = 1")
    return p


# Braid presentations whose closures are knots with at most 8 crossings.
# The first entries carry externally pinned Alexander values; the rest are
# cross-checked between the state-sum evaluators and this oracle.
KNOT_CORPUS = (
    ("unknot", (), 1),
    ("unknot-1crossing", (1,), 2),
    ("trefoil", (1, 1, 1), 2),
    ("trefoil-mirror", (-1, -1, -1), 2),
    ("figure-eight", (1, -2, 1, -2), 3),
    ("cinquefoil-5_1", (1, 1, 1, 1, 1), 2),
    ("5_2", (1, 1, 1, 2, -1, 2), 3),
    ("6_2", (1, 1, 1, -2, 1, -2), 3),
    ("6_3", (1, 1, -2, 1, -2, -2), 3),
    ("7_1", (1, 1, 1, 1, 1, 1, 1), 2),
    ("granny", (1, 1, 1, 2, 2, 2), 3),
    ("square-knot", (1, 1, 1, -2, -2, -2), 3),
    ("8-crossing-a", (1, 1, 1, 1, -2, 1, -2, 1), 3),
    ("4-strand-a", (-3, 2, 1, 2, 2, 2, -2), 4),
    ("4-strand-b", (3, -2, 2, -2, 3, 1, -2), 4),
)

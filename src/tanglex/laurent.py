"""Exact Laurent polynomials in one variable q with integer coefficients.

Values are immutable and hashable.  The canonical textual form lists terms in
increasing exponent order, e.g. ``-q^-2 + 3 - q^2``; the JSON form is
``[[exponent, coefficient], ...]`` sorted by exponent.
"""

from __future__ import annotations

import re


_TERM_RE = re.compile(r"^([+-]?\d*)(q(\^(-?\d+))?)?$")


class LaurentPoly:
    """A finitely supported map exponent -> nonzero integer coefficient."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for e, a in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                if not isinstance(e, int) or not isinstance(a, int):
                    raise TypeError("exponents and coefficients must be int")
                a = c.get(e, 0) + a
                if a:
                    c[e] = a
                elif e in c:
                    del c[e]
        self._c = c

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return ZERO

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def monomial(coeff: int, exp: int = 0) -> "LaurentPoly":
        """coeff * q^exp"""
        return LaurentPoly({exp: coeff} if coeff else None)

    @staticmethod
    def q_power(exp: int) -> "LaurentPoly":
        return LaurentPoly({exp: 1})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        # values are immutable, so a zero summand can hand back the other
        if not other._c:
            return self
        if not self._c:
            return other
        c = dict(self._c)
        for e, a in other._c.items():
            a = c.get(e, 0) + a
            if a:
                c[e] = a
            else:
                del c[e]
        r = LaurentPoly.__new__(LaurentPoly)
        r._c = c
        return r

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __neg__(self) -> "LaurentPoly":
        r = LaurentPoly.__new__(LaurentPoly)
        r._c = {e: -a for e, a in self._c.items()}
        return r

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: a * other for e, a in self._c.items()} if other else None)
        c = {}
        for e1, a1 in self._c.items():
            for e2, a2 in other._c.items():
                e = e1 + e2
                a = c.get(e, 0) + a1 * a2
                if a:
                    c[e] = a
                elif e in c:
                    del c[e]
        r = LaurentPoly.__new__(LaurentPoly)
        r._c = c
        return r

    __rmul__ = __mul__

    def invert_q(self) -> "LaurentPoly":
        """Substitute q -> q^-1."""
        return LaurentPoly({-e: a for e, a in self._c.items()})

    def subst_square(self) -> "LaurentPoly":
        """Substitute q -> q^2 (doubles every exponent)."""
        return LaurentPoly({2 * e: a for e, a in self._c.items()})

    def eval_at_one(self) -> int:
        return sum(self._c.values())

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ValueError if the remainder is nonzero."""
        if not other._c:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self._c:
            return LaurentPoly.zero()
        # shift both to ordinary polynomials so long division terminates
        sa, sb = min(self._c), min(other._c)
        rem = {e - sa: a for e, a in self._c.items()}
        div = {e - sb: a for e, a in other._c.items()}
        dmax = max(div)
        dlead = div[dmax]
        quot = {}
        while rem and max(rem) >= dmax:
            rmax = max(rem)
            lead, r = divmod(rem[rmax], dlead)
            if r or not lead:
                raise ValueError("non-exact Laurent division")
            e = rmax - dmax
            quot[e] = lead
            for de, da in div.items():
                k = de + e
                v = rem.get(k, 0) - da * lead
                if v:
                    rem[k] = v
                elif k in rem:
                    del rem[k]
        if rem:
            raise ValueError("non-exact Laurent division")
        return LaurentPoly({e + sa - sb: a for e, a in quot.items()})

    # -- queries -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._c)

    def is_zero(self) -> bool:
        return not self._c

    def terms(self):
        """Pairs (exponent, coefficient) in increasing exponent order."""
        return sorted(self._c.items())

    def coeff(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def min_exp(self) -> int:
        return min(self._c)

    def max_exp(self) -> int:
        return max(self._c)

    # -- equality / hashing -------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._c.items())))

    # -- text and JSON forms -------------------------------------------------

    def __str__(self) -> str:
        if not self._c:
            return "0"
        out = []
        for e, a in self.terms():
            sign = "-" if a < 0 else "+"
            mag = abs(a)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if mag == 1 else f"{mag}{var}"
            if not out:
                out.append(body if sign == "+" else "-" + body)
            else:
                out.append(f" {sign} {body}")
        return "".join(out)

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._c.items()))!r})"

    @staticmethod
    def parse(text: str) -> "LaurentPoly":
        """Parse the canonical textual form (inverse of str).

        Whitespace may stand at the ends or next to a term's sign, and
        nowhere else: ``"1 2"`` is refused, not read as 12."""
        s = re.sub(r"(?<!\^)\s*([+-])\s*", r"\1", text.strip())
        if re.search(r"\s", s):
            raise ValueError(f"bad Laurent polynomial {text!r}: whitespace "
                             f"inside a term")
        if not s or s == "0":
            return LaurentPoly.zero()
        s = re.sub(r"(?<=[^\^])([+-])", r" \1", s)  # keep exponent signs intact
        coeffs = {}
        for tok in s.split(" "):
            m = _TERM_RE.match(tok)
            if not m or (not m.group(1).strip("+-") and not m.group(2)):
                raise ValueError(f"bad Laurent polynomial term: {tok!r}")
            num, var, _, exp = m.groups()
            if num in ("", "+"):
                a = 1
            elif num == "-":
                a = -1
            else:
                a = int(num)
            e = 0 if var is None else (1 if exp is None else int(exp))
            coeffs[e] = coeffs.get(e, 0) + a
        return LaurentPoly(coeffs)

    def to_json(self):
        return [[e, a] for e, a in self.terms()]

    @staticmethod
    def from_json(data) -> "LaurentPoly":
        # a document is refused, not coerced: to_json writes each exponent
        # once, and only ints (bool is an int subclass, so checked by type)
        if not isinstance(data, list):
            raise ValueError(f"polynomial {data!r} is not a list of terms")
        coeffs = {}
        for term in data:
            if not isinstance(term, list) or len(term) != 2:
                raise ValueError(f"term {term!r} is not [exponent, "
                                 f"coefficient]")
            e, a = term
            if type(e) is not int or type(a) is not int:
                raise ValueError(f"term {[e, a]!r}: exponent and coefficient "
                                 f"must be integers")
            if e in coeffs:
                raise ValueError(f"exponent {e} given twice")
            coeffs[e] = a
        return LaurentPoly(coeffs)


ZERO = LaurentPoly()
ONE = LaurentPoly.one()
Q = LaurentPoly.q_power(1)
QINV = LaurentPoly.q_power(-1)

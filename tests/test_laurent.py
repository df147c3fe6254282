"""Laurent polynomial arithmetic, canonical forms, and ring axioms."""

import pytest
from hypothesis import given, strategies as st

from tanglex.laurent import LaurentPoly, ONE, ZERO

q = LaurentPoly.q_power(1)
qi = LaurentPoly.q_power(-1)


def poly(text):
    return LaurentPoly.parse(text)


polys = st.builds(
    LaurentPoly,
    st.dictionaries(st.integers(-6, 6), st.integers(-9, 9), max_size=5))


class TestOps:
    def test_add_examples(self):
        assert q + (-q) == ZERO
        assert (q - qi) + qi + qi == q + qi
        assert ZERO + poly("q^3") == poly("q^3")

    def test_mul_examples(self):
        assert (q - qi) * (q - qi) == poly("q^-2 - 2 + q^2")
        assert (-q) * (-qi) == ONE
        p = poly("3 - q + 2q^5")
        assert LaurentPoly.q_power(0) * p == p

    def test_invert_q_examples(self):
        assert poly("q^-2 - 1 + q^2").invert_q() == poly("q^-2 - 1 + q^2")
        assert poly("q^3").invert_q() == poly("q^-3")
        assert (q - qi).invert_q() == qi - q

    def test_eval_at_one(self):
        assert poly("q^-2 - 1 + q^2").eval_at_one() == 1
        assert (q - qi).eval_at_one() == 0
        assert ZERO.eval_at_one() == 0

    def test_pow_and_shift(self):
        # q_power(k) is q^k, and a product with it shifts every exponent by k
        assert LaurentPoly.q_power(2) == q * q
        assert LaurentPoly.q_power(0) == ONE
        assert poly("1 + q") * LaurentPoly.q_power(-3) == poly("q^-3 + q^-2")

    def test_int_scalar(self):
        assert 2 * (q + qi) == poly("2q^-1 + 2q")
        assert (q + qi) * 0 == ZERO

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            LaurentPoly({0: 1.5})
        with pytest.raises(TypeError):
            LaurentPoly({0.5: 1})


class TestCanonicalForm:
    def test_str(self):
        assert str(ZERO) == "0"
        assert str(poly("-q^-2 + 3 - q^2")) == "-q^-2 + 3 - q^2"
        assert str(q - qi) == "-q^-1 + q"
        assert str(LaurentPoly.monomial(-2, 3)) == "-2q^3"

    @given(polys)
    def test_parse_roundtrip(self, p):
        assert LaurentPoly.parse(str(p)) == p

    @given(polys)
    def test_json_roundtrip(self, p):
        assert LaurentPoly.from_json(p.to_json()) == p

    @pytest.mark.parametrize("doc", [
        [[0, 1], [0, 2]],      # an exponent given twice
        [[0, 1.7]],            # a float coefficient
        [[0.0, 1]],            # a float exponent
        [[0, "2"]],            # a string coefficient
        [["1", 1]],            # a string exponent
        [[0, True]],           # a bool coefficient
        [[True, 1]],           # a bool exponent
    ])
    def test_json_malformed_rejected(self, doc):
        with pytest.raises(ValueError):
            LaurentPoly.from_json(doc)

    def test_parse_rejects_garbage(self):
        for bad in ("q^", "2*q", "qq", "^3", "q^1.5", "q^1 0", "1 2", "3 q"):
            with pytest.raises(ValueError):
                LaurentPoly.parse(bad)

    def test_no_zero_coefficients_stored(self):
        p = poly("q") - poly("q")
        assert p.is_zero() and not p.terms()


class TestRingAxioms:
    @given(polys, polys, polys)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(polys, polys)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(polys, polys, polys)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(polys)
    def test_invert_q_involution(self, a):
        assert a.invert_q().invert_q() == a

    @given(polys, polys)
    def test_invert_q_ring_hom(self, a, b):
        assert (a + b).invert_q() == a.invert_q() + b.invert_q()
        assert (a * b).invert_q() == a.invert_q() * b.invert_q()


class TestDivision:
    @given(polys, polys)
    def test_product_division(self, a, b):
        if a.is_zero():
            return
        assert (a * b).divexact(a) == b

    def test_inexact_raises(self):
        with pytest.raises(ValueError):
            poly("1 + q + q^2").divexact(poly("1 + q"))
        with pytest.raises(ValueError):
            ONE.divexact(poly("1 + q"))

    def test_zero_divisor_raises(self):
        with pytest.raises(ZeroDivisionError):
            ONE.divexact(ZERO)

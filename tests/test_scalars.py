import math
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gradedk0.scalars import (
    QQ,
    PrimeField,
    PrimeFieldElem,
    ProductRing,
    QuadraticField,
    QuadraticReal,
    base_ring_descriptor,
    base_ring_from_descriptor,
    is_prime,
    is_squarefree,
)

F2 = QuadraticField(2)
F7 = PrimeField(7)


def q2(a, b) -> QuadraticReal:
    return QuadraticReal(Fraction(a), Fraction(b), 2)


rationals = st.fractions(min_value=-100, max_value=100, max_denominator=64)
quadratics = st.builds(lambda a, b: QuadraticReal(a, b, 2), rationals, rationals)
f7_elems = st.integers(min_value=0, max_value=6).map(lambda v: PrimeFieldElem(v, 7))


class TestSignQuadratic:
    def test_both_positive(self):
        assert q2(1, 1).sign() == 1

    def test_mixed_sign_positive(self):
        # oracle: 3^2 = 9 > 2 * 2^2 = 8, so 3 - 2*sqrt(2) > 0
        assert 3**2 > 2 * 2**2
        assert q2(3, -2).sign() == 1

    def test_mixed_sign_negative(self):
        # oracle: 1^2 = 1 < 2 * 1^2
        assert 1 < 2
        assert q2(1, -1).sign() == -1

    def test_zero(self):
        assert q2(0, 0).sign() == 0

    def test_pure_parts(self):
        assert q2(-3, 0).sign() == -1
        assert q2(0, -2).sign() == -1
        assert q2(0, 5).sign() == 1

    @given(quadratics, quadratics)
    def test_multiplicative(self, x, y):
        assert x.sign() * y.sign() == (x * y).sign()

    @given(quadratics, quadratics, quadratics)
    def test_translation_invariant_order(self, x, y, z):
        assert (x - y).sign() == ((x + z) - (y + z)).sign()

    @given(quadratics, quadratics, quadratics)
    def test_transitive(self, x, y, z):
        if x <= y and y <= z:
            assert x <= z

    @given(quadratics, quadratics)
    def test_antisymmetric(self, x, y):
        if x <= y and y <= x:
            assert x == y

    @given(quadratics)
    def test_float_agreement_away_from_zero(self, x):
        approx = float(x.a) + float(x.b) * math.sqrt(2)
        assume(abs(approx) > 1e-6)
        assert x.sign() == (1 if approx > 0 else -1)


class TestQuadraticArithmetic:
    def test_product_of_conjugate_units(self):
        # (1 + sqrt 2)(-1 + sqrt 2) = (sqrt 2)^2 - 1 = 1
        assert q2(1, 1) * q2(-1, 1) == q2(1, 0)

    def test_inverse(self):
        x = q2(1, 1)
        assert x.inverse() == q2(-1, 1)
        assert x * x.inverse() == q2(1, 0)

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            q2(0, 0).inverse()

    def test_mixed_radicals_rejected(self):
        with pytest.raises(ValueError):
            q2(1, 1) + QuadraticReal(Fraction(1), Fraction(1), 3)

    def test_int_promotion(self):
        assert q2(1, 1) + 1 == q2(2, 1)
        assert 2 * q2(1, 1) == q2(2, 2)

    def test_power(self):
        assert q2(1, 1) ** 2 == q2(3, 2)
        assert q2(1, 1) ** -1 == q2(-1, 1)

    def test_floor(self):
        assert q2(0, 1).floor() == 1
        assert q2(0, -1).floor() == -2
        assert q2(3, 0).floor() == 3
        assert q2(Fraction(-7, 2), 0).floor() == -4

    @given(quadratics, quadratics, quadratics)
    def test_field_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z

    @given(quadratics)
    def test_multiplicative_inverse(self, x):
        assume(bool(x))
        assert x * x.inverse() == q2(1, 0)


class TestPrimeField:
    def test_arithmetic(self):
        a, b = PrimeFieldElem(3, 7), PrimeFieldElem(5, 7)
        assert a + b == PrimeFieldElem(1, 7)
        assert a * b == PrimeFieldElem(1, 7)
        assert a - b == PrimeFieldElem(5, 7)

    def test_inverse_matches_fermat(self):
        for v in range(1, 7):
            assert PrimeFieldElem(v, 7).inverse().value == pow(v, 5, 7)

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            PrimeFieldElem(0, 7).inverse()

    def test_mixed_moduli_rejected(self):
        with pytest.raises(ValueError):
            PrimeFieldElem(1, 7) + PrimeFieldElem(1, 5)

    def test_nonprime_modulus_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(6)

    @given(f7_elems, f7_elems, f7_elems)
    def test_field_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert x * y == y * x


class TestEncodings:
    def test_rational(self):
        assert QQ.encode(Fraction(3, 2)) == "3/2"
        assert QQ.encode(Fraction(5)) == "5"
        assert QQ.parse("-4/6") == Fraction(-2, 3)
        with pytest.raises(ValueError):
            QQ.parse("1.5")

    def test_quadratic(self):
        x = q2(Fraction(3, 2), Fraction(-1, 2))
        assert F2.encode(x) == "3/2+-1/2√2"
        assert F2.parse(F2.encode(x)) == x
        assert F2.parse("7") == q2(7, 0)
        with pytest.raises(ValueError):
            F2.parse("1+1√3")

    def test_prime(self):
        assert F7.encode(PrimeFieldElem(3, 7)) == "3 mod 7"
        assert F7.parse("3 mod 7") == PrimeFieldElem(3, 7)
        with pytest.raises(ValueError):
            F7.parse("3 mod 5")

    @given(rationals)
    def test_rational_round_trip(self, x):
        assert QQ.parse(QQ.encode(x)) == x

    @given(quadratics)
    def test_quadratic_round_trip(self, x):
        assert F2.parse(F2.encode(x)) == x

    def test_product(self):
        ring = ProductRing([QQ, F7])
        x = ring.from_factor_values([Fraction(1, 2), PrimeFieldElem(3, 7)])
        assert ring.encode(x) == "(1/2,3 mod 7)"
        assert ring.parse(ring.encode(x)) == x


class TestDescriptors:
    def test_round_trip(self):
        for desc in ("rational", "quadratic:2", "fp:7", "product:rational,fp:7"):
            assert base_ring_descriptor(base_ring_from_descriptor(desc)) == desc

    def test_unknown(self):
        with pytest.raises(ValueError):
            base_ring_from_descriptor("galois:8")

    def test_nested_product_rejected(self):
        with pytest.raises(ValueError):
            base_ring_from_descriptor("product:product:rational,rational,rational")


class TestIntegerPredicates:
    def test_squarefree(self):
        assert is_squarefree(2) and is_squarefree(10) and is_squarefree(15)
        assert not is_squarefree(4) and not is_squarefree(12) and not is_squarefree(18)

    def test_prime(self):
        assert [p for p in range(2, 30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]

    def test_squarefree_beyond_trial_division(self):
        p, q = 10**6 + 3, 10**7 + 19  # both prime
        assert is_squarefree(2**61 - 1)
        assert is_squarefree(p * q) and is_squarefree(2 * 3 * p * q)
        assert not is_squarefree(q * q) and not is_squarefree(5 * q * q)
        assert not is_squarefree(4 * (2**61 - 1))

    def test_squarefree_over_budget_raises(self):
        with pytest.raises(ValueError, match="over budget"):
            is_squarefree((10**6 + 3) * (10**12 + 39))

    def test_squarefree_agrees_with_trial_division(self):
        def by_trial(n):
            return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))

        assert [n for n in range(1, 2000) if is_squarefree(n)] == [
            n for n in range(1, 2000) if by_trial(n)
        ]

    def test_quadratic_context_requires_squarefree(self):
        with pytest.raises(ValueError):
            QuadraticField(12)
        with pytest.raises(ValueError):
            QuadraticReal(Fraction(1), Fraction(1), 4)

"""Tests for dense univariate polynomials over the rationals."""

import random
from fractions import Fraction

import pytest

from affinepowers import (
    DuplicateAbscissa,
    UniPoly,
    ZeroPolynomial,
    interpolate,
    rational_roots,
)

F = Fraction


def P(*coeffs) -> UniPoly:
    return UniPoly(coeffs)


class TestConstruction:
    def test_trailing_zeros_stripped(self):
        assert P(1, 2, 0, 0).coeffs == (F(1), F(2))
        assert P(0, 0, 0).coeffs == ()

    def test_zero_degree_sentinel(self):
        assert P().degree == -1
        assert P(0).degree == -1
        assert P().is_zero()
        assert not P(1).is_zero()

    def test_coercion_to_fraction(self):
        f = P(1, F(1, 2), 3)
        assert all(isinstance(c, F) for c in f.coeffs)
        assert f.coeffs == (F(1), F(1, 2), F(3))

    def test_constant_and_monomial(self):
        assert UniPoly.constant(7).coeffs == (F(7),)
        assert UniPoly.constant(0).is_zero()
        assert UniPoly.monomial(3, 4) == P(0, 0, 0, 0, 3)
        assert UniPoly.monomial(F(1, 2), 0) == P(F(1, 2))

    def test_affine_power(self):
        # 2*(x - 1)^2 = 2x^2 - 4x + 2
        assert UniPoly.affine_power(2, 1, 2) == P(2, -4, 2)
        # (x + 3)^1
        assert UniPoly.affine_power(1, -3, 1) == P(3, 1)
        # e = 0 gives the constant coefficient
        assert UniPoly.affine_power(F(5, 3), 9, 0) == P(F(5, 3))

    def test_affine_power_matches_repeated_multiplication(self):
        rng = random.Random(42)
        for _ in range(60):
            a = F(rng.randint(-9, 9), rng.randint(1, 5))
            e = rng.randint(0, 12)
            c = F(rng.randint(-9, 9), rng.randint(1, 7))
            expected = UniPoly.constant(c)
            lin = P(-a, 1)
            for _ in range(e):
                expected = expected * lin
            assert UniPoly.affine_power(c, a, e) == expected

    def test_leading_and_coeff(self):
        f = P(1, 0, 3)
        assert f.leading() == F(3)
        assert f.coeff(0) == F(1)
        assert f.coeff(1) == F(0)
        assert f.coeff(99) == F(0)

    def test_leading_of_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            P().leading()

    def test_equality_and_hash(self):
        assert P(1, 2) == P(1, 2)
        assert P(1, 2) != P(1, 2, 3)
        assert hash(P(1, 2)) == hash(P(F(1), F(2)))
        assert bool(P(1)) and not bool(P())


class TestArithmetic:
    def test_add_sub_neg(self):
        assert P(1, 1) + P(1, -1) == P(2)
        assert P(1, 2, 3) - P(1, 2, 3) == P()
        assert -P(1, -2) == P(-1, 2)

    def test_mul_known_product(self):
        # (x^2 + 1)(x^3 - 2x) = x^5 - x^3 - 2x
        assert P(1, 0, 1) * P(0, -2, 0, 1) == P(0, -2, 0, -1, 0, 1)

    def test_mul_by_zero_and_one(self):
        f = P(3, 0, -2)
        assert f * P() == P()
        assert f * P(1) == f

    def test_scale_and_rmul(self):
        assert P(1, 2).scale(F(1, 2)) == P(F(1, 2), 1)
        assert 3 * P(1, 1) == P(3, 3)
        assert P(1, 1).scale(0) == P()

    def test_pow(self):
        assert P(1, 1) ** 2 == P(1, 2, 1)
        assert P(2, 1) ** 0 == P(1)
        assert P() ** 3 == P()

    def test_degree_of_product_adds(self):
        rng = random.Random(5)
        for _ in range(20):
            f = P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 6))], 1)
            g = P(*[rng.randint(-4, 4) for _ in range(rng.randint(1, 6))], 1)
            assert (f * g).degree == f.degree + g.degree

    def test_quo_rem(self):
        f = P(-1, 0, 1)  # x^2 - 1
        q, r = f.quo_rem(P(-1, 1))  # by x - 1
        assert q == P(1, 1) and r == P()
        q, r = P(1, 0, 1).quo_rem(P(-1, 1))
        assert q == P(1, 1) and r == P(2)

    def test_quo_rem_identity_random(self):
        rng = random.Random(11)
        for _ in range(25):
            f = P(*[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(8)])
            g = P(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 4))], 1)
            q, r = f.quo_rem(g)
            assert q * g + r == f
            assert r.degree < g.degree

    def test_quo_rem_by_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            P(1, 1).quo_rem(P())


class TestIntegerArguments:
    """Exponents and derivative orders are read like every other integer
    argument: a bool or a float is refused, an integral Fraction accepted."""

    BAD = (True, 2.0, 2.5)
    each_bad = pytest.mark.parametrize("bad", BAD, ids=repr)

    @each_bad
    def test_pow(self, bad):
        with pytest.raises(ValueError, match="expected an integer"):
            P(1, 1) ** bad

    @each_bad
    def test_affine_power(self, bad):
        with pytest.raises(ValueError, match="expected an integer"):
            UniPoly.affine_power(1, 0, bad)

    @each_bad
    def test_monomial(self, bad):
        with pytest.raises(ValueError, match="expected an integer"):
            UniPoly.monomial(1, bad)

    @each_bad
    def test_derivative(self, bad):
        with pytest.raises(ValueError, match="expected an integer"):
            P(1, 2, 3).derivative(bad)

    def test_integral_fractions_accepted(self):
        assert P(1, 1) ** F(3) == P(1, 3, 3, 1)
        assert UniPoly.affine_power(1, 0, F(2)) == P(0, 0, 1)
        assert UniPoly.monomial(5, F(1)) == P(0, 5)
        assert P(1, 2, 3).derivative(F(2)) == P(6)


class TestEvaluation:
    def test_evaluate_known(self):
        f = P(1, 2, 3)  # 3x^2 + 2x + 1
        assert f.evaluate(0) == F(1)
        assert f.evaluate(2) == F(17)
        assert f.evaluate(F(-1, 2)) == F(3, 4)
        assert f(2) == F(17)

    def test_evaluate_zero_poly(self):
        assert P().evaluate(123) == F(0)

    def test_max_coeff_bits(self):
        assert P().max_coeff_bits() == 0
        f = P(F(1024), F(1, 3))
        assert f.max_coeff_bits() == 11


class TestCalculus:
    def test_derivative_basic(self):
        assert P(0, 0, 0, 1).derivative() == P(0, 0, 3)  # (x^3)' = 3x^2
        assert P(5).derivative() == P()
        assert P().derivative() == P()

    def test_derivative_order_zero_is_identity(self):
        f = P(1, -2, 3)
        assert f.derivative(0) == f

    def test_higher_derivative_is_repeated_first_derivative(self):
        # derivative(j) builds k!/(k-j)! * c_k in one pass; j first
        # derivatives in a row must agree, past the degree too
        rng = random.Random(11)
        for _ in range(10):
            f = P(*[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(1, 9))])
            step = f
            for j in range(f.degree + 3):
                assert f.derivative(j) == step
                step = step.derivative()

    def test_negative_derivative_order_rejected(self):
        with pytest.raises(ValueError):
            P(1, 2, 3).derivative(-1)

    def test_third_derivative_of_affine_power(self):
        # ((x-2)^5)''' = 60(x-2)^2 = 60x^2 - 240x + 240
        f = UniPoly.affine_power(1, 2, 5)
        assert f.derivative(3) == P(240, -240, 60)
        assert f.derivative(3) == UniPoly.affine_power(60, 2, 2)

    def test_leibniz_rule_random(self):
        rng = random.Random(7)
        for _ in range(20):
            f = P(*[rng.randint(-6, 6) for _ in range(6)])
            g = P(*[rng.randint(-6, 6) for _ in range(5)])
            lhs = (f * g).derivative()
            rhs = f.derivative() * g + f * g.derivative()
            assert lhs == rhs

    def test_taylor_shift_known(self):
        # f(x) = x^2 + x + 1 shifted by 1: f(x+1) = x^2 + 3x + 3
        assert P(1, 1, 1).taylor_shift(1) == P(3, 3, 1)
        # (x-3)^2 shifted by 3 becomes x^2
        assert UniPoly.affine_power(1, 3, 2).taylor_shift(3) == P(0, 0, 1)
        assert P().taylor_shift(5) == P()

    def test_taylor_shift_roundtrip_random(self):
        rng = random.Random(13)
        for _ in range(25):
            f = P(*[F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(10)])
            a = F(rng.randint(-6, 6), rng.randint(1, 4))
            assert f.taylor_shift(a).taylor_shift(-a) == f

    def test_taylor_shift_agrees_with_evaluation(self):
        rng = random.Random(17)
        for _ in range(15):
            f = P(*[rng.randint(-9, 9) for _ in range(7)])
            a = F(rng.randint(-5, 5))
            g = f.taylor_shift(a)
            for pt in (F(0), F(1), F(-2), F(1, 3)):
                assert g.evaluate(pt) == f.evaluate(pt + a)


class TestMultiplicity:
    def test_mult_at_known(self):
        f = UniPoly.affine_power(1, 1, 3) * P(2, 1)  # (x-1)^3 (x+2)
        assert f.mult_at(1) == 3
        assert f.mult_at(-2) == 1
        assert f.mult_at(0) == 0

    def test_mult_at_fractional_root(self):
        # (x - 1/2)^4 (x - 1/3) expanded
        f = P(F(-1, 48), F(11, 48), -1, F(13, 6), F(-7, 3), 1)
        assert f.mult_at(F(1, 2)) == 4
        assert f.mult_at(F(1, 3)) == 1

    def test_mult_at_zero_poly_raises(self):
        with pytest.raises(ZeroPolynomial):
            P().mult_at(0)

    def test_mult_divides_exactly(self):
        rng = random.Random(23)
        for _ in range(10):
            a = F(rng.randint(-5, 5), rng.randint(1, 3))
            m = rng.randint(1, 4)
            f = UniPoly.affine_power(1, a, m) * P(rng.randint(1, 5), 0, 1)
            assert f.mult_at(a) >= m
            q, r = f.quo_rem(UniPoly.affine_power(1, a, f.mult_at(a)))
            assert r.is_zero()
            assert q.evaluate(a) != 0


class TestInterpolation:
    def test_constant_through_two_points(self):
        assert interpolate([(0, 1), (1, 1)]) == P(1)

    def test_cubic_through_four_points(self):
        # points on x^3 + 1
        f = interpolate([(0, 1), (1, 2), (2, 9), (3, 28)])
        assert f == P(1, 0, 0, 1)

    def test_fractional_points(self):
        pts = [(F(1, 2), F(1, 4)), (F(1), F(1)), (F(2), F(4))]
        assert interpolate(pts) == P(0, 0, 1)

    def test_duplicate_abscissa_raises(self):
        with pytest.raises(DuplicateAbscissa):
            interpolate([(1, 2), (1, 3)])

    def test_roundtrip_random(self):
        rng = random.Random(31)
        for _ in range(15):
            deg = rng.randint(0, 12)
            f = P(*[F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(deg)], 1)
            xs = rng.sample(range(-20, 20), f.degree + 1)
            pts = [(F(x), f.evaluate(x)) for x in xs]
            assert interpolate(pts) == f

    def test_empty_points_give_zero(self):
        assert interpolate([]) == P()


class TestRationalRoots:
    def test_quadratic_with_two_roots(self):
        # 6x^2 - 5x + 1 = (2x - 1)(3x - 1)
        assert rational_roots(P(1, -5, 6)) == {F(1, 2): 1, F(1, 3): 1}

    def test_no_rational_roots(self):
        assert rational_roots(P(1, 0, 1)) == {}
        assert rational_roots(P(-2, 0, 1)) == {}

    def test_repeated_root(self):
        # (x - 2)^3 = x^3 - 6x^2 + 12x - 8
        assert rational_roots(P(-8, 12, -6, 1)) == {F(2): 3}

    def test_root_at_zero(self):
        f = UniPoly.monomial(1, 3) * P(-1, 2)  # x^3 (2x - 1)
        assert rational_roots(f) == {F(0): 3, F(1, 2): 1}

    def test_large_roots(self):
        f = P(F(-1, 3), 1) * P(F(7, 5), 1) * P(-123456789, 1)
        roots = rational_roots(f)
        assert roots == {F(1, 3): 1, F(-7, 5): 1, F(123456789): 1}

    def test_zero_poly_raises(self):
        with pytest.raises(ZeroPolynomial):
            rational_roots(P())

    def test_constant_has_no_roots(self):
        assert rational_roots(P(4)) == {}

    def test_multiplicities_divide_random(self):
        rng = random.Random(37)
        for _ in range(10):
            planted = {}
            f = P(1)
            for _ in range(rng.randint(1, 3)):
                a = F(rng.randint(-6, 6), rng.randint(1, 3))
                m = rng.randint(1, 3)
                planted[a] = planted.get(a, 0) + m
                f = f * UniPoly.affine_power(1, a, m)
            f = f * P(1, 0, 1)  # irrational cofactor
            assert rational_roots(f) == planted


class TestFormatting:
    def test_str_comma_form(self):
        assert str(P(1, -2, F(1, 3))) == "1,-2,1/3"
        assert str(P()) == "0"

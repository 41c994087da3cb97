"""Tests for the modular rational-root engine."""

import random
from fractions import Fraction

import pytest

from affinepowers import UniPoly, ZeroPolynomial
from affinepowers import ratroots
from affinepowers.ratroots import rational_roots_with_cofactor, to_primitive_int

F = Fraction


def P(*coeffs) -> UniPoly:
    return UniPoly(coeffs)


class TestPrimitiveInt:
    def test_clears_denominators(self):
        ints = to_primitive_int(P(F(1, 2), F(1, 3)))
        assert ints == [3, 2]

    def test_removes_content(self):
        assert to_primitive_int(P(6, 9)) == [2, 3]

    def test_sign_preserved_up_to_global_unit(self):
        ints = to_primitive_int(P(-2, 4))
        assert ints in ([-1, 2], [1, -2])


class TestRootsWithCofactor:
    def test_cofactor_zero_for_split_poly(self):
        f = P(1, -5, 6)  # (2x-1)(3x-1)
        roots, cof = rational_roots_with_cofactor(f)
        assert roots == {F(1, 2): 1, F(1, 3): 1}
        assert len(cof) - 1 == 0

    def test_irreducible_quadratic(self):
        roots, cof = rational_roots_with_cofactor(P(-2, 0, 1))
        assert roots == {}
        assert len(cof) - 1 == 2
        assert cof == [-2, 0, 1]

    def test_mixed_rational_and_irrational(self):
        # (x^2 - 2)(x - 1)
        f = P(-2, 0, 1) * P(-1, 1)
        roots, cof = rational_roots_with_cofactor(f)
        assert roots == {F(1): 1}
        assert len(cof) - 1 == 2
        assert cof == [-2, 0, 1]

    def test_root_at_zero_with_multiplicity(self):
        f = UniPoly.monomial(1, 3) * P(-1, 2)
        roots, cof = rational_roots_with_cofactor(f)
        assert roots == {F(0): 3, F(1, 2): 1}
        assert len(cof) - 1 == 0

    def test_linear(self):
        roots, cof = rational_roots_with_cofactor(P(-3, 2))
        assert roots == {F(3, 2): 1}
        assert len(cof) - 1 == 0

    def test_constant(self):
        roots, cof = rational_roots_with_cofactor(P(5))
        assert roots == {}
        assert len(cof) - 1 == 0
        assert cof == [1]

    def test_zero_raises(self):
        with pytest.raises(ZeroPolynomial):
            rational_roots_with_cofactor(P())

    def test_high_multiplicity(self):
        f = UniPoly.affine_power(1, F(-7, 5), 6)
        roots, cof = rational_roots_with_cofactor(f)
        assert roots == {F(-7, 5): 6}
        assert len(cof) - 1 == 0

    def test_large_coefficients(self):
        # roots with many-digit numerators exercise the lifting bound
        big = 10**12 + 39
        f = P(-big, 1) * P(big, 1) * P(-1, big)
        roots, cof = rational_roots_with_cofactor(f)
        assert roots == {F(big): 1, F(-big): 1, F(1, big): 1}
        assert len(cof) - 1 == 0

    def test_degrees_add_up_random(self):
        rng = random.Random(99)
        for _ in range(12):
            f = P(1)
            planted = {}
            for _ in range(rng.randint(0, 3)):
                a = F(rng.randint(-8, 8), rng.randint(1, 4))
                m = rng.randint(1, 3)
                planted[a] = planted.get(a, 0) + m
                f = f * UniPoly.affine_power(1, a, m)
            irr = rng.randint(0, 2)
            for _ in range(irr):
                f = f * P(1, 1, 1)  # x^2 + x + 1, no real roots
            roots, cof = rational_roots_with_cofactor(f)
            assert roots == planted
            assert len(cof) - 1 == 2 * irr
            assert UniPoly(cof) == P(1, 1, 1) ** irr
            assert sum(roots.values()) + len(cof) - 1 == f.degree


def fraction_quotient(a, b):
    """The quotient a / b by UniPoly.quo_rem in Fractions, made primitive."""
    quo, rem = P(*a).quo_rem(P(*b))
    assert rem.is_zero()
    return to_primitive_int(quo)


class TestExactDiv:
    """ratroots._exact_div divides primitive integer polynomials in integers;
    it must give the quotient of the Fraction route."""

    CASES = [
        # (3x - 2)^3 (x^2 + 1) by (3x - 2)^2: a divisor with lead 9
        ([-2, 3], 3, [1, 0, 1], 2),
        # (2x + 5)^2 (7x^2 - 3) by 2x + 5
        ([5, 2], 2, [-3, 0, 7], 1),
        # (x - 1)^4 (5x + 1) by (x - 1)^3: a monic divisor
        ([-1, 1], 4, [1, 5], 3),
        # (4x^2 + 4x - 1)^2 (6x - 1) by its square root, lead 4
        ([-1, 4, 4], 2, [-1, 6], 1),
    ]

    @pytest.mark.parametrize("base, power, rest, k", CASES)
    def test_matches_fraction_route(self, base, power, rest, k):
        a = (P(*base) ** power * P(*rest)).coeffs
        b = (P(*base) ** k).coeffs
        a = [int(c) for c in a]
        b = [int(c) for c in b]
        got = ratroots._exact_div(a, b)
        assert got == fraction_quotient(a, b)
        assert all(type(c) is int for c in got)

    def test_squarefree_part_of_random_leads(self):
        # the call of rational_roots_with_cofactor: cs / gcd(cs, cs')
        rng = random.Random(31)
        for _ in range(20):
            f = P(rng.randint(1, 5))
            for _ in range(rng.randint(1, 3)):
                factor = P(rng.randint(-9, 9), rng.randint(1, 6))
                f = f * factor ** rng.randint(1, 3)
            f = f * P(rng.randint(1, 4), 0, rng.randint(1, 4))
            cs = to_primitive_int(f)
            g = ratroots.poly_gcd_int(cs, ratroots._deriv(cs))
            assert ratroots._exact_div(cs, g) == fraction_quotient(cs, g)

    def test_inexact_division_raises(self):
        with pytest.raises(ValueError):
            ratroots._exact_div([1, 0, 1], [-1, 1])  # x^2 + 1 by x - 1
        with pytest.raises(ValueError):
            ratroots._exact_div([1, 0, 2], [1, 2])  # 2x^2 + 1 by 2x + 1

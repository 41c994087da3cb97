"""Tests for the modular rational-root engine."""

import random
from fractions import Fraction

import pytest

from affinepowers import UniPoly, ZeroPolynomial
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

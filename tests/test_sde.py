"""Tests for shifted differential equations and their solution search."""

import random
from fractions import Fraction

import pytest

from affinepowers import (
    SDE,
    IrrationalNodeDetected,
    UniPoly,
    ZeroPolynomial,
    apply_sde,
    canonical_sde,
    find_min_sde,
    power_solutions,
    shifted_poly_solutions,
    wronskian,
)
from affinepowers import sde
from affinepowers.linalg import IntMatrix, kernel, solve
from affinepowers.errors import Inconsistent
from affinepowers.ratroots import to_primitive_int
from affinepowers.unipoly import _clear_denominators

F = Fraction


def P(*coeffs) -> UniPoly:
    return UniPoly(coeffs)


def solutions_in_x(s, node, delta, e_min, e_max) -> list[UniPoly]:
    """shifted_poly_solutions expanded from the node basis to x, each
    scaled to primitive integer coefficients."""
    out = []
    for sol in shifted_poly_solutions(s, node, delta, e_min, e_max):
        combo = UniPoly()
        for k, coef in sol.items():
            combo = combo + UniPoly.affine_power(coef, node, k)
        out.append(UniPoly(to_primitive_int(combo)))
    return out


def coeff_rank(fs) -> int:
    """Rank of the coefficient matrix of a polynomial family: its row count
    less the nullity of its transpose."""
    deg = max((f.degree for f in fs), default=-1)
    if deg < 0:
        return 0
    cols = [_clear_denominators([f.coeff(k) for f in fs])[0] for k in range(deg + 1)]
    return len(fs) - len(kernel(IntMatrix.from_rows(cols)))


class TestWronskian:
    def test_single_poly(self):
        assert wronskian([P(1, 2, 3)]) == P(1, 2, 3)

    def test_pair_one_x(self):
        assert wronskian([P(1), P(0, 1)]) == P(1)

    def test_repeated_entry_vanishes(self):
        f = P(2, 0, 5)
        assert wronskian([f, f]).is_zero()

    def test_known_cubic_pair(self):
        # W(x^3, (x-1)^3) = 3x^2(x-1)^2
        f = UniPoly.monomial(1, 3)
        g = UniPoly.affine_power(1, 1, 3)
        assert wronskian([f, g]) == P(0, 0, 3, -6, 3)

    def test_dependent_family_vanishes(self):
        f, g = P(1, 1), P(0, 0, 1)
        assert wronskian([f, g, f + g]).is_zero()

    def test_zero_iff_rank_deficient_random(self):
        rng = random.Random(211)
        seen_dep = seen_indep = 0
        for _ in range(40):
            n = rng.randint(2, 4)
            fams = [
                P(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 7))])
                for _ in range(n)
            ]
            if rng.random() < 0.5 and n >= 2:
                # force a dependency
                fams[-1] = fams[0].scale(rng.randint(1, 3)) + fams[1].scale(
                    rng.randint(-3, 3)
                )
            dependent = coeff_rank(fams) < n
            vanishes = wronskian(fams).is_zero()
            assert vanishes == dependent
            seen_dep += dependent
            seen_indep += not dependent
        assert seen_dep and seen_indep

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            wronskian([])


class TestSDEContainer:
    def test_validates_poly_count(self):
        with pytest.raises(ValueError):
            SDE(1, 0, (P(1),))

    def test_validates_degree_bounds(self):
        # P_1 must have degree <= 1 + 0
        with pytest.raises(ValueError):
            SDE(1, 0, (P(1), P(1, 1, 1)))

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            SDE(1, 0, (P(), P()))

    def test_shift_loosens_degree_bound(self):
        s = SDE(1, 1, (P(1, 1), P(1, 1, 1)))
        assert s.order == 1 and s.shift == 1

    @pytest.mark.parametrize("bad", [True, 2.0, F(3, 2)], ids=repr)
    @pytest.mark.parametrize("field", ["order", "shift"])
    def test_non_integer_order_and_shift_rejected(self, field, bad):
        # a bool shift used to be kept and then refused by sde_from_json
        args = {"order": 1, "shift": 0, "polys": (P(1), P(0, 1))}
        args[field] = bad
        with pytest.raises(ValueError):
            SDE(**args)

    def test_int_form(self):
        s = SDE(1, 0, (P(5), P(2, -1)))
        assert s._int_form == ([[5], [2, -1]], 1)

    def test_int_form_clears_one_common_denominator(self):
        s = SDE(1, 1, (P(F(-3, 2), F(1, 3)), P(F(-1, 2), F(1, 2), 2)))
        assert s._int_form == ([[-9, 2], [-3, 3, 12]], 6)

    def test_int_form_is_built_once(self, monkeypatch):
        # 50 applications clear the equation's denominators once, and each
        # call clears those of its argument alone
        s = SDE(1, 1, (P(F(-3, 2), F(1, 3)), P(F(-1, 2), F(1, 2), 2)))
        flat = [c for p in s.polys for c in p.coeffs]
        seen, real = [], sde._clear_denominators
        monkeypatch.setattr(sde, "_clear_denominators", lambda vs: seen.append(list(vs)) or real(vs))
        f = UniPoly.affine_power(F(2, 3), F(1, 5), 4)
        images = {apply_sde(s, f) for _ in range(50)}
        assert len(images) == 1
        assert sum(v == flat for v in seen) == 1
        assert len(seen) == 51

    def test_rational_equation_image(self):
        # l = 6: the images the Fraction-summed definition gives, pinned
        s = SDE(1, 1, (P(F(-3, 2), F(1, 3)), P(F(-1, 2), F(1, 2), 2)))
        cases = [
            (UniPoly.affine_power(F(2, 3), F(1, 5), 4), (F(17, 1875), F(-778, 5625), F(754, 1125), F(-16, 25), F(-137, 45), F(50, 9))),
            (P(F(1, 7), 0, F(-5, 3)), (F(-3, 14), F(12, 7), F(5, 6), F(-65, 9))),
        ]
        for f, want in cases:
            assert apply_sde(s, f).coeffs == want
            assert apply_sde(s, f) == s.polys[0] * f + s.polys[1] * f.derivative()

    def test_fractional_equation_finds_its_solutions(self):
        # -3/2 g + (x - 1)/2 g' annihilates (x - 1)^3; the coefficients
        # used to be truncated to integers, which lost the solution
        s = SDE(1, 0, (P(F(-3, 2)), P(F(-1, 2), F(1, 2))))
        canonical = canonical_sde(1, 0, s.polys)
        assert apply_sde(s, UniPoly.affine_power(1, 1, 3)).is_zero()
        assert power_solutions(s, 1, 5) == power_solutions(canonical, 1, 5) == [(F(1), 3)]
        assert shifted_poly_solutions(s, 1, 0, 1, 5) == shifted_poly_solutions(canonical, 1, 0, 1, 5)
        assert shifted_poly_solutions(s, 1, 0, 1, 5) == [{3: 1}]


class TestCanonicalSDE:
    def test_scaling_invariance(self):
        a = canonical_sde(1, 0, [P(10), P(4, -2)])
        b = canonical_sde(1, 0, [P(F(5, 3)), P(F(2, 3), F(-1, 3))])
        assert a == b
        assert [p.coeffs for p in a.polys] == [(F(5),), (F(2), F(-1))]

    def test_sign_normalization(self):
        a = canonical_sde(1, 0, [P(-5), P(-2, 1)])
        b = canonical_sde(1, 0, [P(5), P(2, -1)])
        assert a == b

    def test_primitive_integer_output(self):
        s = canonical_sde(1, 0, [P(F(1, 2)), P(F(1, 3), F(-1, 6))])
        flat = [c for p in s.polys for c in p.coeffs]
        assert all(c.denominator == 1 for c in flat)
        first = next(c for c in flat if c)
        assert first > 0


class TestApplySDE:
    def test_annihilator_of_pure_power(self):
        # 5 g - (x - 2) g' = 0 for g = (x-2)^5
        s = SDE(1, 0, (P(5), P(2, -1)))
        assert apply_sde(s, UniPoly.affine_power(1, 2, 5)).is_zero()
        assert not apply_sde(s, UniPoly.affine_power(1, 3, 5)).is_zero()

    def test_linear_in_argument(self):
        s = SDE(1, 0, (P(5), P(2, -1)))
        f, g = P(1, 2, 0, 4), P(3, 0, 1)
        assert apply_sde(s, f + g) == apply_sde(s, f) + apply_sde(s, g)

    def test_zero_input(self):
        s = SDE(1, 0, (P(5), P(2, -1)))
        assert apply_sde(s, P()).is_zero()

    def test_matches_fraction_sum_on_fractional_equations(self):
        # the integer sum over common denominators against sum P_i * f^(i)
        # taken term by term in Fractions
        rng = random.Random(11)

        def frac():
            return F(rng.randint(-9, 9), rng.randint(1, 6))

        for _ in range(60):
            order, shift = rng.randint(0, 4), rng.randint(0, 2)
            polys = [P(*(frac() for _ in range(rng.randint(0, i + shift + 1)))) for i in range(order + 1)]
            if all(p.is_zero() for p in polys):
                polys[-1] = P(frac() or 1)
            s = SDE(order, shift, tuple(polys))
            f = P(*(frac() for _ in range(rng.randint(0, 9))))
            expected, df = P(), f
            for i, p in enumerate(s.polys):
                expected = expected + p * df
                df = df.derivative()
            assert apply_sde(s, f) == expected


class TestFindMinSDE:
    def test_single_power_order_one(self):
        s = find_min_sde(UniPoly.affine_power(1, 2, 5), 0)
        assert s is not None and s.order == 1 and s.shift == 0
        assert [p.coeffs for p in s.polys] == [(F(5),), (F(2), F(-1))]

    def test_two_powers_order_three(self):
        f = UniPoly.affine_power(1, 1, 13) + UniPoly.affine_power(2, -2, 11)
        s = find_min_sde(f, 0)
        assert s is not None and s.order == 3
        assert apply_sde(s, f).is_zero()

    def test_returned_sde_annihilates(self):
        rng = random.Random(223)
        for _ in range(10):
            f = P(*[rng.randint(-9, 9) for _ in range(rng.randint(2, 9))], 1)
            s = find_min_sde(f, 0)
            assert s is not None
            assert apply_sde(s, f).is_zero()

    def test_minimality(self):
        # no SDE of smaller order exists: re-searching with a cap one
        # below the reported order must fail
        f = UniPoly.affine_power(1, 1, 13) + UniPoly.affine_power(2, -2, 11)
        s = find_min_sde(f, 0)
        assert find_min_sde(f, 0, s.order - 1) is None

    def test_capped_search_returns_none(self):
        # generic degree-8 polynomial admits no order-1 equation
        f = P(3, 4, -8, -1, 7, 6, 3, 0, 1)
        assert find_min_sde(f, 0, 1) is None

    def test_order_cap_zero(self):
        assert find_min_sde(P(1, 2, 3), 0, 0) is None

    def test_shift_changes_minimal_order(self):
        # (2x+1)(x-1)^12: no order-1 equation with shift 0, but one at shift 1
        g = P(1, 2) * UniPoly.affine_power(1, 1, 12)
        assert find_min_sde(g, 0).order == 2
        assert find_min_sde(g, 1).order == 1

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomial):
            find_min_sde(P(), 0)

    @pytest.mark.parametrize("bad", [True, 2.0, F(3, 2)], ids=repr)
    def test_non_integer_shift_and_max_order_rejected(self, bad):
        f = UniPoly.affine_power(1, 2, 5)
        with pytest.raises(ValueError):
            find_min_sde(f, bad)
        with pytest.raises(ValueError):
            find_min_sde(f, 0, bad)

    def test_negative_max_order_rejected(self):
        f = UniPoly.affine_power(1, 2, 5)
        with pytest.raises(ValueError):
            find_min_sde(f, 0, -1)
        assert find_min_sde(f, 0, 0) is None

    def test_integer_string_shift_parsed(self):
        f = UniPoly.affine_power(1, 2, 5)
        s = find_min_sde(f, "1", "3")
        assert s == find_min_sde(f, 1, 3) and type(s.shift) is int

    def test_deterministic(self):
        f = UniPoly.affine_power(1, 1, 13) + UniPoly.affine_power(2, -2, 11)
        assert find_min_sde(f, 0) == find_min_sde(f, 0)

    def test_padded_equation_still_annihilates(self):
        # an order-k equation embeds into any higher order
        f = UniPoly.affine_power(1, 2, 5)
        s = find_min_sde(f, 0)
        padded = SDE(2, 0, s.polys + (P(),))
        assert apply_sde(padded, f).is_zero()

    def test_order_bound_for_shifted_sums_random(self):
        # f = sum of t terms Q_i(x) (x - a_i)^{e_i} with deg Q_i <= delta
        # admits an SDE of shift delta and order at most 2t - 1
        rng = random.Random(227)
        for _ in range(10):
            t = rng.randint(1, 3)
            delta = rng.randint(0, 1)
            nodes = rng.sample(range(-6, 7), t)
            f = P()
            for a in nodes:
                q = P(*[rng.randint(-4, 4) for _ in range(delta)], rng.randint(1, 4))
                f = f + q * UniPoly.affine_power(1, a, rng.randint(8, 20))
            s = find_min_sde(f, delta, 2 * t - 1)
            assert s is not None
            assert s.order <= 2 * t - 1
            assert apply_sde(s, f).is_zero()


class TestPowerSolutions:
    def test_single_power(self):
        s = SDE(1, 0, (P(5), P(2, -1)))
        assert power_solutions(s, 1, 10) == [(F(2), 5)]

    def test_range_excludes(self):
        s = SDE(1, 0, (P(5), P(2, -1)))
        assert power_solutions(s, 6, 10) == []

    def test_two_powers_sorted_by_exponent(self):
        f = UniPoly.affine_power(1, 1, 13) + UniPoly.affine_power(2, -2, 11)
        s = find_min_sde(f, 0)
        assert power_solutions(s, 5, 20) == [(F(-2), 11), (F(1), 13)]

    def test_invalid_e_min(self):
        s = SDE(1, 0, (P(5), P(2, -1)))
        with pytest.raises(ValueError):
            power_solutions(s, 0, 10)

    def test_empty_range(self):
        s = SDE(1, 0, (P(5), P(2, -1)))
        assert power_solutions(s, 9, 5) == []

    @pytest.mark.parametrize("bad", [True, 1.0, 5.5, F(3, 2)])
    def test_non_integer_range_refused(self, bad):
        s = SDE(1, 0, (P(5), P(2, -1)))
        with pytest.raises(ValueError):
            power_solutions(s, bad, 9)
        with pytest.raises(ValueError):
            power_solutions(s, 1, bad)

    def test_integer_string_range_parsed(self):
        s = SDE(1, 0, (P(5), P(2, -1)))
        assert power_solutions(s, "1", "9") == power_solutions(s, 1, 9) == [(F(2), 5)]

    def test_irrational_node_detected(self):
        # expansion of (x - r)^13 + (x + r)^13 with r^2 = 2: rational
        # coefficients, but the only candidate nodes are irrational
        f = P(0, 1664, 0, 18304, 0, 41184, 0, 27456, 0, 5720, 0, 312, 0, 2)
        s = find_min_sde(f, 0)
        with pytest.raises(IrrationalNodeDetected):
            power_solutions(s, 5, 20)

    def test_solutions_actually_solve(self):
        f = UniPoly.affine_power(1, 1, 13) + UniPoly.affine_power(2, -2, 11)
        s = find_min_sde(f, 0)
        for node, e in power_solutions(s, 5, 20):
            assert apply_sde(s, UniPoly.affine_power(1, node, e)).is_zero()


class TestShiftedPolySolutions:
    # 156 g - 24 (x-1) g' + (x-1)^2 g'' annihilates (x-1)^12 and (x-1)^13
    TWO_POWER_SDE = SDE(2, 0, (P(156), P(24, -24), P(1, -2, 1)))

    def test_recovers_both_powers(self):
        sols = solutions_in_x(self.TWO_POWER_SDE, F(1), 1, 10, 15)
        assert len(sols) == 2
        expected = {
            UniPoly.affine_power(1, 1, 12).coeffs,
            UniPoly.affine_power(1, 1, 13).coeffs,
        }
        assert {g.coeffs for g in sols} == expected

    def test_solutions_solve_equation(self):
        sols = solutions_in_x(self.TWO_POWER_SDE, F(1), 1, 10, 15)
        for g in sols:
            assert apply_sde(self.TWO_POWER_SDE, g).is_zero()

    def test_basis_members_independent(self):
        sols = solutions_in_x(self.TWO_POWER_SDE, F(1), 1, 10, 15)
        assert coeff_rank(sols) == len(sols)

    def test_minimal_sde_solution_space_contains_input(self):
        # the canonical minimal equation of f = 2(x-1)^13 + 3(x-1)^12 has a
        # one-dimensional shifted solution space spanned by f itself
        f = UniPoly.affine_power(2, 1, 13) + UniPoly.affine_power(3, 1, 12)
        s = find_min_sde(f, 0)
        assert s.order == 2
        # in the node basis: {k: coefficient of (x - 1)^k}, primitive
        assert shifted_poly_solutions(s, F(1), 1, 10, 15) == [{12: 3, 13: 2}]
        sols = solutions_in_x(s, F(1), 1, 10, 15)
        assert len(sols) == 1
        deg = max(sols[0].degree, f.degree)
        rows = [_clear_denominators([sols[0].coeff(k), f.coeff(k)])[0] for k in range(deg + 1)]
        res = solve(IntMatrix.from_rows(r[:1] for r in rows), [r[1] for r in rows])
        assert res.unique

    def test_non_root_node_yields_nothing(self):
        s = SDE(1, 0, (P(5), P(2, -1)))
        assert solutions_in_x(s, F(3), 0, 4, 8) == []

    def test_empty_range(self):
        assert solutions_in_x(self.TWO_POWER_SDE, F(1), 1, 15, 10) == []

    @pytest.mark.parametrize("bad", [True, 1.0, F(3, 2)])
    def test_non_integer_arguments_refused(self, bad):
        s = self.TWO_POWER_SDE
        for args in ((bad, 10, 15), (1, bad, 15), (1, 10, bad)):
            with pytest.raises(ValueError):
                shifted_poly_solutions(s, F(1), *args)

    def test_integer_string_arguments_parsed(self):
        s = self.TWO_POWER_SDE
        assert shifted_poly_solutions(s, F(1), "1", "10", "15") == shifted_poly_solutions(s, F(1), 1, 10, 15)

    def test_exponent_cap_respected(self):
        # e bounds the base power; the degree-<=delta factor may still add
        # to the total degree, so (x-1)^13 = (x-1)*(x-1)^12 appears at e=12
        sols = solutions_in_x(self.TWO_POWER_SDE, F(1), 1, 10, 12)
        assert {g.coeffs for g in sols} == {
            UniPoly.affine_power(1, 1, 12).coeffs,
            UniPoly.affine_power(1, 1, 13).coeffs,
        }
        # capping at e = 11 leaves only (x-1)^12 reachable
        sols = solutions_in_x(self.TWO_POWER_SDE, F(1), 1, 10, 11)
        assert len(sols) == 1
        assert sols[0] == UniPoly.affine_power(1, 1, 12)


class TestSolutionSpaceDimension:
    def test_dimension_bounded_by_order(self):
        # the solution space of an order-k equation has dimension <= k
        sols = solutions_in_x(
            TestShiftedPolySolutions.TWO_POWER_SDE, F(1), 1, 5, 30
        )
        assert len(sols) <= 2

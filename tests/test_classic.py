"""Tests for Waring-rank and sparsest-shift reconstruction."""

import random
from fractions import Fraction

import pytest

from affinepowers import (
    Decomposition,
    IrrationalNodeDetected,
    ReconstructionFailed,
    SparsestResult,
    UniPoly,
    WaringResult,
    ZeroPolynomial,
    decompose_auto,
    expand_sparsest,
    expand_waring,
    sparsest_shift,
    waring_decompose,
)
from affinepowers import ratroots, sde

F = Fraction


def P(*coeffs) -> UniPoly:
    return UniPoly(coeffs)


IRRATIONAL_13 = P(0, 1664, 0, 18304, 0, 41184, 0, 27456, 0, 5720, 0, 312, 0, 2)


class TestWaring:
    def test_symmetric_rank_two(self):
        # (x+1)^10 + (x-1)^10
        f = P(2, 0, 90, 0, 420, 0, 420, 0, 90, 0, 2)
        res = waring_decompose(f)
        assert res.degree == 10
        assert not res.above_threshold
        assert res.size == 2
        assert res.terms == ((F(1), F(-1)), (F(1), F(1)))
        assert expand_waring(res) == f

    def test_single_cube(self):
        res = waring_decompose(UniPoly.affine_power(1, 5, 3))
        assert res.terms == ((F(1), F(5)),)
        assert res.size == 1

    def test_scaled_power(self):
        f = UniPoly.affine_power(F(-2, 3), F(1, 2), 7)
        res = waring_decompose(f)
        assert res.terms == ((F(-2, 3), F(1, 2)),)
        assert expand_waring(res) == f

    def test_planted_rank_two_asymmetric(self):
        f = UniPoly.affine_power(2, 3, 11) + UniPoly.affine_power(-1, -4, 11)
        res = waring_decompose(f)
        assert res.terms == ((F(-1), F(-4)), (F(2), F(3)))
        assert expand_waring(res) == f

    def test_terms_in_node_order(self):
        planted = [(F(7), F(5)), (F(-1, 2), F(-1, 2)), (F(3), F(0)), (F(2, 9), F(-3))]
        f = UniPoly()
        for c, b in planted:
            f = f + UniPoly.affine_power(c, b, 24)
        res = waring_decompose(f)
        assert res.terms == (
            (F(2, 9), F(-3)),
            (F(-1, 2), F(-1, 2)),
            (F(3), F(0)),
            (F(7), F(5)),
        )
        assert all(type(v) is Fraction for term in res.terms for v in term)

    def test_agrees_with_general_decomposition(self):
        f = UniPoly.affine_power(2, 3, 11) + UniPoly.affine_power(-1, -4, 11)
        res = waring_decompose(f)
        dec, _ = decompose_auto(f)
        got = {(t.coeff, t.node) for t in dec}
        assert got == set(res.terms)
        assert all(t.exponent == 11 for t in dec)

    def test_generic_polynomial_above_threshold(self):
        # a random dense degree-12 polynomial has no certifiably small rank
        f = P(1, -5, 3, -8, -7, 8, -6, 2, 9, -8, 7, -3, 3)
        res = waring_decompose(f)
        assert res.above_threshold
        assert res.terms is None and res.size is None

    def test_degree_one_above_threshold(self):
        # the rank-certification threshold is empty for linear inputs
        res = waring_decompose(P(2, 3))
        assert res.above_threshold

    def test_non_power_cubic_above_threshold(self):
        res = waring_decompose(P(0, 1, 0, 1))  # x^3 + x
        assert res.above_threshold

    def test_too_few_rational_power_solutions_above_threshold(self):
        # 2 + 2x - 3x^6: the minimal plain equation has order 2, within the
        # threshold, but only one rational degree-6 power solution
        f = P(2, 2, 0, 0, 0, 0, -3)
        eq = sde.find_min_sde(f, 0, max_order=2)
        assert eq.order == 2 and len(sde.power_solutions(eq, 6, 6)) == 1
        assert waring_decompose(f) == WaringResult(6, None)

    def test_irrational_nodes_detected(self):
        with pytest.raises(IrrationalNodeDetected):
            waring_decompose(IRRATIONAL_13)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            waring_decompose(P())

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            waring_decompose(P(5))

    def test_expand_of_above_threshold_rejected(self):
        res = WaringResult(4, None)
        with pytest.raises(ValueError):
            expand_waring(res)

    def test_random_planted_instances(self):
        rng = random.Random(313)
        for _ in range(8):
            d = rng.choice([7, 9, 11, 13])
            a, b = rng.sample(range(-6, 7), 2)
            ca = F(rng.randint(1, 5))
            cb = F(rng.randint(1, 5))
            f = UniPoly.affine_power(ca, a, d) + UniPoly.affine_power(cb, b, d)
            if f.degree < d:
                continue  # leading terms cancelled
            res = waring_decompose(f)
            assert res.terms is not None
            assert set(res.terms) == {(ca, F(a)), (cb, F(b))}


class TestSparsestShift:
    def test_three_term_shifted_support(self):
        # (x-3)^10 + 5(x-3)^4 + 2(x-3)
        f = P(
            59448, -197368, 295515, -262500, 153095,
            -61236, 17010, -3240, 405, -30, 1,
        )
        res = sparsest_shift(f)
        assert res.shift == F(3)
        assert res.support == ((1, F(2)), (4, F(5)), (10, F(1)))
        assert res.size == 3
        assert not res.above_threshold
        assert expand_sparsest(res) == f

    def test_already_sparse_at_zero(self):
        f = P(0, 0, 3, 0, 0, 0, 0, 0, 0, 1)  # x^9 + 3x^2
        res = sparsest_shift(f)
        assert res.shift == F(0)
        assert res.support == ((2, F(3)), (9, F(1)))

    def test_monomial(self):
        res = sparsest_shift(UniPoly.monomial(1, 7))
        assert res.shift == F(0)
        assert res.support == ((7, F(1)),)

    def test_fractional_shift(self):
        f = UniPoly.affine_power(1, F(1, 2), 9) + UniPoly.affine_power(
            4, F(1, 2), 2
        )
        res = sparsest_shift(f)
        assert res.shift == F(1, 2)
        assert res.support == ((2, F(4)), (9, F(1)))

    def test_dense_symmetric_above_threshold(self):
        # (x-r)^8 + (x-r)^2 + (x+r)^8 + (x+r)^2 with r^2 = 2: rational,
        # but no rational shift gets the support below the threshold
        f = P(36, 0, 450, 0, 560, 0, 112, 0, 2)
        res = sparsest_shift(f)
        assert res.above_threshold
        assert res.shift is None and res.support is None

    def test_rational_shifts_too_dense_above_threshold(self):
        # -165 - 213x - 108x^2 - 24x^3 - 2x^4: the minimal plain equation's
        # top coefficient 3x^2 + 2x - 21 has the roots -3 and 7/3 and no
        # irrational factor, and neither shift leaves at most 2 terms
        f = P(-165, -213, -108, -24, -2)
        eq = sde.find_min_sde(f, 0, max_order=2)
        roots, cofactor = ratroots.rational_roots_with_cofactor(eq.polys[eq.order])
        assert (set(roots), len(cofactor) - 1) == ({F(-3), F(7, 3)}, 0)
        assert all(sum(map(bool, f.taylor_shift(a).coeffs)) > 2 for a in roots)
        assert sparsest_shift(f) == SparsestResult(None, None)

    def test_irrational_shift_detected_quartic(self):
        # (x-r)^4 + (x+r)^4 with r^2 = 2
        with pytest.raises(IrrationalNodeDetected):
            sparsest_shift(P(4, 0, 12, 0, 1))

    def test_irrational_shift_detected_degree_nine(self):
        # (x-r)^9 + (x+r)^9 with r^2 = 2
        with pytest.raises(IrrationalNodeDetected):
            sparsest_shift(P(0, 288, 0, 1344, 0, 1008, 0, 144, 0, 2))

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            sparsest_shift(P())

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            sparsest_shift(P(7))

    def test_expand_of_above_threshold_rejected(self):
        with pytest.raises(ValueError):
            expand_sparsest(SparsestResult(None, None))

    def test_random_planted_instances(self):
        rng = random.Random(317)
        for _ in range(8):
            d = rng.choice([16, 20, 25])
            shift = F(rng.randint(-9, 9))
            cap = 4 if d == 16 else (4 if d == 20 else 5)
            size = rng.randint(1, min(3, cap))
            exps = rng.sample(range(1, d), size - 1) + [d]
            g = UniPoly()
            for e in sorted(set(exps)):
                g = g + UniPoly.affine_power(rng.randint(1, 9), shift, e)
            res = sparsest_shift(g)
            assert res.shift == shift
            assert expand_sparsest(res) == g
            assert res.size == len(set(exps))


def test_both_solvers_refuse_a_failed_re_expansion(monkeypatch):
    # waring_decompose and sparsest_shift certify through decompose._verify
    f = UniPoly.affine_power(3, F(1, 2), 9)
    assert waring_decompose(f).terms and sparsest_shift(f).support
    monkeypatch.setattr(Decomposition, "expand", lambda dec: f + P(1))
    for solver in (waring_decompose, sparsest_shift):
        with pytest.raises(ReconstructionFailed, match="^re-expansion does not reproduce the input$"):
            solver(f)

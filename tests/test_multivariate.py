"""Tests for multivariate polynomials and black-box reconstruction."""

import random
from fractions import Fraction

import pytest

from affinepowers import (
    AffineChange,
    BlackBox,
    Decomposition,
    DimensionMismatch,
    ExactAlgebraError,
    MultiDecomposition,
    MultiPoly,
    MultiTerm,
    ReconstructionFailed,
    UniPoly,
    expand_multi,
    multi_build,
    project_to_axis,
)
from affinepowers import multivariate
from affinepowers.multipoly import LinearForm

F = Fraction


def vars2():
    return MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)


class TestMultiPoly:
    def test_constant_and_variable(self):
        c = MultiPoly.constant(2, 5)
        x1, _ = vars2()
        assert c.evaluate([F(9), F(9)]) == F(5)
        assert x1.evaluate([F(3), F(7)]) == F(3)

    def test_zero_and_total_degree(self):
        assert MultiPoly.constant(2, 0).is_zero()
        assert MultiPoly.constant(2, 0).total_degree() == -1
        assert MultiPoly.constant(2, 4).total_degree() == 0
        x1, x2 = vars2()
        assert (x1 * x1 * x2 + x2).total_degree() == 3

    def test_arithmetic(self):
        x1, x2 = vars2()
        p = (x1 + x2) * (x1 - x2)
        q = x1 * x1 - x2 * x2
        assert p == q
        assert p - q == MultiPoly.constant(2, 0)

    def test_pow(self):
        x1, x2 = vars2()
        p = (x1 + x2) ** 2
        assert p == x1 * x1 + 2 * (x1 * x2) + x2 * x2

    def test_evaluate_known(self):
        x1, x2 = vars2()
        one = MultiPoly.constant(2, 1)
        f = (x1 + 2 * x2 + one) ** 3 + (x1 - x2) ** 2
        assert f.evaluate([F(1), F(1)]) == F(64)

    def test_scale(self):
        x1, _ = vars2()
        assert x1.scale(F(1, 2)).evaluate([F(4), F(0)]) == F(2)

    def test_hash_eq(self):
        x1, x2 = vars2()
        assert hash(x1 + x2) == hash(x2 + x1)

    @pytest.mark.parametrize(
        "exps", [(1.5, 0), (True, 2), (0, False), (2.0, 1), (F(3, 2), 0), (1, F(-1, 2))]
    )
    def test_non_integral_or_bool_exponent_rejected(self, exps):
        # int() would read 1.5 as 1 and True as 1
        with pytest.raises(ValueError):
            MultiPoly(2, {exps: 1})

    def test_truncating_exponents_rejected_together(self):
        with pytest.raises(ValueError, match="expected an integer"):
            MultiPoly(2, {(1.5, 0): 1, (True, 2): 3})

    def test_integral_exponents_kept(self):
        p = MultiPoly(2, {(F(2), 1): 3, ("1", 0): 1})
        assert p.terms == {(2, 1): F(3), (1, 0): F(1)}

    @pytest.mark.parametrize("exps", [(1,), (1, 2, 0), (-1, 0)])
    def test_bad_tuple_still_dimension_mismatch(self, exps):
        with pytest.raises(DimensionMismatch):
            MultiPoly(2, {exps: 1})

    @pytest.mark.parametrize("n", [2.0, True, F(3, 2)])
    def test_non_integral_or_bool_arity_rejected(self, n):
        # 2.0 was kept as the arity and evaluate then raised a bare TypeError
        with pytest.raises(ValueError, match="expected an integer"):
            MultiPoly(n)

    def test_integer_string_arity_parsed(self):
        p = MultiPoly("2", {(1, 1): 3})
        assert type(p.n) is int and p.n == 2
        assert p.evaluate([F(2), F(5)]) == F(30)

    @pytest.mark.parametrize("k", [True, 2.0, F(3, 2)])
    def test_non_integral_or_bool_power_rejected(self, k):
        # x ** True returned x; 2.0 raised a bare TypeError from k & 1
        x1, _ = vars2()
        with pytest.raises(ValueError, match="expected an integer"):
            x1**k

    @pytest.mark.parametrize("k", ["3", F(3)])
    def test_integral_power_parsed(self, k):
        x1, x2 = vars2()
        assert (x1 + x2) ** k == (x1 + x2) ** 3


class TestLinearForm:
    def test_of_and_evaluate(self):
        form = LinearForm.of(1, [2, -1])
        assert form.n == 2
        assert form.evaluate([F(3), F(4)]) == F(1) + F(6) - F(4)

    def test_is_constant(self):
        assert LinearForm.of(5, [0, 0]).is_constant()
        assert not LinearForm.of(5, [1, 0]).is_constant()

    def test_plain_constructor_keeps_fractions(self):
        # built directly from ints, the form must stay rational through the
        # normalization of a term: 1 * (2x1 + 3x2 + 1)^3 = 8 * (x1 + 3/2 x2 + 1/2)^3
        md = MultiDecomposition.of(2, [(1, LinearForm(1, (2, 3)), 3)])
        form = md.terms[0].form
        assert form == LinearForm.of(F(1, 2), [1, F(3, 2)])
        assert all(type(c) is F for c in (form.constant, *form.coefficients))
        pt = [F(2), F(-1)]
        assert md.expand().evaluate(pt) == (1 + 2 * pt[0] + 3 * pt[1]) ** 3

    def test_to_multipoly(self):
        form = LinearForm.of(1, [1, 2])
        p = form.to_multipoly()
        for pt in ([F(0), F(0)], [F(1), F(2)], [F(-3), F(5)]):
            assert p.evaluate(pt) == form.evaluate(pt)


class TestAffineChange:
    def test_inverse_of_known_matrix(self):
        ch = AffineChange.of([[2, 1], [1, 1]], [3, 4])
        pt = [F(5), F(-2)]
        img = ch.apply(pt)
        assert img == [F(2) * 5 + F(1) * -2 + 3, F(5) + F(-2) + 4]

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            AffineChange.of([[1, 1], [2, 2]], [0, 0])

    def test_singular_matrix_message(self):
        with pytest.raises(ValueError, match="^matrix is singular$"):
            AffineChange.of([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [0, 0, 0])

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            AffineChange.of([[1, 2], [3]], [0, 0])

    def test_non_square_shape_rejected(self):
        with pytest.raises(ValueError, match="shape") as info:
            AffineChange.of([[1, 2, 3], [4, 5, 6]], [0, 0])
        assert not isinstance(info.value, ExactAlgebraError)
        with pytest.raises(ValueError, match="shape"):
            AffineChange.of([[1, 0], [0, 1]], [0, 0, 0])

    def test_fractional_entries_exact_inverse(self):
        rows = [[F(1, 2), F(2, 3), 0], [F(-3, 4), 1, F(5, 7)], [2, F(1, 3), F(-1, 5)]]
        ch = AffineChange.of(rows, [F(1, 2), 0, "-3"])
        assert ch.matrix == tuple(tuple(F(v) for v in row) for row in rows)
        assert ch.offset == (F(1, 2), F(0), F(-3))
        for i in range(3):
            for j in range(3):
                prod = sum(ch.matrix[i][k] * ch.inverse[k][j] for k in range(3))
                assert prod == (i == j)

    def test_inverse_roundtrip(self):
        ch = AffineChange.of([[2, 1], [1, 1]], [3, 4])
        inv = ch.inverse
        pt = [F(7), F(11)]
        img = ch.apply(pt)
        # subtract offset and apply the stored inverse matrix
        shifted = [img[i] - ch.offset[i] for i in range(2)]
        back = [
            sum(inv[i][j] * shifted[j] for j in range(2)) for i in range(2)
        ]
        assert back == pt

    def test_apply_checks_point_length(self):
        ch = AffineChange.of([[2, 1], [1, 1]], [3, 4])
        for point in ([1, 2, 99], [1], []):
            with pytest.raises(DimensionMismatch, match="^point length != variable count$"):
                ch.apply(point)

    def test_sample_deterministic_and_bounded(self):
        a = AffineChange.sample(random.Random(5), 3)
        b = AffineChange.sample(random.Random(5), 3)
        assert a == b
        for row in a.matrix:
            for v in row:
                assert 1 <= v <= 2**32
        for v in a.offset:
            assert 1 <= v <= 2**32


class TestBlackBox:
    def test_eval_validates_arity(self):
        bb = BlackBox(2, 3, lambda p: F(0))
        with pytest.raises(ValueError):
            bb.eval([F(1)])

    @pytest.mark.parametrize("n, bound", [(2.0, 3), (True, 3), (2, True), (2, 3.5), (2, F(7, 2))])
    def test_non_integral_or_bool_sizes_rejected(self, n, bound):
        # a bound of True was read as 1, and project_to_axis then returned
        # the line through two values of a cubic
        with pytest.raises(ValueError, match="expected an integer"):
            BlackBox(n, bound, lambda p: F(0))

    @pytest.mark.parametrize("retries", [True, 2.5, F(3, 2)], ids=repr)
    def test_multi_build_refuses_non_integral_retries(self, retries):
        # retries=True was read as 1
        x1, x2 = vars2()
        bb = BlackBox.from_multipoly((x1 + x2) ** 4)
        with pytest.raises(ValueError, match="expected an integer"):
            multi_build(bb, backend="big_exponents", retries=retries)

    def test_integer_string_sizes_parsed(self):
        bb = BlackBox("2", "3", lambda p: F(0))
        assert (bb.n, bb.degree_bound) == (2, 3)
        assert type(bb.n) is int and type(bb.degree_bound) is int

    def test_from_multipoly_degree_bound(self):
        x1, x2 = vars2()
        bb = BlackBox.from_multipoly((x1 + x2) ** 4)
        assert bb.degree_bound == 4
        assert bb.eval([F(1), F(1)]) == F(16)


class TestProjection:
    def test_axis_projection_of_univariate_power(self):
        x1 = MultiPoly.variable(2, 0)
        one = MultiPoly.constant(2, 1)
        bb = BlackBox.from_multipoly((x1 + one) ** 3)
        ident = AffineChange.of([[1, 0], [0, 1]], [0, 0])
        g = project_to_axis(bb, ident, 0)
        assert g == UniPoly((1, 3, 3, 1))

    def test_second_axis_picks_up_coefficient(self):
        x1, x2 = vars2()
        one = MultiPoly.constant(2, 1)
        bb = BlackBox.from_multipoly((x1 + 2 * x2 + one) ** 3)
        ident = AffineChange.of([[1, 0], [0, 1]], [0, 0])
        g = project_to_axis(bb, ident, 1)
        assert g == UniPoly((1, 6, 12, 8))  # (2t + 1)^3

    def test_mixed_term_vanishes_on_axes(self):
        x1, x2 = vars2()
        bb = BlackBox.from_multipoly(x1 * x2)
        ident = AffineChange.of([[1, 0], [0, 1]], [0, 0])
        assert project_to_axis(bb, ident, 0).is_zero()
        assert project_to_axis(bb, ident, 1).is_zero()

    def test_query_count_is_degree_bound_plus_one(self):
        x1, _ = vars2()
        calls = []
        inner = (x1 + MultiPoly.constant(2, 1)) ** 5

        def counting(pt):
            calls.append(tuple(pt))
            return inner.evaluate(pt)

        bb = BlackBox(2, 5, counting)
        ident = AffineChange.of([[1, 0], [0, 1]], [0, 0])
        project_to_axis(bb, ident, 0)
        assert len(calls) == 6

    def test_shared_origin_saves_one_query(self):
        # a rational substitution: the points are an integer progression
        # over the common denominator 6
        x1, x2 = vars2()
        f = (x1 - 3 * x2 + MultiPoly.constant(2, 2)) ** 4
        calls = []

        def counting(pt):
            calls.append(tuple(pt))
            return f.evaluate(pt)

        bb = BlackBox(2, 4, counting)
        change = AffineChange.of([[F(1, 2), 3], [F(-2, 3), 1]], [F(1, 6), -2])
        whole = project_to_axis(bb, change, 1)
        assert len(calls) == 5
        assert calls[0] == change.offset
        shared = project_to_axis(bb, change, 1, bb.eval(change.offset))
        assert len(calls) == 5 + 1 + 4
        assert shared == whole
        assert calls[6:] == calls[1:5] == [tuple(change.apply([0, t])) for t in range(1, 5)]

    def test_change_of_other_dimension_rejected(self):
        bb = BlackBox.from_multipoly(vars2()[0] ** 2)
        change = AffineChange.of([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 2, 3])
        with pytest.raises(DimensionMismatch):
            project_to_axis(bb, change, 0)


class TestMultiTerm:
    def test_constant_form_rejected(self):
        with pytest.raises(ValueError):
            MultiTerm(F(1), LinearForm.of(3, [0, 0]), 2)

    def test_zero_coeff_rejected(self):
        with pytest.raises(ValueError):
            MultiTerm(F(0), LinearForm.of(0, [1, 0]), 2)

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            MultiTerm(F(1), LinearForm.of(0, [1, 0]), 0)

    @pytest.mark.parametrize("exponent", [3.5, 2.0, True, F(7, 2)])
    def test_non_integral_exponent_rejected(self, exponent):
        # int() would read 3.5 as 3 and True as 1
        with pytest.raises(ValueError):
            MultiTerm(F(1), LinearForm.of(0, [1, 0]), exponent)

    def test_integer_string_exponent_parsed(self):
        assert MultiTerm(F(1), LinearForm.of(0, [1, 0]), "3").exponent == 3


class TestMultiDecomposition:
    def test_normalizes_leading_coefficient(self):
        # 1 * (2x1 + 4x2 + 2)^3 == 8 * (x1 + 2x2 + 1)^3
        md = MultiDecomposition.of(2, [(F(1), LinearForm.of(2, [2, 4]), 3)])
        t = md.terms[0]
        assert t.form.coefficients == (F(1), F(2))
        assert t.form.constant == F(1)
        assert t.coeff == F(8)

    @pytest.mark.parametrize("lead", [1, 2])
    @pytest.mark.parametrize("exponent", [2.7, True, F(5, 2)])
    def test_of_rejects_non_integral_exponent(self, lead, exponent):
        form = LinearForm.of(1, [lead, 3])
        with pytest.raises(ValueError):
            MultiDecomposition.of(2, [(F(1), form, exponent)])

    def test_merges_equivalent_forms(self):
        items = [
            (F(1), LinearForm.of(1, [1, 2]), 3),
            (F(1), LinearForm.of(2, [2, 4]), 3),  # same form, scaled by 2
        ]
        md = MultiDecomposition.of(2, items)
        assert len(md.terms) == 1
        assert md.terms[0].coeff == F(9)

    def test_cancellation_drops_term(self):
        items = [
            (F(8), LinearForm.of(1, [1, 2]), 3),
            (F(-1), LinearForm.of(2, [2, 4]), 3),
        ]
        md = MultiDecomposition.of(2, items)
        assert md.terms == ()

    def test_sorted_by_exponent_desc(self):
        items = [
            (F(1), LinearForm.of(0, [1, 1]), 2),
            (F(1), LinearForm.of(1, [1, 2]), 5),
        ]
        md = MultiDecomposition.of(2, items)
        assert [t.exponent for t in md.terms] == [5, 2]

    def test_evaluate_matches_expand(self):
        items = [
            (F(2), LinearForm.of(1, [1, 2]), 3),
            (F(-1), LinearForm.of(0, [1, -1]), 2),
        ]
        md = MultiDecomposition.of(2, items)
        p = expand_multi(md)
        rng = random.Random(19)
        for _ in range(5):
            pt = [F(rng.randint(-9, 9)) for _ in range(2)]
            assert md.evaluate(pt) == p.evaluate(pt)

    def test_expand_equals_repeated_multiplication(self):
        # the multinomial expansion against powers taken by MultiPoly.__pow__
        rng = random.Random(60)

        def frac():
            return F(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.8 else F(0)

        for _ in range(60):
            n = rng.randint(1, 3)
            items = []
            for _ in range(rng.randint(1, 3)):
                coeffs = [frac() for _ in range(n)]
                if not any(coeffs):
                    coeffs[rng.randrange(n)] = F(rng.randint(1, 5), rng.randint(1, 3))
                items.append((frac() or F(1), LinearForm.of(frac(), coeffs), rng.randint(1, 8)))
            md = MultiDecomposition.of(n, items)
            want = MultiPoly.constant(n, 0)
            for t in md.terms:
                want = want + t.form.to_multipoly() ** t.exponent * t.coeff
            assert md.expand() == want

    def test_expand_drops_cancelled_monomials(self):
        # (x + y)^2 - (x - y)^2 = 4xy
        md = MultiDecomposition.of(
            2, [(F(1), LinearForm.of(0, [1, 1]), 2), (F(-1), LinearForm.of(0, [1, -1]), 2)]
        )
        assert md.expand().terms == {(1, 1): F(4)}
        assert MultiDecomposition(3, ()).expand() == MultiPoly(3)


class TestMultiBuild:
    def planted(self):
        x1, x2 = vars2()
        one = MultiPoly.constant(2, 1)
        return (x1 + 2 * x2 + one) ** 13 + (x1 - x2) ** 11

    def test_two_form_roundtrip(self):
        f = self.planted()
        md = multi_build(BlackBox.from_multipoly(f), rng_seed=0, backend="big_exponents")
        assert expand_multi(md) == f
        forms = {
            (t.form.constant, t.form.coefficients, t.exponent, t.coeff)
            for t in md.terms
        }
        assert forms == {
            (F(1), (F(1), F(2)), 13, F(1)),
            (F(0), (F(1), F(-1)), 11, F(1)),
        }

    def test_deterministic_for_fixed_seed(self):
        f = self.planted()
        a = multi_build(BlackBox.from_multipoly(f), rng_seed=3, backend="big_exponents")
        b = multi_build(BlackBox.from_multipoly(f), rng_seed=3, backend="big_exponents")
        assert a == b

    def test_axis_aligned_and_constant_free_forms(self):
        # forms with zero coefficients on some variables and zero constant
        x1, x2 = vars2()
        one = MultiPoly.constant(2, 1)
        f = x1**13 + (x2 + one) ** 11
        md = multi_build(BlackBox.from_multipoly(f), rng_seed=0, backend="big_exponents")
        assert expand_multi(md) == f

    def test_three_variables(self):
        x1 = MultiPoly.variable(3, 0)
        x2 = MultiPoly.variable(3, 1)
        x3 = MultiPoly.variable(3, 2)
        one = MultiPoly.constant(3, 1)
        f = (x1 + x2 + x3 + one) ** 12 + (x1 - 2 * x3) ** 11
        md = multi_build(BlackBox.from_multipoly(f), rng_seed=0, backend="big_exponents")
        assert expand_multi(md) == f

    def test_zero_function(self):
        bb = BlackBox(2, 3, lambda p: F(0))
        md = multi_build(bb, rng_seed=1, retries=0)
        assert md.terms == ()

    def test_product_fails_with_typed_error(self):
        x1, x2 = vars2()
        bb = BlackBox.from_multipoly(x1 * x2)
        with pytest.raises(ReconstructionFailed):
            multi_build(bb, rng_seed=0, backend="big_exponents", retries=1)

    def test_unknown_backend_rejected(self):
        bb = BlackBox(2, 3, lambda p: F(0))
        with pytest.raises(ValueError):
            multi_build(bb, backend="nope")

    def test_distinct_nodes_backend(self):
        x1, x2 = vars2()
        one = MultiPoly.constant(2, 1)
        f = (x1 + 2 * x2 + one) ** 13 + (x1 - x2) ** 11
        md = multi_build(BlackBox.from_multipoly(f), rng_seed=0, backend="distinct_nodes")
        assert expand_multi(md) == f

    def test_query_budget(self):
        # per attempt the shared point t = 0 once, then degree_bound more
        # points per axis, plus 50 verification points on success
        f = self.planted()
        calls = []

        def counting(pt):
            calls.append(1)
            return f.evaluate(pt)

        bb = BlackBox(2, 13, counting)
        multi_build(bb, rng_seed=0, backend="big_exponents")
        assert len(calls) == 2 * 13 + 1 + 50

    def test_spot_check_failure_is_retried_then_refused(self, monkeypatch):
        # x1^3 against the box x1^2: each attempt fails at its first point
        x1, _ = vars2()
        wrong = MultiDecomposition.of(2, [(F(1), LinearForm.of(0, [1, 0]), 3)])
        monkeypatch.setattr(multivariate, "_assemble", lambda bb, change, backend: wrong)

        def run():
            points = []

            def box(pt):
                points.append(tuple(pt))
                return (x1**2).evaluate(pt)

            with pytest.raises(ReconstructionFailed) as info:
                multi_build(BlackBox(2, 2, box), rng_seed=4, backend="big_exponents", retries=2)
            return str(info.value), type(info.value.__cause__), str(info.value.__cause__), points

        first = run()
        assert first[:3] == (
            "no attempt out of 3 produced a verified decomposition",
            ReconstructionFailed,
            "candidate failed the random spot check",
        )
        assert len(first[3]) == 3
        assert run() == first


class TestAssembleRefusals:
    """Each refusal of one reconstruction attempt, reached through a fixed
    substitution with columns (1, 1) and (1, 2), offset (1, 1), and a
    backend that returns chosen axis answers, one list of (coeff, node,
    exponent) triples per axis in order."""

    def assemble(self, f, *answers):
        change = AffineChange.of([[1, 1], [1, 2]], [1, 1])
        calls = iter(answers)
        return multivariate._assemble(
            BlackBox.from_multipoly(f), change, lambda proj: Decomposition.of(next(calls))
        )

    def test_one_axis_projection_vanishes(self):
        # (x1 - x2)^2 is 0 at (1 + t, 1 + t) on axis 0, and t^2 on axis 1
        x1, x2 = vars2()
        with pytest.raises(ReconstructionFailed, match="^axis projection vanished unexpectedly$"):
            self.assemble((x1 - x2) ** 2)

    @pytest.mark.parametrize(
        "answers, message",
        [
            ([[(1, 0, 2)]], "axis term has node zero, substitution was unlucky"),
            # (t - 1)^2 + (t + 1)^2: c = alpha (-a)^e is 1 for both terms
            ([[(1, 1, 2), (1, -1, 2)]], "axis term coefficients collide"),
            # (t - 1)^2 - (t - 1)^3: c = 1 for both, at different exponents
            ([[(1, 1, 2), (-1, 1, 3)]], "axis term coefficients collide"),
            ([[(1, 1, 2)], [(1, 1, 2), (1, 2, 3)]], "axes disagree on the number of terms"),
            # (t - 1)^2 against 2 (t - 1)^2: keys (1, 2) and (2, 2)
            ([[(1, 1, 2)], [(2, 1, 2)]], "axes disagree on term identities"),
            # (t - 1)^2 against (t - 1)^3: keys (1, 2) and (-1, 3)
            ([[(1, 1, 2)], [(1, 1, 3)]], "axes disagree on term identities"),
        ],
    )
    def test_refusal(self, answers, message):
        x1, x2 = vars2()
        with pytest.raises(ReconstructionFailed, match=f"^{message}$"):
            self.assemble((x1 + x2) ** 2, *answers)

    def test_matching_axes_pull_back(self):
        # (x1 + x2)^2 is 4 (t + 1)^2 on axis 0 and 9 (t + 2/3)^2 on axis 1
        x1, x2 = vars2()
        md = self.assemble((x1 + x2) ** 2, [(4, -1, 2)], [(9, F(-2, 3), 2)])
        assert md == MultiDecomposition.of(2, [(F(1), LinearForm.of(0, [1, 1]), 2)])

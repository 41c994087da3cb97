"""Tests of MultiPoly.evaluate, the integer evaluation of the black box,
and of MultiDecomposition.evaluate, the integer evaluation of an answer.

The references are copies of the plain Fraction loops that they replaced:
one Fraction x**e per monomial per point, and one Fraction form value per
term.  Fractions are normalized, so equal values are equal Fractions and
the comparisons below are exact.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from affinepowers import (  # noqa: E402
    AffineChange,
    BlackBox,
    DimensionMismatch,
    MultiDecomposition,
    MultiPoly,
    project_to_axis,
)
from affinepowers.multipoly import LinearForm  # noqa: E402

F = Fraction

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)


def fraction_loop(p, point):
    """Value of p at point, monomial by monomial in Fractions."""
    pt = [F(v) for v in point]
    total = F(0)
    for exps, c in p.terms.items():
        v = c
        for x, e in zip(pt, exps):
            if e:
                v *= x**e
        total += v
    return total


coefficients = st.one_of(
    st.just(F(0)),
    st.integers(-30, 30).map(F),
    st.builds(F, st.integers(-30, 30), st.integers(1, 12)),
    st.builds(F, st.integers(-(10**20), 10**20), st.integers(1, 10**9)),
)
coordinates = st.one_of(
    st.integers(-50, 50).map(F),
    st.builds(F, st.integers(-50, 50), st.integers(1, 9)),
    st.builds(F, st.integers(-(10**6), 10**6), st.integers(1, 10**4)),
)
# all-integer points, the D = 1 rows; coordinates drawn from `coordinates`
# are all integral in few of the n = 3 and n = 4 examples
integer_coordinates = st.one_of(
    st.integers(-50, 50),
    st.integers(-(2**33), 2**33),
    st.integers(-(2**33), 2**33).map(F),
)


@st.composite
def polys_and_points(draw, coords=coordinates):
    n = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 6)] * n)
    terms = draw(st.dictionaries(exponents, coefficients, max_size=12))
    points = draw(
        st.lists(st.lists(coords, min_size=n, max_size=n), min_size=1, max_size=4)
    )
    return MultiPoly(n, terms), points


class TestAgainstFractionLoop:
    @PROPERTY
    @given(polys_and_points())
    @example((MultiPoly(3), [[F(1, 2), F(-3), F(5, 7)]]))  # zero polynomial
    @example((MultiPoly.constant(2, F(-7, 3)), [[F(1, 2), F(2, 3)], [F(0), F(0)]]))
    @example(
        # mixed denominators, negative coordinates, one variable absent
        (
            MultiPoly(4, {(3, 0, 1, 0): F(5, 6), (0, 2, 0, 0): F(-1, 4), (0, 0, 0, 0): 2}),
            [[F(-3, 4), F(5, 6), F(-7, 10), F(11, 15)], [F(-1), F(2), F(-3), F(4)]],
        )
    )
    def test_equal_fractions(self, case):
        p, points = case
        # the same instance at several points reuses one integer form
        for point in points:
            got = p.evaluate(point)
            assert isinstance(got, Fraction)
            assert got == fraction_loop(p, point)

    @PROPERTY
    @given(polys_and_points(integer_coordinates))
    @example((MultiPoly(3, {(6, 0, 0): F(-5, 3), (1, 2, 3): 7, (0, 0, 0): F(1, 2)}), [[2**32, -(2**32) + 1, 2**31 - 9]]))
    def test_integer_points(self, case):
        p, points = case
        for point in points:
            assert p.evaluate(point) == fraction_loop(p, point)

    def test_integer_and_string_coordinates(self):
        p = MultiPoly(2, {(2, 1): F(3, 4), (0, 3): -1, (0, 0): F(1, 9)})
        for point in ([2, -5], ["1/3", "-2/5"], [F(7, 2), 0]):
            assert p.evaluate(point) == fraction_loop(p, point)


@st.composite
def sparse_polys_and_points(draw):
    """Few terms with exponents up to 40, so that every variable's exponents
    have gaps and many rows of the nested form start above exponent 0; the
    variables in `absent` appear in no term."""
    n = draw(st.integers(1, 4))
    absent = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    exponents = st.tuples(*[st.just(0) if j in absent else st.integers(0, 40) for j in range(n)])
    terms = draw(st.dictionaries(exponents, coefficients, min_size=1, max_size=6))
    points = draw(
        st.lists(st.lists(coordinates, min_size=n, max_size=n), min_size=1, max_size=3)
    )
    return MultiPoly(n, terms), points


class TestNestedForm:
    @PROPERTY
    @given(sparse_polys_and_points())
    @example(
        # rows y^5..y^2 under x^3 and y^4 alone under x^0, both above y^0
        (
            MultiPoly(2, {(3, 5): 1, (3, 2): F(-2, 3), (0, 4): 7}),
            [[F(-5, 2), F(3, 7)], [F(2), F(-1)]],
        )
    )
    @example((MultiPoly(1, {(40,): F(1, 3), (17,): -2, (1,): 5}), [[F(-9, 8)], [F(3)]]))
    @example(
        # x_2 and x_4 appear in no term
        (
            MultiPoly(4, {(9, 0, 31, 0): F(4, 5), (0, 0, 40, 0): -1, (2, 0, 0, 0): 3}),
            [[F(1, 3), F(7), F(-2, 5), F(11, 2)]],
        )
    )
    def test_sparse_exponents_with_gaps(self, case):
        p, points = case
        for point in points:
            assert p.evaluate(point) == fraction_loop(p, point)

    POINTS = (
        [2**36 + 7, -(2**36) + 11, 2**36 - 5],
        [F(2**36 + 1, 10**9), F(-123456789, 999999937), F(5, 7)],
        [F(-(2**36), 999999999), F(3, 10**9), F(2**35 + 3, 2)],
    )

    @pytest.mark.parametrize("point", POINTS)
    def test_high_exponent_in_outer_variable(self, point):
        p = MultiPoly(2, {(300, 1): 1, (0, 0): 1})
        x, y = (F(v) for v in point[:2])
        assert p.evaluate(point[:2]) == x**300 * y + 1

    @pytest.mark.parametrize("point", POINTS)
    def test_dense_degree_14_in_three_variables(self, point):
        # the shape of the benchmark's n = 3 black boxes, with fractional
        # coefficients so that den > 1
        l1 = LinearForm.of(F(1, 2), [1, F(-3, 4), 4])
        l2 = LinearForm.of(3, [-5, 2, F(1, 3)])
        p = F(3, 7) * l1.to_multipoly() ** 14 + 4 * l2.to_multipoly() ** 11
        want = F(3, 7) * l1.evaluate(point) ** 14 + 4 * l2.evaluate(point) ** 11
        assert p.evaluate(point) == want == fraction_loop(p, point)


class TestSympyOracle:
    def test_poly_eval_on_seeded_polynomials(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(2024)
        for _ in range(12):
            n = rng.randint(1, 4)
            terms = {}
            for _ in range(rng.randint(1, 15)):
                exps = tuple(rng.randint(0, 7) for _ in range(n))
                terms[exps] = F(rng.randint(-99, 99), rng.randint(1, 30))
            p = MultiPoly(n, terms)
            if p.is_zero():
                continue
            point = [F(rng.randint(-500, 500), rng.randint(1, 40)) for _ in range(n)]
            gens = sympy.symbols(f"x0:{n}")
            poly = sympy.Poly.from_dict(
                {e: sympy.Rational(c.numerator, c.denominator) for e, c in p.terms.items()},
                gens,
                domain="QQ",
            )
            want = poly(*(sympy.Rational(v.numerator, v.denominator) for v in point))
            assert p.evaluate(point) == F(int(want.p), int(want.q))


class TestCachedForm:
    def test_box_built_before_first_evaluate(self, monkeypatch):
        built = []
        integer_form = MultiPoly._integer_form

        def spy(self):
            built.append(self)
            return integer_form(self)

        monkeypatch.setattr(MultiPoly, "_integer_form", spy)
        p = MultiPoly(
            3, {(4, 1, 0): F(2, 3), (0, 2, 3): F(-5, 7), (1, 1, 1): 4, (0, 0, 0): F(1, 2)}
        )
        twin = MultiPoly(3, p.terms)
        box = BlackBox.from_multipoly(p)  # binds p.evaluate before any call
        assert built == []
        rng = random.Random(5)
        points = [[F(rng.randint(-40, 40), rng.randint(1, 6)) for _ in range(3)] for _ in range(6)]
        assert [box.eval(pt) for pt in points] == [fraction_loop(twin, pt) for pt in points]
        change = AffineChange.of([[1, 2, 0], [0, 1, 3], [F(1, 2), 0, 1]], [1, F(-2, 3), 5])
        proj = project_to_axis(box, change, 1)
        for t in range(-2, 3):
            assert proj.evaluate(F(t)) == fraction_loop(twin, change.apply([0, t, 0]))
        assert [p.evaluate(pt) for pt in points] == [box.eval(pt) for pt in points]
        assert built == [p]

    def test_cache_leaves_equality_and_hash(self):
        p = MultiPoly(2, {(1, 2): F(3, 5), (0, 0): 1})
        q = MultiPoly(2, {(1, 2): F(3, 5), (0, 0): 1})
        p.evaluate([F(1, 2), 3])
        assert p == q
        assert hash(p) == hash(q)


def decomposition_loop(md, point):
    """Value of md at point, term by term in Fractions."""
    pt = [F(v) for v in point]
    total = F(0)
    for t in md.terms:
        total += t.coeff * t.form.evaluate(pt) ** t.exponent
    return total


@st.composite
def decompositions_and_points(draw):
    n = draw(st.integers(1, 3))
    forms = st.builds(
        LinearForm.of, coefficients, st.lists(coefficients, min_size=n, max_size=n)
    ).filter(lambda form: not form.is_constant())
    terms = draw(
        st.lists(st.tuples(coefficients.filter(bool), forms, st.integers(1, 9)), max_size=3)
    )
    coords = draw(st.sampled_from([coordinates, integer_coordinates]))
    points = draw(
        st.lists(st.lists(coords, min_size=n, max_size=n), min_size=1, max_size=3)
    )
    return MultiDecomposition.of(n, terms), points


class TestDecompositionEvaluate:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(decompositions_and_points())
    @example((MultiDecomposition(2, ()), [[F(1, 2), F(-3)], [2**32, 5]]))
    @example(
        # forms and coefficients with denominators, at integer points
        (
            MultiDecomposition.of(
                3,
                [
                    (F(3, 7), LinearForm.of(F(1, 2), [F(2, 3), 0, F(-5, 4)]), 9),
                    (F(-1, 6), LinearForm.of(3, [1, F(1, 5), 2]), 4),
                ],
            ),
            [[2**32 + 1, -(2**31), 7], [F(-3, 8), F(5, 9), F(1, 10)]],
        )
    )
    def test_against_fraction_loop_and_expansion(self, case):
        md, points = case
        expanded = md.expand()
        for point in points:
            got = md.evaluate(point)
            assert isinstance(got, Fraction)
            assert got == decomposition_loop(md, point) == expanded.evaluate(point)

    def test_wrong_point_length(self):
        md = MultiDecomposition.of(2, [(1, LinearForm.of(1, [1, 2]), 3)])
        with pytest.raises(DimensionMismatch):
            md.evaluate([1, 2, 3])

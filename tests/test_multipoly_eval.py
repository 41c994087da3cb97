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
    multi_build,
    project_to_axis,
)
from affinepowers import multipoly  # noqa: E402
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


class TestIntegerPoints:
    """The D = 1 path: the level above the rows runs them inline (a lone
    row at n = 1), and the power tables reach only the largest gap and row
    low."""

    CASES = [
        # n = 1: one row, lowest exponent 3 (low > 0), gaps of 5 and 9
        MultiPoly(1, {(17,): F(2, 3), (8,): -4, (3,): 1}),
        # n = 2: rows with low > 0 under x^7 and x^2, gaps of 5 and 2 above them
        MultiPoly(2, {(7, 9): 3, (7, 4): F(-1, 2), (2, 6): 5, (0, 11): -7, (0, 2): 1}),
        # n = 3: gaps of 3 and 6 at both outer levels, rows starting at y^4 and z^5
        MultiPoly(3, {(9, 4, 8): 1, (9, 0, 5): F(5, 6), (3, 6, 0): -2, (3, 0, 7): 4, (0, 0, 0): 9}),
        # n = 4: two levels recurse above the inline one
        MultiPoly(4, {(5, 2, 0, 3): -1, (5, 0, 4, 1): F(7, 3), (1, 3, 3, 9): 2, (0, 0, 0, 4): 6}),
        # a single row: every term shares x^4 y^2
        MultiPoly(3, {(4, 2, 9): 3, (4, 2, 6): F(-8, 5), (4, 2, 2): 1}),
        # constants
        MultiPoly.constant(1, F(-7, 3)),
        MultiPoly.constant(4, 12),
    ]
    POINTS = [
        (-3, 5, -2, 7),
        (2**32 + 1, -(2**31) + 7, 2**33, -1),
        (0, -1, 1, 0),
        (-(10**6), 10**6, -999983, 123457),
    ]

    @pytest.mark.parametrize("p", CASES, ids=range(len(CASES)))
    def test_against_fraction_loop(self, p):
        for point in self.POINTS:
            ints = point[: p.n]
            assert p.evaluate(list(ints)) == fraction_loop(p, ints)
            assert p.evaluate([F(v) for v in ints]) == fraction_loop(p, ints)

    @pytest.mark.parametrize("p", CASES, ids=range(len(CASES)))
    def test_integer_points_take_the_d1_path(self, p, monkeypatch):
        # every call of _horner, recursive ones too, sees d_pow None at an
        # integer point (n = 1 included) and a power table of D otherwise
        seen = []
        real = multipoly._horner

        def spy(table, tables, x, d_pow):
            seen.append(d_pow is None)
            return real(table, tables, x, d_pow)

        monkeypatch.setattr(multipoly, "_horner", spy)
        point = self.POINTS[0][: p.n]
        p.evaluate(list(point))
        p.evaluate([F(v) for v in point])
        assert seen and all(seen)
        seen.clear()
        p.evaluate([F(v, 2) for v in point])
        assert seen and not any(seen)

    def test_dense_box_reads_one_power_per_outer_variable(self):
        p = LinearForm.of(2, [1, -3, 5]).to_multipoly() ** 6
        p.evaluate([1, 2, 3])
        assert p._int_form[2] == [1, 1, 0]

    def test_sparse_box_reads_gaps_and_lows(self):
        p = self.CASES[2]
        p.evaluate([1, 2, 3])
        # x gaps 9 - 3 and 3 - 0; y gaps 4, 6 and 0; z lows 8, 5, 0, 7 and 0
        assert p._int_form[2] == [6, 6, 8]


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

    def test_decomposition_evaluate_leaves_equality_hash_and_repr(self):
        terms = [(F(3, 7), LinearForm.of(F(1, 2), [F(2, 3), -1]), 5), (4, LinearForm.of(1, [1, 2]), 3)]
        md = MultiDecomposition.of(2, terms)
        twin = MultiDecomposition.of(2, terms)
        before = (repr(md), hash(md))
        for point in ([2, -3], [F(1, 2), F(-5, 3)]):
            first = md.evaluate(point)
            assert md.evaluate(point) == first == decomposition_loop(md, point)
        assert md == twin
        assert (repr(md), hash(md)) == before == (repr(twin), hash(twin))
        # the cleared forms live in the evaluator, not on the answer
        assert vars(md).keys() == {"n", "terms"}

    def test_one_evaluator_for_many_points(self):
        md = MultiDecomposition.of(
            3, [(F(-2, 9), LinearForm.of(F(3, 4), [1, F(-5, 6), 2]), 7), (1, LinearForm.of(0, [0, 1, 3]), 7)]
        )
        value = md._evaluator()
        for point in ([1, 2, 3], [-(10**6), 10**6, 7], [F(1, 3), F(-2, 5), 0]):
            assert value(point) == md.evaluate(point) == decomposition_loop(md, point)
        with pytest.raises(DimensionMismatch):
            value([1, 2])


class FractionOnlyBox:
    """A polynomial black box whose evaluator refuses anything but a list
    of Fractions, to check what BlackBox.eval hands it."""

    def __init__(self, p):
        self.p = p
        self.calls = 0

    def __call__(self, point):
        assert type(point) is list
        assert all(type(v) is Fraction for v in point), point
        self.calls += 1
        return fraction_loop(self.p, point)


class TestBoxReceivesFractions:
    def test_project_to_axis(self):
        p = MultiPoly(2, {(3, 1): F(2, 5), (0, 2): -1, (1, 0): 4})
        func = FractionOnlyBox(p)
        box = BlackBox(2, 4, func)
        # integral and fractional substitutions: the points reach the box
        # as ints and as Fraction(v, den)
        for change in (
            AffineChange.of([[1, 2], [3, -1]], [5, -7]),
            AffineChange.of([[F(1, 2), 2], [3, F(-1, 3)]], [F(5, 4), -7]),
        ):
            proj = project_to_axis(box, change, 0)
            for t in range(-2, 3):
                assert proj.evaluate(F(t)) == fraction_loop(p, change.apply([t, 0]))
        assert func.calls == 10

    def test_multi_build(self):
        planted = MultiDecomposition.of(
            2, [(3, LinearForm.of(1, [2, -1]), 11), (F(-1, 2), LinearForm.of(2, [1, 3]), 9)]
        )
        func = FractionOnlyBox(planted.expand())
        got = multi_build(BlackBox(2, 11, func), rng_seed=4, backend="big_exponents")
        assert got == planted
        # the shared origin, 11 points per axis and the 50-point spot check
        assert func.calls == 1 + 2 * 11 + 50


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

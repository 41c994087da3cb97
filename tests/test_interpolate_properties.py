"""Property tests of interpolate, which assembles the Newton form in integers.

The reference is a copy of the divided-difference routine it replaced: the
Fraction table, then a Horner assembly with one UniPoly multiply per point.
Both must give the same polynomial for equally spaced abscissas (integer,
fractional and negative steps), unequal steps, 0 to 2 points, and rational
and ~500-bit ordinates, and refuse repeated abscissas alike.  sympy's
interpolate is an outside oracle on both branches: equally spaced abscissas
(the integer forward differences) and unequally spaced rational ones (the
divided differences), with rational ordinates.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

sympy = pytest.importorskip("sympy")

from affinepowers import DuplicateAbscissa, UniPoly, interpolate  # noqa: E402

F = Fraction

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)


def divided_differences(points) -> UniPoly:
    """Newton divided differences in Fractions, as interpolate computed them
    before its integer form."""
    xs = [F(p[0]) for p in points]
    ys = [F(p[1]) for p in points]
    if len(set(xs)) != len(xs):
        raise DuplicateAbscissa("interpolation abscissas must be distinct")
    n = len(xs)
    dd = list(ys)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - level])
    result = UniPoly()
    for i in range(n - 1, -1, -1):
        result = result * UniPoly((-xs[i], 1)) + UniPoly((dd[i],))
    return result


ordinates = st.one_of(
    st.integers(-(10**6), 10**6).map(F),
    st.builds(F, st.integers(-(10**9), 10**9), st.integers(1, 10**6)),
    st.integers(-(2**500), 2**500).map(F),
    st.builds(F, st.integers(-(2**500), 2**500), st.integers(1, 2**64)),
)
abscissas = st.one_of(
    st.integers(-40, 40).map(F),
    st.builds(F, st.integers(-40, 40), st.integers(1, 12)),
)
steps = st.one_of(
    st.integers(1, 6),
    st.integers(-6, -1),
    st.builds(F, st.integers(-9, 9).filter(bool), st.integers(2, 11)),
).map(F)


@st.composite
def equal_steps(draw, min_size=0, max_size=18):
    x0, h = draw(abscissas), draw(steps)
    ys = draw(st.lists(ordinates, min_size=min_size, max_size=max_size))
    return [(x0 + k * h, y) for k, y in enumerate(ys)]


@st.composite
def unequal_steps(draw, max_size=12):
    xs = draw(st.lists(abscissas, min_size=3, max_size=max_size, unique=True))
    return [(x, draw(ordinates)) for x in xs]


def check(points):
    got = interpolate(points)
    assert got == divided_differences(points)
    assert all(isinstance(c, Fraction) for c in got.coeffs)
    assert got.degree < len(points)
    for x, y in points:
        assert got.evaluate(F(x)) == F(y)


class TestAgainstDividedDifferences:
    @PROPERTY
    @given(equal_steps())
    @example([(t, F(t**3 - 2)) for t in range(15)])  # the t = 0..d of project_to_axis
    @example([(F(1, 2) - k * F(3, 7), F(2**500 - k, 3)) for k in range(6)])
    def test_equal_steps(self, points):
        check(points)

    @PROPERTY
    @given(unequal_steps())
    @example([(F(0), F(1)), (F(1), F(2)), (F(3), F(-5, 2))])
    @example([(F(2), F(1)), (F(0), F(7)), (F(1), F(2**499))])  # equal gaps, out of order
    def test_unequal_steps(self, points):
        check(points)

    @pytest.mark.parametrize(
        "points",
        [
            [],
            [(F(3, 2), F(-7, 9))],
            [(-4, 2**500 + 1)],
            [(F(1, 3), 5), (F(-2, 5), F(2**500, 7))],
            [("1/2", "3/4"), ("-1/6", 0)],
        ],
        ids=["none", "one", "one-huge", "two", "two-strings"],
    )
    def test_few_points(self, points):
        check(points)

    @pytest.mark.parametrize(
        "points",
        [
            [(1, 2), (1, 3)],
            [(0, 1), (F(1, 2), 2), ("1/2", 5)],
            [(0, 0), (1, 1), (2, 4), (0, 9)],
            [(F(2, 4), 0), (F(1, 2), 0)],
        ],
    )
    def test_repeated_abscissa(self, points):
        for fn in (interpolate, divided_differences):
            with pytest.raises(DuplicateAbscissa, match="^interpolation abscissas must be distinct$"):
                fn(points)


ORACLE = settings(derandomize=True, max_examples=25, deadline=None, database=None)


def sympy_interpolate(points) -> list[Fraction]:
    """Coefficients, lowest degree first, of sympy's interpolating polynomial."""
    x = sympy.Symbol("x")
    data = [(sympy.Rational(str(F(px))), sympy.Rational(str(F(py)))) for px, py in points]
    poly = sympy.Poly(sympy.interpolate(data, x), x, domain="QQ")
    return [F(int(c.p), int(c.q)) for c in reversed(poly.all_coeffs())]


def check_sympy(points):
    want = sympy_interpolate(points)
    while want and not want[-1]:
        want.pop()
    assert list(interpolate(points).coeffs) == want


class TestAgainstSympy:
    @pytest.mark.parametrize(
        "points",
        [
            [(t, F(t**3 - 2)) for t in range(8)],
            [(F(1, 2) - k * F(3, 7), F(2**200 - k, 3 + k)) for k in range(6)],
            [(-3 + 2 * k, F((-1) ** k, k + 1)) for k in range(7)],
        ],
        ids=["integer", "fractional-step", "rational-ordinates"],
    )
    def test_equal_steps_fixed(self, points):
        check_sympy(points)

    @pytest.mark.parametrize(
        "points",
        [
            [(F(0), F(1)), (F(1, 3), F(2, 5)), (F(3), F(-5, 2))],
            [(F(-7, 2), 4), (F(1, 6), F(-1, 9)), (F(2, 5), 0), (F(11, 4), F(2**150, 7))],
            [(F(2), F(1)), (F(0), F(7)), (F(1), F(3, 8)), (F(5, 3), F(-2))],
        ],
        ids=["three", "four", "equal-gaps-out-of-order"],
    )
    def test_unequal_steps_fixed(self, points):
        check_sympy(points)

    @ORACLE
    @given(equal_steps(min_size=2, max_size=9))
    def test_equal_steps(self, points):
        check_sympy(points)

    @ORACLE
    @given(unequal_steps(max_size=8))
    def test_unequal_steps(self, points):
        check_sympy(points)

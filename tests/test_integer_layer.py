"""Property tests of the rational-to-integer scalings against plain Fraction
arithmetic.

Each scaling is pinned down by properties that determine its output
uniquely (integer entries, proportional to the input, primitive or minimal,
sign convention), so passing them means the output is exactly the one
intended, whatever the implementation.  The two shared steps are checked
directly: _clear_denominators against the lcm of the denominators, and
_affine_power_ints against sympy's expansion of (d x - a)^e.  The one
expansion of sums of affine powers, _affine_sum, and Decomposition.expand
on top of it are checked against sympy's expansion of sum c (x - a)^e.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402

from affinepowers import AffineChange, Decomposition, ReconstructionFailed, linalg, ratroots  # noqa: E402
from affinepowers.decompose import _coords  # noqa: E402
from affinepowers.sde import canonical_sde  # noqa: E402
from affinepowers.unipoly import UniPoly, _affine_power_ints, _affine_sum, _clear_denominators  # noqa: E402

F = Fraction

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)

small = st.builds(F, st.integers(-12, 12), st.integers(1, 12))
wide = st.builds(F, st.integers(-(10**40), 10**40), st.integers(1, 10**15))
integral = st.integers(-(10**20), 10**20).map(F)
rationals = st.one_of(st.just(F(0)), small, wide, integral)
vectors = st.lists(rationals, min_size=0, max_size=8)


def assert_proportional(out, values):
    """out = lam * values for one nonzero rational lam (or both zero)."""
    assert len(out) == len(values)
    k = next((i for i, v in enumerate(values) if v), None)
    if k is None:
        assert not any(out)
        return
    lam = F(out[k]) / values[k]
    assert lam != 0
    assert all(F(o) == lam * v for o, v in zip(out, values))


def assert_canonical(out, values):
    """Primitive integers, proportional, first nonzero entry positive."""
    assert all(F(v).denominator == 1 for v in out)
    assert_proportional(out, values)
    if any(values):
        assert math.gcd(*(int(v) for v in out)) == 1
        assert next(v for v in out if v) > 0


class TestClearDenominators:
    @PROPERTY
    @given(vectors)
    def test_numerators_and_least_common_denominator(self, values):
        nums, lcm = _clear_denominators(values)
        assert all(type(v) is int for v in nums)
        assert lcm == math.lcm(*(v.denominator for v in values))
        assert [F(n, lcm) for n in nums] == values

    def test_known_and_empty(self):
        assert _clear_denominators([F(1, 2), F(-2, 3), F(5)]) == ([3, -4, 30], 6)
        assert _clear_denominators([3, -7]) == ([3, -7], 1)
        assert _clear_denominators([]) == ([], 1)


class TestAffinePowerInts:
    """_affine_power_ints(a, d, e) is (d x - a)^e in integers, lowest
    degree first; sympy's Poly expansion is the oracle."""

    @staticmethod
    def sympy_ints(a, d, e):
        x = sympy.Symbol("x")
        return [int(c) for c in reversed(sympy.Poly((d * x - a) ** e, x).all_coeffs())]

    @pytest.mark.parametrize(
        "a, d, e",
        [(0, 1, 0), (5, 1, 0), (0, 1, 6), (-3, 1, 4), (1, 2, 9), (-7, 5, 13), (2**70 + 1, 3**40, 5)],
    )
    def test_known(self, a, d, e):
        assert _affine_power_ints(a, d, e) == self.sympy_ints(a, d, e)

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(st.integers(-(10**12), 10**12), st.integers(1, 10**6), st.integers(0, 30))
    def test_matches_sympy(self, a, d, e):
        assert _affine_power_ints(a, d, e) == self.sympy_ints(a, d, e)


def old_affine_power(coeff, node, e) -> UniPoly:
    """UniPoly.affine_power as it was before _affine_power_ints: the x^k
    coefficient n C(e, k) (-p)^(e-k) / (m q^(e-k)) for coeff = n/m and
    node = p/q."""
    a, c = F(node), F(coeff)
    return UniPoly(
        F(c.numerator * math.comb(e, k) * (-a.numerator) ** (e - k), c.denominator * a.denominator ** (e - k))
        for k in range(e + 1)
    )


class TestAffinePower:
    @PROPERTY
    @given(rationals, rationals, st.integers(0, 40))
    def test_unchanged_on_rational_nodes_and_coefficients(self, coeff, node, e):
        got = UniPoly.affine_power(coeff, node, e)
        assert got == old_affine_power(coeff, node, e)
        assert all(type(c) is Fraction for c in got.coeffs)

    def test_known_fractional(self):
        # 2/3 (x - 1/2)^2 = 2/3 x^2 - 2/3 x + 1/6
        assert UniPoly.affine_power(F(2, 3), F(1, 2), 2) == UniPoly([F(1, 6), F(-2, 3), F(2, 3)])
        assert UniPoly.affine_power(F(-5, 7), F(-4, 3), 0) == UniPoly([F(-5, 7)])
        assert UniPoly.affine_power(0, F(1, 2), 5) == UniPoly()


class TestAffineSum:
    """_affine_sum(terms) is sum c (x - a)^e over one common denominator,
    the lcm of the c.denominator * a.denominator^e, with one numerator per
    degree up to the largest exponent; sympy.expand is the oracle, for it
    and for Decomposition.expand."""

    terms = st.lists(st.tuples(rationals, rationals, st.integers(0, 25)), max_size=5)

    @staticmethod
    def sympy_coeffs(terms) -> list[Fraction]:
        x = sympy.Symbol("x")
        q = lambda v: sympy.Rational(v.numerator, v.denominator)  # noqa: E731
        expr = sympy.expand(sum((q(c) * (x - q(a)) ** e for c, a, e in terms), sympy.Integer(0)))
        cs = [F(int(c.p), int(c.q)) for c in reversed(sympy.Poly(expr, x).all_coeffs())]
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    def check(self, terms):
        want = self.sympy_coeffs(terms)
        nums, den = _affine_sum(terms)
        assert all(type(v) is int for v in nums)
        assert den == math.lcm(*(c.denominator * a.denominator**e for c, a, e in terms))
        assert len(nums) == max((e + 1 for _, _, e in terms), default=0)
        assert UniPoly(F(v, den) for v in nums).coeffs == tuple(want)
        assert Decomposition.of(terms).expand().coeffs == tuple(want)
        return nums, den

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(terms)
    def test_matches_sympy(self, terms):
        self.check(terms)

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(terms)
    def test_negated_terms_cancel(self, terms):
        nums, _ = self.check(terms + [(-c, a, e) for c, a, e in terms])
        assert not any(nums)

    def test_known(self):
        assert self.check([]) == ([], 1)
        # 2/3 (x - 1/2)^2 + 5/7 (x + 4/3)^0 = 2/3 x^2 - 2/3 x + 1/6 + 5/7 over 3 * 2^2 and 7
        assert self.check([(F(2, 3), F(1, 2), 2), (F(5, 7), F(-4, 3), 0)]) == ([74, -56, 56], 84)
        # (x-1/3)^2/2 - (x+1/3)^2/2 + 2x/3 = 0, over 2 * 3^2 and 3
        nums, den = self.check([(F(1, 2), F(1, 3), 2), (F(-1, 2), F(-1, 3), 2), (F(2, 3), F(0), 1)])
        assert (nums, den) == ([0, 0, 0], 18)
        assert self.check([(F(3), F(7), 0), (F(-3), F(-2, 9), 0)]) == ([0], 1)


def old_columns(candidates, n_rows) -> list[list[int]]:
    """The columns _coords built by its own loop before _affine_sum: for node
    a/d, top k K and integer coeff_k, sum_k coeff_k d^(K-k) (d x - a)^k."""
    cols = []
    for node, part in candidates:
        a, d, top = node.numerator, node.denominator, max(part)
        col = [0] * n_rows
        for k, c in part.items():
            for i, v in enumerate(_affine_power_ints(a, d, k)):
                col[i] += c * d ** (top - k) * v
        cols.append(col)
    return cols


class TestIntColumnsUnchanged:
    """With integer coefficients, as every solver passes, the columns of
    _coords are those of its former loop, entry for entry."""

    @PROPERTY
    @given(
        st.lists(
            st.tuples(rationals, st.dictionaries(st.integers(0, 9), st.integers(-50, 50).filter(bool), min_size=1, max_size=4)),
            min_size=1,
            max_size=4,
        ),
        st.lists(rationals, max_size=11),
    )
    def test_same_columns(self, cands, f_coeffs):
        f = UniPoly(f_coeffs)
        with pytest.MonkeyPatch.context() as mp:
            seen = spy_calls(mp, "solve")
            try:
                _coords(f, cands)
            except ReconstructionFailed:
                pass
        ((m, _),) = seen
        assert [list(col) for col in zip(*m.entries)] == old_columns(cands, m.rows)


class TestCanonicalIntVector:
    @PROPERTY
    @given(vectors)
    def test_primitive_proportional_positive_first(self, values):
        out = linalg._canonical_int_vector(values)
        assert isinstance(out, tuple)
        assert all(type(v) is int for v in out)
        assert_canonical(out, values)

    def test_zero_and_integer_cases(self):
        assert linalg._canonical_int_vector([F(0), F(0)]) == (F(0), F(0))
        assert linalg._canonical_int_vector([]) == ()
        assert linalg._canonical_int_vector([F(0), F(-4), F(6)]) == (0, 2, -3)
        assert linalg._canonical_int_vector([F(3), F(5)]) == (3, 5)
        assert linalg._canonical_int_vector([F(-1, 2), F(1, 3)]) == (3, -2)


class TestCanonicalSde:
    @staticmethod
    @st.composite
    def equations(draw):
        order = draw(st.integers(0, 3))
        shift = draw(st.integers(0, 2))
        polys = [
            UniPoly(draw(st.lists(rationals, max_size=i + shift + 1)))
            for i in range(order + 1)
        ]
        return order, shift, polys

    @PROPERTY
    @given(equations())
    def test_global_canonical_scaling(self, eq):
        order, shift, polys = eq
        flat = [c for p in polys for c in p.coeffs]
        if not any(flat):
            with pytest.raises(ValueError):
                canonical_sde(order, shift, polys)
            return
        s = canonical_sde(order, shift, polys)
        assert (s.order, s.shift) == (order, shift)
        assert [p.degree for p in s.polys] == [p.degree for p in polys]
        assert_canonical([c for p in s.polys for c in p.coeffs], flat)

    def test_integer_input_keeps_primitive_scale(self):
        s = canonical_sde(1, 0, [UniPoly((-4,)), UniPoly((6, 2))])
        assert [p.coeffs for p in s.polys] == [(F(2),), (F(-3), F(-1))]


class TestToPrimitiveInt:
    @PROPERTY
    @given(vectors)
    def test_primitive_proportional_positive_lead(self, values):
        f = UniPoly(values)
        out = ratroots.to_primitive_int(f)
        assert all(type(v) is int for v in out)
        if f.is_zero():
            assert out == []
            return
        assert_proportional(out, f.coeffs)
        assert math.gcd(*out) == 1
        assert out[-1] > 0

    def test_zero_and_integer_cases(self):
        assert ratroots.to_primitive_int(UniPoly()) == []
        assert ratroots.to_primitive_int(UniPoly((0, 4, -6))) == [0, -2, 3]
        assert ratroots.to_primitive_int(UniPoly((5, -3))) == [-5, 3]


def spy_calls(monkeypatch, name) -> list:
    """The argument tuples of every call to linalg.<name>, which still runs."""
    seen = []
    real = getattr(linalg, name)

    def spy(*args):
        seen.append(args)
        return real(*args)

    monkeypatch.setattr(linalg, name, spy)
    return seen


class TestIntColumns:
    """_coords hands linalg.solve one integer column per candidate,
    proportional to the candidate expanded in Fractions, and f scaled to
    integers as its right-hand side."""

    @staticmethod
    @st.composite
    def candidates(draw):
        count = draw(st.integers(1, 4))
        return [
            (
                draw(rationals),
                draw(st.dictionaries(st.integers(0, 7), rationals, min_size=1, max_size=3)),
            )
            for _ in range(count)
        ]

    @PROPERTY
    @given(candidates(), st.lists(rationals, max_size=9))
    def test_integral_and_proportional(self, cands, f_coeffs):
        f = UniPoly(f_coeffs)
        with pytest.MonkeyPatch.context() as mp:
            seen = spy_calls(mp, "solve")
            try:
                _coords(f, cands)
            except ReconstructionFailed:
                pass  # inconsistent or dependent draws still record the system
        ((m, rhs),) = seen
        assert m.cols == len(cands)
        for j, (node, part) in enumerate(cands):
            expanded = sum(
                (UniPoly.affine_power(c, node, k) for k, c in part.items()), UniPoly()
            )
            assert m.rows > expanded.degree
            column = [row[j] for row in m.entries]
            assert all(type(v) is int for v in column)
            assert_proportional(column, [expanded.coeff(r) for r in range(m.rows)])
        assert m.rows > f.degree
        assert all(type(v) is int for v in rhs)
        assert_proportional(rhs, [f.coeff(r) for r in range(m.rows)])

    def test_known_columns(self, monkeypatch):
        # 2/3 (x - 1/2)^2 times q d^K = 3 * 2^2: 2 (2x - 1)^2 = 2 - 8x + 8x^2;
        # 5 (x + 2) + 1/2 times q d^K = 2 * 1: 10 (x + 2) + 1 = 21 + 10x;
        # f = 3/2 and 1/3 of them = 15/4 + 2/3 x + x^2, times 12
        seen = spy_calls(monkeypatch, "solve")
        f = UniPoly([F(15, 4), F(2, 3), 1])
        coords = _coords(f, [(F(1, 2), {2: F(2, 3)}), (F(-2), {1: F(5), 0: F(1, 2)})])
        ((m, rhs),) = seen
        assert m.entries == ((2, 21), (-8, 10), (8, 0))
        assert rhs == [45, 8, 12]
        assert coords == [F(3, 2), F(1, 3)]


def det(rows) -> Fraction:
    """Determinant by Fraction Gaussian elimination."""
    a = [[F(v) for v in row] for row in rows]
    n, out = len(a), F(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return F(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


class TestAffineChangeInverse:
    """AffineChange.of reads the inverse off one kernel of [L M | -L]."""

    @staticmethod
    @st.composite
    def matrices(draw):
        n = draw(st.integers(1, 4))
        entries = st.one_of(st.just(F(0)), small, integral)
        rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
        if draw(st.booleans()) and n > 1:
            # a row that is a combination of the others makes M singular
            lam = draw(st.lists(small, min_size=n - 1, max_size=n - 1))
            k = draw(st.integers(0, n - 1))
            others = [r for i, r in enumerate(rows) if i != k]
            rows[k] = [sum((l * r[j] for l, r in zip(lam, others)), F(0)) for j in range(n)]
        return rows

    @PROPERTY
    @given(matrices())
    def test_inverse_or_singular(self, rows):
        n = len(rows)
        with pytest.MonkeyPatch.context() as mp:
            kernels, solves = spy_calls(mp, "kernel"), spy_calls(mp, "solve")
            if det(rows) == 0:
                with pytest.raises(ValueError, match="^matrix is singular$"):
                    AffineChange.of(rows, [0] * n)
            else:
                ch = AffineChange.of(rows, [0] * n)
                for i in range(n):
                    for j in range(n):
                        prod = sum(ch.matrix[i][k] * ch.inverse[k][j] for k in range(n))
                        assert prod == (i == j)
        assert len(kernels) == 1 and solves == []

    def test_known_singular_and_zero_rows(self):
        for rows in ([[0, 0], [0, 0]], [[1, 2], [F(1, 2), 1]], [[0, 1], [0, F(3, 7)]]):
            with pytest.raises(ValueError, match="^matrix is singular$"):
                AffineChange.of(rows, [0, 0])
        assert AffineChange.of([], []).inverse == ()

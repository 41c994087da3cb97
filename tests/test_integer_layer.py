"""Property tests of the rational-to-integer scalings against plain Fraction
arithmetic.

Each scaling is pinned down by properties that determine its output
uniquely (integer entries, proportional to the input, primitive or minimal,
sign convention), so passing them means the output is exactly the one
intended, whatever the implementation.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from affinepowers import linalg, ratroots  # noqa: E402
from affinepowers.sde import canonical_sde  # noqa: E402
from affinepowers.unipoly import UniPoly  # noqa: E402

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


class TestCanonicalIntVector:
    @PROPERTY
    @given(vectors)
    def test_primitive_proportional_positive_first(self, values):
        out = linalg._canonical_int_vector(values)
        assert isinstance(out, tuple)
        assert all(isinstance(v, Fraction) for v in out)
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


class TestIntRows:
    @staticmethod
    def assert_cleared(row_out, row):
        """row_out = lam * row for the least positive integer lam making
        every entry integral."""
        assert all(type(v) is int for v in row_out)
        assert len(row_out) == len(row)
        lam = next((F(o) / v for o, v in zip(row_out, row) if v), F(1))
        assert lam.denominator == 1 and lam > 0
        assert all(F(o) == lam * v for o, v in zip(row_out, row))
        assert math.gcd(*(int(lam) // v.denominator for v in row)) == 1

    @staticmethod
    @st.composite
    def systems(draw):
        rows = draw(st.integers(1, 4))
        cols = draw(st.integers(1, 4))
        entries = [
            draw(st.lists(rationals, min_size=cols, max_size=cols))
            for _ in range(rows)
        ]
        extra = draw(
            st.one_of(st.none(), st.lists(rationals, min_size=rows, max_size=rows))
        )
        return entries, extra

    @PROPERTY
    @given(systems())
    def test_least_integer_scale_per_row(self, system):
        entries, extra = system
        m = linalg.QMatrix.from_rows(entries)
        out = linalg._int_rows(m, extra)
        assert len(out) == len(entries)
        for i, row in enumerate(entries):
            full = row + ([extra[i]] if extra is not None else [])
            self.assert_cleared(out[i], full)

    def test_zero_and_integer_rows(self):
        m = linalg.QMatrix.from_rows([[0, 0], [3, -6], [F(1, 2), F(1, 3)]])
        assert linalg._int_rows(m) == [[0, 0], [3, -6], [3, 2]]
        assert linalg._int_rows(m, [F(1, 4), 0, 1]) == [[0, 0, 1], [3, -6, 0], [3, 2, 6]]

"""sde._integer_roots against evaluating the polynomial at every exponent.

_integer_roots(row, lo, hi) returns the m in lo..hi where
I(m) = sum_i perm(m, i) * row[i] vanishes, by a forward-difference sweep
clipped to a root bound.  direct() is the per-exponent evaluation it
replaced.  Rows built from known integer roots (times rational and
irreducible factors, and scaled past 2^1100) are checked on ranges far wider
than any root, where the clip decides what is swept.  sympy is an outside
oracle: it expands I(m) from its falling factorials (ff, expand_func) and
finds its integer roots (Poly.ground_roots), for small rows and for rows
with coefficients near 2^1100, where the integer Fujiwara bound clips the
sweep.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

sympy = pytest.importorskip("sympy")

from affinepowers import sde  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None, database=None)


def direct(row, lo, hi):
    return [m for m in range(lo, hi + 1) if not sum(math.perm(m, i) * c for i, c in enumerate(row))]


def stirling2(n: int, k: int) -> int:
    return sum((-1) ** (k - j) * math.comb(k, j) * j**n for j in range(k + 1)) // math.factorial(k)


def falling_row(cs):
    """The row whose I(m) is sum_j cs[j] m^j: m^j = sum_i S(j, i) perm(m, i)."""
    return [sum(c * stirling2(j, i) for j, c in enumerate(cs)) for i in range(len(cs))]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def with_roots(roots, extra=(), scale=1):
    """scale * prod (m - r) * prod of the extra factors, in powers of m."""
    cs = [scale]
    for r in roots:
        cs = poly_mul(cs, [-r, 1])
    for factor in extra:
        cs = poly_mul(cs, factor)
    return cs


rows = st.lists(st.integers(-30, 30), min_size=1, max_size=7).filter(any)


@PROPERTY
@given(rows, st.integers(0, 12), st.integers(-3, 40))
@example([0, 0, 0, 1], 0, 10)  # perm(m, 3): zero below m = 3
@example([-6, 1, 0, 0], 1, 20)  # trailing zeros: I(m) = m - 6
@example([1, 2], 5, 4)  # empty range
@example([-8, 1], 1, 8)  # root 8 on the bound 2 * 2^2
def test_matches_direct_evaluation(row, lo, length):
    hi = lo + length
    assert sde._integer_roots(row, lo, hi) == direct(row, lo, hi)


@PROPERTY
@given(rows, st.integers(0, 6))
def test_ranges_below_the_row_length(row, lo):
    # perm(m, i) = 0 for i > m: the row entries past m do not count there
    hi = len(row) + 2
    assert sde._integer_roots(row, lo, hi) == direct(row, lo, hi)
    for m in range(lo, min(hi, len(row))):
        assert (m in sde._integer_roots(row, m, m)) == (not any(
            math.perm(m, i) * c for i, c in enumerate(row[: m + 1])
        ))


@pytest.mark.parametrize("s", [1, 2, 3, 7, 12])
def test_zero_on_the_bound(s):
    # m - 2^s: Fujiwara's bound |c_0 / c_1| is the root itself
    assert sde._integer_roots(falling_row([-(1 << s), 1]), 0, 1 << 20) == [1 << s]


FACTORS = [[1, 0, 1], [-1, 2], [3, 0, -2, 5], [7, 1, 1]]  # m^2 + 1, 2m - 1, ...


@PROPERTY
@given(
    st.lists(st.integers(-20, 60), max_size=5),
    st.lists(st.sampled_from(FACTORS), max_size=2),
    st.sampled_from([1, -3, (1 << 1100) + 1, -(3 << 1200)]),
    st.integers(0, 30),
)
def test_known_roots_on_wide_ranges(roots, extra, scale, lo):
    row = falling_row(with_roots(roots, extra, scale))
    want = sorted({r for r in roots if r >= lo})
    assert sde._integer_roots(row, lo, 10**9) == want


def test_huge_coefficients_and_a_huge_root():
    # coefficients past 2^1100 would overflow a float bound; the root 2^1100
    # itself lies far beyond the swept range
    big = 1 << 1100
    assert sde._integer_roots(falling_row([-big, 1]), 1, 50) == []
    row = falling_row(with_roots([3, big], scale=big + 7))
    assert sde._integer_roots(row, 1, 1000) == [3]


def test_constant_row_has_no_roots():
    assert sde._integer_roots([5], 0, 100) == []
    assert sde._integer_roots([5, 0, 0], 0, 100) == []


ORACLE = settings(derandomize=True, max_examples=30, deadline=None, database=None)


def sympy_roots(row, lo, hi):
    """The integer roots of I(m) = sum_i row[i] * ff(m, i) in lo..hi, by
    sympy; ground_roots gives every rational root."""
    m = sympy.Symbol("m")
    poly = sympy.Poly(sympy.expand_func(sum(c * sympy.ff(m, i) for i, c in enumerate(row))), m)
    if poly.degree() < 1:
        return []
    return sorted(int(r) for r in poly.ground_roots() if r.is_integer and lo <= r <= hi)


@ORACLE
@given(rows, st.integers(0, 12), st.integers(-3, 60))
@example([0, 0, 0, 1], 0, 10)
@example([-6, 1, 0, 0], 1, 20)
def test_small_rows_match_sympy(row, lo, length):
    hi = lo + length
    assert sde._integer_roots(row, lo, hi) == sympy_roots(row, lo, hi)


BIG = 1 << 1100


@ORACLE
@given(
    st.lists(st.integers(-20, 60), max_size=4),
    st.lists(st.sampled_from(FACTORS), max_size=1),
    st.sampled_from([BIG + 1, -(BIG - 3), 3 * BIG]),
    st.integers(0, 30),
)
def test_huge_rows_match_sympy(roots, extra, scale, lo):
    # the scale alone is huge, so the bound, from ratios of coefficients,
    # clips the sweep far below hi
    row = falling_row(with_roots(roots, extra, scale))
    assert sde._integer_roots(row, lo, 10**9) == sympy_roots(row, lo, 10**9)


@pytest.mark.parametrize(
    "roots, scale, lo, hi",
    [
        # a root near 2^1100 puts the bound beyond any range: hi ends the sweep
        ([3, BIG], BIG + 7, 1, 1000),
        ([5, 17, BIG + 1], 1, 0, 2000),
        ([BIG], 1, 0, 500),
        # huge coefficients with small roots: the bound ends the sweep
        ([2, 9], BIG - 1, 0, 10**9),
        ([1500, 7], BIG + 3, 0, 10**9),
        ([0, 30, 61], -3 * BIG, 0, 10**9),
    ],
)
def test_clipped_sweeps_match_sympy(roots, scale, lo, hi):
    row = falling_row(with_roots(roots, scale=scale))
    assert max(abs(c) for c in row).bit_length() > 1000
    assert sde._integer_roots(row, lo, hi) == sympy_roots(row, lo, hi)

"""The modular minimal-equation search against exact references.

find_min_sde finds the first dependent column of the dependency matrix
modulo a prime and lifts the dependency p-adically.  These tests force tiny
primes, so that false dependencies and failed lifts are common, and check
that the result still equals the per-order Bareiss search; a differential
test compares against sympy's nullspace and rank.
"""

import math
import random
from fractions import Fraction

import pytest

from affinepowers import UniPoly, find_min_sde, linalg, ratroots, sde
from affinepowers.generate import InstanceSpec, generate_instance

F = Fraction


def bareiss_reference(f: UniPoly, shift: int, max_order: int | None = None):
    """(order, canonical kernel vector) from the per-order kernel loop."""
    if max_order is None:
        max_order = f.degree + 1
    derivs = [ratroots.to_primitive_int(f)]
    for _ in range(max_order):
        derivs.append(ratroots._deriv(derivs[-1]))
    n_rows = f.degree + shift + 1
    for k in range(1, max_order + 1):
        rows = sde._dependency_matrix(derivs, k, shift, n_rows)
        basis = linalg.kernel(linalg.IntMatrix.from_rows(rows))
        if basis:
            return k, [int(v) for v in basis[0]]
    return None


def flat(s):
    if s is None:
        return None
    return s.order, [
        int(p.coeff(j)) for i, p in enumerate(s.polys) for j in range(i + s.shift + 1)
    ]


def _corpus():
    cases = []
    for regime, s in (
        ("big_exponents", 2),
        ("distinct_nodes", 3),
        ("big_gaps", 2),
        ("small_intervals", 2),
    ):
        spec = InstanceSpec(s=s, seed=7, repeated_nodes=regime == "big_gaps")
        f, _ = generate_instance(spec, regime)
        cases.append((f, 0, None))
    rng = random.Random(1607)
    for deg in (10, 14, 20):
        f = UniPoly([rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, 3, -6])])
        cases.append((f, deg % 3, None))
    cases.append((UniPoly.affine_power(3, F(2, 3), 9), 0, None))
    cases.append((UniPoly.affine_power(1, -5, 14), 1, None))
    # x^n at shift 2: nullity above 1 at the minimal order
    cases.append((UniPoly.monomial(1, 9), 2, None))
    cases.append((UniPoly.monomial(1, 12), 2, None))
    # cut-offs below the minimal order
    g = UniPoly.affine_power(1, 1, 13) + UniPoly.affine_power(2, -2, 11)
    cases.append((g, 0, 2))
    cases.append((UniPoly([4, -7, 1, 0, 2, -1, 5, 3]), 1, 2))
    return cases


CORPUS = _corpus()


@pytest.fixture
def fallback_calls(monkeypatch):
    calls = []
    original = sde._bareiss_search

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sde, "_bareiss_search", spy)
    return calls


def test_cutoffs_return_none():
    assert find_min_sde(*CORPUS[-2]) is None
    assert find_min_sde(*CORPUS[-1]) is None


def test_nullity_above_one_at_minimal_order():
    f, shift, _ = CORPUS[-3]
    s = find_min_sde(f, shift)
    derivs = [ratroots.to_primitive_int(f)]
    for _ in range(s.order):
        derivs.append(ratroots._deriv(derivs[-1]))
    rows = sde._dependency_matrix(derivs, s.order, shift, f.degree + shift + 1)
    assert len(linalg.kernel(linalg.IntMatrix.from_rows(rows))) > 1


@pytest.mark.parametrize("prime", [(1 << 61) - 1, 3, 5, 7])
def test_matches_bareiss_reference(prime, monkeypatch, fallback_calls):
    monkeypatch.setattr(ratroots, "_PRIME", prime)
    for f, shift, max_order in CORPUS:
        assert flat(find_min_sde(f, shift, max_order)) == bareiss_reference(
            f, shift, max_order
        )
    if prime == 3:
        assert fallback_calls  # unlucky dependencies really happened
    elif prime > 7:
        assert not fallback_calls


def test_fallback_starts_at_the_false_dependency(monkeypatch, fallback_calls):
    # f = x^3 + 3x^2 - 1 has f' = 3x^2 + 6x, zero mod 3: the column of f'
    # is a false dependency, found at order 1
    f = UniPoly([-1, 0, 3, 1])
    monkeypatch.setattr(ratroots, "_PRIME", 3)
    assert flat(find_min_sde(f, 0)) == bareiss_reference(f, 0)
    assert [call[3] for call in fallback_calls] == [1]


W = 2**130  # wider than the square of the default prime


class TestGcdScreen:
    # (a, b, primitive gcd)
    CASES = [
        ([3, 1, 0, 2], [5, 0, 7, 1, 1], [1]),
        ([2, -3, 1], [-1, 0, 1], [-1, 1]),
        ([-1, 0, 0, 1], [-1, 0, 1], [-1, 1]),
        ([6, 5, 1], [3, 4, 1], [3, 1]),
        ([1, 1], [2, 1], [1]),
        ([1, 10], [7], [1]),
        ([0, 0, 3], [0, 1], [0, 1]),
        # (3x + 1)(x + 5) and (3x + 1)(x + 7): gcd constant mod 3, where
        # both leading coefficients vanish
        ([5, 16, 3], [7, 22, 3], [1, 3]),
        ([W + 1, 3, 0, 1], [5, 0, W, 1, 1], [1]),
        # (x + W)(x + 1) and (x + W)(x + 2)
        ([W, W + 1, 1], [2 * W, W + 2, 1], [W, 1]),
    ]

    def _chain_calls(self, monkeypatch):
        calls = []
        original = ratroots._pseudo_rem

        def spy(a, b):
            calls.append(1)
            return original(a, b)

        monkeypatch.setattr(ratroots, "_pseudo_rem", spy)
        return calls

    @pytest.mark.parametrize("prime", [3, 5, 7, (1 << 61) - 1])
    def test_matches_exact_gcd(self, prime, monkeypatch):
        monkeypatch.setattr(ratroots, "_PRIME", prime)
        for a, b, g in self.CASES:
            assert ratroots.poly_gcd_int(a, b) == g
            assert ratroots.poly_gcd_int(b, a) == g

    def test_wide_coprime_pair_skips_the_chain(self, monkeypatch):
        calls = self._chain_calls(monkeypatch)
        assert ratroots.poly_gcd_int([W + 1, 3, 0, 1], [5, 0, W, 1, 1]) == [1]
        assert not calls

    def test_narrow_pair_runs_the_chain(self, monkeypatch):
        calls = self._chain_calls(monkeypatch)
        assert ratroots.poly_gcd_int([3, 1, 0, 2], [5, 0, 7, 1, 1]) == [1]
        assert calls

    def test_prime_dividing_both_leads_runs_the_chain(self, monkeypatch):
        monkeypatch.setattr(ratroots, "_PRIME", 3)
        calls = self._chain_calls(monkeypatch)
        assert ratroots.poly_gcd_int([5, 16, 3], [7, 22, 3]) == [1, 3]
        assert calls

    def test_unlucky_prime_runs_the_chain(self, monkeypatch):
        # x + 1 and x + 10 are coprime over Q but equal mod 3
        monkeypatch.setattr(ratroots, "_PRIME", 3)
        calls = self._chain_calls(monkeypatch)
        assert ratroots.poly_gcd_int([1, 1], [10, 1]) == [1]
        assert calls


class TestAgainstSympy:
    """sympy's exact nullspace and rank as an independent oracle."""

    @staticmethod
    def _cases():
        rng = random.Random(20160718)
        cases = []
        for n in range(12):
            if n % 2:
                f = UniPoly([rng.randint(-9, 9) for _ in range(rng.randint(3, 14))] + [1])
            else:
                f = UniPoly.affine_power(rng.randint(1, 4), rng.randint(-3, 3), rng.randint(6, 12))
                f = f + UniPoly.affine_power(-1, F(rng.randint(-5, 5), 2), rng.randint(4, 14 - n // 4))
            cases.append((f, n % 3))
        return cases

    @staticmethod
    def _matrix(sympy, f: UniPoly, order: int, shift: int):
        x = sympy.Symbol("x")
        g = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)], x)
        cols = []
        for i in range(order + 1):
            d = sympy.Poly(sympy.diff(g.as_expr(), x, i), x)
            for j in range(i + shift + 1):
                term = (d * sympy.Poly(x**j, x)).all_coeffs()[::-1]
                cols.append(term)
        n_rows = f.degree + shift + 1
        return sympy.Matrix(
            n_rows, len(cols), lambda r, c: cols[c][r] if r < len(cols[c]) else 0
        )

    def test_nullspace_and_minimality(self):
        sympy = pytest.importorskip("sympy")
        for f, shift in self._cases():
            s = find_min_sde(f, shift)
            null = self._matrix(sympy, f, s.order, shift).nullspace()
            first = [F(int(v.p), int(v.q)) for v in null[0]]
            den = math.lcm(*(v.denominator for v in first))
            ints = [int(v * den) for v in first]
            g = math.gcd(*ints)
            if next(v for v in ints if v) < 0:
                g = -g
            assert flat(s)[1] == [v // g for v in ints]
            below = self._matrix(sympy, f, s.order - 1, shift)
            assert below.rank() == below.cols

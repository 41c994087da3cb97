"""The modular minimal-equation search against exact references.

find_min_sde finds the first dependent column of the dependency matrix
modulo a prime and lifts the dependency p-adically, retrying with the next
prime when the lift fails.  These tests force tiny primes, so that false
dependencies and failed lifts are common, and check that the result still
equals the per-order Bareiss search; a differential test compares against
sympy's nullspace and rank, at the default prime and at tiny ones.
"""

import math
import random
from fractions import Fraction

import pytest

from affinepowers import UniPoly, find_min_sde, linalg, ratroots, sde
from affinepowers.generate import InstanceSpec, generate_instance

F = Fraction


def dependency_matrix(derivs: list[list[int]], k: int, shift: int, n_rows: int) -> list[list[int]]:
    """Rows indexed by x-degree, columns by (i, j) with j <= i + shift,
    holding the coefficients of x^j * f^(i)."""
    cols = [sde._column(derivs[i], j, n_rows) for i in range(k + 1) for j in range(i + shift + 1)]
    return [[col[r] for col in cols] for r in range(n_rows)]


def bareiss_reference(f: UniPoly, shift: int, max_order: int | None = None):
    """(order, canonical kernel vector) from the per-order kernel loop."""
    if max_order is None:
        max_order = f.degree + 1
    derivs = [ratroots.to_primitive_int(f)]
    for _ in range(max_order):
        derivs.append(ratroots._deriv(derivs[-1]))
    n_rows = f.degree + shift + 1
    for k in range(1, max_order + 1):
        rows = dependency_matrix(derivs, k, shift, n_rows)
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
    """(prime, columns) of every lift that failed, i.e. of every unlucky
    prime find_min_sde retried past."""
    calls = []
    original = sde._lift_dependency

    def spy(profile, cols, *rest):
        eq = original(profile, cols, *rest)
        if eq is None:  # rightly: the last column is independent over Q
            assert not linalg.kernel(linalg.IntMatrix.from_rows(list(zip(*cols))))
            calls.append((profile.p, len(cols)))
        return eq

    monkeypatch.setattr(sde, "_lift_dependency", spy)
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
    rows = dependency_matrix(derivs, s.order, shift, f.degree + shift + 1)
    assert len(linalg.kernel(linalg.IntMatrix.from_rows(rows))) > 1


@pytest.mark.parametrize("prime", [(1 << 61) - 1, 3, 5, 7])
def test_matches_bareiss_reference(prime, monkeypatch, fallback_calls):
    monkeypatch.setattr(ratroots, "_PRIMES", (prime,))
    for f, shift, max_order in CORPUS:
        assert flat(find_min_sde(f, shift, max_order)) == bareiss_reference(
            f, shift, max_order
        )
    if prime == 3:
        assert fallback_calls  # unlucky dependencies really happened
    elif prime > 7:
        assert not fallback_calls


def test_retry_starts_after_the_false_dependency(monkeypatch, fallback_calls):
    # f = x^3 + 3x^2 - 1 has f' = 3x^2 + 6x, zero mod 3: the column of f'
    # is a false dependency, found at order 1; the pass at 5 needs no retry
    f = UniPoly([-1, 0, 3, 1])
    monkeypatch.setattr(ratroots, "_PRIMES", (3,))
    assert flat(find_min_sde(f, 0)) == bareiss_reference(f, 0)
    assert fallback_calls == [(3, 2)]


def test_forced_equation_from_a_retry_prime(monkeypatch, fallback_calls):
    # f' = 6x^5 - 30x^4 - 12x^3 - 27x^2 - 12x - 9 is zero mod 3, so at shift
    # 1 the column of f', after f and x f, is a false dependency at 3; the
    # pass at 5 runs to the forced column, and the equation is held unlifted
    # with prime 5
    f = UniPoly([-6, -9, -6, -9, -3, -6, 1])
    lo, hi = 2, f.degree + (f.degree + 2) ** 2 // 8
    monkeypatch.setattr(ratroots, "_PRIMES", (3,))
    eq = find_min_sde(f, 1, lazy=True)
    assert fallback_calls == [(3, 3)]
    assert eq.forced and eq._pass[0].p == 5
    assert (eq.order, eq.lead_degree) == (2, 3)
    # decided with 5, as a pass started at 5 decides them
    verdicts = eq.rootless, eq.refuses(lo, hi)
    assert verdicts == (True, True)
    monkeypatch.setattr(ratroots, "_PRIMES", (5,))
    direct = find_min_sde(f, 1, lazy=True)
    assert direct._pass[0].p == 5 and (direct.rootless, direct.refuses(lo, hi)) == verdicts
    # and both verdicts hold for the lifted equation
    s = eq.exact()
    assert flat(s) == bareiss_reference(f, 1)
    assert not ratroots.rational_roots_with_cofactor(s.polys[s.order])[0]
    assert sde.power_solutions(s, lo, hi) == []


def test_failed_lift_ends_at_its_second_attempt(monkeypatch, fallback_calls):
    # the column sums tell each unlucky prime at modulus p^2, long before
    # the Hadamard bound (68 to 434 steps here) would
    attempts = []
    original = sde._reconstruct_vector

    def spy(xs, modulus):
        attempts.append(modulus)
        return original(xs, modulus)

    monkeypatch.setattr(sde, "_reconstruct_vector", spy)
    monkeypatch.setattr(ratroots, "_PRIMES", (3,))
    rng = random.Random(30)
    f = UniPoly([rng.randint(-9, 9) for _ in range(30)] + [5])
    s = find_min_sde(f, 0)
    unlucky = [p for p, _ in fallback_calls]
    assert unlucky == [3, 5, 7, 11, 13]
    # attempts at p and p^2 per unlucky prime, then only the lucky one's:
    # the pass at 17 is forced, and its equation is lifted at the lift prime
    assert attempts[:10] == [q for p in unlucky for q in (p, p * p)]
    assert attempts[10:] and all(m % ratroots._LIFT_PRIME == 0 for m in attempts[10:])
    assert flat(s) == bareiss_reference(f, 0)


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
        monkeypatch.setattr(ratroots, "_PRIMES", (prime,))
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
        monkeypatch.setattr(ratroots, "_PRIMES", (3,))
        calls = self._chain_calls(monkeypatch)
        assert ratroots.poly_gcd_int([5, 16, 3], [7, 22, 3]) == [1, 3]
        assert calls

    def test_unlucky_prime_runs_the_chain(self, monkeypatch):
        # x + 1 and x + 10 are coprime over Q but equal mod 3
        monkeypatch.setattr(ratroots, "_PRIMES", (3,))
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

    @pytest.mark.parametrize("prime", [None, 3, 5])
    def test_nullspace_and_minimality(self, prime, monkeypatch, fallback_calls):
        sympy = pytest.importorskip("sympy")
        if prime is not None:  # tiny primes: the retry path, against sympy
            monkeypatch.setattr(ratroots, "_PRIMES", (prime,))
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
        assert bool(fallback_calls) == (prime is not None)


def _lift_moduli(monkeypatch):
    moduli = []
    original = sde._reconstruct_vector

    def spy(xs, modulus):
        moduli.append(modulus)
        return original(xs, modulus)

    monkeypatch.setattr(sde, "_reconstruct_vector", spy)
    return moduli


def _steps(moduli, p):
    """The step count of each attempt, modulus p^steps."""
    out = []
    for m in moduli:
        k = 0
        while m > 1:
            m, r = divmod(m, p)
            assert r == 0
            k += 1
        out.append(k)
    return out


def _generic(deg):
    rng = random.Random(deg)
    return UniPoly([rng.randint(-9, 9) for _ in range(deg)] + [5])


@pytest.mark.parametrize(
    "f, shift, forced",
    [
        (_generic(30), 0, True),
        (
            UniPoly.affine_power(3, F(22, 7), 30)
            + UniPoly.affine_power(-2, F(5, 3), 28)
            + UniPoly.affine_power(1, F(-4, 11), 26),
            0,
            False,
        ),
    ],
    ids=["forced", "unforced"],
)
def test_lift_attempts_grow_by_half(f, shift, forced, monkeypatch):
    # candidates are reconstructed after 1, 2, 3, 4, 6, 9, ... steps, at
    # the lift prime for a forced equation and at the pass's prime
    # otherwise, and the lifted equation is the reference's
    moduli = _lift_moduli(monkeypatch)
    eq = find_min_sde(f, shift, lazy=True)
    assert eq.forced == forced
    s = eq.exact()
    steps = _steps(moduli, ratroots._LIFT_PRIME if forced else ratroots._PRIMES[0])
    want = [1]
    while len(want) < len(steps):
        want.append(max(want[-1] + 1, want[-1] * 3 // 2))
    assert steps == want and len(steps) >= 4
    assert flat(s) == bareiss_reference(f, shift)


def test_forced_lift_falls_back_to_the_pass_prime(monkeypatch):
    # with 11 as the lift prime, some forced equations have columns
    # dependent mod 11: those are lifted at the pass's prime, the others at
    # 11, and both give the reference's equation
    monkeypatch.setattr(ratroots, "_LIFT_PRIME", 11)
    moduli = _lift_moduli(monkeypatch)
    at = {11: 0, ratroots._PRIMES[0]: 0}
    for deg in range(8, 26):
        f = _generic(deg)
        eq = find_min_sde(f, 0, lazy=True)
        if not eq.forced:
            continue
        moduli.clear()
        cols = eq._pass[1]
        p = 11 if sde._forced_profile(11, cols[:-1]) else eq._pass[0].p
        assert flat(eq.exact()) == bareiss_reference(f, 0)
        assert moduli and all(m % p == 0 for m in moduli)
        at[p] += 1
    assert min(at.values()) >= 2

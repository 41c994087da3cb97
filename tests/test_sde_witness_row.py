"""The witness-row modular pass of find_min_sde against the full-row one.

sde._ModularProfile forms a new column's residual on its pivot rows and one
witness row, and on every row only when the witness misses.  The reference
here is a copy of the full-row elimination it replaced, which keeps the
reduced entries of every row.  Both must stop at the same first dependent
column fc with the same kernel vector mod p, at the default prime and with
3, 5 and 7 patched in, on generic and planted inputs and on structured ones
(x^e * g, sums with a power of x, sparse f) whose low coefficient rows
vanish, where the witness misses.  find_min_sde's output must not change
when the reference is patched in, and the pivots of sympy's rref over GF(p)
are an outside oracle for fc.
"""

import operator
import random
from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from affinepowers import Decomposition, UniPoly, find_min_sde, ratroots, sde  # noqa: E402
from test_sde_modular import dependency_matrix  # noqa: E402

PRIMES = [None, 3, 5, 7]


class FullRowProfile:
    """The reference: column-by-column elimination modulo p with the
    reduced columns stored on every row, by_row[r][t] = reduced[t][r]."""

    def __init__(self, p, n_rows):
        self.p = p
        self.pivot_rows = []
        self.lower = []
        self.upper = []
        self.inverses = []
        self.by_row = [[] for _ in range(n_rows)]

    def _coords(self, y):
        p = self.p
        z = []
        for yt, low in zip(y, self.lower):
            z.append((yt - sum(map(operator.mul, low, z))) % p)
        return z

    def add(self, col):
        p = self.p
        coords = self._coords([col[r] for r in self.pivot_rows])
        res = [(x - sum(map(operator.mul, row, coords))) % p for x, row in zip(col, self.by_row)]
        piv = next((r for r, x in enumerate(res) if x), None)
        if piv is None:
            return False
        inv = pow(res[piv], -1, p)
        coords.append(res[piv])
        self.upper.append(coords)
        self.inverses.append(inv)
        self.lower.append(list(self.by_row[piv]))
        self.pivot_rows.append(piv)
        for row, x in zip(self.by_row, res):
            row.append(x * inv % p)
        return True

    def solve(self, y):
        p = self.p
        m = len(self.pivot_rows)
        upper = [[self.upper[c2][c] for c2 in range(c + 1, m)] for c in range(m)]
        z = self._coords(y)
        x = [0] * m
        for c in range(m - 1, -1, -1):
            x[c] = (z[c] - sum(map(operator.mul, upper[c], x[c + 1 :]))) * self.inverses[c] % p
        return x


def derivatives(f, order):
    derivs = [ratroots.to_primitive_int(f)]
    for _ in range(order):
        derivs.append(ratroots._deriv(derivs[-1]))
    return derivs


def modular_pass(profile_cls, f, shift, max_order=None):
    """(fc, kernel vector mod p with 1 at fc, profile) of find_min_sde's
    column loop run on profile_cls; fc is None when no column up to
    max_order is dependent."""
    max_order = f.degree + 1 if max_order is None else max_order
    derivs = derivatives(f, max_order)
    n_rows = f.degree + shift + 1
    profile = profile_cls(ratroots._PRIMES[0], n_rows)
    columns = (sde._column(derivs[k], j, n_rows) for k in range(max_order + 1) for j in range(k + shift + 1))
    for fc, col in enumerate(columns, 1):
        if not profile.add(col):
            return fc, profile.solve([-col[r] for r in profile.pivot_rows]) + [1], profile
    return None, None, profile


def generic(deg, rng):
    return UniPoly([rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([-7, 3, 5, 6])])


def times_power_of_x(e, g):
    return UniPoly([0] * e + list(g.coeffs))


def planted(terms):
    return Decomposition.of(terms).expand()


def sparse(terms):
    cs = [0] * (max(e for _, e in terms) + 1)
    for c, e in terms:
        cs[e] += c
    return UniPoly(cs)


generic_inputs = st.builds(generic, st.integers(3, 24), st.integers(0, 2**32).map(random.Random))
planted_terms = st.tuples(
    st.integers(-5, 5).filter(bool), st.fractions(-3, 3, max_denominator=2), st.integers(4, 18)
)
planted_inputs = st.builds(planted, st.lists(planted_terms, min_size=1, max_size=3))
# inputs whose low coefficient rows vanish: x^e * g, a sum with a power of x
# (node 0), and a few monomials
structured_inputs = st.one_of(
    st.builds(times_power_of_x, st.integers(1, 10), generic_inputs),
    st.builds(
        lambda c, e, rest: planted([(c, 0, e), *rest]),
        st.integers(-5, 5).filter(bool),
        st.integers(6, 18),
        st.lists(planted_terms, min_size=1, max_size=2),
    ),
    st.builds(sparse, st.lists(st.tuples(st.integers(-9, 9).filter(bool), st.integers(0, 24)), min_size=2, max_size=4)),
)
inputs = st.one_of(generic_inputs, planted_inputs, structured_inputs).filter(lambda f: f.degree > 0)

DIFFERENTIAL = settings(derandomize=True, max_examples=30, deadline=None, database=None)


def patched_prime(prime):
    return mock.patch.object(ratroots, "_PRIMES", (prime,) if prime else ratroots._PRIMES)


@pytest.mark.parametrize("prime", PRIMES)
@DIFFERENTIAL
@given(f=inputs, shift=st.integers(0, 2))
def test_stop_column_and_vector_match_full_rows(prime, f, shift):
    with patched_prime(prime):
        got = modular_pass(sde._ModularProfile, f, shift)
        want = modular_pass(FullRowProfile, f, shift)
    assert got[:2] == want[:2]


def equation(f, shift):
    """find_min_sde's lazy and exact outputs, and a forced equation's
    leads mod p."""
    eq = find_min_sde(f, shift, lazy=True)
    leads = eq._leads(eq._pass[0]) if eq.forced else None
    return eq.order, eq.forced, leads, eq.exact(), find_min_sde(f, shift)


@pytest.mark.parametrize("prime", PRIMES)
@DIFFERENTIAL
@given(f=inputs, shift=st.integers(0, 2))
def test_find_min_sde_unchanged_by_the_profile(prime, f, shift):
    with patched_prime(prime):
        got = equation(f, shift)
        with mock.patch.object(sde, "_ModularProfile", FullRowProfile):
            want = equation(f, shift)
    assert got == want


def _structured_corpus():
    rng = random.Random(2207)
    return [
        times_power_of_x(6, generic(9, rng)),
        times_power_of_x(3, planted([(2, 1, 11), (-1, Fraction(1, 2), 9)])),
        planted([(3, 0, 14), (1, -2, 10)]),
        planted([(1, 0, 16), (-4, 1, 13), (2, Fraction(-3, 2), 8)]),
        sparse([(5, 0), (-3, 7), (2, 19)]),
        sparse([(1, 4), (6, 11), (-2, 23)]),
    ]


CORPUS = _structured_corpus() + [generic(d, random.Random(d)) for d in (6, 15, 24)] + [
    planted([(2, -1, 12), (1, Fraction(2, 3), 10)])
]


def test_witness_misses_on_structured_inputs():
    # an all-row check that finds a pivot puts it above the witness, a row
    # no full-row elimination would take while a lower one is free
    missed = []
    for f in _structured_corpus():
        _, _, profile = modular_pass(sde._ModularProfile, f, 0)
        missed.append(any(r > profile.witness for r in profile.pivot_rows))
    assert sum(missed) >= 3


def first_free_column(f, shift, order, p):
    """1 + the first non-pivot column of sympy's rref of the order-`order`
    dependency matrix over GF(p); None when every column is a pivot."""
    rows = dependency_matrix(derivatives(f, order), order, shift, f.degree + shift + 1)
    _, pivots = DomainMatrix.from_list(rows, sympy.ZZ).convert_to(sympy.GF(p)).rref()
    free = next((c for c in range(len(rows[0])) if c not in pivots), None)
    return None if free is None else free + 1


@pytest.mark.parametrize("prime", PRIMES)
def test_first_free_column_matches_sympy_rref(prime):
    for f in CORPUS:
        for shift in (0, 1):
            with patched_prime(prime):
                fc, _, _ = modular_pass(sde._ModularProfile, f, shift)
            order = f.degree + 1
            if fc is not None:  # the order whose columns end at or past fc
                order = next(k for k in range(order + 1) if (k + 1) * (k + 2) // 2 + (k + 1) * shift >= fc)
            assert fc == first_free_column(f, shift, order, prime or ratroots._PRIMES[0])

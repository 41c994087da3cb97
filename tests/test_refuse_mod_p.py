"""Refusals decided modulo p against the path that lifts every equation.

Every strategy of the decompose module holds its equations unlifted
(sde.PendingSDE) and refuses a forced one from its vector mod p when its
lead has no rational root (degree 0, or degree >= 2 and no root mod p) and,
for the power solutions, the norm N(t) is nonzero mod p over the scanned
run.
The reference here lifts every equation at once, which is the exact path;
both must give the same answer, or an error of the same type with the same
str(), exponent and messages along __cause__, also with lists of small
primes patched in as ratroots._PRIMES: the first serves the modular pass,
and a forced lead with a root there is tried at the others, where the
equation is forced too, before it is lifted.  sympy's ground_roots is an
outside oracle for the rational-root question, both for
rational_roots_with_cofactor and for the certificate's verdict on the leads
of generic equations, at whichever prime decided it.
"""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")
from hypothesis import given, settings, strategies as st  # noqa: E402

from affinepowers import Decomposition, UniPoly, ratroots, sde  # noqa: E402
from affinepowers.decompose import (  # noqa: E402
    decompose_auto,
    decompose_big_exponents,
    decompose_big_gaps,
    decompose_distinct_nodes,
    decompose_small_intervals,
)
from affinepowers.errors import DeltaExhausted, IrrationalNodeDetected, ReconstructionFailed  # noqa: E402
from test_decompose import IRRATIONAL_13  # noqa: E402

F = Fraction

# None keeps the default list; a tuple is patched in as ratroots._PRIMES
PRIMES = [None, (3,), (5, 3, 7), (7, 3, 5, 11, 13)]
PRIME_IDS = [None if p is None else "-".join(map(str, p)) for p in PRIMES]
FIND_MIN_SDE = sde.find_min_sde


def lifted_at_once(f, shift, max_order=None, *, lazy=False):
    """The reference find_min_sde: lifts at once, so no equation is ever
    refused modulo p."""
    s = FIND_MIN_SDE(f, shift, max_order)
    return s if not lazy or s is None else sde.PendingSDE(s.order, shift, lifted=s)


def outcome(solver, *args):
    """The answer, or the error's type, str() and exponent, then those of
    every error along its __cause__ chain."""
    try:
        return solver(*args)
    except Exception as exc:
        chain = []
        while exc is not None:
            chain.append((type(exc), str(exc), getattr(exc, "exponent", None)))
            exc = exc.__cause__
        return chain


def patched_primes(primes):
    return mock.patch.object(ratroots, "_PRIMES", primes or ratroots._PRIMES)


def both_paths(primes, solver, *args):
    """(modular path, reference) outcomes with the primes patched in, if
    given."""
    with patched_primes(primes):
        got = outcome(solver, *args)
        with mock.patch.object(sde, "find_min_sde", lifted_at_once):
            want = outcome(solver, *args)
    return got, want


def generic(deg: int, rng: random.Random) -> UniPoly:
    return UniPoly([rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([-7, 3, 5, 6])])


DIFFERENTIAL = settings(derandomize=True, max_examples=8, deadline=None, database=None)

generic_inputs = st.builds(
    generic, st.integers(8, 40), st.integers(0, 2**32).map(random.Random)
)


@st.composite
def planted_inputs(draw):
    terms = draw(
        st.lists(
            st.tuples(
                st.integers(-5, 5).filter(bool),
                st.fractions(-4, 4, max_denominator=3),
                st.integers(10, 32),
            ),
            min_size=1,
            max_size=3,
        )
    )
    f = Decomposition.of(terms).expand()
    hypothesis.assume(not f.is_zero())
    return f


@pytest.mark.parametrize("prime", PRIMES, ids=PRIME_IDS)
@DIFFERENTIAL
@given(f=st.one_of(generic_inputs, planted_inputs()))
def test_auto_matches_lifting_every_equation(prime, f):
    got, want = both_paths(prime, decompose_auto, f)
    assert got == want


@pytest.mark.parametrize("prime", PRIMES, ids=PRIME_IDS)
@DIFFERENTIAL
@given(f=st.one_of(generic_inputs, planted_inputs()), delta=st.sampled_from([None, 0, 1, 2]))
def test_small_intervals_matches_lifting_every_equation(prime, f, delta):
    got, want = both_paths(prime, decompose_small_intervals, f, delta)
    assert got == want


def _pinned_generic(deg: int) -> UniPoly:
    rng = random.Random(deg)
    return UniPoly([rng.randint(-9, 9) for _ in range(deg)] + [5])


@pytest.mark.parametrize("prime", PRIMES, ids=PRIME_IDS)
def test_generic_refusals_both_ways(prime):
    # generic degrees 20-40: some shift-0 equations are refused unlifted
    # over the whole scan, the others are lifted, and every refusal is the
    # reference's.  The default list is pinned to its first two primes,
    # which refuse 7 of the 11 (the first alone 2, the full list 8)
    full, prime = prime is None, prime or ratroots._PRIMES[:2]
    verdicts = []
    for deg in range(20, 41, 2 if full else 10):
        f = _pinned_generic(deg)
        got, want = both_paths(prime, decompose_auto, f)
        assert got == want and got[0][0] is ReconstructionFailed
        with patched_primes(prime):
            eq = sde.find_min_sde(f, 0, lazy=True)
            lo = -(-((eq.order + 1) ** 2) // 2)
            verdicts.append(eq.refuses(lo, deg + (deg + 2) ** 2 // 8))
    if full:
        assert 3 <= verdicts.count(True) <= len(verdicts) - 3


NAMED = [decompose_big_exponents, decompose_big_gaps, decompose_distinct_nodes]
NAMED_IDS = ["big_exponents", "big_gaps", "distinct_nodes"]


@pytest.mark.parametrize("solver", NAMED, ids=NAMED_IDS)
def test_named_strategies_refuse_without_the_lift(solver, monkeypatch):
    # generic degree 20: its shift-0 equation is forced with a constant
    # lead, so each strategy called on its own refuses it unlifted
    equations = []

    def spy(*args, **kwargs):
        equations.append(FIND_MIN_SDE(*args, **kwargs))
        return equations[-1]

    monkeypatch.setattr(sde, "find_min_sde", spy)
    assert outcome(solver, _pinned_generic(20)) == [
        (ReconstructionFailed, "no admissible power solutions in range", None)
    ]
    assert len(equations) == 1
    assert equations[0].forced and equations[0].rootless and equations[0]._sde is None


# IRRATIONAL_13 plus 3 (x - 1)^9
IRRATIONAL_PAIR = UniPoly([-3, 1691, -108, 18556, -378, 41562, -252, 27564, -27, 5723, 0, 312, 0, 2])


@pytest.mark.parametrize("solver", NAMED, ids=NAMED_IDS)
def test_named_strategies_match_never_refusing(solver):
    # generic degrees 8-60 with two seeds each, and the irrational inputs:
    # the outcome with the modular refusals is the one of the exact path,
    # where no equation is forced, so refuses never holds
    inputs = [generic(deg, random.Random(seed)) for deg in range(8, 61) for seed in (deg, 1000 + deg)]
    outcomes = [both_paths(None, solver, f) for f in inputs + [IRRATIONAL_13, IRRATIONAL_PAIR]]
    for got, want in outcomes:
        assert got == want
    for _, want in outcomes[-2:]:
        assert [(t, e) for t, _, e in want] == [(IrrationalNodeDetected, 13)]


def decided_at(eq):
    """The prime at which (d) proved eq's lead rootless (the first entry of
    its decision), None when no prime did."""
    return eq._decision[0] if eq._decision else None


def _forced_generic(primes):
    """The forced shift-0 and shift-1 equations of generic degrees 8-30,
    found with the primes patched in."""
    out = []
    with patched_primes(primes):
        for deg in range(8, 31):
            f = generic(deg, random.Random(deg))
            for shift in (0, 1):
                eq = sde.find_min_sde(f, shift, lazy=True)
                if eq.forced:
                    out.append(eq)
    return out


def test_later_primes_both_decide_and_fail_to_decide():
    # with small primes many leads have a root at the pass's prime: some
    # are decided by a later prime of the list, and some by none, which
    # are lifted; the differential covers both
    decided_later = undecided = 0
    primes = (5, 3, 7, 11, 13)
    with patched_primes(primes):
        for eq in _forced_generic(primes):
            if eq.lead_degree < 2:
                continue
            decided_later += decided_at(eq) not in (None, eq._pass[0].p)
            undecided += decided_at(eq) is None
            f = eq._pass[2]
            got, want = both_paths(primes, decompose_auto, f)
            assert got == want
    assert decided_later >= 3 and undecided >= 3


def test_prime_where_not_forced_is_skipped(monkeypatch):
    # 3 divides the determinant of some equations' columns: there the pass
    # is not forced, and the lead is not read modulo 3
    primes = (1009, 3, 5, 7)
    read_at = []
    leads = sde.PendingSDE._leads
    monkeypatch.setattr(sde.PendingSDE, "_leads", lambda eq, prof: read_at.append(prof.p) or leads(eq, prof))
    skipped = 0
    with patched_primes(primes):
        for eq in _forced_generic(primes):
            if eq.lead_degree < 2:
                continue
            profile, cols, _ = eq._pass
            later = ratroots._primes_after(profile.p)
            forced_at = [q for q in later if sde._forced_profile(q, cols[:-1]) is not None]
            read_at.clear()
            decided = decided_at(eq)
            # the pass's prime, then each later prime where it is forced, up
            # to the one that decided
            tried = [profile.p] + forced_at
            assert read_at == (tried[: tried.index(decided) + 1] if decided else tried)
            skipped += 3 in later and 3 not in forced_at
    assert skipped >= 3


NO_ROOTS = "top equation coefficient has no roots"
NO_RATIONAL_ROOTS = "top equation coefficient has no rational roots"
NO_CANDIDATES = "no candidate terms to combine"


def empty(cap):
    return f"exponent window is empty at every order above {cap}"


# each width's reason in the refusal of the exact path (every equation
# lifted), as the implementation before the modular refusals gave them
PINNED = {
    20: [NO_ROOTS, empty(4), empty(1), empty(0), empty(0)],
    60: [NO_RATIONAL_ROOTS, NO_RATIONAL_ROOTS, empty(6), empty(3), empty(1)],
    120: [NO_CANDIDATES, NO_RATIONAL_ROOTS, empty(12), empty(6), empty(4)],
}


@pytest.mark.parametrize("deg", sorted(PINNED))
def test_pinned_generic_refusal_texts(deg):
    reasons = "; ".join(f"width {w}: {r}" for w, r in enumerate(PINNED[deg]))
    assert outcome(decompose_auto, _pinned_generic(deg)) == [
        (ReconstructionFailed, "no strategy produced a verified decomposition", None),
        (
            DeltaExhausted,
            f"no interval width up to 4 yielded a verified decomposition ({reasons})",
            None,
        ),
        (ReconstructionFailed, PINNED[deg][-1], None),
    ]


# -- outside oracle: sympy's rational roots ---------------------------------


def sympy_roots(cs):
    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(cs)), x, domain="QQ").ground_roots()


ORACLE = settings(derandomize=True, max_examples=80, deadline=None, database=None)


@st.composite
def root_products(draw):
    """Products of rational linear factors with multiplicities and a
    random integer cofactor."""
    f = UniPoly([draw(st.integers(-6, 6).filter(bool))])
    for _ in range(draw(st.integers(0, 4))):
        b = draw(st.fractions(-9, 9, max_denominator=5))
        f = f * UniPoly.affine_power(1, b, draw(st.integers(1, 3)))
    cofactor = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=7))
    if any(cofactor):
        f = f * UniPoly(cofactor)
    return f


@ORACLE
@given(root_products())
def test_rational_roots_match_sympy(f):
    roots, cofactor = ratroots.rational_roots_with_cofactor(f)
    want = {F(int(r.p), int(r.q)): m for r, m in sympy_roots(ratroots.to_primitive_int(f)).items()}
    assert roots == want
    assert len(cofactor) - 1 == f.degree - sum(want.values())
    # the cofactor is the product of the irreducible factors of degree >= 2
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(list(reversed(ratroots.to_primitive_int(f))), x).factor_list()
    rest = math.prod((g**m for g, m in factors if g.degree() >= 2), start=sympy.Poly(1, x))
    assert cofactor == ratroots._primitive([int(c) for c in reversed(rest.all_coeffs())])


@pytest.mark.parametrize("prime", [None, (5, 3, 7, 11, 13)], ids=[None, "5-3-7-11-13"])
@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(f=generic_inputs, shift=st.integers(0, 2))
def test_rootless_verdict_matches_sympy(prime, f, shift):
    # a lead the certificate calls rootless, at whichever prime of the list
    # decided it, has no rational root, and the lead's degree mod p is its
    # exact degree; a deciding prime is set exactly when it is rootless
    with patched_primes(prime):
        eq = sde.find_min_sde(f, shift, max_order=12, lazy=True)
        hypothesis.assume(eq is not None and eq.forced)
        lead = eq.exact().polys[eq.order]
        assert eq.lead_degree == lead.degree
        assert (decided_at(eq) is not None) == eq.rootless
        if eq.rootless:
            assert decided_at(eq) in (eq._pass[0].p, *ratroots._primes_after(eq._pass[0].p))
            assert sympy_roots(ratroots.to_primitive_int(lead)) == {}


def test_unforced_equation_has_no_deciding_prime():
    # (x - 1)^12 + (x + 2)^11: order 3, found before the forced column and
    # lifted by find_min_sde
    f = UniPoly.affine_power(1, 1, 12) + UniPoly.affine_power(1, -2, 11)
    eq = sde.find_min_sde(f, 0, lazy=True)
    assert not eq.forced and not eq.rootless and decided_at(eq) is None


# -- the quadratic roots modulo p -----------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 97, 1009, (1 << 61) - 1])
def test_quadratic_roots_match_the_scan(p):
    rng = random.Random(p)
    for _ in range(60):
        g = [rng.randrange(p), rng.randrange(p), rng.randrange(1, p)]
        got = ratroots._quadratic_roots_mod(g, p)
        if p < 2000:
            assert got == [x for x in range(p) if ratroots._eval_mod(g, x, p) == 0]
        else:
            assert all(ratroots._eval_mod(g, x, p) == 0 for x in got)
            disc = (g[1] ** 2 - 4 * g[0] * g[2]) % p
            assert bool(got) == (disc == 0 or pow(disc, (p - 1) // 2, p) == 1)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 17, 41, 97, 1009])
def test_sqrt_mod_every_residue(p):
    for a in {x * x % p for x in range(p)}:
        assert ratroots._sqrt_mod(a, p) ** 2 % p == a


def test_split_solves_a_quadratic_without_splitting_powers(monkeypatch):
    # (x - 2)(x - 3) mod 1009: no (x + a)^((p-1)/2) is taken
    calls = []
    real = ratroots._power_mod
    monkeypatch.setattr(ratroots, "_power_mod", lambda *a: calls.append(a) or real(*a))
    assert ratroots._split_mod([6, -5 % 1009, 1], 1009) == [2, 3]
    assert calls == []


def test_lead_mod_p_is_the_exact_lead_up_to_a_unit():
    p = ratroots._PRIMES[0]
    for deg in (20, 24, 29, 33):
        f = _pinned_generic(deg)
        eq = sde.find_min_sde(f, 0, lazy=True)
        lead, below = eq._leads(eq._pass[0])
        exact = eq.exact()._int_form[0]
        unit = exact[eq.order][-1] % p
        assert [c * unit % p for c in lead] == [c % p for c in exact[eq.order]]
        padded = exact[eq.order - 1] + [0] * (len(below) - len(exact[eq.order - 1]))
        assert [c * unit % p for c in below] == [c % p for c in padded]
        assert math.gcd(unit, p) == 1

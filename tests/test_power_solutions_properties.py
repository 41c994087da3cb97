"""Property test of power_solutions against the per-exponent reference.

The equations are built by hand so that the lead coefficient mixes rational
roots with powers of irreducible quadratics: either the minimal equation of
a sum of powers at rational and conjugate irrational nodes, multiplied by
such a factor, or one with random lower P_i under it.  Some carry zero P_i
on top, so the lead sits below the order.  Every range of the reference
test starts at 1, where each exponent below the order is searched on its
own.  The norm screen is checked against per_exponent_loop, the exact gcd
chain at every exponent, on ranges from the order on (the run the screen
serves), at the default prime and at 3, 5 and 7, where p may divide lc(h)
or the norm may vanish modulo p without an irrational node.
"""

from fractions import Fraction as F
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from affinepowers import SDE, UniPoly, find_min_sde, power_solutions, ratroots  # noqa: E402
from test_power_solutions import P, outcome, pair_sum, per_exponent_loop, reference  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=80, deadline=None, database=None)

QUADRATICS = [P(-2, 0, 1), P(1, 0, 1), P(-3, 1, 1), P(F(-1, 2), 0, 2)]
fracs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def mixed_leads(draw):
    """A nonzero constant times linear factors at rational roots and powers
    of irreducible quadratics."""
    q = P(draw(fracs.filter(bool)))
    for b in draw(st.lists(fracs, max_size=2)):
        q = q * P(-b, 1)
    for quadratic in draw(st.lists(st.sampled_from(QUADRATICS), max_size=2)):
        q = q * quadratic ** draw(st.integers(1, 2))
    return q


@st.composite
def equations(draw):
    lead = draw(mixed_leads())
    pad = draw(st.integers(0, 2))
    if draw(st.booleans()):
        # a found equation times the lead keeps its power solutions
        f = pair_sum(draw(st.sampled_from([0, 2, 3, 5])), draw(st.integers(3, 10)))
        for b in draw(st.lists(fracs, max_size=1)):
            f = f + UniPoly.affine_power(1, b, draw(st.integers(2, 12)))
        s = find_min_sde(f, draw(st.integers(0, 1)))
        polys = [p * lead for p in s.polys] + [P()] * pad
        return SDE(s.order + pad, s.shift + lead.degree, tuple(polys))
    top = draw(st.integers(0, 3))
    shift = max(lead.degree - top, 0) + draw(st.integers(0, 1))
    polys = [
        P(*draw(st.lists(fracs, max_size=i + shift + 1))) if draw(st.booleans()) else P()
        for i in range(top)
    ]
    return SDE(top + pad, shift, tuple(polys + [lead] + [P()] * pad))


@PROPERTY
@given(equations(), st.integers(1, 30))
def test_matches_reference_from_one(s, e_max):
    assert outcome(power_solutions, s, 1, e_max) == outcome(reference, s, 1, e_max)


@PROPERTY
@given(equations(), st.integers(0, 3), st.integers(1, 40), st.sampled_from([None, 3, 5, 7]))
def test_screen_matches_per_exponent_loop(s, start, length, prime):
    lo = s.order + start
    want = outcome(per_exponent_loop, s, lo, lo + length)
    with mock.patch.object(ratroots, "_PRIMES", (prime,) if prime else ratroots._PRIMES):
        assert outcome(power_solutions, s, lo, lo + length) == want

"""Property test of shifted_poly_solutions against the old elimination.

shifted_poly_solutions keeps the candidates that are pivot columns of one
Bareiss elimination; unfiltered_scan solves a kernel at every exponent of
the range and keeps each candidate that a sparse elimination over Q finds
independent of those kept before it.  The equations are the minimal
shift-delta equations of generated small_intervals instances, groups 1-2
and delta 0-3, with the instance moved by a rational shift so that nodes
carry denominators.  The node is a planted one, another rational root of the
top coefficient or 1/3, the width 0-3, and each range holds 1, the order or
a planted exponent.
"""

from fractions import Fraction as F
from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from affinepowers import find_min_sde, rational_roots, shifted_poly_solutions  # noqa: E402
from affinepowers.generate import InstanceSpec, generate_instance  # noqa: E402
from test_sde_node_basis import unfiltered_scan  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None, database=None)


@lru_cache(maxsize=None)
def instance(groups: int, delta: int, size: int, seed: int, shift: F):
    """(equation, candidate nodes, planted (node, exponent) pairs) of the
    instance with every node moved by -shift."""
    f, planted = generate_instance(
        InstanceSpec(s=size, seed=seed), "small_intervals", groups=groups, delta=delta
    )
    eq = find_min_sde(f.taylor_shift(shift), delta)
    nodes = sorted(set(rational_roots(eq.polys[eq.order])) | {F(1, 3)})
    return eq, nodes, [(t.node - shift, t.exponent) for t in planted.terms]


@st.composite
def cases(draw):
    groups = draw(st.integers(1, 2))
    delta = draw(st.integers(0, 3))
    size = draw(st.integers(groups, groups * (delta + 1)))
    shift = draw(st.sampled_from([F(0), F(1, 2), F(-2, 3), F(5, 4)]))
    eq, nodes, planted = instance(groups, delta, size, draw(st.integers(0, 1)), shift)
    others = st.tuples(st.sampled_from(nodes), st.sampled_from([1, eq.order]))
    node, anchor = draw(st.sampled_from(planted) | others)
    e_min = max(1, anchor - draw(st.integers(0, 6)))
    e_max = anchor + draw(st.integers(0, 8))
    return eq, node, draw(st.integers(0, 3)), e_min, e_max


@PROPERTY
@given(cases())
def test_matches_old_elimination(case):
    assert shifted_poly_solutions(*case) == unfiltered_scan(*case)

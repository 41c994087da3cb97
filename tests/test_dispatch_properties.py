"""Property tests of the dispatchers against their specifications.

decompose_auto must give the outcome of trying every strategy of
_STRATEGIES in turn on f, and decompose_small_intervals(f) that of trying
the widths 0 to 4 one by one: the same answer and tag, or the same error
type, message and cause.  The inputs are planted instances of all four
regimes, sums of two affine powers at conjugate irrational nodes, and
generic integer polynomials.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from affinepowers import (  # noqa: E402
    InstanceSpec,
    UniPoly,
    UnsatisfiableSpec,
    decompose_auto,
    decompose_small_intervals,
    generate_instance,
)
from test_decompose import every_strategy, outcome, width_scan  # noqa: E402

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def planted(draw):
    regime = draw(st.sampled_from(["big_exponents", "big_gaps", "distinct_nodes", "small_intervals"]))
    # with fewer than 3 terms the peeling and interval regimes are mostly
    # solved by big_exponents already
    spec = InstanceSpec(
        s=3 if regime in ("distinct_nodes", "small_intervals") else draw(st.integers(1, 3)),
        repeated_nodes=regime == "big_gaps" and draw(st.booleans()),
        seed=draw(st.integers(0, 10**6)),
    )
    kw = {}
    if regime == "small_intervals":
        kw = {"groups": draw(st.integers(1, min(spec.s, 2))), "delta": draw(st.integers(0, 2))}
    try:
        return generate_instance(spec, regime, **kw)[0]
    except UnsatisfiableSpec:
        hypothesis.assume(False)


@st.composite
def irrational_pair(draw):
    """(x - r)^n + (x + r)^n with r^2 = k not a square."""
    n = draw(st.integers(3, 24))
    k = draw(st.sampled_from([2, 3, 5, 6, 7]))
    return UniPoly([2 * math.comb(n, j) * k ** ((n - j) // 2) * ((n - j) % 2 == 0) for j in range(n + 1)])


generic = st.lists(st.integers(-9, 9), min_size=2, max_size=16).filter(lambda c: c[-1]).map(UniPoly)
refused = st.one_of(irrational_pair(), generic)


class TestDispatchers:
    @pytest.mark.parametrize("inputs", [planted(), refused], ids=["planted", "refused"])
    def test_auto_matches_every_strategy_in_turn(self, inputs):
        @PROPERTY
        @given(inputs)
        def check(f):
            assert outcome(decompose_auto, f) == outcome(every_strategy, f)

        check()

    @pytest.mark.parametrize("inputs", [planted(), refused], ids=["planted", "refused"])
    def test_automatic_width_matches_explicit_widths(self, inputs):
        @PROPERTY
        @given(inputs)
        def check(f):
            assert outcome(decompose_small_intervals, f) == outcome(width_scan, f)

        check()

"""Property tests of the dispatchers against their specifications.

decompose_auto must give the outcome of trying every strategy of
_STRATEGIES in turn on f, and decompose_small_intervals(f) that of trying
the widths 0 to 4 one by one: the same answer and tag, or the same error
type, message and cause.  The inputs are planted instances of all four
regimes, sums of two affine powers at conjugate irrational nodes, and
generic integer polynomials.

decompose_small_intervals(f, delta) searches each width's equation only up
to the largest order whose exponent window is nonempty; it must give the
outcome of the search on the full minimal equation, up to the reason given
where that equation's window is empty.
"""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import affinepowers.decompose as dmod  # noqa: E402
from affinepowers import (  # noqa: E402
    DeltaExhausted,
    InstanceSpec,
    ReconstructionFailed,
    UniPoly,
    UnsatisfiableSpec,
    decompose_auto,
    decompose_small_intervals,
    find_min_sde,
    generate_instance,
    rational_roots,
    shifted_poly_solutions,
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


@st.composite
def clustered(draw):
    """A planted small_intervals instance; one group reaches width 3."""
    groups = draw(st.integers(1, 2))
    delta = draw(st.integers(0, 3 if groups == 1 else 2))
    spec = InstanceSpec(s=draw(st.integers(groups, groups * (delta + 1))), seed=draw(st.integers(0, 10**6)))
    return generate_instance(spec, "small_intervals", groups=groups, delta=delta)[0]


def uncapped_width(f: UniPoly, delta: int):
    """One width of decompose_small_intervals on the full minimal equation,
    as before the order cap: the answer or the error, and whether the
    equation's exponent window was empty."""
    eq = find_min_sde(f, delta)
    r, span = eq.order, (delta + 1) ** 2
    e_min = (r + 1) ** 2 * span // 2 + 1
    e_max = math.ceil(f.degree + Fraction(r * r * span, 2)) - 1
    try:
        top = eq.polys[r]
        if top.degree < 1:
            raise ReconstructionFailed("top equation coefficient has no roots")
        nodes = sorted(rational_roots(top))
        if not nodes:
            raise ReconstructionFailed("top equation coefficient has no rational roots")
        candidates = [(c, sol) for c in nodes for sol in shifted_poly_solutions(eq, c, delta, e_min, e_max)]
        return dmod._verify(dmod._fit(f, candidates), f), e_min > e_max
    except ReconstructionFailed as exc:
        return exc, e_min > e_max


class TestOrderCap:
    @pytest.mark.parametrize(
        "inputs",
        [clustered(), irrational_pair(), st.lists(st.integers(-9, 9), min_size=6, max_size=25).filter(lambda c: c[-1]).map(UniPoly)],
        ids=["planted", "irrational", "generic"],
    )
    def test_matches_uncapped_search(self, inputs):
        @settings(derandomize=True, max_examples=30, deadline=None, database=None)
        @given(inputs)
        def check(f):
            expected, reasons, cause = None, [], None
            for width in range(dmod._DELTA_MAX + 1):
                res, empty = uncapped_width(f, width)
                got = outcome(lambda g: decompose_small_intervals(g, width), f)
                if not isinstance(res, ReconstructionFailed):
                    assert got == res
                    expected = res if expected is None else expected
                    continue
                if empty:
                    res = dmod._empty_window(f.degree, width)
                cause = (type(res), str(res), type(res.__cause__), str(res.__cause__))
                assert got == cause
                reasons.append(f"width {width}: {res}")
            if expected is None:
                message = f"no interval width up to 4 yielded a verified decomposition ({'; '.join(reasons)})"
                expected = (DeltaExhausted, message) + cause[:2]
            assert outcome(decompose_small_intervals, f) == expected

        check()


@st.composite
def planted_pair(draw):
    """(f, planted decomposition) in one of the regimes whose power
    solutions come from decompose_auto's shared scan."""
    regime = draw(st.sampled_from(["big_exponents", "big_gaps", "distinct_nodes"]))
    spec = InstanceSpec(
        s=draw(st.integers(1, 3)),
        repeated_nodes=regime == "big_gaps" and draw(st.booleans()),
        seed=draw(st.integers(0, 10**6)),
    )
    return generate_instance(spec, regime)


@st.composite
def planted_clusters(draw):
    """(f, planted decomposition, delta) in the small_intervals regime:
    at most 2 groups of width at most 1 and at most 3 terms, so that the
    minimal equations stay small."""
    groups = draw(st.integers(1, 2))
    delta = draw(st.integers(0, 1))
    spec = InstanceSpec(
        s=draw(st.integers(groups, min(3, groups * (delta + 1)))),
        seed=draw(st.integers(0, 10**6)),
    )
    return (*generate_instance(spec, "small_intervals", groups=groups, delta=delta), delta)


class TestPlantedRecovery:
    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(planted_pair())
    def test_auto_returns_the_planted_decomposition(self, pair):
        f, want = pair
        dec, tag = decompose_auto(f)
        assert dec == want
        assert tag in ("big_exponents", "big_gaps", "distinct_nodes")

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(planted_clusters())
    def test_small_intervals_returns_the_planted_decomposition(self, case):
        f, want, delta = case
        assert decompose_small_intervals(f, delta) == want
        assert decompose_small_intervals(f) == want

"""Tests for the certified random instance generator."""

import pytest

from affinepowers import (
    Criterion,
    InstanceSpec,
    UnsatisfiableSpec,
    check_conditions,
    decompose_big_exponents,
    decompose_big_gaps,
    decompose_distinct_nodes,
    decompose_small_intervals,
    generate_instance,
)
from affinepowers.generate import REGIMES


class TestSpecValidation:
    def test_regimes_listed(self):
        assert set(REGIMES) == {
            "big_exponents",
            "distinct_nodes",
            "small_intervals",
            "big_gaps",
        }

    def test_s_must_be_positive(self):
        with pytest.raises(ValueError):
            InstanceSpec(s=0)

    def test_node_range_positive(self):
        with pytest.raises(ValueError):
            InstanceSpec(s=1, node_range=0)

    def test_exp_window_ordered(self):
        with pytest.raises(ValueError):
            InstanceSpec(s=1, exp_min=10, exp_max=9)

    def test_groups_only_for_small_intervals(self):
        with pytest.raises(ValueError):
            generate_instance(InstanceSpec(s=2), "big_exponents", groups=2)

    def test_delta_only_for_small_intervals(self):
        with pytest.raises(ValueError):
            generate_instance(InstanceSpec(s=2), "distinct_nodes", delta=1)

    def test_repeated_nodes_only_for_big_gaps(self):
        with pytest.raises(ValueError):
            generate_instance(
                InstanceSpec(s=2, repeated_nodes=True), "big_exponents"
            )

    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            generate_instance(InstanceSpec(s=2), "nope")

    def test_too_few_nodes_available(self):
        with pytest.raises(UnsatisfiableSpec):
            generate_instance(InstanceSpec(s=4, node_range=1), "big_exponents")

    def test_exponent_window_too_tight(self):
        with pytest.raises(UnsatisfiableSpec):
            generate_instance(InstanceSpec(s=2, exp_max=3), "big_exponents")

    def test_group_count_exceeds_terms(self):
        with pytest.raises(UnsatisfiableSpec):
            generate_instance(
                InstanceSpec(s=1), "small_intervals", groups=2, delta=0
            )


class TestIntegerFields:
    """Every integer knob goes through unipoly._parse_int, as SDE, BlackBox,
    MultiPoly and serialize do: a bool, a float or a non-integral value is
    refused with ValueError, and None stays None where a field is
    optional."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("s", True),
            ("s", 2.5),
            ("s", 2.0),
            ("exp_min", 30.5),
            ("exp_max", False),
            ("min_gap", 1.5),
            ("node_range", 2.5),
            ("seed", 1.5),
            ("seed", True),
        ],
    )
    def test_spec_refuses(self, field, value):
        kwargs = {"s": 2, field: value}
        with pytest.raises(ValueError, match="expected an integer"):
            InstanceSpec(**kwargs)

    @pytest.mark.parametrize("field, value", [("groups", 1.5), ("groups", True), ("delta", 1.0)])
    def test_generate_instance_refuses(self, field, value):
        with pytest.raises(ValueError, match="expected an integer"):
            generate_instance(InstanceSpec(s=2), "small_intervals", **{field: value})

    def test_optional_fields_stay_none(self):
        spec = InstanceSpec(s=2)
        assert (spec.exp_min, spec.exp_max, spec.min_gap) == (None, None, None)

    def test_integer_strings_are_read(self):
        assert InstanceSpec(s="3", exp_min="10", seed="4") == InstanceSpec(s=3, exp_min=10, seed=4)

    @pytest.mark.parametrize(
        "regime, kwargs, terms",
        [
            ("big_exponents", {}, [(7, 7, 58), (6, -3, 52), (-4, 5, 51)]),
            ("distinct_nodes", {}, [(-4, 7, 90), (-3, 9, 42), (9, 5, 14)]),
            ("big_gaps", {}, [(5, 7, 79), (-6, -3, 53), (-4, 7, 26)]),
            ("small_intervals", {"groups": 2, "delta": 1}, [(7, 7, 58), (-4, 7, 57), (9, 5, 47)]),
        ],
    )
    def test_valid_specs_generate_the_pinned_instances(self, regime, kwargs, terms):
        # the benchmark pools come from generate_instance, so a valid spec
        # must keep drawing the same instance
        spec = InstanceSpec(s=3, seed=11, repeated_nodes=regime == "big_gaps")
        _, dec = generate_instance(spec, regime, **kwargs)
        assert [(t.coeff, t.node, t.exponent) for t in dec.terms] == terms


class TestDeterminismAndConsistency:
    def test_same_seed_same_instance(self):
        for regime in REGIMES:
            spec = InstanceSpec(s=2, seed=5, repeated_nodes=(regime == "big_gaps"))
            a = generate_instance(spec, regime)
            b = generate_instance(spec, regime)
            assert a == b

    def test_different_seeds_differ(self):
        outs = {
            generate_instance(InstanceSpec(s=2, seed=k), "big_exponents")[0]
            for k in range(6)
        }
        assert len(outs) > 1

    def test_expansion_matches_truth(self):
        for regime in REGIMES:
            spec = InstanceSpec(s=3, seed=8, repeated_nodes=(regime == "big_gaps"))
            f, dec = generate_instance(spec, regime)
            assert dec.expand() == f
            assert len(dec) == 3


class TestBigExponentsRegime:
    def test_exponent_floor_and_distinct_nodes(self):
        for seed in range(5):
            spec = InstanceSpec(s=3, seed=seed)
            _, dec = generate_instance(spec, "big_exponents")
            nodes = [t.node for t in dec]
            assert len(set(nodes)) == len(nodes)
            for t in dec:
                assert 2 * t.exponent > 5 * 9  # e > 5 s^2 / 2
                assert abs(t.node) <= 9

    def test_certified_conditions(self):
        _, dec = generate_instance(InstanceSpec(s=3, seed=1), "big_exponents")
        rep = check_conditions(
            dec, [Criterion.UNIQUENESS, Criterion.EXPONENT_BOUND]
        )
        assert rep.ok

    def test_window_honored(self):
        spec = InstanceSpec(s=2, exp_min=15, exp_max=18, seed=3)
        _, dec = generate_instance(spec, "big_exponents")
        for t in dec:
            assert 15 <= t.exponent <= 18

    def test_solver_roundtrip(self):
        f, dec = generate_instance(InstanceSpec(s=2, seed=21), "big_exponents")
        assert decompose_big_exponents(f) == dec


class TestDistinctNodesRegime:
    def test_certified_conditions(self):
        for seed in range(4):
            _, dec = generate_instance(
                InstanceSpec(s=3, seed=seed), "distinct_nodes"
            )
            rep = check_conditions(
                dec, [Criterion.DISTINCT_NODES, Criterion.EXPONENT_BOUND]
            )
            assert rep.ok
            nodes = [t.node for t in dec]
            assert len(set(nodes)) == len(nodes)

    def test_solver_roundtrip(self):
        f, dec = generate_instance(InstanceSpec(s=2, seed=22), "distinct_nodes")
        assert decompose_distinct_nodes(f) == dec


class TestBigGapsRegime:
    def test_per_node_gaps(self):
        for seed in range(6):
            spec = InstanceSpec(s=3, seed=seed, repeated_nodes=True)
            _, dec = generate_instance(spec, "big_gaps")
            by_node: dict = {}
            for t in dec:
                by_node.setdefault(t.node, []).append(t.exponent)
            for exps in by_node.values():
                exps.sort()
                for lo, hi in zip(exps, exps[1:]):
                    assert 2 * (hi - lo) > 5 * 9

    def test_repeated_nodes_occur(self):
        hits = 0
        for seed in range(8):
            spec = InstanceSpec(s=3, seed=seed, repeated_nodes=True)
            _, dec = generate_instance(spec, "big_gaps")
            nodes = [t.node for t in dec]
            hits += len(set(nodes)) < len(nodes)
        assert hits > 0

    def test_min_gap_honored(self):
        spec = InstanceSpec(s=2, min_gap=30, repeated_nodes=True, seed=7)
        _, dec = generate_instance(spec, "big_gaps")
        exps = sorted(t.exponent for t in dec)
        assert exps[1] - exps[0] >= 30

    def test_solver_roundtrip(self):
        spec = InstanceSpec(s=3, seed=9, repeated_nodes=True)
        f, dec = generate_instance(spec, "big_gaps")
        assert decompose_big_gaps(f) == dec


class TestSmallIntervalsRegime:
    def test_cluster_structure(self):
        spec = InstanceSpec(s=4, seed=2)
        _, dec = generate_instance(spec, "small_intervals", groups=2, delta=2)
        by_node: dict = {}
        for t in dec:
            by_node.setdefault(t.node, []).append(t.exponent)
        assert len(by_node) == 2
        for exps in by_node.values():
            assert max(exps) - min(exps) <= 2
        # the minimum exponent respects the small-intervals floor
        t, span = 2, 3
        assert min(x.exponent for x in dec) >= (5 * t * t * span * span) // 2

    def test_solver_roundtrip(self):
        spec = InstanceSpec(s=3, seed=3)
        f, dec = generate_instance(spec, "small_intervals", groups=2, delta=1)
        assert decompose_small_intervals(f, 1) == dec

    def test_default_grouping(self):
        # without explicit knobs the regime still produces a solvable
        # clustered instance
        f, dec = generate_instance(InstanceSpec(s=2, seed=4), "small_intervals")
        assert dec.expand() == f

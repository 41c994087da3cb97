"""Tests for the univariate decomposition algorithms and admission checks."""

import dataclasses
import gc
import math
import random
from fractions import Fraction

import pytest

from affinepowers import (
    AffineTerm,
    BlackBox,
    Criterion,
    Decomposition,
    DeltaExhausted,
    Inconsistent,
    InstanceSpec,
    IrrationalNodeDetected,
    MultiPoly,
    ReconstructionFailed,
    SDE,
    UniPoly,
    ZeroPolynomial,
    check_conditions,
    decompose_auto,
    decompose_big_exponents,
    decompose_big_gaps,
    decompose_distinct_nodes,
    decompose_small_intervals,
    find_min_sde,
    generate_instance,
    linalg,
    multi_build,
    rational_roots,
    shifted_poly_solutions,
)
from affinepowers.unipoly import _clear_denominators

F = Fraction


def P(*coeffs) -> UniPoly:
    return UniPoly(coeffs)


def D(*triples) -> Decomposition:
    return Decomposition.of(triples)


# rational coefficients of (x - r)^13 + (x + r)^13 where r^2 = 2; its only
# length-2 decomposition uses the irrational nodes +-r
IRRATIONAL_13 = P(0, 1664, 0, 18304, 0, 41184, 0, 27456, 0, 5720, 0, 312, 0, 2)
# (x - sqrt 2)^30 + (x + sqrt 2)^30
IRRATIONAL_30 = P(*(2 * math.comb(30, k) * 2 ** ((30 - k) // 2) * (k % 2 == 0) for k in range(31)))


class TestAffineTerm:
    def test_fields_coerced(self):
        t = AffineTerm(2, 3, 4)
        assert t.coeff == F(2) and t.node == F(3) and t.exponent == 4
        assert isinstance(t.coeff, F) and isinstance(t.node, F)

    def test_zero_coeff_rejected(self):
        with pytest.raises(ValueError):
            AffineTerm(0, 1, 2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            AffineTerm(1, 1, -1)

    @pytest.mark.parametrize("exponent", [3.5, 2.0, True, F(7, 2), "2.5"])
    def test_non_integral_exponent_rejected(self, exponent):
        # int() would read 3.5 as 3 and True as 1
        with pytest.raises(ValueError):
            AffineTerm(1, 0, exponent)

    def test_integer_string_exponent_parsed(self):
        assert AffineTerm(1, 0, "3").exponent == 3

    def test_expand(self):
        assert AffineTerm(2, 1, 2).expand() == P(2, -4, 2)
        assert AffineTerm(F(1, 2), 0, 0).expand() == P(F(1, 2))


class TestDecomposition:
    def test_terms_sorted_canonically(self):
        d = Decomposition(
            (AffineTerm(1, 2, 3), AffineTerm(1, -1, 5), AffineTerm(1, 0, 5))
        )
        keys = [(t.exponent, t.node) for t in d.terms]
        assert keys == [(5, F(-1)), (5, F(0)), (3, F(2))]

    def test_duplicate_pair_rejected(self):
        with pytest.raises(ValueError):
            Decomposition((AffineTerm(1, 2, 3), AffineTerm(4, 2, 3)))

    def test_of_merges_duplicates(self):
        d = D((1, 2, 3), (4, 2, 3))
        assert len(d) == 1
        assert d.terms[0].coeff == F(5)

    def test_of_drops_cancelled_terms(self):
        d = D((1, 2, 3), (-1, 2, 3), (7, 0, 1))
        assert len(d) == 1
        assert d.terms[0] == AffineTerm(7, 0, 1)

    @pytest.mark.parametrize("exponent", [2.7, True, F(5, 2)])
    def test_of_rejects_non_integral_exponent(self, exponent):
        with pytest.raises(ValueError):
            D((1, 0, exponent), (2, 1, 1))

    def test_of_merges_integer_string_exponent(self):
        assert D((1, 2, "3"), (4, 2, 3)) == D((5, 2, 3))

    def test_empty(self):
        d = D()
        assert len(d) == 0
        assert d.expand().is_zero()

    def test_expand_known(self):
        assert D((1, 0, 3)).expand() == P(0, 0, 0, 1)
        # (x+1)^2 - (x-1)^2 = 4x
        assert D((1, -1, 2), (-1, 1, 2)).expand() == P(0, 4)
        # (x-1/3)^2/2 - (x+1/3)^2/2 = -2x/3, over the common denominator 18
        assert D((F(1, 2), F(1, 3), 2), (F(-1, 2), F(-1, 3), 2)).expand() == P(0, F(-2, 3))

    def test_iteration(self):
        d = D((1, 0, 2), (2, 1, 1))
        assert [t.exponent for t in d] == [2, 1]

    def test_max_coeff_bits(self):
        d = D((1024, 0, 1))
        assert d.max_coeff_bits() == 11


class TestCheckConditions:
    def test_all_pass_single_large_power(self):
        rep = check_conditions(D((1, 0, 11)))
        assert rep.ok
        assert rep.witnesses == {}
        assert set(rep.passed) == set(Criterion)

    def test_uniqueness_fails_on_equal_exponents(self):
        # two terms with exponent 3: 2*2^2 = 8 > 3 + 1
        rep = check_conditions(D((1, 0, 3), (1, 1, 3)))
        assert not rep.passed[Criterion.UNIQUENESS]
        assert rep.witnesses[Criterion.UNIQUENESS] == 3

    def test_real_uniqueness_fails_on_low_exponents(self):
        # two terms with exponent 1: 2*2 = 4 > ceil((1+3)/2) = 2
        rep = check_conditions(D((1, 0, 1), (1, 1, 1)))
        assert not rep.passed[Criterion.REAL_UNIQUENESS]
        assert rep.witnesses[Criterion.REAL_UNIQUENESS] == 1

    def test_distinct_nodes_needs_room(self):
        rep = check_conditions(D((1, 0, 2), (1, 1, 2)))
        assert not rep.passed[Criterion.DISTINCT_NODES]
        assert rep.witnesses[Criterion.DISTINCT_NODES] == 2

    def test_low_exponents_clamped_to_two(self):
        # the distinct-nodes growth test evaluates exponents below 2 at 2,
        # and the recorded witness is the clamped value
        rep = check_conditions(D((1, 5, 0)))
        assert not rep.passed[Criterion.DISTINCT_NODES]
        assert rep.witnesses[Criterion.DISTINCT_NODES] == 2

    def test_exponent_bound_on_valid_decompositions(self):
        # leading terms cannot fully cancel, so max exponent stays within
        # s^2/2 of the expanded degree for any representable input
        for d in (
            D((1, 0, 9), (-2, 1, 9), (1, 2, 9)),
            D((1, -1, 36), (-36, 0, 35)),
            D((1, 5, 0)),
        ):
            rep = check_conditions(d, [Criterion.EXPONENT_BOUND])
            assert rep.passed[Criterion.EXPONENT_BOUND]

    def test_criteria_subset(self):
        rep = check_conditions(D((1, 0, 1), (1, 1, 1)), [Criterion.UNIQUENESS])
        assert set(rep.passed) == {Criterion.UNIQUENESS}

    def test_witnesses_only_for_failures(self):
        rep = check_conditions(D((1, 0, 3), (1, 1, 3)))
        assert set(rep.witnesses) == {
            c for c, passed in rep.passed.items() if not passed
        }

    def test_witness_is_smallest_failing_exponent(self):
        # exponents 1 and 6: the single term at e = 1 passes (2 <= 2) and
        # the pair first fails at e = 6 (8 > 7)
        rep = check_conditions(D((1, 0, 1), (1, 1, 6)), [Criterion.UNIQUENESS])
        assert rep.witnesses[Criterion.UNIQUENESS] == 6
        # once both terms clear the growth bound the criterion passes
        rep = check_conditions(D((1, 0, 1), (1, 1, 40)), [Criterion.UNIQUENESS])
        assert rep.passed[Criterion.UNIQUENESS]


class TestBigExponents:
    def test_two_term_roundtrip(self):
        target = D((1, 1, 13), (2, -2, 11))
        out = decompose_big_exponents(target.expand())
        assert out == target
        assert out.expand() == target.expand()

    def test_single_power(self):
        f = UniPoly.affine_power(1, 5, 20)
        assert decompose_big_exponents(f) == D((1, 5, 20))

    def test_fractional_nodes(self):
        target = D((2, F(1, 2), 14), (-3, F(-1, 3), 12))
        assert decompose_big_exponents(target.expand()) == target

    def test_repeated_node_rejected_by_shape_check(self):
        # two powers at the same node are out of regime here
        f = D((1, 1, 25), (1, 1, 11)).expand()
        with pytest.raises(ReconstructionFailed):
            decompose_big_exponents(f)

    def test_irrational_nodes_detected(self):
        with pytest.raises(IrrationalNodeDetected):
            decompose_big_exponents(IRRATIONAL_13)

    def test_low_degree_out_of_regime(self):
        with pytest.raises(ReconstructionFailed):
            decompose_big_exponents(P(0, 1, 1))  # x^2 + x

    def test_zero_poly_rejected(self):
        with pytest.raises(ZeroPolynomial):
            decompose_big_exponents(P())


class TestBigGaps:
    def test_repeated_node_allowed(self):
        target = D((1, 1, 25), (1, 1, 11))
        out = decompose_big_gaps(target.expand())
        assert out == target

    def test_monomial_tower(self):
        f = UniPoly.monomial(1, 30)
        assert decompose_big_gaps(f) == D((1, 0, 30))

    def test_distinct_nodes_also_fine(self):
        target = D((1, 1, 13), (2, -2, 11))
        assert decompose_big_gaps(target.expand()) == target

    def test_generated_instance_roundtrip(self):
        spec = InstanceSpec(s=3, seed=4, repeated_nodes=True)
        f, planted = generate_instance(spec, "big_gaps")
        out = decompose_big_gaps(f)
        assert out == planted
        assert out.expand() == f

    def test_out_of_regime(self):
        with pytest.raises(ReconstructionFailed):
            decompose_big_gaps(P(0, 1, 1))


class TestDistinctNodes:
    def test_landmark_pair(self):
        # (x+1)^36 - 36 x^35 has a size-2 decomposition with a huge
        # exponent spread
        f = UniPoly.affine_power(1, -1, 36) + UniPoly.affine_power(-36, 0, 35)
        out = decompose_distinct_nodes(f)
        assert out == D((1, -1, 36), (-36, 0, 35))

    def test_single_power(self):
        f = UniPoly.affine_power(1, 4, 9)
        assert decompose_distinct_nodes(f) == D((1, 4, 9))

    def test_generated_instance_roundtrip(self):
        f, planted = generate_instance(InstanceSpec(s=3, seed=1), "distinct_nodes")
        out = decompose_distinct_nodes(f)
        assert out == planted
        assert out.expand() == f

    def test_stats_hook(self):
        f = UniPoly.affine_power(1, -1, 36) + UniPoly.affine_power(-36, 0, 35)
        stats: list = []
        decompose_distinct_nodes(f, stats=stats)
        assert stats
        required = {"iteration", "order", "residual_degree", "max_coeff_bits"}
        for row in stats:
            assert required <= set(row)
            assert all(isinstance(row[k], int) for k in required)
        assert [row["iteration"] for row in stats] == list(range(len(stats)))
        # peeling strictly reduces the residual degree
        degrees = [row["residual_degree"] for row in stats]
        assert degrees == sorted(degrees, reverse=True)

    def test_out_of_regime(self):
        with pytest.raises(ReconstructionFailed):
            decompose_distinct_nodes(P(0, 1, 1))

    def test_irrational_nodes_detected(self):
        with pytest.raises(IrrationalNodeDetected):
            decompose_distinct_nodes(IRRATIONAL_13)


class TestSmallIntervals:
    def test_same_node_pair_delta_one(self):
        f = UniPoly.affine_power(2, 1, 13) + UniPoly.affine_power(3, 1, 12)
        out = decompose_small_intervals(f, 1)
        assert out == D((2, 1, 13), (3, 1, 12))

    def test_single_power_delta_zero(self):
        f = UniPoly.affine_power(1, -7, 11)
        assert decompose_small_intervals(f, 0) == D((1, -7, 11))

    def test_auto_delta_finds_width_one(self):
        f = UniPoly.affine_power(2, 1, 13) + UniPoly.affine_power(3, 1, 12)
        out = decompose_small_intervals(f)
        assert out == D((2, 1, 13), (3, 1, 12))

    def test_auto_delta_exhausts_on_out_of_regime_input(self):
        with pytest.raises(DeltaExhausted):
            decompose_small_intervals(P(0, 1, 1))

    def test_exhaustion_error_is_reconstruction_failure(self):
        with pytest.raises(ReconstructionFailed):
            decompose_small_intervals(P(0, 1, 1))

    def test_exhaustion_names_every_width(self, monkeypatch):
        # width 0 solves f, so its refusal of the disagreeing re-expansion
        # must not be lost behind the last width's error
        f = UniPoly.affine_power(1, 2, 7)
        monkeypatch.setattr(Decomposition, "expand", lambda dec: f + P(1))
        with pytest.raises(DeltaExhausted) as info:
            decompose_small_intervals(f)
        message = str(info.value)
        assert message.startswith(
            "no interval width up to 4 yielded a verified decomposition "
            "(width 0: re-expansion does not reproduce the input; width 1: "
        )
        last = info.value.__cause__
        assert isinstance(last, ReconstructionFailed)
        assert message.endswith(f"; width 4: {last})")

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            decompose_small_intervals(P(1, 1), -1)

    @pytest.mark.parametrize("bad", [True, 2.0, F(3, 2)], ids=repr)
    def test_non_integer_delta_rejected(self, bad):
        # True used to run width 1, and 2.0 to raise TypeError
        with pytest.raises(ValueError):
            decompose_small_intervals(UniPoly.affine_power(1, -7, 11), bad)

    def test_integer_string_delta_parsed(self):
        f = UniPoly.affine_power(2, 1, 13) + UniPoly.affine_power(3, 1, 12)
        assert decompose_small_intervals(f, "1") == decompose_small_intervals(f, 1)

    def test_three_cluster_below_threshold(self):
        # two clusters need minimum exponent 40 at width 1; exponents
        # 20..22 sit far below that, so every width fails
        f = (
            UniPoly.affine_power(1, 1, 22)
            + UniPoly.affine_power(1, 1, 21)
            + UniPoly.affine_power(1, -1, 20)
        )
        with pytest.raises(DeltaExhausted):
            decompose_small_intervals(f)

    def test_generated_instance_roundtrip(self):
        spec = InstanceSpec(s=3, seed=3)
        f, planted = generate_instance(spec, "small_intervals", groups=2, delta=1)
        out = decompose_small_intervals(f, 1)
        assert out == planted


def solve_in_basis(target: UniPoly, basis: list[UniPoly]) -> list[Fraction]:
    """The coordinate solve as it was before the integer columns: each row
    of the basis matrix cleared of its denominators together with its
    target entry, then linalg.solve."""
    if not basis:
        raise ReconstructionFailed("no candidate terms to combine")
    n_rows = max([target.degree, 0] + [p.degree for p in basis]) + 1
    rows = [
        _clear_denominators([p.coeff(r) for p in basis] + [target.coeff(r)])[0]
        for r in range(n_rows)
    ]
    mat = linalg.IntMatrix.from_rows(row[:-1] for row in rows)
    try:
        res = linalg.solve(mat, [row[-1] for row in rows])
    except Inconsistent as exc:
        raise ReconstructionFailed(
            "input is not a combination of the candidate terms"
        ) from exc
    if not res.unique:
        raise ReconstructionFailed("candidate terms are linearly dependent")
    return list(res.vector)


def taylor_reread(f: UniPoly, delta: int | None = None) -> Decomposition:
    """decompose_small_intervals as it was before the fit in node
    coordinates: each solution expanded to x and scaled to primitive
    integers, f solved in that basis, and each node's part summed in x and
    re-read through a Taylor shift.  Its equation is not capped; where the
    window of its order is empty it refuses as the capped search does."""
    import affinepowers.decompose as dmod
    from affinepowers.ratroots import to_primitive_int

    if delta is None:
        last, reasons = None, []
        for width in range(5):
            try:
                return taylor_reread(f, width)
            except ReconstructionFailed as exc:
                last = exc
                reasons.append(f"width {width}: {exc}")
        raise DeltaExhausted(
            "no interval width up to 4 yielded a verified decomposition "
            f"({'; '.join(reasons)})"
        ) from last
    eq = find_min_sde(f, delta)
    r = eq.order
    span = (delta + 1) ** 2
    e_min = math.floor(F((r + 1) ** 2 * span, 2)) + 1
    e_max = math.ceil(F(f.degree) + F(r * r * span, 2)) - 1
    if e_min > e_max:
        raise dmod._empty_window(f.degree, delta)
    top = eq.polys[r]
    if top.degree < 1:
        raise ReconstructionFailed("top equation coefficient has no roots")
    candidates = sorted(rational_roots(top))
    if not candidates:
        raise ReconstructionFailed("top equation coefficient has no rational roots")
    basis, owner = [], []
    for c in candidates:
        for sol in shifted_poly_solutions(eq, c, delta, e_min, e_max):
            combo = UniPoly()
            for k, coef in sol.items():
                combo = combo + UniPoly.affine_power(coef, c, k)
            basis.append(UniPoly(to_primitive_int(combo)))
            owner.append(c)
    coords = solve_in_basis(f, basis)
    terms = []
    for c in candidates:
        part = UniPoly()
        for coef, own, p in zip(coords, owner, basis):
            if own == c and coef:
                part = part + p.scale(coef)
        for exp, coef in enumerate(part.taylor_shift(c).coeffs):
            if coef:
                terms.append((coef, c, exp))
    return dmod._verify(Decomposition.of(terms), f)


class TestNodeBasisFit:
    """decompose_small_intervals reads its terms off the node-basis
    solutions; answers and refusals must be those of the Taylor re-read."""

    @staticmethod
    def outcome(solver, f, delta):
        try:
            return solver(f, delta)
        except ReconstructionFailed as exc:
            cause = exc.__cause__
            return type(exc), str(exc), type(cause), str(cause)

    @staticmethod
    def inputs():
        for groups in (1, 2):
            for delta in (0, 1, 2):
                for seed in (5, 6):
                    spec = InstanceSpec(s=groups + delta, seed=seed)
                    f, planted = generate_instance(
                        spec, "small_intervals", groups=groups, delta=delta
                    )
                    yield f
                # the same shape with nodes that have denominators
                yield Decomposition.of(
                    (t.coeff, t.node / 2 + F(1, 3), t.exponent) for t in planted
                ).expand()
        for a, b in ((F(3, 2), F(-2, 5)), (F(-7, 3), F(1, 4))):
            for delta in (0, 1, 2):
                yield (
                    UniPoly((1, 2, F(1, 3))[: delta + 1]) * UniPoly.affine_power(3, a, 14)
                    + UniPoly.affine_power(F(-5, 7), b, 13)
                )

    def test_matches_taylor_reread(self):
        answered, refusals = set(), 0
        for f in self.inputs():
            for delta in (None, 0, 1, 2):
                got = self.outcome(decompose_small_intervals, f, delta)
                assert got == self.outcome(taylor_reread, f, delta), (f, delta)
                if isinstance(got, Decomposition):
                    fractional = any(t.node.denominator > 1 for t in got)
                    answered.add((delta, fractional))
                else:
                    refusals += 1
        # answers at every width, with and without denominators, and refusals
        assert answered == {(d, n) for d in (None, 0, 1, 2) for n in (False, True)}
        assert refusals >= 20


class TestCoords:
    """The coordinate solve on integer columns against the row-cleared
    solve of the expanded candidates: equal coordinates, or the same
    refusal."""

    @staticmethod
    def outcome(solver, f, basis):
        try:
            return solver(f, basis)
        except ReconstructionFailed as exc:
            return type(exc), str(exc), type(exc.__cause__)

    @staticmethod
    def cases():
        rng = random.Random(8)

        def rat(bound=9):
            return F(rng.randint(-bound, bound), rng.randint(1, bound))

        yield P(1, 2), []
        for _ in range(400):
            cands = []
            for _ in range(rng.randint(1, 4)):
                node = rat() if rng.random() < 0.7 else F(rng.randint(-3, 3))
                ks = rng.sample(range(7), rng.randint(1, 3))
                cands.append((node, {k: rat() for k in ks}))
            roll = rng.random()
            if roll < 0.2:
                cands.append(rng.choice(cands))  # dependent
            expanded = [
                sum((UniPoly.affine_power(c, node, k) for k, c in part.items()), UniPoly())
                for node, part in cands
            ]
            if roll < 0.7:
                f = sum((p.scale(rat()) for p in expanded), UniPoly())
            else:
                f = UniPoly([rat() for _ in range(rng.randint(0, 8))])
            yield f, cands
        yield UniPoly(), [(F(1, 2), {3: F(2, 3)})]
        yield P(0, 1), [(F(0), {1: F(1)}), (F(1), {1: F(0)})]

    def test_matches_row_cleared_solve(self):
        import affinepowers.decompose as dmod

        seen = set()
        for f, cands in self.cases():
            expanded = [
                sum((UniPoly.affine_power(c, node, k) for k, c in part.items()), UniPoly())
                for node, part in cands
            ]
            got = self.outcome(dmod._coords, f, cands)
            assert got == self.outcome(solve_in_basis, f, expanded), (f, cands)
            seen.add(got[1] if isinstance(got, tuple) else "solved")
        assert seen == {
            "solved",
            "no candidate terms to combine",
            "input is not a combination of the candidate terms",
            "candidate terms are linearly dependent",
        }


def every_strategy(f: UniPoly) -> tuple[Decomposition, str]:
    """decompose_auto's specification: each strategy of _STRATEGIES in turn
    on f, the first answer wins, an irrational node over a plain refusal."""
    irrational = last = None
    for tag, fn in (
        ("big_exponents", decompose_big_exponents),
        ("big_gaps", decompose_big_gaps),
        ("distinct_nodes", decompose_distinct_nodes),
        ("small_intervals", decompose_small_intervals),
    ):
        try:
            return fn(f), tag
        except IrrationalNodeDetected as exc:
            irrational = exc
        except ReconstructionFailed as exc:
            last = exc
    if irrational is not None:
        raise irrational
    raise ReconstructionFailed("no strategy produced a verified decomposition") from last


def width_scan(f: UniPoly) -> Decomposition:
    """decompose_small_intervals(f)'s specification: explicit widths 0-4."""
    last, reasons = None, []
    for width in range(5):
        try:
            return decompose_small_intervals(f, width)
        except ReconstructionFailed as exc:
            last = exc
            reasons.append(f"width {width}: {exc}")
    raise DeltaExhausted(
        f"no interval width up to 4 yielded a verified decomposition ({'; '.join(reasons)})"
    ) from last


def spy_find_min_sde(mp: pytest.MonkeyPatch) -> list:
    """Record the (f, shift, max_order) of every later sde.find_min_sde call."""
    import affinepowers.sde as sde_mod

    real, calls = sde_mod.find_min_sde, []

    def spy(f, shift, max_order=None, **kwargs):
        calls.append((f, shift, max_order))
        return real(f, shift, max_order, **kwargs)

    mp.setattr(sde_mod, "find_min_sde", spy)
    return calls


def outcome(solver, f: UniPoly):
    """The answer, or the error's type and message and those of its cause."""
    try:
        return solver(f)
    except (IrrationalNodeDetected, ReconstructionFailed) as exc:
        cause = exc.__cause__
        return type(exc), str(exc), type(cause), str(cause)


class TestAuto:
    def test_tags_big_exponents(self):
        f = UniPoly.affine_power(1, 2, 7)
        dec, tag = decompose_auto(f)
        assert tag == "big_exponents"
        assert dec == D((1, 2, 7))

    def test_tags_big_gaps_for_repeated_nodes(self):
        f = D((1, 1, 25), (1, 1, 11)).expand()
        dec, tag = decompose_auto(f)
        assert tag == "big_gaps"
        assert dec == D((1, 1, 25), (1, 1, 11))

    def test_tags_distinct_nodes_when_exponents_small(self):
        f, planted = generate_instance(InstanceSpec(s=3, seed=1), "distinct_nodes")
        dec, tag = decompose_auto(f)
        assert tag == "distinct_nodes"
        assert dec == planted

    def test_out_of_regime_raises_reconstruction_failure(self):
        with pytest.raises(ReconstructionFailed):
            decompose_auto(P(0, 1, 1))

    def test_irrational_preference_over_generic_failure(self):
        with pytest.raises(IrrationalNodeDetected):
            decompose_auto(IRRATIONAL_13)

    def test_matches_running_every_strategy(self, monkeypatch):
        # the dispatcher derives the shift-0 equation once and hands it to
        # every strategy: the outcome must be that of trying all four in
        # turn, and no (f, shift) pair may be derived twice
        generic = _generic_degree_20()
        inputs = [
            UniPoly.affine_power(1, 2, 7),
            D((1, 1, 25), (1, 1, 11)).expand(),
            generate_instance(InstanceSpec(s=3, seed=1), "distinct_nodes")[0],
            generate_instance(InstanceSpec(s=2, seed=2), "small_intervals", groups=1, delta=1)[0],
            P(0, 1, 1),
            P(*range(1, 12)),
            generic,
            IRRATIONAL_13,
        ]
        for f in inputs:
            expected = outcome(every_strategy, f)
            with monkeypatch.context() as mp:
                calls = spy_find_min_sde(mp)
                got = outcome(decompose_auto, f)
            assert got == expected
            assert calls.count((f, 0, None)) == 1
            assert len({call[:2] for call in calls}) == len(calls)
            if f is generic:
                # a refusal: shift 0 once for big_gaps, distinct_nodes and
                # width 0, then each width whose window is nonempty at some
                # order, searched up to that order: widths 1 and 2
                import affinepowers.decompose as dmod

                assert got[0] is ReconstructionFailed
                caps = {w: dmod._order_cap(f.degree, w) for w in range(1, 5)}
                assert calls == [(f, 0, None)] + [(f, w, cap) for w, cap in caps.items() if cap >= 1]
                assert [shift for _, shift, _ in calls] == [0, 1, 2]

    def test_result_always_verifies(self):
        rng = random.Random(229)
        for _ in range(5):
            target = D(
                (rng.randint(1, 5), rng.randint(-4, 4), rng.randint(12, 20)),
                (rng.randint(1, 5), rng.randint(5, 9), rng.randint(21, 30)),
            )
            f = target.expand()
            dec, _ = decompose_auto(f)
            assert dec.expand() == f


class TestSharedScan:
    """decompose_auto scans its shift-0 equation's exponents once for
    big_gaps and the first distinct_nodes pass (PendingSDE.power_solutions),
    and width 0 reuses the split of P_order, unless the equation is refused
    modulo p unlifted."""

    def test_each_exponent_scanned_once_and_one_split(self, monkeypatch):
        import affinepowers.ratroots as ratroots_mod
        import affinepowers.sde as sde_mod

        scans, refusals, splits, equations = [], [], [], []
        scan, refuses, split, derive = (
            sde_mod.power_solutions,
            sde_mod.PendingSDE.refuses,
            ratroots_mod.rational_roots_with_cofactor,
            sde_mod.find_min_sde,
        )

        def spy_scan(s, e_min, e_max):
            scans.append((s, e_min, e_max))
            return scan(s, e_min, e_max)

        def spy_refuses(eq, e_min, e_max):
            refusals.append((eq, e_min, e_max))
            return refuses(eq, e_min, e_max)

        def spy_split(f):
            splits.append(f)
            return split(f)

        def spy_derive(f, shift, max_order=None, **kwargs):
            equations.append(derive(f, shift, max_order, **kwargs))
            return equations[-1]

        monkeypatch.setattr(sde_mod, "power_solutions", spy_scan)
        monkeypatch.setattr(sde_mod.PendingSDE, "refuses", spy_refuses)
        monkeypatch.setattr(ratroots_mod, "rational_roots_with_cofactor", spy_split)
        monkeypatch.setattr(sde_mod, "find_min_sde", spy_derive)
        for f in (_generic_degree_20(), IRRATIONAL_13, D((1, 2, 7)).expand()):
            scans.clear()
            refusals.clear()
            splits.clear()
            equations.clear()
            try:
                decompose_auto(f)
            except (ReconstructionFailed, IrrationalNodeDetected):
                pass
            eq = equations[0]
            lo, deg = -(-((eq.order + 1) ** 2) // 2), f.degree
            single, peel = deg + eq.order**2 // 2, deg + (deg + 2) ** 2 // 8
            if f.degree == 20:
                # refused modulo p (its P_order is a constant) over both
                # ranges, the peel's only over the exponents past the single
                # pass's: nothing is scanned, the shift-0 equation is never
                # lifted, and nothing splits its lead
                assert eq.rootless and eq._sde is None
                assert refusals == [(eq, lo, single), (eq, single + 1, peel)]
                assert scans == [] and eq._scan[:2] == (lo, peel)
                continue
            # IRRATIONAL_13 raises within the single-pass range, and the
            # degree-7 input is answered by the single pass: the peel is not
            # scanned
            assert refusals == [(eq, lo, single)]
            assert scans == [(eq.exact(), lo, single)] and scans[0][0] is eq.exact()
            # the scan and width 0 share one split of the shift-0 P_order
            lead = eq.exact().polys[-1]
            assert [p for p in splits if p is lead] == [lead]

    def test_irrational_error_names_its_exponent(self):
        with pytest.raises(IrrationalNodeDetected) as info:
            decompose_auto(IRRATIONAL_13)
        assert info.value.exponent == 13
        assert str(info.value) == (
            "nodes at exponent 13 satisfy an irreducible condition of degree 2 with no rational root"
        )

    @pytest.mark.parametrize("first", [1, 9, 12, 13, 30])
    def test_cut_and_extended_ranges_match_one_call(self, first, monkeypatch):
        # the node condition at exponent 13 is irrational: every range
        # reaching it raises the error a call over it raises, and narrower
        # ones get that call's pairs, whichever range the scan saw first
        import affinepowers.sde as sde_mod

        eq = find_min_sde(D((1, 1, 9)).expand() + IRRATIONAL_13, 0, lazy=True)
        scan, scanned = sde_mod.power_solutions, []

        def spy_scan(s, e_min, e_max):
            scanned.append((e_min, e_max))
            return scan(s, e_min, e_max)

        def call(solver, e_max):
            try:
                return solver(1, e_max)
            except IrrationalNodeDetected as exc:
                return type(exc), str(exc), exc.exponent

        monkeypatch.setattr(sde_mod, "power_solutions", spy_scan)
        for e_max in (first, 1, 9, 12, 13, 30, 10):
            assert call(eq.power_solutions, e_max) == call(lambda lo, hi: scan(eq.exact(), lo, hi), e_max)
        assert eq._scan[3][0] == 13 and call(eq.power_solutions, 12) == [(F(1), 9)]
        # one scan raised at 13; the others, which returned, cover
        # exponents 1-12 once each
        raised = [r for r in scanned if r[0] <= 13 <= r[1]]
        returned = [e for lo, hi in scanned if (lo, hi) not in raised for e in range(lo, hi + 1)]
        assert len(raised) == 1 and returned == list(range(1, 13))

    def test_a_new_start_begins_the_memo_again(self):
        eq = find_min_sde(D((1, 1, 9)).expand() + IRRATIONAL_13, 0, lazy=True)
        assert eq.power_solutions(1, 12) == [(F(1), 9)]
        assert eq.power_solutions(10, 12) == [] and eq._scan[:2] == (10, 12)
        assert eq.power_solutions(9, 9) == [(F(1), 9)] and eq._scan[:2] == (9, 9)


class TestOrderCap:
    """decompose_small_intervals searches each width's equation only up to
    the largest order whose exponent window is nonempty."""

    def test_no_window_above_the_cap(self):
        # the cap is exact only if a window, once empty, stays empty
        import affinepowers.decompose as dmod

        caps = set()
        for deg in range(1, 201):
            for delta in range(5):
                cap = dmod._order_cap(deg, delta)
                caps.add(min(cap, 1))
                span = (delta + 1) ** 2
                for r in range(1, deg + 3):
                    # the least integer above (r+1)^2 span / 2, against
                    # deg + r^2 span / 2
                    least = (r + 1) ** 2 * span // 2 + 1
                    nonempty = 2 * least < 2 * deg + r * r * span
                    e_min, e_max = dmod._window(deg, r, delta)
                    assert (e_min <= e_max) == nonempty == (r <= cap), (deg, delta, r)
        assert caps == {0, 1}

    def test_widths_without_a_window_derive_no_equation(self, monkeypatch):
        # generic degree 20: widths 3 and 4 have an empty window at order 1
        f = _generic_degree_20()
        for delta in (3, 4):
            with monkeypatch.context() as mp:
                calls = spy_find_min_sde(mp)
                with pytest.raises(ReconstructionFailed) as info:
                    decompose_small_intervals(f, delta)
            assert calls == []
            assert str(info.value) == "exponent window is empty at every order above 0"


def _generic_degree_20() -> UniPoly:
    rng = random.Random(20)
    return UniPoly([rng.randint(-9, 9) for _ in range(20)] + [rng.choice((-7, 3, 5))])


def _distinct_nodes_3() -> UniPoly:
    return generate_instance(InstanceSpec(s=3, seed=1), "distinct_nodes")[0]


def _small_intervals_delta_1() -> UniPoly:
    return generate_instance(InstanceSpec(s=2, seed=2), "small_intervals", groups=1, delta=1)[0]


def _product_box() -> BlackBox:
    x1, x2, x3 = (MultiPoly.variable(3, i) for i in range(3))
    return BlackBox.from_multipoly(x1 * x2 * x3)


class TestCaughtErrorsLeaveNoCycles:
    # a caught strategy error must not stay in a local of a frame that its
    # traceback holds, whether the call then refuses or succeeds: that cycle
    # is freed only by the collector
    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: decompose_auto(_generic_degree_20()), ReconstructionFailed),
            (lambda: decompose_auto(IRRATIONAL_30), IrrationalNodeDetected),
            (lambda: decompose_small_intervals(_generic_degree_20()), DeltaExhausted),
            (lambda: multi_build(_product_box(), backend="big_exponents"), ReconstructionFailed),
            # big_gaps fails before distinct_nodes answers
            (lambda: decompose_auto(_distinct_nodes_3()), None),
            # width 0 fails before width 1 answers
            (lambda: decompose_small_intervals(_small_intervals_delta_1()), None),
        ],
        ids=[
            "auto-generic",
            "auto-irrational",
            "small-intervals-auto-width",
            "multi-build",
            "auto-success",
            "small-intervals-success",
        ],
    )
    def test_no_garbage(self, call, error):
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            if error is None:
                call()
            else:
                with pytest.raises(error):
                    call()
            gc.collect()
            assert [type(obj).__name__ for obj in gc.garbage] == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    @pytest.mark.parametrize(
        "call",
        [
            lambda: decompose_auto(_generic_degree_20()),
            lambda: decompose_auto(IRRATIONAL_30),
            lambda: decompose_small_intervals(_generic_degree_20()),
            lambda: multi_build(_product_box(), backend="big_exponents"),
        ],
        ids=["auto-generic", "auto-irrational", "small-intervals-auto-width", "multi-build"],
    )
    def test_causes_hold_no_traceback(self, call):
        # a kept refusal holds no strategy's frames: below the top-level
        # error no cause has a traceback, and a kept IrrationalNodeDetected
        # is raised again from decompose_auto alone
        with pytest.raises((ReconstructionFailed, IrrationalNodeDetected)) as info:
            call()
        below, exc = [], info.value
        while exc.__cause__ is not None or exc.__context__ is not None:
            exc = exc.__cause__ or exc.__context__
            below.append(exc)
        assert below or isinstance(info.value, IrrationalNodeDetected)
        assert [e.__traceback__ for e in below] == [None] * len(below)
        tb = info.value.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        if isinstance(info.value, IrrationalNodeDetected):
            assert tb.tb_frame.f_code.co_name == "decompose_auto"

    def test_refusal_keeps_no_shift_zero_equation(self):
        # a caller that keeps the error keeps the frames of its tracebacks:
        # the shared shift-0 equation must not stay alive in them
        with pytest.raises(ReconstructionFailed) as info:
            decompose_auto(_generic_degree_20())
        exc, held = info.value, []
        while exc is not None:
            tb = exc.__traceback__
            while tb is not None:
                held += [v for v in tb.tb_frame.f_locals.values() if isinstance(v, SDE) and v.shift == 0]
                tb = tb.tb_next
            exc = exc.__cause__
        assert held == []


class TestOneVerification:
    """The re-expansion in decompose._verify is the only check between a
    candidate and the caller: with Decomposition.expand made to disagree
    with the input, no strategy may return an answer."""

    SOLVED_BY_ALL = [
        UniPoly.affine_power(1, 2, 7),
        D((1, 1, 25), (2, -2, 11)).expand(),
    ]
    MESSAGE = "re-expansion does not reproduce the input"

    def solvers(self):
        import affinepowers.decompose as dmod

        return list(dmod._STRATEGIES) + [
            ("small_intervals, delta 0", lambda f: decompose_small_intervals(f, 0)),
            ("auto", decompose_auto),
        ]

    def test_inputs_are_solved_without_the_fault(self):
        for f in self.SOLVED_BY_ALL:
            for name, fn in self.solvers():
                dec = fn(f)
                if name == "auto":
                    dec = dec[0]
                assert dec.expand() == f, name

    def test_every_solver_refuses_a_failed_re_expansion(self, monkeypatch):
        calls = []
        for f in self.SOLVED_BY_ALL:
            monkeypatch.setattr(
                Decomposition, "expand", lambda dec, wrong=f + P(1): calls.append(dec) or wrong
            )
            for name, fn in self.solvers():
                calls.clear()
                with pytest.raises(ReconstructionFailed) as info:
                    fn(f)
                assert calls, name
                if name in ("small_intervals", "auto"):
                    # the width scan and the dispatcher raise their own
                    # summary, chained to the last failure they saw
                    assert isinstance(info.value.__cause__, ReconstructionFailed), name
                else:
                    assert str(info.value) == self.MESSAGE, name


class TestOutputInvariants:
    def test_exponents_within_degree_plus_half_square(self):
        cases = [
            UniPoly.affine_power(1, -1, 36) + UniPoly.affine_power(-36, 0, 35),
            D((1, 1, 25), (1, 1, 11)).expand(),
            D((1, 1, 13), (2, -2, 11)).expand(),
        ]
        for f in cases:
            dec, _ = decompose_auto(f)
            s = len(dec)
            e_max = max(t.exponent for t in dec)
            assert 2 * (e_max - f.degree) < s * s or e_max == f.degree


class TestSlottedRecords:
    def test_records_keep_no_instance_dict(self):
        # results are held by callers in bulk, so they are slotted and stay
        # frozen
        from affinepowers.classic import SparsestResult, WaringResult

        term = AffineTerm(2, F(1, 3), 5)
        records = (term, Decomposition((term,)), WaringResult(5, ((F(2), F(1, 3)),)), SparsestResult(None, None))
        for rec in records:
            assert not hasattr(rec, "__dict__"), type(rec).__name__
        with pytest.raises(dataclasses.FrozenInstanceError):
            term.coeff = F(3)

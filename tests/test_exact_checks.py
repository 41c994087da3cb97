"""The exact checks that certify the minimal-equation search and the power
solutions, and the integer back substitution of linalg.kernel.

power_solutions certifies each pair (b, e), b = a/d, by sde._power_image:
the polynomial Q with L((d x - a)^e) = (d x - a)^(e-m) * Q / l, m =
min(e, order).  It must be exactly that quotient of apply_sde on the dense
expansion, so zero exactly when the dense check is.  _lift_dependency keeps
a reconstructed equation only once apply_sde proves it annihilates f; a
wrong candidate must be rejected and the lift must go on.  kernel's integer
back substitution must return the basis of a test-local copy of the
Fraction back substitution it replaced, and solve must give the same
answers and refusals with either.
"""

import random
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from affinepowers import Inconsistent, UniPoly, apply_sde, find_min_sde, linalg, power_solutions, sde  # noqa: E402
from affinepowers.generate import InstanceSpec, generate_instance  # noqa: E402
from affinepowers.unipoly import _affine_power_ints  # noqa: E402
from test_sde_modular import CORPUS, bareiss_reference, flat  # noqa: E402

F = Fraction

nodes = st.builds(F, st.integers(-9, 9), st.integers(1, 6))


def dense_image(s, b, e) -> UniPoly:
    """apply_sde on the dense (d x - a)^e, as power_solutions checked it."""
    return apply_sde(s, UniPoly(_affine_power_ints(b.numerator, b.denominator, e)))


def assert_power_image(s, b, e):
    """_power_image is the dense image, l times, divided by (d x - a)^(e-m)."""
    q = sde._power_image(s, b, e)
    rest = UniPoly(_affine_power_ints(b.numerator, b.denominator, e - min(e, s.order)))
    dense = dense_image(s, b, e)
    assert dense * s._int_form[1] == UniPoly(q) * rest
    assert (not any(q)) == dense.is_zero()
    assert len(q) <= s.order + s.shift + 1


class TestPowerImage:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(
        st.integers(1, 4),
        st.integers(0, 2),
        st.data(),
        nodes,
        st.integers(1, 9),
    )
    def test_is_the_dense_image_on_any_equation(self, order, shift, data, b, e):
        # e below, at and above the order; fractional and negative nodes
        polys = [
            UniPoly(data.draw(st.lists(st.builds(F, st.integers(-5, 5), st.integers(1, 4)), max_size=i + shift + 1)))
            for i in range(order + 1)
        ]
        if all(p.is_zero() for p in polys):
            polys[-1] = UniPoly([1])
        assert_power_image(sde.canonical_sde(order, shift, polys), b, e)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(
        st.lists(st.tuples(nodes, st.integers(1, 9), st.integers(-3, 3).filter(bool)), min_size=1, max_size=3),
        st.integers(0, 2),
    )
    def test_zero_exactly_when_the_dense_image_is(self, terms, shift):
        # equations of sums of powers, whose terms and their neighbours are
        # tried: the true pairs give zero, most others do not
        f = sum((UniPoly.affine_power(c, b, e) for b, e, c in terms), UniPoly([]))
        if f.is_zero():
            return
        s = find_min_sde(f, shift)
        for b, e, _ in terms:
            for bb, ee in ((b, e), (b + 1, e), (b, e + 1), (b - F(1, 2), e), (b, max(e - 1, 1))):
                assert_power_image(s, bb, ee)

    def planted(self):
        for regime, seed in (("big_exponents", 5), ("distinct_nodes", 3), ("big_gaps", 2)):
            spec = InstanceSpec(s=3, seed=seed, repeated_nodes=regime == "big_gaps")
            f, terms = generate_instance(spec, regime)
            yield find_min_sde(f, 0), terms

    def test_planted_pairs_are_zero_and_wrong_pairs_are_not(self):
        for s, terms in self.planted():
            for t in terms:
                assert not any(sde._power_image(s, t.node, t.exponent))
                assert any(sde._power_image(s, t.node + 1, t.exponent))
                assert any(sde._power_image(s, t.node, t.exponent + 1))

    def test_wrong_pair_from_the_search_raises(self, monkeypatch):
        # every exponent of the range passes the patched search at every
        # rational root of the lead, so wrong pairs reach the certificate
        s = find_min_sde(UniPoly.affine_power(1, F(-2, 3), 12) + UniPoly.affine_power(2, 5, 9), 0)
        assert power_solutions(s, 1, 20) == [(F(5), 9), (F(-2, 3), 12)]
        monkeypatch.setattr(sde, "_integer_roots", lambda row, lo, hi: list(range(lo, hi + 1)))
        monkeypatch.setattr(sde, "_image", lambda rows, m: [0])
        with pytest.raises(RuntimeError, match="^power solution failed verification$"):
            power_solutions(s, 1, 20)


class TestLiftCheck:
    @pytest.mark.parametrize("prime", [None, 3])
    def test_a_wrong_first_candidate_is_rejected_and_the_lift_goes_on(self, prime, monkeypatch):
        if prime:
            monkeypatch.setattr(sde.ratroots, "_PRIMES", (prime,))
        # a lift's first attempt is at the pass's prime, or at the lift
        # prime for a forced equation
        first = {sde.ratroots._PRIMES[0], sde.ratroots._LIFT_PRIME}
        reconstruct, apply = sde._reconstruct_vector, sde.apply_sde
        attempts, verdicts = [], []

        def wrong_first(xs, modulus):
            vec = reconstruct(xs, modulus)
            attempts.append(modulus)
            if modulus not in first:  # later attempts are left alone
                return vec
            vec = vec or [1] * (len(xs) + 1)
            attempts.append("wrong")
            return [vec[0] + 1, *vec[1:]]

        def spy_apply(s, f):
            image = apply(s, f)
            if attempts and attempts[-1] == "wrong":
                verdicts.append(image.is_zero())
                attempts.append("checked")
            return image

        monkeypatch.setattr(sde, "_reconstruct_vector", wrong_first)
        monkeypatch.setattr(sde, "apply_sde", spy_apply)
        for f, shift, max_order in CORPUS:
            start = len(attempts)
            assert flat(find_min_sde(f, shift, max_order)) == bareiss_reference(f, shift, max_order)
            lifts = attempts[start:].count("wrong")
            # each lift went on past its wrong candidate, to a later attempt
            assert sum(type(a) is int and a not in first for a in attempts[start:]) >= lifts
        assert verdicts and not any(verdicts)


def old_kernel(m: linalg.IntMatrix) -> list[tuple[Fraction, ...]]:
    """kernel with the Fraction back substitution it had before: x[fc] = 1
    and every pivot entry divided out in Fractions."""
    mat = [list(r) for r in m.entries]
    pivots = linalg._bareiss(mat)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        x = [F(0)] * m.cols
        x[fc] = F(1)
        for i in range(len(pivots) - 1, -1, -1):
            pc = pivots[i]
            s = sum((mat[i][j] * x[j] for j in range(pc + 1, m.cols) if mat[i][j] and x[j]), F(0))
            x[pc] = -s / mat[i][pc]
        basis.append(linalg._canonical_int_vector(x))
    return basis


@st.composite
def matrices(draw):
    """Small integer matrices made rank-deficient on purpose: columns drawn
    fresh, zero, repeated or combined from earlier ones, and rows repeated."""
    n_rows, n_cols = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    entry = st.one_of(st.integers(-4, 4), st.integers(-(10**12), 10**12))
    cols: list[list[int]] = []
    for _ in range(n_cols):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "copy", "combine"]) if cols else st.just("fresh"))
        if kind == "fresh":
            cols.append(draw(st.lists(entry, min_size=n_rows, max_size=n_rows)))
        elif kind == "zero":
            cols.append([0] * n_rows)
        elif kind == "copy":
            cols.append(list(draw(st.sampled_from(cols))))
        else:
            u, v = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            cols.append([a * x + b * y for x, y in zip(u, v)])
    rows = [list(r) for r in zip(*cols)]
    rows += [list(draw(st.sampled_from(rows))) for _ in range(draw(st.integers(0, 2)))]
    return linalg.IntMatrix.from_rows(rows)


def solve_outcome(m, rhs):
    try:
        return linalg.solve(m, rhs)
    except Inconsistent as exc:
        return type(exc), str(exc)


class TestKernelBackSubstitution:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(matrices())
    def test_kernel_matches_the_fraction_back_substitution(self, m):
        assert linalg.kernel(m) == old_kernel(m)

    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(matrices(), st.data())
    def test_solve_matches_with_the_fraction_back_substitution(self, m, data):
        # rhs either in the column space (consistent, unique or not) or drawn
        # freely (inconsistent wherever the rank is below the row count)
        if data.draw(st.booleans()):
            x = data.draw(st.lists(st.integers(-5, 5), min_size=m.cols, max_size=m.cols))
            rhs = [sum(a * v for a, v in zip(row, x)) for row in m.entries]
        else:
            rhs = data.draw(st.lists(st.integers(-9, 9), min_size=m.rows, max_size=m.rows))
        new = solve_outcome(m, rhs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "kernel", old_kernel)
            assert new == solve_outcome(m, rhs)

    def test_fixed_cases_reach_every_branch(self, monkeypatch):
        # several free columns, a zero and a repeated column, a repeated row;
        # solve's inconsistent, non-unique and unique answers
        m = linalg.IntMatrix.from_rows([[0, 2, 4, 2, 1, 0], [0, 1, 2, 1, 3, 5], [0, 2, 4, 2, 1, 0]])
        square = linalg.IntMatrix.from_rows([[2, 1], [1, 3]])
        rng = random.Random(28)
        wide = linalg.IntMatrix.from_rows([[rng.randint(-(10**15), 10**15) for _ in range(8)] for _ in range(5)])
        cases = [(m, [1, 0, 2]), (m, [3, 9, 3]), (square, [5, 10]), (wide, [1, 2, 3, 4, 5])]
        new = [(linalg.kernel(a), solve_outcome(a, rhs)) for a, rhs in cases]
        assert len(new[0][0]) == 4 and len(new[3][0]) == 3
        assert new[0][1] == (Inconsistent, "no solution exists")
        assert not new[1][1].unique and new[3][1].unique is False
        assert new[2][1] == linalg.SolveResult((F(1), F(3)), unique=True)
        monkeypatch.setattr(linalg, "kernel", old_kernel)
        assert new == [(old_kernel(a), solve_outcome(a, rhs)) for a, rhs in cases]

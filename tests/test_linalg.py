"""Tests for exact integer linear algebra (Bareiss-based)."""

import random
from fractions import Fraction

import pytest

from affinepowers import DimensionMismatch, Inconsistent, linalg
from affinepowers.linalg import IntMatrix, kernel, solve
from affinepowers.unipoly import _clear_denominators

F = Fraction


def M(rows) -> IntMatrix:
    """Integer matrix from rational rows, each cleared of its denominators
    (row scaling keeps the null space)."""
    return IntMatrix.from_rows(_clear_denominators([F(v) for v in row])[0] for row in rows)


def system(rows, rhs) -> tuple[IntMatrix, list[int]]:
    """Integer system from a rational one, each row cleared together with
    its rhs entry (row scaling keeps the solution set)."""
    cleared = [_clear_denominators([*map(F, row), F(v)])[0] for row, v in zip(rows, rhs)]
    return IntMatrix.from_rows(r[:-1] for r in cleared), [r[-1] for r in cleared]


def eye(n) -> IntMatrix:
    return IntMatrix.from_rows([[int(i == j) for j in range(n)] for i in range(n)])


def mat_vec(rows, vec) -> list:
    return [sum(a * v for a, v in zip(row, vec)) for row in rows]


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix(m.cols, m.rows, tuple(zip(*m.entries)) if m.rows else ((),) * m.cols)


def rank(m: IntMatrix) -> int:
    """Row count less the nullity of the transpose: an independent reading
    of the rank next to cols - len(kernel(m))."""
    return m.rows - len(kernel(transpose(m)))


def random_rows(rng, rows, cols, den=3):
    return [
        [F(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(cols)]
        for _ in range(rows)
    ]


class TestIntMatrix:
    def test_identity(self):
        m = eye(3)
        assert m.rows == m.cols == 3
        assert kernel(m) == []
        assert solve(m, [1, 2, 3]).vector == (F(1), F(2), F(3))

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatch):
            IntMatrix.from_rows([[1, 2], [3]])

    @pytest.mark.parametrize("bad", [F(1, 2), F(2), 1.0, True, "1"], ids=repr)
    def test_non_integer_entries_rejected(self, bad):
        with pytest.raises(TypeError):
            IntMatrix.from_rows([[1, 2], [3, bad]])

    def test_empty(self):
        m = IntMatrix.from_rows([])
        assert (m.rows, m.cols, m.entries) == (0, 0, ())
        assert kernel(m) == []
        assert solve(m, []) == linalg.SolveResult((), True)


class TestRank:
    """Rank cases read as nullities: cols - rank vectors in the kernel."""

    def test_zero_matrix(self):
        assert len(kernel(M([[0, 0], [0, 0]]))) == 2

    def test_identity_full_rank(self):
        assert kernel(eye(4)) == []

    def test_repeated_rows(self):
        assert len(kernel(M([[1, 1, 1], [1, 1, 1], [1, 1, 1]]))) == 2

    def test_rank_of_product_structure(self):
        # rows are multiples of (1, 2, 3)
        a = M([[1, 2, 3], [2, 4, 6], [-1, -2, -3]])
        assert len(kernel(a)) == 2

    def test_fractional_entries(self):
        a = M([[F(1, 2), F(1, 3)], [F(1, 3), F(1, 2)]])
        assert kernel(a) == []
        # and a genuinely proportional fractional pair collapses
        assert len(kernel(M([[F(1, 2), F(1, 3)], [F(3, 2), F(1, 1)]]))) == 1


class TestSolve:
    def test_identity_system(self):
        res = solve(eye(2), [5, -7])
        assert res.vector == (F(5), F(-7))
        assert res.unique

    def test_unique_2x2(self):
        res = solve(M([[2, 1], [1, 3]]), [5, 10])
        assert res.vector == (F(1), F(3))
        assert res.unique

    def test_inconsistent(self):
        with pytest.raises(Inconsistent):
            solve(M([[1, 1], [1, 1]]), [1, 2])

    def test_underdetermined_flags_nonunique(self):
        res = solve(M([[1, 1]]), [2])
        assert not res.unique
        # returned vector is still a genuine solution
        assert sum(res.vector) == F(2)

    def test_overdetermined_consistent(self):
        # three stacked copies of the same equation pair
        a = M([[1, 0], [0, 1], [1, 1]])
        res = solve(a, [2, 3, 5])
        assert res.vector == (F(2), F(3))
        assert res.unique

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve(M([[1, 2]]), [1, 2])

    def test_fractional_solution(self):
        res = solve(M([[2, 0], [0, 3]]), [1, 1])
        assert res.vector == (F(1, 2), F(1, 3))

    @pytest.mark.parametrize("bad", [F(1, 2), F(2), 1.0, True], ids=repr)
    def test_rhs_must_be_integers(self, bad):
        with pytest.raises(TypeError):
            solve(M([[2, 0], [0, 3]]), [1, bad])

    def test_no_unknowns(self):
        m = IntMatrix.from_rows([[], []])
        assert solve(m, [0, 0]).vector == ()
        with pytest.raises(Inconsistent, match="no unknowns"):
            solve(m, [0, 1])

    def test_random_solvable_systems_exact(self):
        rng = random.Random(101)
        for _ in range(25):
            rows = rng.randint(1, 12)
            cols = rng.randint(1, 12)
            a = random_rows(rng, rows, cols)
            x0 = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(cols)]
            b = mat_vec(a, x0)
            res = solve(*system(a, b))
            assert mat_vec(a, res.vector) == b

    def test_unique_flag_matches_rank(self):
        rng = random.Random(103)
        for _ in range(20):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            a = random_rows(rng, rows, cols)
            x0 = [F(rng.randint(-5, 5)) for _ in range(cols)]
            res = solve(*system(a, mat_vec(a, x0)))
            assert res.unique == (rank(M(a)) == cols)


class TestKernel:
    def test_trivial_kernel(self):
        assert kernel(eye(3)) == []

    def test_one_dimensional(self):
        assert kernel(M([[1, 1]])) == [(F(1), F(-1))]

    def test_kernel_vectors_are_canonical_primitive(self):
        vecs = kernel(M([[F(1, 2), F(1, 2)]]))
        assert len(vecs) == 1
        v = vecs[0]
        # integer entries, first nonzero positive, content 1
        assert all(c.denominator == 1 for c in v)
        first = next(c for c in v if c)
        assert first > 0

    def test_two_dimensional(self):
        a = M([[1, 2, 3], [2, 4, 6]])
        vecs = kernel(a)
        assert len(vecs) == 2
        for v in vecs:
            assert mat_vec(a.entries, v) == [0, 0]

    def test_rank_nullity_random(self):
        rng = random.Random(107)
        for _ in range(25):
            rows = rng.randint(1, 12)
            cols = rng.randint(1, 12)
            a = M(random_rows(rng, rows, cols))
            vecs = kernel(a)
            assert rank(a) + len(vecs) == cols
            for v in vecs:
                assert mat_vec(a.entries, v) == [0] * rows
            if vecs:
                # basis vectors are independent: stack them as rows
                assert rank(M(vecs)) == len(vecs)

    def test_kernel_determinism(self):
        a = M([[1, 2, 3, 4], [4, 3, 2, 1]])
        assert kernel(a) == kernel(a)

    def test_wide_zero_matrix(self):
        a = M([[0, 0, 0]])
        vecs = kernel(a)
        assert len(vecs) == 3

    def test_zero_rows(self):
        vecs = kernel(IntMatrix(0, 3, ()))
        assert vecs == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


class TestVerification:
    """A wrong elimination must be caught by the integer check, not returned."""

    @pytest.fixture
    def corrupt_bareiss(self, monkeypatch):
        real = linalg._bareiss

        def corrupted(mat):
            pivots = real(mat)
            mat[0][-1] += 1
            return pivots

        monkeypatch.setattr(linalg, "_bareiss", corrupted)

    def test_kernel(self, corrupt_bareiss):
        with pytest.raises(RuntimeError, match="^kernel verification failed$"):
            kernel(M([[1, 2, 3], [4, 5, 6]]))

    def test_solve(self, corrupt_bareiss):
        with pytest.raises(RuntimeError, match="^kernel verification failed$"):
            solve(M([[2, 1], [1, 3]]), [5, 10])


def sympy_cases():
    """Seeded integer matrices: full rank, rank deficient (a product of thin
    factors), zero rows, wide and tall."""
    rng = random.Random(211)

    def rand(rows, cols, bound=9):
        return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]

    cases = [IntMatrix(0, cols, ()) for cols in (1, 4)]
    for _ in range(30):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        if rng.random() < 0.5:
            inner = rng.randint(1, min(rows, cols))
            left, right = rand(rows, inner, 4), rand(inner, cols, 4)
            right_cols = list(zip(*right))
            cases.append(IntMatrix.from_rows(mat_vec(right_cols, row) for row in left))
        else:
            cases.append(IntMatrix.from_rows(rand(rows, cols)))
    cases.append(IntMatrix.from_rows(rand(2, 7)))
    cases.append(IntMatrix.from_rows([[0] * 5, [0] * 5]))
    return cases


class TestAgainstSympy:
    """Differential tests against sympy's exact rational elimination."""

    @pytest.fixture(autouse=True)
    def sympy(self):
        return pytest.importorskip("sympy")

    @staticmethod
    def to_sympy(sympy, m: IntMatrix):
        return sympy.Matrix(m.rows, m.cols, [v for row in m.entries for v in row])

    @pytest.mark.parametrize("m", sympy_cases())
    def test_kernel_matches_nullspace(self, sympy, m):
        ref = [linalg._canonical_int_vector([F(int(c.p), int(c.q)) for c in v])
               for v in self.to_sympy(sympy, m).nullspace()]
        assert kernel(m) == ref
        assert all(type(v) is int for vec in kernel(m) for v in vec)
        assert m.cols - len(kernel(m)) == self.to_sympy(sympy, m).rank()

    @pytest.mark.parametrize("m", sympy_cases())
    def test_solve_matches_gauss_jordan(self, sympy, m):
        rng = random.Random(m.rows * 31 + m.cols)
        a = self.to_sympy(sympy, m)
        for consistent in (True, False):
            if consistent:
                x0 = [rng.randint(-5, 5) for _ in range(m.cols)]
                b = mat_vec(m.entries, x0)
            else:
                b = [rng.randint(-5, 5) for _ in range(m.rows)]
            aug_rank = a.row_join(sympy.Matrix(m.rows, 1, b)).rank()
            if aug_rank > a.rank():
                with pytest.raises(Inconsistent):
                    solve(m, b)
                continue
            sol, params = a.gauss_jordan_solve(sympy.Matrix(m.rows, 1, b))
            ref = sol.subs({t: 0 for t in params})
            res = solve(m, b)
            assert res.vector == tuple(F(int(c.p), int(c.q)) for c in ref)
            assert res.unique == (a.rank() == m.cols)

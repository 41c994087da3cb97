"""shifted_poly_solutions in the node basis against the dense computation.

shifted_poly_solutions solves each exponent's kernel on the window of
L((x - c)^m) in the basis y = x - c and returns the solutions there.  The
reference below is the dense computation in x: the equation applied to
expanded powers (x - c)^m, one kernel per exponent over all x-degrees, and
the independence test on dense rational coefficient vectors.  Expanded to x
and scaled to primitive integers (solutions_in_x), the solutions must equal
the reference list.  A sympy check (optional) confirms the solutions and the
dimension independently.

shifted_poly_solutions solves a kernel only at exponents within delta below
an integer root of the indicial polynomial, and keeps the candidates that
are pivot columns of one Bareiss elimination.  unfiltered_scan is the loop
without that filter, one kernel at every exponent of the range, keeping each
candidate that a sparse elimination over Q (keep_if_independent) finds
independent of those kept before it; shifted_poly_solutions must return its
list exactly, and kernel_inputs shows which windows the filtered scan solved.
"""

import math
import operator
from fractions import Fraction

import pytest

from affinepowers import (
    SDE,
    UniPoly,
    apply_sde,
    find_min_sde,
    linalg,
    rational_roots,
    ratroots,
    sde,
    shifted_poly_solutions,
)
from affinepowers.generate import InstanceSpec, generate_instance
from affinepowers.unipoly import _clear_denominators

F = Fraction


def solutions_in_x(s: SDE, node, delta: int, e_min: int, e_max: int) -> list[UniPoly]:
    """shifted_poly_solutions expanded from the node basis to x, each
    scaled to primitive integer coefficients."""
    out = []
    for sol in shifted_poly_solutions(s, node, delta, e_min, e_max):
        combo = UniPoly()
        for k, coef in sol.items():
            combo = combo + UniPoly.affine_power(coef, node, k)
        out.append(UniPoly(ratroots.to_primitive_int(combo)))
    return out


def dense_reference(s: SDE, node, delta: int, e_min: int, e_max: int) -> list[UniPoly]:
    """The same basis from dense expansions of (x - node)^m in x."""
    if e_min > e_max:
        return []
    c = F(node)
    powers = {m: UniPoly.affine_power(1, c, m) for m in range(e_min, e_max + delta + 1)}
    applied = {m: apply_sde(s, p) for m, p in powers.items()}
    kept: list[UniPoly] = []
    registry: list[tuple[int, list[Fraction]]] = []  # (pivot, row normalized there)
    for e in range(e_min, e_max + 1):
        n_rows = max(1, max(applied[e + t].degree for t in range(delta + 1)) + 1)
        mat = [[applied[e + t].coeff(r) for t in range(delta + 1)] for r in range(n_rows)]
        for vec in linalg.kernel(linalg.IntMatrix.from_rows(_clear_denominators(row)[0] for row in mat)):
            combo = UniPoly()
            for t, coef in enumerate(vec):
                combo = combo + powers[e + t].scale(coef)
            row = list(combo.coeffs)
            for pivot, kept_row in registry:
                if pivot < len(row) and row[pivot]:
                    factor = row[pivot]
                    row += [F(0)] * (len(kept_row) - len(row))
                    for j in range(pivot, len(kept_row)):
                        row[j] -= factor * kept_row[j]
            pivot = next((i for i, v in enumerate(row) if v), None)
            if pivot is None:
                continue
            registry.append((pivot, [v / row[pivot] for v in row]))
            kept.append(UniPoly(ratroots.to_primitive_int(combo)))
    return kept


def unfiltered_windows(s: SDE, node, delta: int, e_min: int, e_max: int) -> dict:
    """{e: window matrix at e} for every exponent of the range, built as
    shifted_poly_solutions built them before the indicial filter."""
    rows = list(sde._rows_at_node(sde._node_table(s), F(node)))
    # windows[m - e_min][j]: the y^(m-order+j) entry of L((x - node)^m)
    windows = []
    for m in range(e_min, e_max + delta + 1):
        falls = [math.perm(m, i) for i in range(s.order + 1)]
        windows.append([sum(map(operator.mul, falls, row)) for row in rows])
    out = {}
    for e in range(e_min, e_max + 1):
        # column t on y^(e-order)..y^(e+delta+shift), negative powers dropped
        cols = [[0] * t + windows[e - e_min + t] + [0] * (delta - t) for t in range(delta + 1)]
        out[e] = list(zip(*cols))[max(s.order - e, 0) :]
    return out


def keep_if_independent(vec: dict, registry: dict) -> bool:
    """Reduce the sparse rational vector vec against registry (rows keyed by
    their lowest index, normalized to 1 there); store it and return True
    when it is not in their span."""
    while vec:
        m = min(vec)
        row = registry.get(m)
        if row is None:
            inv = Fraction(1, vec[m])
            registry[m] = {k: v * inv for k, v in vec.items()}
            return True
        factor = vec[m]
        for k, v in row.items():
            rest = vec.get(k, 0) - factor * v
            if rest:
                vec[k] = rest
            else:
                vec.pop(k, None)
    return False


def unfiltered_scan(s: SDE, node, delta: int, e_min: int, e_max: int) -> list[dict]:
    """shifted_poly_solutions without the indicial filter and without
    Bareiss: a kernel at every exponent of the range, each candidate kept
    when a sparse elimination over Q finds it independent of those kept
    before it."""
    if e_min > e_max:
        return []
    kept: list[dict] = []
    registry: dict = {}
    for e, mat in unfiltered_windows(s, node, delta, e_min, e_max).items():
        for vec in linalg.kernel(linalg.IntMatrix.from_rows(mat)):
            sol = {e + t: v for t, v in enumerate(vec) if v}
            if keep_if_independent(dict(sol), registry):
                kept.append(sol)
    return kept


def kernel_inputs(monkeypatch, s: SDE, node, delta: int, e_min: int, e_max: int):
    """shifted_poly_solutions and the matrices, in call order, that it
    passed to linalg.kernel, as tuples of rows."""
    seen = []
    kernel = linalg.kernel

    def spy(m):
        seen.append(m.entries)
        return kernel(m)

    monkeypatch.setattr(sde.linalg, "kernel", spy)
    try:
        got = shifted_poly_solutions(s, node, delta, e_min, e_max)
    finally:
        monkeypatch.setattr(sde.linalg, "kernel", kernel)
    return got, seen


def window_entries(s: SDE, node, delta: int, e_min: int, e_max: int, exponents) -> list:
    """The unfiltered window matrices at the given exponents, as tuples of rows."""
    windows = unfiltered_windows(s, node, delta, e_min, e_max)
    return [tuple(map(tuple, windows[e])) for e in exponents]


def small_intervals_cases(groups: int, delta: int, seeds):
    """(equation, node, e_min, e_max, planted) as decompose_small_intervals
    builds them, with the exponent window cut to 12 exponents around the
    planted ones to keep the dense reference fast."""
    out = []
    for seed in seeds:
        f, planted = generate_instance(
            InstanceSpec(s=groups + delta, seed=seed),
            "small_intervals",
            groups=groups,
            delta=delta,
        )
        eq = find_min_sde(f, delta)
        nodes = {t.node for t in planted}
        candidates = sorted(rational_roots(eq.polys[eq.order]))
        assert nodes <= set(candidates)
        for c in candidates:
            low = min(t.exponent for t in planted if t.node == c or c not in nodes) - delta - 2
            out.append((eq, c, low, low + 11, c in nodes))
    return out


@pytest.mark.parametrize("groups", [1, 2])
@pytest.mark.parametrize("delta", [0, 1, 2, 3])
def test_matches_dense_on_small_intervals_equations(groups, delta):
    seeds = range(40 + 10 * delta, 42 + 10 * delta)
    for eq, c, e_min, e_max, planted in small_intervals_cases(groups, delta, seeds):
        got = solutions_in_x(eq, c, delta, e_min, e_max)
        assert bool(got) == planted
        assert got == dense_reference(eq, c, delta, e_min, e_max)


def test_matches_dense_on_full_window():
    # the exponent window decompose_small_intervals uses, uncut
    f, planted = generate_instance(InstanceSpec(s=2, seed=3), "small_intervals", groups=1, delta=1)
    eq = find_min_sde(f, 1)
    span = 4
    e_min = (eq.order + 1) ** 2 * span // 2 + 1
    e_max = math.ceil(F(f.degree) + F(eq.order**2 * span, 2)) - 1
    c = planted.terms[0].node
    got = solutions_in_x(eq, c, 1, e_min, e_max)
    assert got == dense_reference(eq, c, 1, e_min, e_max)
    assert got


@pytest.mark.parametrize("nodes", [(F(3, 2), F(-2, 5)), (F(-7, 3), F(1, 4))])
@pytest.mark.parametrize("delta", [0, 1, 2])
def test_nodes_with_denominators(nodes, delta):
    a, b = nodes
    f = (
        UniPoly((1, 2, F(1, 3))[: delta + 1]) * UniPoly.affine_power(3, a, 14)
        + UniPoly.affine_power(F(-5, 7), b, 13)
    )
    eq = find_min_sde(f, delta)
    for c in (a, b, F(1, 3)):
        got = solutions_in_x(eq, c, delta, 9, 18)
        assert got == dense_reference(eq, c, delta, 9, 18)
        if c != F(1, 3):
            assert got


# L = (x-1)^2 g'' - 6 (x-1) g' + 12 g maps (x-1)^m to (m-3)(m-4) (x-1)^m
EULER = SDE(2, 0, (UniPoly((12,)), UniPoly((6, -6)), UniPoly((1, -2, 1))))
# P_1 = 0 and shift 1: (x-1)^2 (x-5) g'' - 6 (x-5) g maps (x-1)^m to
# (m^2 - m - 6) (x-1)^m (x-5)
GAPPED = SDE(2, 1, (UniPoly((30, -6)), UniPoly(), UniPoly((-5, 11, -7, 1))))


@pytest.mark.parametrize("s", [EULER, GAPPED])
@pytest.mark.parametrize("node", [F(1), F(5), F(0), F(1, 2)])
@pytest.mark.parametrize("delta", [0, 1, 2])
def test_low_exponents_and_zero_coefficients(s, node, delta):
    # e_min = 1 <= order: the falling factorials m!/(m-i)! vanish for i > m
    got = solutions_in_x(s, node, delta, 1, 9)
    assert got == dense_reference(s, node, delta, 1, 9)
    for g in got:
        assert apply_sde(s, g).is_zero()


def test_gapped_equation_solutions():
    # each solution is its kernel vector on the powers (x - node)^k
    assert shifted_poly_solutions(GAPPED, 1, 1, 1, 9) == [{3: 1}]
    assert solutions_in_x(GAPPED, 1, 1, 1, 9) == [UniPoly.affine_power(1, 1, 3)]
    assert solutions_in_x(GAPPED, 5, 1, 1, 9) == []


def test_empty_and_full_kernels(monkeypatch):
    sizes = []
    solved = []
    kernel = linalg.kernel

    def spy(m):
        basis = kernel(m)
        sizes.append((m.cols, len(basis)))
        solved.append(m.entries)
        return basis

    monkeypatch.setattr(sde.linalg, "kernel", spy)
    got = solutions_in_x(EULER, 1, 1, 2, 6)
    # (x-1)^3 and (x-1)^4 solve: the window at e = 3 is all zero
    assert got == [UniPoly.affine_power(1, 1, 3), UniPoly.affine_power(1, 1, 4)]
    assert (2, 2) in sizes  # full kernel
    monkeypatch.setattr(sde.linalg, "kernel", kernel)
    # the filter skips only empty kernels: the unfiltered window at every
    # exponent whose kernel was not solved has none
    skipped = {
        e: mat
        for e, mat in unfiltered_windows(EULER, 1, 1, 2, 6).items()
        if tuple(map(tuple, mat)) not in solved
    }
    assert sorted(skipped) == [5, 6]
    for mat in skipped.values():
        assert linalg.kernel(linalg.IntMatrix.from_rows(mat)) == []
    assert got == dense_reference(EULER, 1, 1, 2, 6)


def filter_cases(delta: int, seeds):
    """(equation, nodes, ranges) on small_intervals-generated equations of
    shift delta: the rational roots of P_order and two nodes that are none,
    and ranges from e = 1, from the order and around deg(f)."""
    out = []
    for seed in seeds:
        for groups in (1, 2):
            f, _ = generate_instance(
                InstanceSpec(s=groups * (delta + 1), seed=seed),
                "small_intervals",
                groups=groups,
                delta=delta,
            )
            eq = find_min_sde(f, delta)
            roots = set(rational_roots(eq.polys[eq.order]))
            r, d = eq.order, f.degree
            ranges = [(1, r + 8), (r, r + 12), (max(1, d - 12), d + 4)]
            out.append((eq, sorted(roots | {F(0), F(1, 3)}), ranges))
    return out


@pytest.mark.parametrize("delta", [0, 1, 2, 3])
def test_filter_matches_unfiltered_scan(delta):
    found = 0
    for eq, nodes, ranges in filter_cases(delta, range(70 + 10 * delta, 73 + 10 * delta)):
        for c in nodes:
            for e_min, e_max in ranges:
                for width in range(4):
                    got = shifted_poly_solutions(eq, c, width, e_min, e_max)
                    assert got == unfiltered_scan(eq, c, width, e_min, e_max)
                    found += len(got)
    assert found


def near_roots(roots, delta: int, e_min: int, e_max: int) -> list[int]:
    """The exponents within delta below one of the roots."""
    return [e for e in range(e_min, e_max + 1) if any(e <= r <= e + delta for r in roots)]


@pytest.mark.parametrize("delta", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "s, node, roots",
    [
        (EULER, F(1), (3, 4)),  # I(m) = (m - 3)(m - 4)
        (GAPPED, F(1), (3,)),  # I(m) = -4 (m - 3)(m + 2)
        (GAPPED, F(5), (0, 1)),  # I(m) = 16 m (m - 1): a root below the order
        (EULER, F(0), (0, 1)),  # P_2(0) != 0: I(m) = m (m - 1), roots below the order
    ],
)
def test_kernels_solved_only_near_indicial_roots(monkeypatch, s, node, delta, roots):
    # ranges from e = 1 start below the order 2 of both equations
    got, seen = kernel_inputs(monkeypatch, s, node, delta, 1, 9)
    assert seen == window_entries(s, node, delta, 1, 9, near_roots(roots, delta, 1, 9))
    assert got == unfiltered_scan(s, node, delta, 1, 9)


def test_euler_kernels_at_two_three_four(monkeypatch):
    got, seen = kernel_inputs(monkeypatch, EULER, 1, 1, 1, 9)
    assert seen == window_entries(EULER, 1, 1, 1, 9, [2, 3, 4])
    assert got == [{3: 1}, {4: 1}]


def test_window_matches_dense_application():
    # the node table at c, combined with perm(m, i), is the dense image of
    # (x - c)^m read in the basis x - c, for m below, at and above the order
    eq = find_min_sde(UniPoly.affine_power(2, F(1, 3), 9) + UniPoly.affine_power(1, -2, 8), 1)
    table = sde._node_table(eq)
    assert len(table) == eq.order + eq.shift + 1
    top = max(p.degree for p in eq.polys)
    exponents = (1, eq.order - 1, eq.order, eq.order + 1, 7, 9)
    assert min(exponents) < eq.order < max(exponents)
    for c in (F(1, 3), F(-2), F(5, 7)):
        scale = F(c.denominator) ** top
        rows = list(sde._rows_at_node(table, c))
        # the symbolic rows evaluated at c, scaled by d^D
        assert rows == [
            [sum(v * c**k for k, v in enumerate(w)) * scale for w in row] for row in table
        ]
        for m in exponents:
            # entry j is the coefficient of (x - c)^(m - order + j)
            image = {
                m - eq.order + j: sum(math.perm(m, i) * v for i, v in enumerate(row)) / scale
                for j, row in enumerate(rows)
            }
            assert not any(v for k, v in image.items() if k < 0)
            dense = apply_sde(eq, UniPoly.affine_power(1, c, m)).taylor_shift(c)
            assert max(len(dense.coeffs) - 1, 0) <= m + eq.shift
            assert [image.get(k, 0) for k in range(m + eq.shift + 1)] == [
                dense.coeff(k) for k in range(m + eq.shift + 1)
            ]


def test_sympy_dimension_and_annihilation():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")

    def rat(v):
        return sympy.Rational(v.numerator, v.denominator)

    cases = [(EULER, F(1), 1, 1, 7), (GAPPED, F(1), 2, 1, 7)]
    f, planted = generate_instance(InstanceSpec(s=3, seed=11), "small_intervals", groups=1, delta=2)
    eq = find_min_sde(f, 2)
    low = min(t.exponent for t in planted) - 4
    cases.append((eq, planted.terms[0].node, 2, low, low + 8))
    f = UniPoly((1, F(1, 2))) * UniPoly.affine_power(1, F(3, 2), 10)
    f = f + UniPoly.affine_power(2, -1, 9)
    eq = find_min_sde(f, 1)
    cases += [(eq, F(3, 2), 1, 5, 12), (eq, F(-1), 1, 5, 12)]
    for s, c, delta, e_min, e_max in cases:
        polys = [
            sympy.Add(*(rat(v) * x**k for k, v in enumerate(p.coeffs)))
            for p in s.polys
        ]

        def apply(g):
            return sum(
                (p * sympy.diff(g, x, i) for i, p in enumerate(polys)),
                sympy.Integer(0),
            )

        got = solutions_in_x(s, c, delta, e_min, e_max)
        for g in got:
            expr = sum(sympy.Integer(int(v)) * x**k for k, v in enumerate(g.coeffs))
            assert sympy.expand(apply(expr)) == 0
        # the span of the solutions in every window, from sympy nullspaces
        cs = rat(c)
        top = e_max + delta
        vectors = []
        for e in range(e_min, e_max + 1):
            cols = [
                sympy.Poly(sympy.expand(apply((x - cs) ** (e + t))), x) for t in range(delta + 1)
            ]
            rows = max([p.degree() for p in cols if not p.is_zero], default=0) + 1
            mat = sympy.Matrix(rows, delta + 1, lambda r, t: cols[t].coeff_monomial(x**r))
            for v in mat.nullspace():
                g = sum(v[t] * (x - cs) ** (e + t) for t in range(delta + 1))
                g = sympy.Poly(sympy.expand(g), x)
                vectors.append([g.coeff_monomial(x**k) for k in range(top + 1)])
        dim = sympy.Matrix(vectors).rank() if vectors else 0
        assert len(got) == dim

"""Tests for exact matrices, subspaces, and integer lattices."""

import math
import random
from fractions import Fraction as F

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form
from hypothesis import given, settings, strategies as st

from ordembed.errors import DimensionMismatch, NotInvariant
from ordembed.linalg import (
    Lattice,
    MatQ,
    RowSolver,
    Subspace,
    clear_denominators,
    hnf,
    int_kernel,
    inverse,
    kernel,
    kron,
    lattice_intersect_subspace,
    left_kernel,
    mat_hstack,
    mat_unvec,
    mat_vec_of,
    op_apply,
    rank,
    rational_row,
    row_times_mat,
    rref,
    saturation,
    snf,
    solve_row,
)
from ordembed.samples import quaternion_algebra
from ordembed.wedderburn import restrict_op
from strategies import nonzero_scales, wide_entries

small_entries = st.fractions(min_value=-9, max_value=9, max_denominator=4)


@st.composite
def matrices(draw, max_rows=4, max_cols=5):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    rows = [[draw(small_entries) for _ in range(c)] for _ in range(r)]
    return MatQ.from_rows(rows)


@st.composite
def int_matrices(draw, max_rows=4, max_cols=4, bound=9):
    r = draw(st.integers(1, max_rows))
    c = draw(st.integers(1, max_cols))
    return [[draw(st.integers(-bound, bound)) for _ in range(c)] for _ in range(r)]


def random_unimodular(n, rng, steps=12):
    """Product of integer elementary row operations applied to the identity."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        if rng.random() < 0.3:
            m[i], m[j] = m[j], m[i]
        if rng.random() < 0.2:
            m[i] = [-a for a in m[i]]
    return m


def int_mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


# -- RREF and kernels -------------------------------------------------------------


@given(matrices())
@settings(deadline=None, max_examples=100)
def test_rref_idempotent(m):
    res = rref(m)
    again = rref(res.matrix)
    assert again.matrix.rows == res.matrix.rows
    assert again.pivots == res.pivots


@given(matrices())
@settings(deadline=None, max_examples=100)
def test_rref_shape(m):
    res = rref(m)
    assert res.matrix.shape == m.shape
    # pivots strictly increase and pivot columns are unit columns
    assert list(res.pivots) == sorted(set(res.pivots))
    for k, col in enumerate(res.pivots):
        assert res.matrix.rows[k][col] == 1
        for i in range(res.matrix.nrows):
            if i != k:
                assert res.matrix.rows[i][col] == 0


@given(matrices())
@settings(deadline=None, max_examples=100)
def test_kernel_annihilates(m):
    k = kernel(m)
    assert k.nrows == m.ncols - rank(m)
    if k.nrows:
        assert (m * k.transpose()).is_zero
        assert rank(k) == k.nrows


@given(matrices())
@settings(deadline=None, max_examples=60)
def test_left_kernel_annihilates(m):
    lk = left_kernel(m)
    if lk.nrows:
        assert (lk * m).is_zero
    assert lk.nrows == m.nrows - rank(m)


def test_rref_frozen():
    res = rref(MatQ.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
    assert res.pivots == (0, 1)
    assert res.matrix.rows[0] == (F(1), F(0), F(-1))
    assert res.matrix.rows[1] == (F(0), F(1), F(2))


# Raw `int` and `Fraction` entries side by side, as `MatQ.from_rows` takes them,
# with zero rows, negative leading entries and denominators far beyond a machine word.
mixed_entries = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    small_entries,
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 30),
)


@st.composite
def mixed_matrices(draw, rows=None, cols=None, *, with_entries=False):
    """A matrix from raw rows; with_entries=True returns (matrix, raw rows).

    Some rows are written out as strings, as documents give them.
    """
    r = rows if rows is not None else draw(st.integers(1, 5))
    c = cols if cols is not None else draw(st.integers(1, 5))
    out = []
    for _ in range(r):
        if draw(st.integers(0, 4)) == 0:
            out.append((0,) * c)
            continue
        row = [draw(mixed_entries) for _ in range(c)]
        if draw(st.booleans()):
            row = [-x for x in row]
        if draw(st.integers(0, 3)) == 0:
            row = [str(x) for x in row]
        out.append(tuple(row))
    m = MatQ.from_rows(tuple(out))
    return (m, out) if with_entries else m


def to_sympy(m: MatQ) -> sympy.Matrix:
    return sympy.Matrix(m.nrows, m.ncols,
                        [sympy.Rational(x.numerator, x.denominator) for r in m.rows for x in r])


def from_sympy(m: sympy.Matrix) -> list[list[F]]:
    return [[F(int(x.p), int(x.q)) for x in r] for r in m.tolist()]


@st.composite
def sparse_product_pairs(draw):
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(mixed_matrices(r, k)), draw(mixed_matrices(k, c))


@given(sparse_product_pairs())
@settings(deadline=None, max_examples=100)
def test_sparse_product_matches_definition_and_sympy(pair):
    a, b = pair
    prod = a * b
    assert prod.shape == (a.nrows, b.ncols)
    for i in range(a.nrows):
        for j in range(b.ncols):
            entry = prod.rows[i][j]
            assert type(entry) is F
            assert entry == sum(a.rows[i][t] * b.rows[t][j] for t in range(a.ncols))
    assert [list(r) for r in prod.rows] == from_sympy(to_sympy(a) * to_sympy(b))


@given(mixed_matrices())
@settings(deadline=None, max_examples=150)
def test_rref_on_mixed_entries_matches_sympy(m):
    res = rref(m)
    theirs, pivots = to_sympy(m).rref()
    assert res.pivots == tuple(pivots)
    assert [list(r) for r in res.matrix.rows] == from_sympy(theirs)
    assert all(type(x) is F for r in res.matrix.rows for x in r)


def assert_stored_form(m: MatQ, reference) -> None:
    """m is integer rows over its least positive den, its view is reference, and a rescaled copy is m."""
    entries = [x for r in m.ints for x in r]
    assert all(type(x) is int for x in entries + [m.den])
    assert m.den > 0 and math.gcd(m.den, *entries) == 1
    assert [list(r) for r in m.rows] == [[F(x) for x in r] for r in reference]
    assert all(type(x) is F for r in m.rows for x in r)
    for k in (2, 7):
        copy = MatQ.from_ints([[k * x for x in r] for r in m.ints], k * m.den)
        assert copy == m and hash(copy) == hash(m)


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_every_matrix_is_stored_over_its_least_denominator(data):
    m, raw = data.draw(mixed_matrices(with_entries=True))
    a = [[F(x) for x in r] for r in raw]
    assert_stored_form(m, a)
    b, raw_b = data.draw(mixed_matrices(rows=m.ncols, with_entries=True))
    bb = [[F(x) for x in r] for r in raw_b]
    assert_stored_form(b, bb)
    assert_stored_form(m * b, [[sum(a[i][t] * bb[t][j] for t in range(m.ncols))
                                for j in range(b.ncols)] for i in range(m.nrows)])
    assert_stored_form(m.transpose(), list(zip(*a)))
    assert_stored_form(kron(m, b), [[x * y for x in ra for y in rb] for ra in a for rb in bb])
    theirs, pivots = to_sympy(m).rref()
    assert_stored_form(rref(m).matrix, from_sympy(theirs))
    assert_stored_form(Subspace.from_rows(m.ncols, m.rows).basis, from_sympy(theirs)[:len(pivots)])
    assert_stored_form(kernel(m), [[F(int(x.p), int(x.q)) for x in v]
                                   for v in to_sympy(m).nullspace()])
    if rank(m) == m.nrows:
        square = m * m.transpose()  # positive definite, so invertible
        assert_stored_form(inverse(square), from_sympy(to_sympy(square).inv()))
    alg = quaternion_algebra(F(-1, 2), F(3, 5))
    _, (element,) = data.draw(mixed_matrices(rows=1, cols=4, with_entries=True))
    e = [F(x) for x in element]
    assert_stored_form(alg.left_mult_op(e), [
        [sum(x * alg.table[i][j][k] for i, x in enumerate(e)) for j in range(4)] for k in range(4)])


def test_inverse_roundtrip():
    m = MatQ.from_rows([[2, 1, 0], [1, 1, 0], [3, 0, 1]])
    mi = inverse(m)
    assert (m * mi).rows == MatQ.identity(3).rows
    assert (mi * m).rows == MatQ.identity(3).rows
    with pytest.raises(ValueError):
        inverse(MatQ.from_rows([[1, 2], [2, 4]]))


@given(matrices(max_rows=3, max_cols=4), st.lists(small_entries, min_size=3, max_size=3))
@settings(deadline=None, max_examples=80)
def test_solve_row_roundtrip(m, coeffs):
    coeffs = coeffs[: m.nrows] + [F(0)] * max(0, m.nrows - len(coeffs))
    v = row_times_mat(coeffs, m)
    x = solve_row(m, v)
    assert x is not None
    assert row_times_mat(x, m) == v


def test_solve_row_outside_span():
    basis = MatQ.from_rows([[1, 0, 1], [0, 1, 1]])
    assert solve_row(basis, [1, 0, 0]) is None


def fraction_rref(rows, ncols):
    """Gauss-Jordan in Fraction arithmetic: the RREF rows and pivot columns."""
    rows = [[F(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        pr = len(pivots)
        piv = next((i for i in range(pr, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        rows[pr] = [x / rows[pr][col] for x in rows[pr]]
        for i in range(len(rows)):
            if i != pr and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
        pivots.append(col)
    return rows, pivots


def reference_solve(basis, v):
    """x @ basis = v read off the Fraction RREF of [basis | I], or None."""
    k, n = len(basis), len(v)
    aug = [list(r) + [1 if j == i else 0 for j in range(k)] for i, r in enumerate(basis)]
    rows, pivots = fraction_rref(aug, n + k)
    residual = [F(x) for x in v]
    coeffs = [F(0)] * k
    for t, col in enumerate(pivots):
        if col >= n:
            break
        c = residual[col]
        residual = [a - c * b for a, b in zip(residual, rows[t][:n])]
        coeffs = [a + c * b for a, b in zip(coeffs, rows[t][n:])]
    return None if any(residual) else tuple(coeffs)


@st.composite
def solver_cases(draw):
    """A basis, independent or with dependent rows mixed in, and a member or a random vector."""
    n = draw(st.integers(1, 5))
    rows = [[draw(mixed_entries) for _ in range(n)] for _ in range(draw(st.integers(1, 4)))]
    for _ in range(draw(st.integers(0, 2))):
        cs = [draw(mixed_entries) for _ in rows]
        rows.insert(draw(st.integers(0, len(rows))),
                    [sum((F(c) * r[j] for c, r in zip(cs, rows)), F(0)) for j in range(n)])
    if draw(st.booleans()):
        cs = [draw(mixed_entries) for _ in rows]
        v = [sum((F(c) * r[j] for c, r in zip(cs, rows)), F(0)) for j in range(n)]
    else:
        v = [draw(mixed_entries) for _ in range(n)]
    return rows, v


@given(solver_cases())
@settings(deadline=None, max_examples=200)
def test_row_solver_matches_fraction_rref_reference(case):
    rows, v = case
    expected = reference_solve(rows, v)
    solver = RowSolver(MatQ.from_rows(rows))
    got = solver.solve(v)
    assert got == expected
    (ints,), den = clear_denominators((v,))
    sol = solver.solve_ints(ints, den)
    assert (sol is None) == (expected is None)
    if sol is not None:
        assert rational_row(*sol) == expected
    if got is not None:
        assert all(type(x) is F for x in got)
        assert row_times_mat(got, MatQ.from_rows(rows)) == tuple(F(x) for x in v)
    assert solver.rank == rank(MatQ.from_rows(rows))


def test_row_solver_particular_solution_on_dependent_rows():
    # rows 0 and 2 are equal; the RREF of [B | I] has the pivot rows
    # [1, 0 | 0, -2, 1] and [0, 1 | 0, 1, 0], so the weight goes on row 2
    basis = MatQ.from_rows([[1, 2], [0, 1], [1, 2]])
    solver = RowSolver(basis)
    assert solver.rank == 2
    assert solver.solve([3, 7]) == (F(0), F(1), F(3))
    assert rational_row(*solver.solve_ints([3, 7], 2)) == (F(0), F(1, 2), F(3, 2))
    assert solver.solve([1, 0]) == (F(0), F(-2), F(1))
    assert RowSolver(MatQ.from_rows([[1, 1, 0], [2, 2, 0]])).solve([0, 0, 1]) is None


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        MatQ.from_rows([[1, 2], [3]])
    with pytest.raises(DimensionMismatch):
        MatQ.identity(2) * MatQ.identity(3)
    with pytest.raises(DimensionMismatch):
        mat_hstack(MatQ.identity(2), MatQ.identity(3))


# -- subspaces --------------------------------------------------------------------


@given(matrices(max_rows=4, max_cols=4), matrices(max_rows=4, max_cols=4))
@settings(deadline=None, max_examples=80)
def test_subspace_dimension_formula(a, b):
    n = 4
    pad = lambda m: [list(r) + [F(0)] * (n - len(r)) for r in m.rows]
    u = Subspace.from_rows(n, pad(a))
    v = Subspace.from_rows(n, pad(b))
    s = u.add(v)
    i = u.intersect(v)
    assert s.dim + i.dim == u.dim + v.dim
    assert u.contains(i) and v.contains(i)
    assert s.contains(u) and s.contains(v)


@given(matrices(max_rows=3, max_cols=4))
@settings(deadline=None, max_examples=60)
def test_subspace_canonical(m):
    n = m.ncols
    u = Subspace.from_rows(n, m.rows)
    # any row-scrambled spanning set gives the identical basis
    doubled = list(m.rows) + [tuple(2 * x for x in m.rows[0])]
    v = Subspace.from_rows(n, doubled)
    assert u == v


def test_subspace_coords():
    s = Subspace.from_rows(3, [[1, 0, 2], [0, 1, 1]])
    assert s.coords_of([3, 4, 10]) == (F(3), F(4))
    with pytest.raises(ValueError):
        s.coords_of([0, 0, 1])


def test_subspace_frozen_intersection():
    s1 = Subspace.from_rows(3, [[1, 0, 0], [0, 1, 0]])
    s2 = Subspace.from_rows(3, [[0, 1, 0], [0, 0, 1]])
    assert s1.intersect(s2).basis.rows == ((F(0), F(1), F(0)),)


# Entries of both types, with denominators far beyond a machine word.
deep_entries = st.one_of(
    wide_entries,
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 30),
)


@st.composite
def spanning_sets(draw):
    """Width, rows with zero, repeated and negated rows mixed in, and a member or a random vector."""
    n = draw(st.integers(1, 5))
    rows = [[draw(deep_entries) for _ in range(n)] for _ in range(draw(st.integers(0, 4)))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("zero", "repeated", "negated")))
        row = [0] * n
        if rows and kind != "zero":
            row = list(draw(st.sampled_from(rows)))
            if kind == "negated":
                row = [-x for x in row]
        rows.insert(draw(st.integers(0, len(rows))), row)
    if rows and draw(st.booleans()):
        cs = [draw(wide_entries) for _ in rows]
        v = [sum((F(c) * r[j] for c, r in zip(cs, rows)), F(0)) for j in range(n)]
    else:
        v = [draw(deep_entries) for _ in range(n)]
    return n, rows, v


@given(spanning_sets(), st.data())
@settings(deadline=None, max_examples=150)
def test_subspace_stored_form_matches_sympy_and_fraction_references(case, data):
    n, rows, v = case
    s = Subspace.from_rows(n, rows)
    for r, p in zip(s.rows, s.pivots):
        assert all(type(x) is int for x in r) and r[p] > 0 and math.gcd(*r) == 1
    # the basis view is sympy's RREF without its zero rows
    if rows:
        theirs, pivots = to_sympy(MatQ.from_rows(rows)).rref()
        assert s.pivots == tuple(pivots)
        assert [list(r) for r in s.basis.rows] == from_sympy(theirs)[: len(pivots)]
    assert s.dim == s.basis.nrows
    assert all(type(x) is F for r in s.basis.rows for x in r)
    # the integer queries against their Fraction definitions
    ref_rows, ref_pivots = fraction_rref(rows, n)
    residual = [F(x) for x in v]
    for k, p in enumerate(ref_pivots):
        c = residual[p]
        residual = [a - c * b for a, b in zip(residual, ref_rows[k])]
    assert s.reduce_vec(v) == tuple(residual)
    assert s.contains_vec(v) == (not any(residual))
    if any(residual):
        with pytest.raises(ValueError):
            s.coords_of(v)
    else:
        assert s.coords_of(v) == tuple(F(v[p]) for p in ref_pivots)
        if s.dim:
            assert row_times_mat(s.coords_of(v), s.basis) == tuple(F(x) for x in v)
    # a scaled and permuted spanning set spans the equal, equally hashed subspace
    scales = [data.draw(nonzero_scales) for _ in rows]
    scaled = [[c * F(x) for x in r] for c, r in zip(scales, rows)]
    other = Subspace.from_rows(n, data.draw(st.permutations(scaled)))
    assert other == s and hash(other) == hash(s)


@given(st.data())
@settings(deadline=None, max_examples=120)
def test_restrict_op_matches_the_row_solver(data):
    d = data.draw(st.integers(1, 4))
    op = MatQ.from_rows([[data.draw(deep_entries) for _ in range(d)] for _ in range(d)])
    w = data.draw(st.sampled_from((
        Subspace.image(op),  # each of these three is invariant under op
        Subspace.image(op * op),
        Subspace.from_rows(d, kernel(op).rows),
        Subspace.from_rows(d, [[data.draw(deep_entries) for _ in range(d)]]),
    )))
    solver = RowSolver(w.basis)
    cols = [solver.solve(op_apply(op, b)) for b in w.basis.rows]
    if any(c is None for c in cols):
        with pytest.raises(NotInvariant):
            restrict_op(op, w)
    else:
        assert restrict_op(op, w).rows == tuple(zip(*cols))


def test_integer_subspace_queries_construct_no_fraction(monkeypatch):
    rows = [(2, -4, 6, 0), (1, 1, 0, 3), (3, -3, 6, 3), (0, 0, 0, 0)]
    made = []
    original = F.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    s = Subspace.from_rows(4, rows)
    t = Subspace.from_rows(4, rows[::-1])
    assert s.dim == 2 and s.pivots == (0, 1)
    assert s == t and s != Subspace.full(4)
    assert s.contains_vec([3, -3, 6, 3]) and not s.contains_vec([0, 0, 1, 0])
    assert s.contains(t) and not s.contains(Subspace.full(4))
    monkeypatch.undo()
    assert made == []
    assert s.rows == ((1, 0, 1, 2), (0, 1, -1, 1))


# -- HNF lattices -----------------------------------------------------------------


def test_hnf_frozen():
    assert hnf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == (
        (2, 0, 120),
        (0, 2, 20),
        (0, 0, 156),
    )
    assert hnf([[0, 0], [0, 0]]) == ()


def test_hnf_shape_properties():
    rng = random.Random(7)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(rng.randint(1, 5))]
        h = hnf(rows)
        pivots = [next(j for j, x in enumerate(r) if x) for r in h]
        assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
        for k, r in enumerate(h):
            p = pivots[k]
            assert r[p] > 0
            for i in range(k):
                assert 0 <= h[i][p] < r[p]


def test_hnf_unimodular_invariance():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(2, 4)
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(n)]
        u = random_unimodular(n, rng)
        assert hnf(rows) == hnf(int_mat_mul(u, rows))


@given(int_matrices())
@settings(deadline=None, max_examples=80)
def test_int_kernel_is_kernel(mat):
    ker = int_kernel(mat)
    for row in ker:
        prod = [sum(row[i] * mat[i][j] for i in range(len(mat))) for j in range(len(mat[0]))]
        assert all(x == 0 for x in prod)
    # rank-nullity over Q, plus saturation: doubling the matrix changes nothing
    q_rank = rank(MatQ.from_rows(mat))
    assert len(ker) == len(mat) - q_rank
    assert int_kernel([[2 * x for x in r] for r in mat]) == ker


def test_lattice_membership_and_coords():
    lat = Lattice.from_rows(2, [[2, 1], [0, 3]])
    assert lat.contains_vec([2, 4])
    assert not lat.contains_vec([1, 0])
    c = lat.coords_of([4, 8])
    assert c is not None
    assert [sum(c[i] * lat.basis[i][j] for i in range(2)) for j in range(2)] == [4, 8]


def fraction_coords(lat, v):
    """Lattice coordinates by Fraction back-substitution against the HNF rows."""
    residual = [F(x) for x in v]
    coeffs = []
    for row in lat.basis:
        p = next(j for j, x in enumerate(row) if x)
        c = residual[p] / row[p]
        if c.denominator != 1:
            return None
        coeffs.append(c.numerator)
        residual = [a - c * b for a, b in zip(residual, row)]
    return tuple(coeffs) if not any(residual) else None


@st.composite
def lattice_vectors(draw):
    """A lattice and a vector inside it, shifted off it, or made non-integral."""
    mat = draw(int_matrices())
    lat = Lattice.from_rows(len(mat[0]), mat)
    kind = draw(st.sampled_from(("inside", "shifted", "non-integral")))
    coeffs = [draw(st.integers(-5, 5)) for _ in lat.basis]
    v = [sum(c * row[j] for c, row in zip(coeffs, lat.basis)) for j in range(lat.ambient)]
    j = draw(st.integers(0, lat.ambient - 1))
    if kind == "shifted":
        v[j] += draw(st.integers(1, 3))
    elif kind == "non-integral":
        v[j] += F(draw(st.integers(1, 6)), 7)
    v = [F(x) if draw(st.booleans()) else x for x in v]
    return lat, tuple(v), kind


@given(lattice_vectors())
@settings(deadline=None, max_examples=200)
def test_lattice_coords_match_fraction_back_substitution(case):
    lat, v, kind = case
    ours = lat.coords_of(v)
    assert ours == fraction_coords(lat, v)
    if kind == "inside":
        assert ours is not None
        assert all(type(c) is int for c in ours)
        assert [sum(c * row[j] for c, row in zip(ours, lat.basis))
                for j in range(lat.ambient)] == list(v)
    if kind == "non-integral":
        assert ours is None


def test_lattice_intersection_frozen():
    a = Lattice.from_rows(2, [[2, 0], [0, 3]])
    b = Lattice.from_rows(2, [[3, 0], [0, 2]])
    assert a.intersect(b).basis == ((6, 0), (0, 6))


def test_lattice_intersection_properties():
    rng = random.Random(3)
    for _ in range(25):
        a = Lattice.from_rows(3, [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)])
        b = Lattice.from_rows(3, [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)])
        cap = a.intersect(b)
        assert a.contains(cap) and b.contains(cap)
        assert cap == b.intersect(a)
        for row in cap.basis:
            assert a.contains_vec(row) and b.contains_vec(row)


def test_lattice_intersect_subspace():
    diag = Subspace.from_rows(2, [[1, 1]])
    got = lattice_intersect_subspace(Lattice.standard(2), diag)
    assert got.basis == ((1, 1),)
    # saturation: primitive vectors are recovered from scaled generators
    sat = saturation(Lattice.standard(2), Lattice.from_rows(2, [[4, 4]]))
    assert sat.basis == ((1, 1),)


def test_lattice_intersect_subspace_exactness():
    rng = random.Random(19)
    for _ in range(20):
        lat = Lattice.from_rows(3, [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)])
        sub = Subspace.from_rows(3, [[rng.randint(-4, 4) for _ in range(3)]])
        got = lattice_intersect_subspace(lat, sub)
        for row in got.basis:
            assert lat.contains_vec(row)
            assert sub.contains_vec([F(x) for x in row])
        # spot-check exactness on lattice points
        for _ in range(15):
            coeffs = [rng.randint(-3, 3) for _ in range(lat.rank)]
            v = [sum(coeffs[i] * lat.basis[i][j] for i in range(lat.rank)) for j in range(3)]
            in_sub = sub.contains_vec([F(x) for x in v])
            assert got.contains_vec(v) == in_sub


# -- Smith normal form ------------------------------------------------------------


def _is_unimodular(rows):
    m = MatQ.from_rows(rows)
    inv = inverse(m)
    return all(x.denominator == 1 for r in inv.rows for x in r)


@given(int_matrices(max_rows=4, max_cols=4, bound=7))
@settings(deadline=None, max_examples=60)
def test_snf_transform_identity(mat):
    d, u, v = snf(mat)
    assert int_mat_mul(int_mat_mul([list(r) for r in u], mat), [list(r) for r in v]) == [
        list(r) for r in d
    ]
    assert _is_unimodular(u) and _is_unimodular(v)
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0


@given(int_matrices(max_rows=4, max_cols=4, bound=7))
@settings(deadline=None, max_examples=60)
def test_snf_matches_sympy(mat):
    d, _, _ = snf(mat)
    ours = [d[i][i] for i in range(min(len(d), len(d[0])))]
    theirs_mat = smith_normal_form(sympy.Matrix(mat))
    theirs = [abs(int(theirs_mat[i, i])) for i in range(min(theirs_mat.shape))]
    assert [x for x in ours if x] == [x for x in theirs if x]


def test_snf_frozen():
    d, _, _ = snf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert [d[i][i] for i in range(3)] == [2, 2, 156]
    d2, _, _ = snf([[1, 2, 3], [4, 5, 6]])
    assert [d2[0][0], d2[1][1]] == [1, 3]


# -- operator helpers -------------------------------------------------------------


def test_kron_vectorization_identities():
    x = MatQ.from_rows([[1, 2], [3, 4]])
    g = MatQ.from_rows([[0, 1], [1, 1]])
    eye = MatQ.identity(2)
    assert mat_vec_of(x * g) == row_times_mat(mat_vec_of(x), kron(eye, g))
    assert mat_vec_of(g * x) == row_times_mat(mat_vec_of(x), kron(g.transpose(), eye))
    assert mat_unvec(mat_vec_of(x), 2, 2).rows == x.rows


def test_op_apply_is_column_convention():
    g = MatQ.from_rows([[0, 1], [1, 1]])
    h = MatQ.from_rows([[2, 0], [0, 3]])
    v = (F(1), F(0))
    # composition order: (g h) v == g (h v)
    assert op_apply(g * h, v) == op_apply(g, op_apply(h, v))
    assert op_apply(g, v) == (F(0), F(1))

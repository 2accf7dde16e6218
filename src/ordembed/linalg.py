"""Exact linear algebra: rational matrices, RREF subspaces, HNF lattices.

Conventions used across the workbench:

* vectors are rows (tuples of Fraction, or of int for lattices);
* a `MatQ` stores integer rows `ints` over one least positive denominator
  `den`, so two matrices are equal iff their records are; `rows`, the
  `Fraction` entries, is a view for documents, tests and element vectors;
* a `Subspace` stores the RREF of any spanning set, each row scaled to a
  primitive integer row with a positive pivot, so two subspaces are equal
  iff their rows are; `basis` (the RREF as a `MatQ` over the least common
  pivot) and `pivots` are views;
* a `Lattice` is canonically the row Hermite normal form (pivots positive,
  entries above a pivot reduced into [0, pivot));
* operators on a coordinate space are matrices acting on column vectors,
  so composition is matrix multiplication in application order.

The exact kernels work in integers, and every elimination is one
fraction-free step (`_eliminate`): cross-multiplication with the pivot row,
then division by the content. `MatQ.__mul__`, `kron`, `rref`, `kernel` and
`inverse` read the integer rows of their operands and return integer rows
over one denominator; a rational vector that meets a matrix (`row_times_mat`,
`op_apply`, `RowSolver.solve`) is cleared once, and only the result is built
as `Fraction`s.
`RowSolver` keeps the integer rows of one elimination of [basis | I] over a
common pivot and solves each vector in integers: `solve_ints` takes the
vector as integers over a denominator and returns the coefficients the same
way, so a caller that builds structure constants never leaves `int`.
`echelon_insert` grows an integer echelon one row at a time, and
`echelon_closure` closes a span under linear maps through it; the algebra
layer builds operator algebras, two-sided ideals and minimal polynomials on
these two, and `kernel_rows` is the null space of integer rows in integers.
`Subspace.from_rows` takes `int` rows as they are, and the subspace queries
answer in integers: against an RREF basis a member's coordinates are its
pivot entries. Spans read off an operator go through `Subspace.image`.
`Lattice.coords_of` back-substitutes in integers against the HNF rows; a
vector with a non-integral entry is outside the lattice at once, and
`lattice_intersect_subspace` takes its normals from the subspace's integer
rows and intersects in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence

from .errors import DimensionMismatch

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]

_ZERO = Fraction(0)


def vec(items: Iterable) -> Vec:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in items)


def unit_vec(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


@dataclass(frozen=True)
class MatQ:
    """Immutable rational matrix, row-major: the integer rows `ints` over one denominator `den`.

    `den` is positive and gcd(den, every entry) == 1, so equal matrices are
    equal records with equal hashes. `from_rows` clears rational rows once,
    `from_ints` takes integer rows over a denominator; `rows` is the
    `Fraction` view, read by documents and element vectors.
    """

    ints: tuple[IntVec, ...]
    den: int

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "MatQ":
        """The matrix of rows of `int`, `Fraction` or string entries."""
        out = [tuple(x if isinstance(x, (int, Fraction)) else Fraction(x) for x in r) for r in rows]
        if out and any(len(r) != len(out[0]) for r in out):
            raise DimensionMismatch("ragged rows")
        ints, den = clear_denominators(out)
        return MatQ(tuple(map(tuple, ints)), den)

    @staticmethod
    def from_ints(rows: Iterable[Iterable[int]], den: int) -> "MatQ":
        """The matrix rows / den, for den > 0, with gcd(den, every entry) divided out."""
        rows = tuple(tuple(r) for r in rows)
        g = gcd(den, *(x for r in rows for x in r))
        if g == 1:
            return MatQ(rows, den)
        return MatQ(tuple(tuple(x // g for x in r) for r in rows), den // g)

    @staticmethod
    def identity(n: int) -> "MatQ":
        return MatQ(tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n)), 1)

    @staticmethod
    def zeros(r: int, c: int) -> "MatQ":
        return MatQ(((0,) * c,) * r, 1)

    @cached_property
    def rows(self) -> tuple[Vec, ...]:
        """The entries as `Fraction`s: a view for documents, tests and element vectors."""
        return tuple(rational_row(r, self.den) for r in self.ints)

    @property
    def nrows(self) -> int:
        return len(self.ints)

    @property
    def ncols(self) -> int:
        return len(self.ints[0]) if self.ints else 0

    @property
    def is_zero(self) -> bool:
        return not any(any(r) for r in self.ints)

    def __add__(self, other: "MatQ") -> "MatQ":
        self._check_same_shape(other)
        return MatQ.from_rows(vec_add(a, b) for a, b in zip(self.rows, other.rows))

    def __sub__(self, other: "MatQ") -> "MatQ":
        self._check_same_shape(other)
        return MatQ.from_rows(tuple(x - y for x, y in zip(a, b)) for a, b in zip(self.rows, other.rows))

    def __mul__(self, other: "MatQ") -> "MatQ":
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"cannot multiply {self.shape} by {other.shape}")
        return MatQ.from_ints(int_matmul(self.ints, other.ints, other.ncols), self.den * other.den)

    def scale(self, c) -> "MatQ":
        c = Fraction(c)
        return MatQ.from_rows(tuple(x * c for x in r) for r in self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def transpose(self) -> "MatQ":
        return MatQ(tuple(zip(*self.ints)), self.den)

    def row(self, i: int) -> Vec:
        return self.rows[i]

    def _check_same_shape(self, other: "MatQ") -> None:
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape {self.shape} vs {other.shape}")


def mat_hstack(*mats: MatQ) -> MatQ:
    heights = {m.nrows for m in mats}
    if len(heights) != 1:
        raise DimensionMismatch("hstack height mismatch")
    den = lcm(*(m.den for m in mats))
    return MatQ.from_ints(
        ([x * (den // m.den) for m in mats for x in m.ints[i]] for i in range(mats[0].nrows)), den)


def vec_rows(mats: Sequence[MatQ]) -> MatQ:
    """The matrix whose row k is the row-major vec of mats[k]."""
    return MatQ.from_ints(*over_common_den([([x for r in m.ints for x in r], m.den) for m in mats]))


def row_times_mat(v: Sequence, m: MatQ) -> Vec:
    if len(v) != m.nrows:
        raise DimensionMismatch("vector/matrix size mismatch")
    ints, den = _int_vec(v)
    return rational_row(int_matmul((ints,), m.ints, m.ncols)[0], den * m.den)


def op_apply(m: MatQ, v: Sequence) -> Vec:
    """Apply a column-convention operator to a row vector: (m @ v^T)^T."""
    if len(v) != m.ncols:
        raise DimensionMismatch("operator/vector size mismatch")
    ints, den = _int_vec(v)
    return rational_row([sum(a * b for a, b in zip(r, ints) if a) for r in m.ints], den * m.den)


def kron(a: MatQ, b: MatQ) -> MatQ:
    """Kronecker product compatible with row-major vectorization.

    With vec(X) the row-major flattening of X as a row vector,
    vec(X @ G) = vec(X) @ kron(I, G) and vec(G @ X) = vec(X) @ kron(G^T, I).
    """
    return MatQ.from_ints(([x * y for x in ra for y in rb] for ra in a.ints for rb in b.ints),
                          a.den * b.den)


def mat_vec_of(m: MatQ) -> Vec:
    return tuple(x for r in m.rows for x in r)


def mat_unvec(v: Sequence, nrows: int, ncols: int) -> MatQ:
    if len(v) != nrows * ncols:
        raise DimensionMismatch("cannot reshape")
    return MatQ.from_rows(v[i * ncols:(i + 1) * ncols] for i in range(nrows))


# -- integer-first elimination --------------------------------------------------


def clear_denominators(rows: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Integer rows and one common denominator: rows == ints / den."""
    den = lcm(*[c.denominator for r in rows for c in r])
    if den == 1:
        return [[c.numerator for c in r] for r in rows], 1
    return [[c.numerator * (den // c.denominator) for c in r] for r in rows], den


def over_common_den(rows: Sequence[tuple[Sequence[int], int]]) -> tuple[list[list[int]], int]:
    """Integer rows over one common denominator, from (ints, den) pairs."""
    den = lcm(*(d for _, d in rows))
    return [[t * (den // d) for t in ints] for ints, d in rows], den


def rational_row(ints: Sequence[int], den: int) -> Vec:
    """The row ints / den as Fractions, with one shared zero."""
    if den == 1:
        return tuple(Fraction(t) if t else _ZERO for t in ints)
    return tuple(Fraction(t, den) if t else _ZERO for t in ints)


def _int_vec(v: Sequence) -> tuple[Sequence[int], int]:
    """(ints, den) with v == ints / den; a row of `int`s comes back as it is, over 1."""
    if all(type(x) is int for x in v):
        return v, 1
    den = lcm(*[x.denominator for x in v])
    return [x.numerator * (den // x.denominator) for x in v], den


def _extract_content(row: list[int]) -> list[int]:
    g = 0
    for c in row:
        g = gcd(g, c)
        if g == 1:
            return row
    if g > 1:
        return [c // g for c in row]
    return row


@dataclass(frozen=True)
class RrefResult:
    matrix: MatQ
    pivots: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def int_matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]], width: int) -> list[list[int]]:
    """The integer product a @ b, b having `width` columns; zeros are skipped."""
    out = []
    for r in a:
        acc = [0] * width
        for x, brow in zip(r, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(acc)
    return out


def _eliminate(row: Sequence[int], pivot_row: Sequence[int], col: int) -> list[int]:
    """Clear row's entry in col by cross-multiplication with pivot_row; divide out the content."""
    pv, f = pivot_row[col], row[col]
    return _extract_content([pv * x - f * y for x, y in zip(row, pivot_row)])


def _int_rref(rows: list[list[int]], ncols: int) -> list[int]:
    """Bring integer rows to reduced echelon form in place; return the pivot columns.

    Fraction-free: a row is eliminated by cross-multiplication with the pivot
    row and divided by its content. Row k of the result divided by its entry
    in pivots[k] is row k of the RREF; rows past the rank are zero.
    """
    pivots: list[int] = []
    pr = 0
    for col in range(ncols):
        piv = next((i for i in range(pr, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[pr], rows[piv] = rows[piv], rows[pr]
        for i in range(len(rows)):
            if i != pr and rows[i][col]:
                rows[i] = _eliminate(rows[i], rows[pr], col)
        pivots.append(col)
        pr += 1
        if pr == len(rows):
            break
    return pivots


def echelon_insert(echelon: list[tuple[list[int], int]], row: list[int]) -> None:
    """Append row to an integer echelon, reduced against it, unless it lies in the span.

    The echelon is a list of (primitive integer row, pivot column) pairs,
    grown one row at a time. Each echelon row is zero in the pivot columns
    of the rows before it, so one pass in insertion order clears every pivot
    column of the new row by the elimination step of `_int_rref`.
    """
    for e_row, p in echelon:
        if row[p]:
            row = _eliminate(row, e_row, p)
    g = gcd(*row)
    if g:
        echelon.append(([x // g for x in row], next(j for j, x in enumerate(row) if x)))


def echelon_closure(
    seeds: Iterable[list[int]], images: Callable[[list[int]], Iterable[list[int]]]
) -> list[list[int]]:
    """Integer rows spanning the smallest subspace that holds the seeds and is closed under a map.

    `images(x)` lists the images of x under linear maps (each up to a
    nonzero scale). A subspace is closed under the maps when the images of
    a basis lie in it, so each echelon row is mapped once, when it is added.
    """
    echelon: list[tuple[list[int], int]] = []
    for row in seeds:
        echelon_insert(echelon, row)
    done = 0
    while done < len(echelon):
        x, _ = echelon[done]
        done += 1
        for y in images(x):
            echelon_insert(echelon, y)
    return [r for r, _ in echelon]


def int_identity_vec(d: int) -> list[int]:
    """The d x d identity matrix as an integer row of length d^2."""
    return [1 if i == j else 0 for i in range(d) for j in range(d)]


def rref(m: MatQ) -> RrefResult:
    """Reduced row echelon form with pivot columns, its zero rows last.

    The elimination runs on the integer rows; row k of the result is the
    integer row k over its pivot entry.
    """
    rows = list(m.ints)
    pivots = _int_rref(rows, m.ncols)
    reduced = MatQ.from_ints(*over_common_den([(r, r[c]) for r, c in zip(rows, pivots)]))
    zeros = ((0,) * m.ncols,) * (m.nrows - len(pivots))
    return RrefResult(MatQ(reduced.ints + zeros, reduced.den), tuple(pivots))


def rank(m: MatQ) -> int:
    return rref(m).rank


def kernel_rows(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Primitive integer rows spanning {x : rows @ x^T = 0}, one per free column.

    The row of free column f is a positive multiple of `kernel`'s vector
    for f, whose last nonzero entry is the 1 in f.
    """
    ech = list(rows)
    pivots = _int_rref(ech, ncols)
    out = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        used = [(r, c) for r, c in zip(ech, pivots) if r[f]]
        scale = lcm(*(r[c] for r, c in used))
        x = [0] * ncols
        x[f] = scale
        for r, c in used:
            x[c] = -r[f] * (scale // r[c])
        out.append(_extract_content(x))
    return out


def kernel(m: MatQ) -> MatQ:
    """Basis of the right null space {x : m @ x^T = 0}, one vector per row."""
    rows = kernel_rows(list(m.ints), m.ncols)
    return MatQ.from_ints(*over_common_den([(x, next(t for t in reversed(x) if t)) for x in rows]))


def left_kernel(m: MatQ) -> MatQ:
    """Basis of {x : x @ m = 0}, one vector per row."""
    return kernel(m.transpose())


def inverse(m: MatQ) -> MatQ:
    if m.nrows != m.ncols:
        raise DimensionMismatch("only square matrices invert")
    n = m.nrows
    # [m | I] is row-equivalent to [ints | den * I], whose RREF is [I | m^-1]
    rows = [list(r) + [m.den if j == i else 0 for j in range(n)] for i, r in enumerate(m.ints)]
    if _int_rref(rows, 2 * n) != list(range(n)):
        raise ValueError("matrix is singular")
    return MatQ.from_ints(*over_common_den([(r[n:], r[k]) for k, r in enumerate(rows)]))


class RowSolver:
    """Factored row basis for solving x @ basis = v against many v.

    Building the solver does the one fraction-free elimination of the
    augmented system [basis | I] and keeps its integer rows, scaled to one
    common pivot P. In the RREF, the row with pivot column c is that
    integer row over P, and every other row is zero in column c; so the
    solution read off the RREF is x = sum over pivots c < ncols of
    v[c] * (identity part of row c), and v lies in the span exactly when
    v == sum v[c] * (basis part of row c). `solve_ints` evaluates both sums
    in integers. On dependent rows it returns the same particular solution
    as the RREF: the rows with a pivot in the identity part stay unused.
    """

    def __init__(self, basis: MatQ):
        self._nrows = k = basis.nrows
        n = basis.ncols
        rows = []
        for i, r in enumerate(basis.ints):
            rows.append(_extract_content(list(r) + [basis.den if j == i else 0 for j in range(k)]))
        pivots = _int_rref(rows, n + k)
        solving = [(col, rows[t]) for t, col in enumerate(pivots) if col < n]
        self._den = lcm(*[row[col] for col, row in solving])
        # (pivot column, basis-part entries, identity-part entries), nonzero entries only
        self._rows: list[tuple[int, list[tuple[int, int]], list[tuple[int, int]]]] = []
        for col, row in solving:
            f = self._den // row[col]
            self._rows.append((
                col,
                [(j, f * x) for j, x in enumerate(row[:n]) if x],
                [(j, f * x) for j, x in enumerate(row[n:]) if x],
            ))

    @property
    def rank(self) -> int:
        """The rank of the basis rows."""
        return len(self._rows)

    def solve(self, v: Sequence) -> Vec | None:
        """Coefficients x with x @ basis = v, or None if v is outside the span."""
        sol = self.solve_ints(*_int_vec(v))
        return None if sol is None else rational_row(*sol)

    def solve_ints(self, v: Sequence[int], den: int = 1) -> tuple[list[int], int] | None:
        """`solve` for the vector v / den, with v integral.

        The coefficients come back as integers over one denominator: (x, d)
        with (x / d) @ basis = v / den.
        """
        if self._nrows == 0:
            return ([], 1) if not any(v) else None
        p = self._den
        residual = [p * x for x in v]
        coeffs = [0] * self._nrows
        for col, part, ident in self._rows:
            c = v[col]
            if c:
                for j, x in part:
                    residual[j] -= c * x
                for j, x in ident:
                    coeffs[j] += c * x
        if any(residual):
            return None
        return coeffs, den * p


def solve_row(basis: MatQ, v: Sequence) -> Vec | None:
    """Coefficients x with x @ basis = v, or None if v is outside the span."""
    return RowSolver(basis).solve(v)


# -- subspaces -------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^ambient held as its canonical primitive integer RREF rows."""

    ambient: int
    rows: tuple[IntVec, ...]

    @staticmethod
    def from_rows(ambient: int, rows: Iterable[Sequence]) -> "Subspace":
        """The span of rows of `int` or `Fraction` entries, in one integer elimination."""
        ints = []
        for r in rows:
            if len(r) != ambient:
                raise DimensionMismatch(f"rows of width {len(r)} in ambient {ambient}")
            ints.append(_int_vec(r)[0])
        pivots = _int_rref(ints, ambient)
        out = []
        for row, col in zip(ints, pivots):
            g = gcd(*row) if row[col] > 0 else -gcd(*row)
            out.append(tuple(row) if g == 1 else tuple(x // g for x in row))
        return Subspace(ambient, tuple(out))

    @staticmethod
    def image(op: MatQ) -> "Subspace":
        """The column space of a column-convention operator."""
        return Subspace.from_rows(op.nrows, list(zip(*op.ints)))

    @staticmethod
    def zero(ambient: int) -> "Subspace":
        return Subspace(ambient, ())

    @staticmethod
    def full(ambient: int) -> "Subspace":
        return Subspace(ambient, tuple(
            tuple(1 if j == i else 0 for j in range(ambient)) for i in range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(r) if x) for r in self.rows)

    @cached_property
    def basis(self) -> MatQ:
        """The RREF basis, each row over its pivot entry: integer rows over one common pivot P."""
        return MatQ.from_ints(*over_common_den([(r, r[c]) for r, c in zip(self.rows, self.pivots)]))

    def _residual(self, ints: Sequence[int]) -> list[int]:
        """P * v minus the RREF rows weighted by v's pivot entries: zero iff v is a member.

        In an RREF basis the coordinates of a member are its pivot entries.
        """
        if len(ints) != self.ambient:
            raise DimensionMismatch("vector/ambient mismatch")
        basis = self.basis
        residual = [basis.den * x for x in ints]
        for row, c in zip(basis.ints, self.pivots):
            f = ints[c]
            if f:
                for j, x in enumerate(row):
                    if x:
                        residual[j] -= f * x
        return residual

    def reduce_vec(self, v: Sequence) -> Vec:
        """Residual of v after eliminating along the basis pivots."""
        ints, den = _int_vec(v)
        return rational_row(self._residual(ints), den * self.basis.den)

    def contains_vec(self, v: Sequence) -> bool:
        return not any(self._residual(_int_vec(v)[0]))

    def contains(self, other: "Subspace") -> bool:
        if other.ambient != self.ambient:
            raise DimensionMismatch("ambient mismatch")
        return all(self.contains_vec(r) for r in other.rows)

    def coords_of(self, v: Sequence) -> Vec:
        """Coordinates of v in the RREF basis (pivot entries), error if outside."""
        ints, den = _int_vec(v)
        if any(self._residual(ints)):
            raise ValueError("vector outside subspace")
        return rational_row([ints[c] for c in self.pivots], den)

    def lift(self, local: "Subspace") -> "Subspace":
        """The subspace of Q^ambient whose coordinates against this basis lie in local."""
        if local.ambient != self.dim:
            raise DimensionMismatch("local ambient vs subspace dim")
        return Subspace.from_rows(
            self.ambient, int_matmul(local.rows, self.basis.ints, self.ambient))

    def add(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient:
            raise DimensionMismatch("ambient mismatch")
        return Subspace.from_rows(self.ambient, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        if other.ambient != self.ambient:
            raise DimensionMismatch("subspaces live in different ambient spaces")
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient)
        # relations x with x @ [self.rows; other.rows] = 0
        stacked = self.rows + other.rows
        relations = kernel_rows(list(zip(*stacked)), len(stacked))
        rows = int_matmul([rel[: self.dim] for rel in relations], self.rows, self.ambient)
        return Subspace.from_rows(self.ambient, rows)


# -- integer lattices ------------------------------------------------------------


def hnf(rows: Iterable[Sequence[int]]) -> tuple[IntVec, ...]:
    """Row Hermite normal form: canonical upper-echelon basis of the row span."""
    mat = [list(map(int, r)) for r in rows if any(r)]
    if not mat:
        return ()
    ncols = len(mat[0])
    pr = 0
    for col in range(ncols):
        while True:
            nz = [i for i in range(pr, len(mat)) if mat[i][col]]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda i: abs(mat[i][col]))
            base = nz[0]
            for i in nz[1:]:
                q = mat[i][col] // mat[base][col]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[base])]
        nz = [i for i in range(pr, len(mat)) if mat[i][col]]
        if not nz:
            continue
        mat[pr], mat[nz[0]] = mat[nz[0]], mat[pr]
        if mat[pr][col] < 0:
            mat[pr] = [-a for a in mat[pr]]
        for i in range(pr):
            q = mat[i][col] // mat[pr][col]
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[pr])]
        pr += 1
        if pr == len(mat):
            break
    return tuple(tuple(r) for r in mat if any(r))


def int_kernel(mat: Sequence[Sequence[int]]) -> tuple[IntVec, ...]:
    """Basis of the saturated lattice {x in Z^m : x @ mat = 0}."""
    m = len(mat)
    if m == 0:
        return ()
    k = len(mat[0])
    aug = [list(mat[i]) + [1 if j == i else 0 for j in range(m)] for i in range(m)]
    reduced = hnf(aug)
    out = [r[k:] for r in reduced if not any(r[:k])]
    # rows with zero data part may not be in canonical form as a set of tails
    return hnf(out)


@dataclass(frozen=True)
class Lattice:
    """A full or partial rank sublattice of Z^ambient in canonical HNF."""

    ambient: int
    basis: tuple[IntVec, ...]

    @staticmethod
    def from_rows(ambient: int, rows: Iterable[Sequence]) -> "Lattice":
        int_rows = []
        for r in rows:
            ints, den = _int_vec(r)
            if den != 1:
                raise ValueError("lattice rows must be integral")
            if len(ints) != ambient:
                raise DimensionMismatch("row width vs ambient")
            int_rows.append(ints)
        return Lattice(ambient, hnf(int_rows))

    @staticmethod
    def standard(n: int) -> "Lattice":
        return Lattice(n, tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(ambient: int) -> "Lattice":
        return Lattice(ambient, ())

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def is_zero(self) -> bool:
        return not self.basis

    def span(self) -> Subspace:
        return Subspace.from_rows(self.ambient, self.basis)

    def coords_of(self, v: Sequence) -> IntVec | None:
        """Integer coefficients against the HNF basis, or None if outside.

        Back-substitutes in integers: the lattice lies in Z^ambient, so a
        vector with a non-integral entry is outside at once.
        """
        if len(v) != self.ambient:
            raise DimensionMismatch("vector/ambient mismatch")
        residual, den = _int_vec(v)
        if den != 1:
            return None
        coeffs = []
        for row in self.basis:
            p = next(j for j, x in enumerate(row) if x)
            c, r = divmod(residual[p], row[p])
            if r:
                return None
            coeffs.append(c)
            if c:
                residual = [a - c * b for a, b in zip(residual, row)]
        if any(residual):
            return None
        return tuple(coeffs)

    def contains_vec(self, v: Sequence) -> bool:
        return self.coords_of(v) is not None

    def contains(self, other: "Lattice") -> bool:
        if other.ambient != self.ambient:
            raise DimensionMismatch("ambient mismatch")
        return all(self.contains_vec(r) for r in other.basis)

    def add(self, other: "Lattice") -> "Lattice":
        if other.ambient != self.ambient:
            raise DimensionMismatch("ambient mismatch")
        return Lattice(self.ambient, hnf(list(self.basis) + list(other.basis)))

    def intersect(self, other: "Lattice") -> "Lattice":
        if other.ambient != self.ambient:
            raise DimensionMismatch("ambient mismatch")
        if self.is_zero or other.is_zero:
            return Lattice.zero(self.ambient)
        stacked = [list(r) for r in self.basis] + [[-x for x in r] for r in other.basis]
        rows = []
        for rel in int_kernel(stacked):
            a = rel[: self.rank]
            rows.append([sum(a[i] * self.basis[i][j] for i in range(self.rank))
                         for j in range(self.ambient)])
        return Lattice(self.ambient, hnf(rows))


def lattice_intersect_subspace(lat: Lattice, sub: Subspace) -> Lattice:
    """The lattice {x in lat : x in sub}; saturated in lat by construction."""
    if lat.ambient != sub.ambient:
        raise DimensionMismatch("lattice/subspace ambient mismatch")
    if lat.is_zero or sub.dim == 0:
        return Lattice.zero(lat.ambient)
    normals = kernel_rows(sub.rows, sub.ambient)  # rows w with sub.rows @ w^T = 0
    if not normals:
        return lat  # subspace is everything
    cond = int_matmul(lat.basis, list(zip(*normals)), len(normals))
    return Lattice(lat.ambient, hnf(int_matmul(int_kernel(cond), lat.basis, lat.ambient)))


def saturation(lat: Lattice, sub: "Lattice") -> Lattice:
    """Saturation of sub inside lat: lat's vectors in the rational span of sub."""
    return lattice_intersect_subspace(lat, sub.span())


# -- Smith normal form ------------------------------------------------------------


def snf(rows: Sequence[Sequence[int]]) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Smith normal form with transforms: returns (D, U, V) with U @ A @ V = D.

    U and V are unimodular; D is diagonal with d1 | d2 | ... >= 0.
    """
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def row_sub(i, j, q):
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i, j, q):
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    t = 0
    while t < min(m, n):
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    row_sub(i, t, q)
                    if a[i][t]:
                        swap_rows(i, t)
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    col_sub(j, t, q)
                    if a[t][j]:
                        swap_cols(j, t)
                        dirty = True
            if not dirty and all(a[i][t] == 0 for i in range(t + 1, m)) \
                    and all(a[t][j] == 0 for j in range(t + 1, n)):
                break
        # divisibility: a[t][t] must divide the rest of the block
        fixed = False
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t]:
                    row_sub(t, i, -1)  # add row i to row t, then restart this t
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return (tuple(tuple(r) for r in a),
            tuple(tuple(r) for r in u),
            tuple(tuple(r) for r in v))

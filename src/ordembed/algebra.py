"""Structure-constant algebras over Q, integral orders, and ring operations.

An algebra is given by a multiplication table on a fixed basis; an order is
a full-rank multiplication-closed lattice containing the unit. Elements are
coordinate rows against the algebra basis. Left/right multiplication
operators follow the column convention of `linalg`, which makes
a -> left_mult_op(a) an algebra homomorphism into matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Iterable, Iterator, Protocol, Sequence

from .errors import (
    CertificateFailure,
    DimensionMismatch,
    NonSaturatedIdeal,
    NotAssociative,
    NoUnit,
    OracleIncomplete,
    ParseError,
)
from .exact import PolyQ, rat, rat_str
from .linalg import (
    IntVec,
    Lattice,
    MatQ,
    RowSolver,
    Subspace,
    Vec,
    clear_denominators,
    echelon_closure,
    echelon_insert,
    hnf,
    inverse,
    kernel_rows,
    lattice_intersect_subspace,
    over_common_den,
    rank,
    rational_row,
    row_times_mat,
    snf,
    vec,
)

@dataclass(frozen=True)
class StructureAlgebra:
    """Finite-dimensional associative unital algebra over Q.

    The structure constants are stored once, in integers: b_i b_j is the sum
    of t / den * b_m over the pairs (m, t) in `products[i][j]`, which lists
    the nonzero entries in increasing m. `den` is least, so equal tables
    give equal objects. `from_ints` and `from_table` build one; the rational
    `table` is a view for documents.
    """

    name: str
    basis_labels: tuple[str, ...]
    unit: Vec
    den: int
    products: tuple[tuple[tuple[tuple[int, int], ...], ...], ...]

    @classmethod
    def from_ints(cls, name: str, basis_labels: Sequence[str], unit: Sequence, den: int,
                  rows: Sequence[Sequence[Sequence[int]]]) -> StructureAlgebra:
        """The algebra with b_i b_j = rows[i][j] / den, dividing out gcd(den, every entry)."""
        g = gcd(den, *(t for row in rows for prod in row for t in prod))
        return cls(name, tuple(basis_labels), vec(unit), den // g, tuple(
            tuple(tuple((m, t // g) for m, t in enumerate(prod) if t) for prod in row)
            for row in rows
        ))

    @classmethod
    def from_table(cls, name: str, basis_labels: Sequence[str], unit: Sequence,
                   table: Sequence[Sequence[Sequence]]) -> StructureAlgebra:
        """The algebra with b_i b_j = table[i][j], the rational rows cleared once."""
        n = len(table)
        ints, den = clear_denominators([prod for row in table for prod in row])
        rows = [ints[i * n:(i + 1) * n] for i in range(n)]
        return cls.from_ints(name, basis_labels, unit, den, rows)

    @property
    def dim(self) -> int:
        return len(self.basis_labels)

    @cached_property
    def table(self) -> tuple[tuple[Vec, ...], ...]:
        """The rational structure constants, table[i][j] = b_i b_j: a view for documents."""

        def entry(prod: tuple[tuple[int, int], ...]) -> Vec:
            ints = [0] * self.dim
            for m, t in prod:
                ints[m] = t
            return rational_row(ints, self.den)

        return tuple(tuple(entry(prod) for prod in row) for row in self.products)

    @cached_property
    def _unit_rows(self) -> tuple[Vec, ...]:
        return MatQ.identity(self.dim).rows

    def basis_vec(self, i: int) -> Vec:
        return self._unit_rows[i]

    def _int_terms(self, a: Sequence) -> tuple[list[tuple[int, int]], int]:
        """(i, t) per nonzero entry of an element, with a[i] == t / den; and den."""
        if len(a) != self.dim:
            raise DimensionMismatch("element length vs algebra dim")
        terms = [(i, c) for i, c in enumerate(a) if c]
        den = lcm(*[c.denominator for _, c in terms])
        if den == 1:
            return [(i, c.numerator) for i, c in terms], 1
        return [(i, c.numerator * (den // c.denominator)) for i, c in terms], den

    def mul_terms(
        self, u_terms: Iterable[tuple[int, int]], v_terms: Sequence[tuple[int, int]]
    ) -> list[int]:
        """The product of two elements given by their (i, int) terms, as integers over den."""
        acc = [0] * self.dim
        for i, a in u_terms:
            row = self.products[i]
            for j, b in v_terms:
                ab = a * b
                for m, c in row[j]:
                    acc[m] += ab * c
        return acc

    def mul_ints(self, u: Sequence, v: Sequence) -> tuple[list[int], int]:
        """The product u * v as an integer row over a denominator; u, v may be rows of `int`."""
        u_terms, u_den = self._int_terms(u)
        v_terms, v_den = self._int_terms(v)
        return self.mul_terms(u_terms, v_terms), self.den * u_den * v_den

    def mul(self, u: Sequence, v: Sequence) -> Vec:
        return rational_row(*self.mul_ints(u, v))

    def left_mult_op(self, a: Sequence) -> MatQ:
        """Column-convention matrix of v -> a*v: column j is a*b_j, in integers."""
        terms, den = self._int_terms(a)
        cols = (self.mul_terms(terms, ((j, 1),)) for j in range(self.dim))
        return MatQ.from_ints(zip(*cols), self.den * den)

    def right_mult_op(self, a: Sequence) -> MatQ:
        """Column-convention matrix of v -> v*a: column j is b_j*a, in integers."""
        terms, den = self._int_terms(a)
        cols = (self.mul_terms(((j, 1),), terms) for j in range(self.dim))
        return MatQ.from_ints(zip(*cols), self.den * den)

    @cached_property
    def int_traces(self) -> tuple[int, ...]:
        """Trace of each basis element's left operator, times den."""
        return tuple(
            sum(c for m, prod in enumerate(row) for p, c in prod if p == m) for row in self.products
        )

    def trace_form(self) -> tuple[list[list[int]], int]:
        """Gram matrix of the trace form, (rows, den): trace(b_i b_j) is rows[i][j] / den."""
        traces = self.int_traces
        return [[sum(c * traces[m] for m, c in prod) for prod in row]
                for row in self.products], self.den * self.den

    def int_powers(self, a: Sequence) -> Iterator[tuple[list[int], int]]:
        """a^0, a^1, a^2, ... without end, each an integer row over its own least denominator."""
        op = self.right_mult_op(a)
        (power,), scale = clear_denominators((self.unit,))
        while True:
            yield power, scale
            power = [sum(x * y for x, y in zip(r, power) if x) for r in op.ints]
            scale *= op.den
            g = gcd(*power, scale)
            power = [x // g for x in power]
            scale //= g

    def minimal_polynomial(self, a: Sequence) -> PolyQ:
        """Monic generator of {p : p(a) = 0}.

        The rows [a^k | e_k] of the integer powers, whose second part has
        room for the dim + 1 powers that must be dependent, go through one
        integer echelon; a row whose pivot lands in that second part is a
        relation among the powers, and its integers are the polynomial's.
        """
        n = self.dim
        scales = []
        echelon: list[tuple[list[int], int]] = []
        for k, (power, scale) in enumerate(self.int_powers(a)):
            scales.append(scale)
            echelon_insert(echelon, power + [1 if t == k else 0 for t in range(n + 1)])
            row, pivot = echelon[-1]
            if pivot >= n:
                # sum_t comb[t] * scales[t] * a^t == 0, and comb[k] != 0
                comb = row[n:]
                return PolyQ.from_ints((c * s for c, s in zip(comb, scales)), comb[k] * scales[k])


def _check_unit(alg: StructureAlgebra) -> None:
    """Column i of both multiplication operators of the unit must be e_i."""
    ops = (alg.left_mult_op(alg.unit), alg.right_mult_op(alg.unit))
    for i in range(alg.dim):
        for op in ops:
            if any(op.ints[m][i] != (op.den if m == i else 0) for m in range(alg.dim)):
                raise NoUnit(f"declared unit fails on basis element {alg.basis_labels[i]}")


def _assoc_defect(alg: StructureAlgebra, i: int, j: int, k: int) -> bool:
    """(e_i e_j) e_k != e_i (e_j e_k), compared in integers over den^2."""
    table = alg.products
    left = [0] * alg.dim
    for m, c in table[i][j]:
        for p, t in table[m][k]:
            left[p] += c * t
    right = [0] * alg.dim
    for m, c in table[j][k]:
        for p, t in table[i][m]:
            right[p] += c * t
    return left != right


def _check_associativity(alg: StructureAlgebra) -> None:
    """Raise NotAssociative at the first basis triple, in lexicographic order, that fails."""
    n = alg.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if _assoc_defect(alg, i, j, k):
                    raise NotAssociative(i, j, k)


def build_algebra(
    name: str,
    basis_labels: Sequence[str],
    unit: Sequence,
    table: Sequence[Sequence[Sequence]],
) -> StructureAlgebra:
    """Construct an algebra from a dense table, checking its unit and associativity."""
    labels = tuple(str(s) for s in basis_labels)
    n = len(labels)
    unit_v = vec(unit)
    if len(unit_v) != n:
        raise DimensionMismatch("unit length vs dim")
    if len(table) != n or any(len(row) != n for row in table):
        raise DimensionMismatch("table shape vs dim")
    dense = tuple(tuple(vec(table[i][j]) for j in range(n)) for i in range(n))
    for i in range(n):
        for j in range(n):
            if len(dense[i][j]) != n:
                raise DimensionMismatch(f"product ({i},{j}) has wrong length")
    alg = StructureAlgebra.from_table(name, labels, unit_v, dense)
    _check_unit(alg)
    _check_associativity(alg)
    return alg


def load_algebra(doc: dict) -> StructureAlgebra:
    """Validate a parsed algebra document (see the file format in the README)."""
    if not isinstance(doc, dict):
        raise ParseError("algebra document must be an object")
    try:
        name = str(doc["name"])
        dim = int(doc["dim"])
        basis = list(doc["basis"])
        unit = [rat(x) for x in doc["unit"]]
        entries = list(doc.get("table", []))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed algebra document: {exc}") from exc
    if dim < 0 or len(basis) != dim or len(unit) != dim:
        raise ParseError("dim, basis, and unit lengths disagree")
    table = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for entry in entries:
        try:
            i = int(entry["i"])
            j = int(entry["j"])
            c = [rat(x) for x in entry["c"]]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"malformed table entry: {exc}") from exc
        if not (0 <= i < dim and 0 <= j < dim) or len(c) != dim:
            raise ParseError(f"table entry ({i},{j}) out of range")
        table[i][j] = c
    return build_algebra(name, basis, unit, table)


def algebra_to_doc(alg: StructureAlgebra) -> dict:
    entries = []
    for i in range(alg.dim):
        for j in range(alg.dim):
            if alg.products[i][j]:
                entries.append({"i": i, "j": j, "c": [rat_str(x) for x in alg.table[i][j]]})
    return {
        "name": alg.name,
        "dim": alg.dim,
        "basis": list(alg.basis_labels),
        "unit": [rat_str(x) for x in alg.unit],
        "table": entries,
    }


def product_algebra(
    parts: Sequence[StructureAlgebra],
    *,
    name: str | None = None,
    labels: Sequence[str] | None = None,
) -> StructureAlgebra:
    """Direct product with block coordinates, the parts in the given order.

    The table is block diagonal over the lcm of the parts' denominators,
    which is again least. The name defaults to the parts' names joined by
    '*', the labels to p{i}.{label} for part i.
    """
    if not parts:
        raise DimensionMismatch("empty product")
    den = lcm(*(p.den for p in parts))
    total = sum(p.dim for p in parts)
    products = []
    offset = 0
    for p in parts:
        f = den // p.den
        before, after = ((),) * offset, ((),) * (total - offset - p.dim)
        for row in p.products:
            block = tuple(tuple((offset + m, f * t) for m, t in prod) for prod in row)
            products.append(before + block + after)
        offset += p.dim
    return StructureAlgebra(
        name or "*".join(p.name for p in parts),
        tuple(labels) if labels is not None else tuple(
            f"p{i}.{s}" for i, p in enumerate(parts) for s in p.basis_labels
        ),
        tuple(x for p in parts for x in p.unit),
        den,
        tuple(products),
    )


def induced_algebra(
    a: StructureAlgebra,
    basis_rows: MatQ,
    *,
    name: str,
    unit_hint: Sequence | None = None,
    labels: Sequence[str] | None = None,
) -> StructureAlgebra:
    """Subalgebra on the given (independent) basis rows, with its own unit.

    The rows must span a multiplication-closed subspace. The unit of the
    subalgebra is solved for when no hint is supplied; corner algebras eAe
    pass their idempotent e. Every product is solved in integers, and the
    table is built from those integers over one common denominator.
    """
    k = basis_rows.nrows
    solver = RowSolver(basis_rows)
    if solver.rank != k:
        raise DimensionMismatch("subalgebra basis rows are dependent")
    # basis row i is ints[i] / d, and column q of op is ints[i] * e_q over op.den
    ints, d = basis_rows.ints, basis_rows.den
    terms = [a._int_terms(r)[0] for r in ints]
    coords = []
    for i in range(k):
        op = a.left_mult_op(ints[i])
        for j, j_terms in enumerate(terms):
            acc = [sum(r[q] * y for q, y in j_terms) for r in op.ints]
            sol = solver.solve_ints(acc, op.den * d * d)
            if sol is None:
                raise DimensionMismatch(
                    f"subspace not closed under multiplication at pair ({i},{j})"
                )
            coords.append(sol)
    flat, den = over_common_den(coords)
    rows = [flat[i * k:(i + 1) * k] for i in range(k)]
    if unit_hint is not None:
        unit_coords = solver.solve(vec(unit_hint))
        if unit_coords is None:
            raise NoUnit("unit hint lies outside the subalgebra")
    else:
        # solve u * b_i = b_i = b_i * u in subalgebra coordinates, on the
        # table times den
        system = RowSolver(MatQ.from_ints((
            [x for i in range(k) for x in rows[s][i] + rows[i][s]] for s in range(k)
        ), 1))
        want = [den if t == i else 0 for i in range(k) for _ in range(2) for t in range(k)]
        sol = system.solve_ints(want)
        if sol is None:
            raise NoUnit(f"subalgebra {name} has no two-sided unit")
        unit_coords = rational_row(*sol)
    lab = tuple(labels) if labels is not None else tuple(f"b{i}" for i in range(k))
    return StructureAlgebra.from_ints(name, lab, unit_coords, den, rows)


def quotient_algebra_by_subspace(
    a: StructureAlgebra, ideal: Subspace, *, name: str
) -> tuple[StructureAlgebra, MatQ]:
    """Quotient of a Q-algebra by a two-sided ideal subspace.

    Returns the quotient and the projection matrix P (dim x qdim), applied
    to elements as row_times_mat(x, P). Canonical coset representatives are
    supported on the non-pivot coordinates of the ideal's RREF basis.
    """
    if ideal.ambient != a.dim:
        raise DimensionMismatch("ideal ambient vs algebra dim")
    piv = set(ideal.pivots)
    free = [j for j in range(a.dim) if j not in piv]

    def project(v: Sequence) -> Vec:
        residual = ideal.reduce_vec(v)
        return tuple(residual[j] for j in free)

    reps = [a.basis_vec(f) for f in free]
    table = [[project(a.mul(x, y)) for y in reps] for x in reps]
    labels = tuple(a.basis_labels[f] for f in free)
    quotient = StructureAlgebra.from_table(name, labels, project(a.unit), table)
    proj_mat = MatQ.from_rows(project(a.basis_vec(i)) for i in range(a.dim))
    return quotient, proj_mat


# -- ring-theoretic operations ----------------------------------------------------


def centre(a: StructureAlgebra) -> Subspace:
    """{z : z b = b z for all b}, as one kernel of integer commutator rows.

    e_i z - z e_i has entry m equal to sum_j z_j (T[i][j][m] - T[j][i][m]),
    so each pair (i, m) gives one row; zero and repeated rows are dropped.
    """
    n = a.dim
    if n == 0:
        return Subspace.zero(0)
    table = a.products
    rows: dict[tuple[int, ...], None] = {}
    for i in range(n):
        comm = [[0] * n for _ in range(n)]
        for j in range(n):
            for m, c in table[i][j]:
                comm[m][j] += c
            for m, c in table[j][i]:
                comm[m][j] -= c
        for r in comm:
            if any(r):
                rows[tuple(r)] = None
    if not rows:
        return Subspace.full(n)
    return Subspace.from_rows(n, kernel_rows(list(rows), n))


def left_annihilator(a: StructureAlgebra, s: Subspace) -> Subspace:
    """{x : x * v = 0 for all v in s}."""
    return _annihilator(a, s, left=True)


def right_annihilator(a: StructureAlgebra, s: Subspace) -> Subspace:
    """{x : v * x = 0 for all v in s}."""
    return _annihilator(a, s, left=False)


def _annihilator(a: StructureAlgebra, s: Subspace, *, left: bool) -> Subspace:
    """The kernel of the stacked integer operators x -> x*v (left) or x -> v*x, v in s."""
    if s.ambient != a.dim:
        raise DimensionMismatch("subspace ambient vs algebra dim")
    if s.dim == 0:
        return Subspace.full(a.dim)
    op = a.right_mult_op if left else a.left_mult_op
    rows = [r for v in s.rows for r in op(v).ints]
    return Subspace.from_rows(a.dim, kernel_rows(rows, a.dim))


def two_sided_ideal_subspace(a: StructureAlgebra, gens: Iterable[Sequence]) -> Subspace:
    """Smallest two-sided ideal subspace of the Q-algebra containing gens."""
    n = a.dim

    def products(x: list[int]) -> Iterable[list[int]]:
        """e_i * x and x * e_i for each basis element e_i, in integers."""
        terms = [(j, c) for j, c in enumerate(x) if c]
        for i in range(n):
            yield a.mul_terms(((i, 1),), terms)
            yield a.mul_terms(terms, ((i, 1),))

    seeds, _ = clear_denominators(list(gens))
    return Subspace.from_rows(n, echelon_closure(seeds, products))


# -- orders and lattice ideals -----------------------------------------------------


@dataclass(frozen=True)
class OrderRing:
    """A unital multiplication-closed full-rank lattice in its ambient algebra.

    `coord_algebra` carries the structure constants re-expressed in the
    lattice basis (integral by closure); ideal and quotient computations
    happen in those coordinates.
    """

    ambient: StructureAlgebra
    lattice: Lattice
    coord_algebra: StructureAlgebra

    @property
    def rank(self) -> int:
        return self.lattice.rank

    @property
    def name(self) -> str:
        return self.coord_algebra.name


def build_order(
    ambient: StructureAlgebra,
    lattice: Lattice | None = None,
    *,
    name: str | None = None,
) -> OrderRing:
    n = ambient.dim
    if lattice is None:
        lattice = Lattice.standard(n)
    if lattice.ambient != n:
        raise DimensionMismatch("lattice ambient vs algebra dim")
    if lattice.rank != n:
        raise ParseError("order lattice must have full rank")
    unit_coords = lattice.coords_of(ambient.unit)
    if unit_coords is None:
        raise NoUnit("order lattice does not contain the unit")
    terms = [[(j, x) for j, x in enumerate(row) if x] for row in lattice.basis]
    coords = lattice.coords_batch(
        (ambient.mul_terms(a, b) for a in terms for b in terms), ambient.den)
    if None in coords:
        i, j = divmod(coords.index(None), n)
        raise ParseError(f"order lattice not closed under multiplication at pair ({i},{j})")
    table = [coords[i * n:(i + 1) * n] for i in range(n)]
    standard = lattice.basis == Lattice.standard(n).basis
    coord_alg = StructureAlgebra.from_ints(
        name or ambient.name,
        ambient.basis_labels if standard else tuple(f"g{i}" for i in range(n)),
        unit_coords,
        1,
        table,
    )
    return OrderRing(ambient, lattice, coord_alg)


def load_order(doc: dict) -> OrderRing:
    alg = load_algebra(doc)
    lattice = None
    if "lattice" in doc:
        try:
            rows = [[int(x) for x in row] for row in doc["lattice"]]
        except (TypeError, ValueError) as exc:
            raise ParseError(f"malformed lattice rows: {exc}") from exc
        lattice = Lattice.from_rows(alg.dim, rows)
    return build_order(alg, lattice)


def order_to_doc(order: OrderRing) -> dict:
    doc = algebra_to_doc(order.ambient)
    std = Lattice.standard(order.ambient.dim)
    if order.lattice.basis != std.basis:
        doc["lattice"] = [list(row) for row in order.lattice.basis]
    return doc


@dataclass(frozen=True)
class LatticeIdeal:
    """Two-sided ideal of an order, stored in order coordinates (HNF)."""

    parent: OrderRing
    lattice: Lattice
    saturated: bool

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def span(self) -> Subspace:
        return self.lattice.span()


def build_ideal(parent: OrderRing, lat: Lattice) -> LatticeIdeal:
    """The ideal on lat, checked closed under both multiplications in integers.

    The products e_i g and g e_i, per basis row g and then per index i, are
    integer rows over den; they go through one batch of lattice coordinates,
    and the first outside the lattice names the side that fails.
    """
    n = parent.rank
    alg = parent.coord_algebra
    products = []
    for g in lat.basis:
        g_terms = [(j, x) for j, x in enumerate(g) if x]
        for i in range(n):
            products.append(alg.mul_terms(((i, 1),), g_terms))
            products.append(alg.mul_terms(g_terms, ((i, 1),)))
    coords = lat.coords_batch(products, alg.den)
    if None in coords:
        side = "right" if coords.index(None) % 2 else "left"
        raise ParseError(f"ideal rows not closed under {side} multiplication")
    return LatticeIdeal(parent, lat, saturated=_is_saturated(lat))


def _is_saturated(lat: Lattice) -> bool:
    """Whether Z^n / lat is torsion-free.

    It is iff the r x r minors of the basis H have gcd 1, iff the columns
    of H span Z^r, iff every pivot of the HNF of H transposed is 1.
    """
    return all(next(x for x in row if x) == 1 for row in hnf(zip(*lat.basis)))


def _saturate_in_order(lat: Lattice) -> Lattice:
    if lat.is_zero:
        return lat
    return lattice_intersect_subspace(Lattice.standard(lat.ambient), lat.span())


def saturate_ideal(ideal: LatticeIdeal) -> LatticeIdeal:
    sat = _saturate_in_order(ideal.lattice)
    return LatticeIdeal(ideal.parent, sat, saturated=True)


def is_regular(parent: OrderRing, r: Sequence) -> bool:
    """True iff r is a non-zero-divisor in the ambient algebra."""
    a = parent.coord_algebra
    rv = vec(r)
    return rank(a.left_mult_op(rv)) == a.dim and rank(a.right_mult_op(rv)) == a.dim


@dataclass(frozen=True)
class QuotientResult:
    order: OrderRing
    projection: MatQ  # rank x qrank, applied as row_times_mat(x, projection)
    lifts: tuple[IntVec, ...]  # one preimage row per quotient basis vector

    @property
    def is_zero(self) -> bool:
        return self.order.rank == 0


def quotient_by_ideal(parent: OrderRing, ideal: LatticeIdeal, *, name: str | None = None) -> QuotientResult:
    """Quotient order R/I with the coordinate projection.

    Refuses non-saturated ideals: the error carries the saturation so the
    caller can decide to saturate explicitly.
    """
    if ideal.parent is not parent and ideal.parent.lattice != parent.lattice:
        raise DimensionMismatch("ideal belongs to a different order")
    if not ideal.saturated:
        raise NonSaturatedIdeal(saturate_ideal(ideal))
    n = parent.rank
    k = ideal.rank
    alg = parent.coord_algebra
    qname = name or f"{parent.name}.quot"
    if k == 0:
        return QuotientResult(
            build_order(alg, name=qname),
            MatQ.identity(n),
            tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n)),
        )
    d, _, v = snf([list(r) for r in ideal.lattice.basis])
    if any(d[i][i] != 1 for i in range(k)):
        raise CertificateFailure(message="saturated ideal has an invariant factor other than 1")
    v_mat = MatQ.from_rows(v)
    w = inverse(v_mat)  # rows of w are an adapted basis of Z^n
    if w.den != 1:
        raise CertificateFailure(message="Smith transform is not unimodular")
    proj = MatQ.from_ints((r[k:] for r in v), 1)
    lifts = w.ints[k:]
    q = n - k
    if q == 0:
        empty = StructureAlgebra.from_ints(qname, (), (), 1, ())
        return QuotientResult(OrderRing(empty, Lattice.zero(0), empty), proj, ())

    def project(x: Sequence) -> Vec:
        return row_times_mat(x, proj)

    reps = [vec(x) for x in lifts]
    table = [[project(alg.mul(x, y)) for y in reps] for x in reps]
    quot_alg = StructureAlgebra.from_table(
        qname, tuple(f"q{i}" for i in range(q)), project(alg.unit), table
    )
    return QuotientResult(build_order(quot_alg), proj, lifts)


# -- one-sided inverses -----------------------------------------------------------


class MultOracle(Protocol):
    """Black-box ring window for the one-sided inverse obstruction.

    Any method may return None to signal that the product or difference
    leaves the window the oracle knows about.
    """

    def one(self): ...

    def mul(self, a, b): ...

    def sub(self, a, b): ...

    def is_zero(self, a) -> bool | None: ...


@dataclass(frozen=True)
class ObstructionResult:
    refuted: bool
    idempotents: tuple
    window: int


def _oracle_eq(oracle: MultOracle, a, b) -> bool:
    diff = oracle.sub(a, b)
    if diff is None:
        raise OracleIncomplete("difference left the oracle window")
    z = oracle.is_zero(diff)
    if z is None:
        raise OracleIncomplete("zero test left the oracle window")
    return bool(z)


def _oracle_mul(oracle: MultOracle, a, b):
    p = oracle.mul(a, b)
    if p is None:
        raise OracleIncomplete("product left the oracle window")
    return p


def one_sided_inverse_obstruction(oracle: MultOracle, x, y, n: int) -> ObstructionResult:
    """Certified idempotent family from a one-sided inverse.

    Requires y*x = 1 (checked; ValueError otherwise). If x*y = 1 too, there
    is no obstruction and the result is a refutation. Otherwise returns
    e_0..e_n with e_i = x^i y^i - x^(i+1) y^(i+1), verified pairwise
    orthogonal, idempotent, and nonzero: a witness that the ring embeds in
    no semisimple Artinian ring.
    """
    if n < 0:
        raise ValueError("window must be nonnegative")
    one = oracle.one()
    yx = _oracle_mul(oracle, y, x)
    if not _oracle_eq(oracle, yx, one):
        raise ValueError("y*x != 1: obstruction requires a left inverse")
    xy = _oracle_mul(oracle, x, y)
    if _oracle_eq(oracle, xy, one):
        return ObstructionResult(refuted=True, idempotents=(), window=n)
    xp = [one]
    yp = [one]
    for _ in range(n + 1):
        xp.append(_oracle_mul(oracle, xp[-1], x))
        yp.append(_oracle_mul(oracle, yp[-1], y))
    f = [_oracle_mul(oracle, xp[i], yp[i]) for i in range(n + 2)]
    ee = []
    for i in range(n + 1):
        e = oracle.sub(f[i], f[i + 1])
        if e is None:
            raise OracleIncomplete("difference left the oracle window")
        ee.append(e)
    for i, e in enumerate(ee):
        z = oracle.is_zero(e)
        if z is None:
            raise OracleIncomplete("zero test left the oracle window")
        if z:
            raise OracleIncomplete(
                f"idempotent e_{i} vanished: oracle window is inconsistent with y*x=1"
            )
        if not _oracle_eq(oracle, _oracle_mul(oracle, e, e), e):
            raise OracleIncomplete(f"e_{i}^2 != e_{i} inside the oracle window")
    for i in range(n + 1):
        for j in range(n + 1):
            if i == j:
                continue
            p = _oracle_mul(oracle, ee[i], ee[j])
            z = oracle.is_zero(p)
            if z is None:
                raise OracleIncomplete("zero test left the oracle window")
            if not z:
                raise OracleIncomplete(f"e_{i} e_{j} != 0 inside the oracle window")
    return ObstructionResult(refuted=False, idempotents=tuple(ee), window=n)

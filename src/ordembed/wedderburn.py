"""Radical, Wedderburn decomposition, split status, and module machinery.

The decomposition pipeline: the Jacobson radical comes from the char-0
trace-form criterion; a semisimple algebra is split into simple blocks by
factoring minimal polynomials of centre elements and lifting the factors to
orthogonal central idempotents; each simple block's division part is then
resolved as far as rational arithmetic allows (commutative and quaternion
cases certified, anything beyond reported as Unknown rather than guessed).

While a command runs (`fact_store`, opened by `cli._execute`), five results
are kept once per command and looked up on integer data, never on names:
decompositions (on the table, the unit and the seed; the radical check is
part of what is kept, so a stored decomposition computes no radical), split
statuses (on the block's table and unit, its centre dimension and reduced
degree, the budget and the seed), commutants (on the generators, the budget
and the seed), structure constants of a matrix basis (on the matrices) and
operator algebras (on the generators). A stored result is re-labelled for each
caller: its algebra and block names are the caller's. Failures are not
stored, and outside a command every call computes.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

from .algebra import (
    StructureAlgebra,
    centre,
    induced_algebra,
    quotient_algebra_by_subspace,
)
from .errors import (
    CertificateFailure,
    DimensionMismatch,
    NotInvariant,
    NotSemisimple,
    NotSemisimpleAction,
    SearchExhausted,
)
from .exact import PolyQ, factor_rational_poly
from .hilbert import ramified_places
from .linalg import (
    MatQ,
    RowSolver,
    Subspace,
    Vec,
    clear_denominators,
    echelon_closure,
    int_identity_vec,
    int_matmul,
    kernel,
    kernel_rows,
    left_kernel,
    over_common_den,
    rational_row,
    row_times_mat,
    solve_row,
    vec_rows,
)

DECOMPOSE_CANDIDATE_CAP = 5000

# The facts of the command being run, by key; None outside a command.
_FACTS: ContextVar[dict | None] = ContextVar("ordembed_facts", default=None)


@contextmanager
def fact_store():
    """Keep each stored fact once while the block runs, and drop them all after.

    A store opened inside another hides the outer one until it closes.
    """
    token = _FACTS.set({})
    try:
        yield
    finally:
        _FACTS.reset(token)


def _recall(key: tuple, compute, *args):
    """compute(*args), run once per key while a store is open; a raise is not kept."""
    facts = _FACTS.get()
    if facts is None:
        return compute(*args)
    value = facts.get(key)
    if value is None:
        value = facts[key] = compute(*args)
    return value


def radical(a: StructureAlgebra) -> Subspace:
    """Jacobson radical via the trace form of the left regular representation.

    Over Q the radical is exactly {x : trace(L_{xb}) = 0 for all b}, the
    kernel of the Gram matrix G[i][j] = trace(L_{b_i b_j}).
    """
    n = a.dim
    if n == 0:
        return Subspace.zero(0)
    gram, _ = a.trace_form()
    return Subspace.from_rows(n, kernel_rows(list(zip(*gram)), n))


def semisimple_quotient(a: StructureAlgebra, *, name: str | None = None) -> tuple[StructureAlgebra, MatQ]:
    """A / rad(A) with the projection matrix."""
    rad = radical(a)
    return quotient_algebra_by_subspace(a, rad, name=name or f"{a.name}.ss")


# -- split status -------------------------------------------------------------------


@dataclass(frozen=True)
class SplitStatus:
    """Resolution of the division part of a simple component.

    kind is one of "split" (component is a matrix ring over its centre),
    "quaternion_division", or "unknown". Certificates: matrix units come as
    orthogonal idempotents in component coordinates when the zero-divisor
    search succeeded; quaternion decisions carry the ramified places of the
    associated (a, b) pair.
    """

    kind: str
    matrix_size: int | None = None
    budget: int | None = None
    note: str = ""
    places: tuple = ()
    idempotents: tuple[Vec, ...] = ()

    @staticmethod
    def split(n: int, *, note: str = "", idempotents: tuple[Vec, ...] = ()) -> "SplitStatus":
        return SplitStatus("split", matrix_size=n, note=note, idempotents=idempotents)

    @staticmethod
    def quaternion_division(places: Iterable, *, note: str = "") -> "SplitStatus":
        return SplitStatus("quaternion_division", matrix_size=1, note=note,
                           places=tuple(places))

    @staticmethod
    def unknown(budget: int, *, note: str = "") -> "SplitStatus":
        return SplitStatus("unknown", budget=budget, note=note)

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"


@dataclass(frozen=True)
class SimpleComponent:
    """One simple block of a semisimple algebra.

    `algebra` carries the restricted structure constants in block
    coordinates; `block_rows` maps block coordinates back into the parent
    (one parent-coordinate row per block basis vector); `idempotent` is the
    block's central idempotent in parent coordinates.
    """

    algebra: StructureAlgebra
    centre_dim: int
    reduced_degree: int
    split_status: SplitStatus
    idempotent: Vec
    block_rows: MatQ

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def matrix_size(self) -> int | None:
        return self.split_status.matrix_size

    def to_parent(self, coords: Sequence) -> Vec:
        return row_times_mat(coords, self.block_rows)

    def subspace(self) -> Subspace:
        return Subspace.from_rows(self.block_rows.ncols, self.block_rows.ints)


@dataclass(frozen=True)
class SemisimpleDecomposition:
    parent: StructureAlgebra
    central_idempotents: tuple[Vec, ...]
    components: tuple[SimpleComponent, ...]

    def __len__(self) -> int:
        return len(self.components)


def _centre_candidates(dim: int, seed: int):
    """Deterministic stream of nonzero integer coefficient vectors."""
    for i in range(dim):
        yield tuple(1 if j == i else 0 for j in range(dim))
    if dim > 1:
        for combo in itertools.product((-1, 0, 1), repeat=dim):
            if any(combo) and combo > tuple(-x for x in combo):
                yield combo
    rng = random.Random(seed)
    bound = 2
    count = 0
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(dim))
        if any(v):
            yield v
        count += 1
        if count % 50 == 0:
            bound += 1


def _crt_idempotents(b: StructureAlgebra, z: Sequence, factors: list[tuple[PolyQ, int]]) -> list[Vec]:
    """Orthogonal idempotents from the factored minimal polynomial of z.

    The i-th is g_i(z), for the g_i of degree below n = deg(prod q_j) that is
    1 modulo q_i and 0 modulo the other factor powers q_j: one integer solve
    against the rows of residues of x^k modulo each q_j, k < n.
    """
    mods = [f ** mult for f, mult in factors]
    n = sum(q.degree for q in mods)
    rows = []
    residues = [PolyQ.one()] * len(mods)
    for _ in range(n):
        blocks, den = over_common_den([(r.ints + (0,) * (q.degree - len(r.ints)), r.den)
                                       for r, q in zip(residues, mods)])
        rows.append(([x for block in blocks for x in block], den))
        residues = [PolyQ.from_ints((0,) + r.ints, r.den) % q for r, q in zip(residues, mods)]
    solver = RowSolver(MatQ.from_ints(*over_common_den(rows)))
    if solver.rank != n:
        raise CertificateFailure(message="coprime factor powers have a nonconstant gcd")
    powers, den = over_common_den(list(itertools.islice(b.int_powers(z), n)))
    out = []
    offset = 0
    for q in mods:
        g, g_den = solver.solve_ints([1 if t == offset else 0 for t in range(n)])
        out.append(rational_row(int_matmul([g], powers, b.dim)[0], g_den * den))
        offset += q.degree
    return out


def decompose(a: StructureAlgebra, *, seed: int = 0) -> SemisimpleDecomposition:
    """Split a semisimple algebra into simple blocks via its centre.

    Components come back in canonical order: by dimension, then by
    lexicographic comparison of the central idempotents. Kept per command
    on a's table and unit, radical check included: a decomposition of an
    equal table under another name gets a as its parent and its block
    names. NotSemisimple is raised each time, never kept.
    """
    dec = _recall(("decompose", a.den, a.products, a.unit, seed), _split_blocks, a, seed)
    if dec.parent is a:
        return dec
    name = f"{a.name}.blk"
    return SemisimpleDecomposition(a, dec.central_idempotents, tuple(
        c if c.algebra.name == name else replace(c, algebra=replace(c.algebra, name=name))
        for c in dec.components
    ))


def _whole_block(a: StructureAlgebra) -> StructureAlgebra:
    """a as a block of itself: `induced_algebra` on the identity rows, without the products."""
    return replace(a, name=f"{a.name}.blk", basis_labels=tuple(f"b{i}" for i in range(a.dim)))


def _split_blocks(a: StructureAlgebra, seed: int) -> SemisimpleDecomposition:
    """The body of `decompose`: rad(a) = 0 checked, then blocks split off by central idempotents.

    The whole algebra is the first block, in its own coordinates; later
    blocks carry their rows in a's coordinates.
    """
    rad = radical(a)
    if rad.dim:
        raise NotSemisimple(rad)
    if a.dim == 0:
        return SemisimpleDecomposition(a, (), ())

    finished: list[tuple[Vec, MatQ | None, StructureAlgebra, int]] = []
    queue: list[tuple[Vec, MatQ | None]] = [(a.unit, None)]
    while queue:
        unit_vec, rows = queue.pop()
        if rows is None:
            block = _whole_block(a)
        else:
            block = induced_algebra(a, rows, name=f"{a.name}.blk", unit_hint=unit_vec)
        z_sub = centre(block)
        c = z_sub.dim
        if c == 1:
            finished.append((unit_vec, rows, block, 1))
            continue
        split_found = False
        certified_field = False
        for tries, combo in enumerate(_centre_candidates(c, seed)):
            if tries >= DECOMPOSE_CANDIDATE_CAP:
                raise SearchExhausted(
                    DECOMPOSE_CANDIDATE_CAP,
                    "centre splitting failed to certify a field within the candidate cap",
                )
            # combo over the RREF basis, times its common pivot
            z = int_matmul([combo], z_sub.basis.ints, block.dim)[0]
            mp = block.minimal_polynomial(z)
            factors = factor_rational_poly(mp)
            if len(factors) > 1:
                idems = _crt_idempotents(block, z, factors)
                for e in idems:
                    image = Subspace.image(block.left_mult_op(e)).basis
                    if rows is None:
                        queue.append((e, image))
                    else:
                        queue.append((row_times_mat(e, rows), image * rows))
                split_found = True
                break
            if factors and factors[0][1] == 1 and factors[0][0].degree == c:
                certified_field = True
                break
        if split_found:
            continue
        if not certified_field:
            raise CertificateFailure(message="centre candidate search ended without a field")
        finished.append((unit_vec, rows, block, c))

    components = []
    for unit_vec, rows, block, c in finished:
        d = block.dim
        m = isqrt(d // c)
        if m * m * c != d:
            raise CertificateFailure(
                {"dim": d, "centre_dim": c},
                "component dimension must be centre_dim * square",
            )
        status = SplitStatus.split(1) if m == 1 else SplitStatus.unknown(0, note="unresolved")
        components.append(SimpleComponent(
            algebra=block,
            centre_dim=c,
            reduced_degree=m,
            split_status=status,
            idempotent=unit_vec,
            block_rows=MatQ.identity(a.dim) if rows is None else rows,
        ))
    components.sort(key=lambda comp: (comp.dim, comp.idempotent))
    # consistency, in integers: idempotent, summing to the unit, orthogonal
    for i, comp in enumerate(components):
        if not _is_idempotent(a, comp.idempotent):
            raise CertificateFailure({"component": i}, f"idempotent {i} does not square to itself")
    (*idems, unit), _ = clear_denominators([comp.idempotent for comp in components] + [a.unit])
    if [sum(col) for col in zip(*idems)] != unit:
        raise CertificateFailure(message="central idempotents do not sum to the unit")
    for i, ei in enumerate(idems):
        for j, ej in enumerate(idems):
            if i != j and any(a.mul_ints(ei, ej)[0]):
                raise CertificateFailure(
                    {"components": [i, j]}, f"idempotents {i} and {j} are not orthogonal"
                )
    return SemisimpleDecomposition(a, tuple(c.idempotent for c in components),
                                   tuple(components))


# -- zero-divisor search and split resolution ---------------------------------------


def _candidate_elements(b: StructureAlgebra, seed: int):
    """Deterministic stream of integer elements of b, as rows of `int`, for the splitting search."""
    n = b.dim
    basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    yield from basis
    for i in range(n):
        for j in range(i + 1, n):
            yield tuple(x + y for x, y in zip(basis[i], basis[j]))
            yield tuple(x - y for x, y in zip(basis[i], basis[j]))
    rng = random.Random(seed)
    bound = 1
    count = 0
    while True:
        v = tuple(rng.randint(-bound, bound) for _ in range(n))
        if any(v):
            yield v
        count += 1
        if count % 40 == 0:
            bound += 1


def _find_zero_divisor(b: StructureAlgebra, budget: int, seed: int) -> tuple[list[int] | None, int]:
    """A nonzero non-invertible element of b, or None when budget runs out.

    Looks for elements with reducible minimal polynomial; if p = f*g with f
    irreducible, f evaluated at the element is a zero divisor. Returns the
    witness, as an integer row up to a positive scale, and the budget spent.
    """
    spent = 0
    for cand in _candidate_elements(b, seed):
        if spent >= budget:
            return None, spent
        spent += 1
        mp = b.minimal_polynomial(cand)
        if mp.degree <= 1:
            continue
        factors = factor_rational_poly(mp)
        if len(factors) == 1 and factors[0][1] == 1:
            continue
        f, _mult = factors[0]
        powers, _ = over_common_den(list(itertools.islice(b.int_powers(cand), len(f.ints))))
        z = int_matmul([f.ints], powers, b.dim)[0]
        if any(z):
            return z, spent
    return None, spent


def _idempotent_from_left_ideal(b: StructureAlgebra, z: Sequence) -> Vec:
    """The idempotent generator of the left ideal b*z (b semisimple).

    e = sum c_t r_t over the RREF basis r_i = R_i / P with r_i * e = r_i for
    every i; times den * P^2, sum_t c_t R_i R_t = den * P * R_i in integers.
    """
    ideal = Subspace.image(b.right_mult_op(z)).basis
    system = ([x for ri in ideal.ints for x in b.mul_ints(ri, rt)[0]] for rt in ideal.ints)
    coeffs = solve_row(MatQ.from_ints(system, 1),
                       [b.den * ideal.den * x for r in ideal.ints for x in r])
    if coeffs is None:
        raise CertificateFailure(message="semisimple left ideal has no idempotent generator")
    e = row_times_mat(coeffs, ideal)
    if not _is_idempotent(b, e):
        raise CertificateFailure(message="left ideal generator does not square to itself")
    return e


def _is_idempotent(b: StructureAlgebra, e: Sequence) -> bool:
    """e * e == e, compared in integers."""
    (ints,), den = clear_denominators((e,))
    return b.mul_ints(ints, ints)[0] == [b.den * den * x for x in ints]


def _quaternion_invariants(b: StructureAlgebra) -> tuple[Fraction, Fraction]:
    """Standard-form parameters (alpha, beta) of a dim-4 central simple Q-algebra.

    Finds trace-zero u, v with u^2 = alpha, v^2 = beta, uv = -vu; then the
    algebra is determined by the Hilbert symbols of (alpha, beta). The
    searches always succeed on small integer boxes: the norm form on the
    trace-zero space is nondegenerate, and a quadratic form vanishing on
    all of {-1,0,1}^dim vanishes identically.
    """
    n = b.dim
    if n != 4:
        raise CertificateFailure({"dim": n}, "a quaternion algebra has dimension 4")
    # trace-zero subspace of the regular representation
    v_basis = kernel(MatQ.from_ints([b.int_traces], 1))
    if v_basis.nrows != 3:
        raise CertificateFailure({"dim": v_basis.nrows}, "the trace-zero part has dimension 3")
    u, alpha = _scalar_square(b, v_basis)
    # orthogonal complement of u in V under the form x*y + y*x; u and the
    # rows are integer multiples, which leave the relations as they are
    conditions = [[p + q for p, q in zip(b.mul_ints(u, row)[0], b.mul_ints(row, u)[0])]
                  for row in v_basis.ints]
    rel = left_kernel(MatQ.from_ints(conditions, 1))
    if rel.nrows != 2:
        raise CertificateFailure({"dim": rel.nrows}, "the complement of u has dimension 2")
    v, beta = _scalar_square(b, rel * v_basis)
    if any(p + q for p, q in zip(b.mul_ints(u, v)[0], b.mul_ints(v, u)[0])):
        raise CertificateFailure(message="u and v do not anticommute")
    return alpha, beta


def _scalar_square(b: StructureAlgebra, rows: MatQ) -> tuple[list[int], Fraction]:
    """The first combination of rows, coefficients in {-1, 0, 1}, with a nonzero scalar square.

    The combination comes back as an integer row, rows.den times the element.
    """
    for combo in itertools.product((-1, 0, 1), repeat=rows.nrows):
        if not any(combo):
            continue
        cand = int_matmul([combo], rows.ints, rows.ncols)[0]
        prod, den = b.mul_ints(cand, cand)
        sq = _as_scalar(b, (prod, den * rows.den ** 2))
        if sq is None:
            raise CertificateFailure(message="the square of a trace-zero element is not scalar")
        if sq != 0:
            return cand, sq
    raise CertificateFailure(message="the norm form vanishes on {-1, 0, 1}^dim")


def _as_scalar(b: StructureAlgebra, x: tuple[list[int], int]) -> Fraction | None:
    """The rational c with ints / den == c * unit for x = (ints, den), or None."""
    ints, den = x
    (unit,), unit_den = clear_denominators((b.unit,))
    p = next(i for i, t in enumerate(unit) if t)
    if any(s * unit[p] != t * ints[p] for s, t in zip(ints, unit)):
        return None
    return Fraction(ints[p] * unit_den, den * unit[p])


def resolve_split_status(component: SimpleComponent, budget: int, *, seed: int = 0) -> SimpleComponent:
    """Decide whether a simple component is a matrix ring over its centre.

    Commutative components are certified immediately; dim-4 components with
    rational centre are decided exactly through Hilbert symbols; everything
    else runs a budgeted zero-divisor search that peels off orthogonal
    idempotents until every corner collapses onto the centre. Components
    that resist (division parts of reduced degree >= 3, or matrix rings
    over quaternion division algebras) come back Unknown: no guessing.
    The status holds no names, and is kept per command.
    """
    if component.split_status.kind != "unknown":
        return component
    b = component.algebra
    key = ("split", b.den, b.products, b.unit, component.centre_dim,
           component.reduced_degree, budget, seed)
    status = _recall(key, _split_status, component, budget, seed)
    return replace(component, split_status=status)


def _split_status(component: SimpleComponent, budget: int, seed: int) -> SplitStatus:
    """The body of `resolve_split_status`."""
    b = component.algebra
    c = component.centre_dim
    m = component.reduced_degree
    if m == 1:
        return SplitStatus.split(1)
    if m == 2 and c == 1:
        alpha, beta = _quaternion_invariants(b)
        places = ramified_places(alpha, beta)
        if places:
            return SplitStatus.quaternion_division(places, note=f"({alpha},{beta}) ramified")
        # split by symbols; look for explicit matrix units within budget
        status = _peel_matrix_units(component, budget, seed)
        if status.is_unknown:
            status = SplitStatus.split(2, note=f"({alpha},{beta}) unramified; units not located")
        return status
    return _peel_matrix_units(component, budget, seed)


def _peel_matrix_units(component: SimpleComponent, budget: int, seed: int) -> SplitStatus:
    """Peel orthogonal idempotents until corners certify, within budget."""
    b = component.algebra
    c = component.centre_dim
    m = component.reduced_degree
    idempotents: list[Vec] = [b.unit]
    remaining = budget
    while True:
        # the first idempotent f whose corner f*b*f is larger than the centre
        for pos, f in enumerate(idempotents):
            corner_rows = Subspace.image(b.left_mult_op(f) * b.right_mult_op(f)).basis
            if corner_rows.nrows != c:
                break
        else:
            if len(idempotents) != m:
                raise CertificateFailure(
                    {"idempotents": len(idempotents), "reduced_degree": m},
                    "fully peeled component must expose reduced_degree idempotents",
                )
            return SplitStatus.split(m, idempotents=tuple(idempotents),
                                     note="zero-divisor search")
        corner = induced_algebra(b, corner_rows, name=f"{b.name}.corner",
                                 unit_hint=f)
        # a dim-4 rational corner is decided by Hilbert symbols before
        # any search budget is spent on it
        if c == 1 and corner.dim == 4:
            alpha, beta = _quaternion_invariants(corner)
            places = ramified_places(alpha, beta)
            if places:
                if len(idempotents) == 1:
                    return SplitStatus.quaternion_division(
                        places, note=f"({alpha},{beta}) ramified")
                return SplitStatus.unknown(
                    budget,
                    note="matrix ring over a quaternion division algebra; "
                         "outside the certificate vocabulary",
                )
        z_local, spent = _find_zero_divisor(corner, remaining, seed)
        remaining -= spent
        if z_local is None:
            return SplitStatus.unknown(budget, note="budget exhausted")
        e_local = _idempotent_from_left_ideal(corner, z_local)
        e = row_times_mat(e_local, corner_rows)
        f_minus_e = tuple(x - y for x, y in zip(f, e))
        if not (any(e) and any(f_minus_e)):
            raise CertificateFailure(message="a peeled idempotent is zero")
        idempotents[pos:pos + 1] = [e, f_minus_e]


def resolve_all(dec: SemisimpleDecomposition, budget: int, *, seed: int = 0) -> SemisimpleDecomposition:
    comps = tuple(resolve_split_status(c, budget, seed=seed) for c in dec.components)
    return replace(dec, components=comps)


# -- operator algebras and modules ---------------------------------------------------


@dataclass(frozen=True)
class OperatorAlgebra:
    """Unital multiplication-closed span of square matrices."""

    module_dim: int
    generators: tuple[MatQ, ...]
    spanned: Subspace  # of the d*d matrix space, row-major vectorization

    @property
    def dim(self) -> int:
        return self.spanned.dim

    def basis_matrices(self) -> tuple[MatQ, ...]:
        return _basis_matrices(self.spanned, self.module_dim)


def _basis_matrices(sub: Subspace, d: int) -> tuple[MatQ, ...]:
    """The RREF basis of a subspace of row-major d x d matrices, one matrix per row."""
    return tuple(MatQ.from_ints((r[i * d:(i + 1) * d] for i in range(d)), r[c])
                 for r, c in zip(sub.rows, sub.pivots))


def operator_algebra(gens: Sequence[MatQ], module_dim: int | None = None) -> OperatorAlgebra:
    """Smallest unital multiplication-closed subspace containing the generators."""
    if gens:
        d = gens[0].nrows
        for g in gens:
            if g.shape != (d, d):
                raise DimensionMismatch("generators must be square and equal-sized")
    else:
        if module_dim is None:
            raise DimensionMismatch("module_dim required when no generators are given")
        d = module_dim
    if module_dim is not None and module_dim != d:
        raise DimensionMismatch("module_dim disagrees with generator size")
    gens = tuple(gens)
    return OperatorAlgebra(d, gens, _recall(("operators", gens, d), _closure, gens, d))


def _closure(gens: tuple[MatQ, ...], d: int) -> Subspace:
    """The body of `operator_algebra`: the span of all words in the generators."""
    int_gens = [g.ints for g in gens]

    def products(x: list[int]) -> Iterable[list[int]]:
        x_rows = [x[i * d:(i + 1) * d] for i in range(d)]
        for g in int_gens:
            yield [y for r in int_matmul(x_rows, g, d) for y in r]

    # The span of all words in the generators is the smallest subspace that
    # holds I and is closed under right multiplication by each generator.
    seeds = [int_identity_vec(d)] + [[x for r in g for x in r] for g in int_gens]
    return Subspace.from_rows(d * d, echelon_closure(seeds, products))


def matrices_to_algebra(mats: Sequence[MatQ], *, name: str) -> tuple[StructureAlgebra, tuple[MatQ, ...]]:
    """Structure algebra of an independent list of matrices closed under products.

    The identity must lie in the span (it becomes the unit). Each matrix is
    cleared to integers over its denominator once; the k^2 products are
    integer matrix products, solved in integers, and the table is built
    from those integers over one common denominator. Kept per command on
    the matrices, and named `name` for each caller.
    """
    mats = tuple(mats)
    alg = _recall(("structure", mats), _structure_algebra, mats, name)
    return (alg if alg.name == name else replace(alg, name=name)), mats


def _structure_algebra(mats: tuple[MatQ, ...], name: str) -> StructureAlgebra:
    """The body of `matrices_to_algebra`."""
    if not mats:
        raise DimensionMismatch("empty matrix basis")
    d, k = mats[0].nrows, len(mats)
    solver = RowSolver(vec_rows(mats))
    coords = []
    for x in mats:
        for y in mats:
            prod = [t for r in int_matmul(x.ints, y.ints, d) for t in r]
            sol = solver.solve_ints(prod, x.den * y.den)
            if sol is None:
                raise DimensionMismatch("matrix list not closed under products")
            coords.append(sol)
    unit = solver.solve_ints(int_identity_vec(d))
    if unit is None:
        raise DimensionMismatch("identity matrix outside the span")
    flat, den = over_common_den(coords)
    return StructureAlgebra.from_ints(
        name, tuple(f"m{i}" for i in range(k)), rational_row(*unit), den,
        [flat[i * k:(i + 1) * k] for i in range(k)],
    )


def spanned_algebra(e: OperatorAlgebra, *, name: str = "spanned") -> tuple[StructureAlgebra, tuple[MatQ, ...]]:
    return matrices_to_algebra(e.basis_matrices(), name=name)


def commutant_matrices(e: OperatorAlgebra) -> tuple[MatQ, ...]:
    """Basis of {X : XG = GX for all generators G}, in canonical RREF order.

    The generators are imposed one at a time. The first one's conditions
    form the d^2 x d^2 system vec(X) @ (kron(I, G) - kron(G^T, I)) = 0, built
    entry by entry; each later generator only constrains the combinations
    of the basis found so far, through vec(XG - GX) for each basis matrix X.
    Scalar generators commute with everything and are passed over. Both
    systems are integer multiples of the true ones, which have the same
    left kernel: a generator G may be scaled, and so may the basis.
    """
    d = e.module_dim
    gens = [g.ints for g in e.generators if not _is_scalar(g)]
    if not gens:
        return _basis_matrices(Subspace.full(d * d), d)
    # the left kernel of a system is the kernel of its transpose
    basis = kernel_rows(list(zip(*_commutator_system(gens[0]))), d * d)
    for g in gens[1:]:
        # never empty: the identity commutes with every generator
        system = [_commutator_vec(x, g) for x in basis]
        combos = kernel_rows(list(zip(*system)), len(system))
        basis = int_matmul(combos, basis, d * d)
    return _basis_matrices(Subspace.from_rows(d * d, basis), d)


def _is_scalar(g: MatQ) -> bool:
    if not g.ints:
        return True
    c = g.ints[0][0]
    return all(x == (c if i == j else 0) for i, r in enumerate(g.ints) for j, x in enumerate(r))


def _commutator_system(g: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """kron(I, G) - kron(G^T, I) for an integer G: row i*d + j is vec(E_ij G - G E_ij)."""
    d = len(g)
    rows = []
    for i in range(d):
        for j in range(d):
            row = [0] * (d * d)
            for l in range(d):
                row[i * d + l] += g[j][l]
            for k in range(d):
                row[k * d + j] -= g[k][i]
            rows.append(tuple(row))
    return tuple(rows)


def _commutator_vec(x: Sequence[int], g: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """vec(XG - GX) for integer G and X given as its row-major vec(X)."""
    d = len(g)
    out = [0] * (d * d)
    for i in range(d):
        for k in range(d):
            a = x[i * d + k]  # X[i][k] adds X[i][k] * G[k] to row i of XG
            if a:
                for l, b in enumerate(g[k]):
                    out[i * d + l] += a * b
            a = g[i][k]  # G[i][k] adds G[i][k] * X[k] to row i of GX
            if a:
                for l in range(d):
                    out[i * d + l] -= a * x[k * d + l]
    return tuple(out)


def simple_commutant(
    e: OperatorAlgebra, budget: int, *, name: str, seed: int = 0
) -> tuple[StructureAlgebra, SimpleComponent, tuple[MatQ, ...]]:
    """The commutant of an isotypic module, with its split status resolved.

    Returns the commutant as an algebra named `name`, its single simple
    component after resolve_split_status within `budget`, and the matrices
    its basis stands for. The module must be isotypic under `e` (a simple
    module is), which makes the commutant simple. Kept per command on the
    generators, the budget and the seed; the component's algebra is named
    `name`.blk for each caller.
    """
    key = ("commutant", e.module_dim, e.generators, budget, seed)
    alg, comp, mats = _recall(key, _simple_commutant, e, budget, name, seed)
    if alg.name != name:
        alg = replace(alg, name=name)
        comp = replace(comp, algebra=replace(comp.algebra, name=f"{name}.blk"))
    return alg, comp, mats


def _simple_commutant(
    e: OperatorAlgebra, budget: int, name: str, seed: int
) -> tuple[StructureAlgebra, SimpleComponent, tuple[MatQ, ...]]:
    """The body of `simple_commutant`."""
    alg, mats = matrices_to_algebra(commutant_matrices(e), name=name)
    dec = decompose(alg, seed=seed)
    if len(dec.components) != 1:
        raise CertificateFailure({"components": len(dec.components)},
                                 "commutant of an isotypic module is not simple")
    return alg, resolve_split_status(dec.components[0], budget, seed=seed), mats


def isotypic_split(e: OperatorAlgebra, *, seed: int = 0) -> tuple[Subspace, ...]:
    """Isotypic decomposition of the module under a semisimple action.

    A spanned algebra with a radical raises NotSemisimpleAction.
    """
    alg, mats = spanned_algebra(e)
    try:
        dec = decompose(alg, seed=seed)
    except NotSemisimple as exc:
        raise NotSemisimpleAction("the spanned operator algebra has nonzero radical") from exc
    parts = []
    covered = 0
    for comp in dec.components:
        image = combination_image([comp.idempotent], mats)
        if image.dim == 0:
            raise CertificateFailure(message="a nonzero idempotent matrix has zero image")
        parts.append(image)
        covered += image.dim
    if covered != e.module_dim:
        raise CertificateFailure({"covered": covered, "module_dim": e.module_dim},
                                 "isotypic images do not fill the module")
    return tuple(parts)


def combination_image(coords: Iterable[Sequence], mats: Sequence[MatQ]) -> Subspace:
    """The span of the columns of sum_k c[k] * mats[k], over every c in coords.

    Each combination is formed once, in integers: the coefficients and the
    matrices are each taken over one denominator, which no span notices.
    """
    d = mats[0].nrows
    sums = int_matmul(clear_denominators(list(coords))[0], vec_rows(mats).ints, d * d)
    return Subspace.from_rows(d, [s[j::d] for s in sums for j in range(d)])


def restrict_op(op: MatQ, w: Subspace) -> MatQ:
    """Matrix of a column-convention operator restricted to an invariant subspace.

    Column k is op(b_k) in w's RREF basis b: its pivot entries, read off
    the integer image of b's row k once that lies in w. The basis rows and
    the operator share one denominator each, so every column does too.
    """
    basis = w.basis
    images = int_matmul(basis.ints, list(zip(*op.ints)), op.nrows)
    for image in images:
        if not w.contains_vec(image):
            raise NotInvariant("operator does not preserve the subspace")
    cols = ([image[p] for p in w.pivots] for image in images)
    return MatQ.from_ints(zip(*cols), op.den * basis.den)


@dataclass(frozen=True)
class SimplicityResult:
    kind: str  # "simple" | "not_simple" | "unknown"
    witness: Subspace | None = None
    note: str = ""
    budget: int | None = None

    @property
    def is_simple(self) -> bool:
        return self.kind == "simple"


def simple_pieces(
    e: OperatorAlgebra, budget: int, *, seed: int = 0
) -> tuple[tuple[Subspace, ...], SimplicityResult]:
    """Cut an isotypic module into simple pieces along its commutant ("End", simple_commutant).

    A field or quaternion-division commutant leaves the module whole, as its
    one piece. A split M_n(K) with its n certified idempotents cuts it into
    n equal pieces, each with a corner of M_n(K), the field K, as its
    endomorphism ring. Returns the pieces with the SimplicityResult each
    carries; any other commutant gives no pieces and an "unknown" result.
    """
    _, comp, mats = simple_commutant(e, budget, name="End", seed=seed)
    status = comp.split_status
    whole = (Subspace.full(e.module_dim),)
    if status.kind == "quaternion_division":
        return whole, SimplicityResult("simple", note="commutant is quaternion division")
    if status.kind == "split" and status.matrix_size == 1:
        return whole, SimplicityResult("simple", note="commutant is a field")
    if status.kind == "split" and status.idempotents:
        pieces = tuple(combination_image([comp.to_parent(x)], mats) for x in status.idempotents)
        for piece in pieces:
            if piece.dim * len(pieces) != e.module_dim:
                raise CertificateFailure(
                    {"block_dim": piece.dim, "blocks": len(pieces), "part_dim": e.module_dim},
                    "commutant idempotents cut blocks of unequal size")
        return pieces, SimplicityResult("simple", note="commutant is a field")
    note = "split commutant without explicit idempotent" if status.kind == "split" else status.note
    return (), SimplicityResult("unknown", budget=budget, note=note)


def certify_simple_module(e: OperatorAlgebra, w: Subspace, budget: int, *, seed: int = 0) -> SimplicityResult:
    """Decide simplicity of an invariant subspace under the generated action.

    NotSimple witnesses are proper nonzero invariant subspaces in ambient
    module coordinates. An isotypic semisimple module is simple when
    simple_pieces leaves it whole; a cut one has its first piece as witness.

    When w is the whole module (its canonical RREF basis is the identity)
    the given action is reused as it is: restricting to w would return the
    same generators and closing them again the same algebra.
    """
    if w.ambient != e.module_dim:
        raise DimensionMismatch("subspace ambient vs module dim")
    if w.dim == 0:
        return SimplicityResult("not_simple", witness=w, note="zero module")
    if w.dim == w.ambient:
        sub_action = e
    else:
        restricted = [restrict_op(g, w) for g in e.generators]
        sub_action = operator_algebra(restricted, module_dim=w.dim)
    try:
        parts = isotypic_split(sub_action, seed=seed)
    except NotSemisimpleAction:
        # rad * W is invariant, nonzero (the action on W is faithful by
        # construction) and proper (the radical is nilpotent)
        alg, mats = spanned_algebra(sub_action)
        witness = w.lift(combination_image(radical(alg).rows, mats))
        if not 0 < witness.dim < w.dim:
            raise CertificateFailure({"witness_dim": witness.dim, "module_dim": w.dim},
                                     "radical witness is not a proper nonzero submodule")
        return SimplicityResult(
            "not_simple",
            witness=witness,
            note="restricted action is not semisimple",
        )
    if len(parts) > 1:
        return SimplicityResult("not_simple", witness=w.lift(parts[0]),
                                note="multiple isotypic components")
    pieces, simplicity = simple_pieces(sub_action, budget, seed=seed)
    if len(pieces) > 1:
        return SimplicityResult("not_simple", witness=w.lift(pieces[0]),
                                note="commutant contains a proper idempotent")
    return simplicity

"""Embeddings of orders into semisimple algebras, and their minimization.

An Embedding is an injective unital ring morphism from a Z-order R into a
semisimple rational algebra, recorded as the matrix of lattice-basis images.
The pipeline takes such an embedding apart and rebuilds a smaller one:

* reduce_redundant drops codomain components not needed for injectivity and
  certifies the projection;
* bimodule_ladder splits one component A_i into simple (R, A_i)-bimodule
  summands; their left annihilators in R are minimal primes;
* minimize_step keeps an irredundant family of summands, forms the product
  of their endomorphism rings B, and certifies the reduction with two
  commuting morphisms: a monomorphism from the full summand product back
  into the codomain, and the projection onto the kept part;
* classify decides the natural and elementary properties per prime, and
  minimize_to_elementary iterates reduction steps to the elementary fixpoint.

All claims ship with checkable witnesses: morphism certificates are matrices
verified entry by entry once, when they are made, annihilators are saturated
integer lattices, and the simplicity of a ladder summand comes from the
split's commutant certificate (wedderburn.simple_pieces).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from .algebra import (
    LatticeIdeal,
    OrderRing,
    StructureAlgebra,
    algebra_to_doc,
    build_ideal,
    is_regular,
    left_annihilator,
    load_algebra,
    load_order,
    order_to_doc,
    product_algebra,
    quotient_by_ideal,
    right_annihilator,
    two_sided_ideal_subspace,
)
from .errors import (
    CertificateFailure,
    DimensionMismatch,
    DomainNotSemiprime,
    NotElementary,
    NotIrredundant,
    NotNatural,
    NotRegular,
    NotSemiprime,
    NotSemisimple,
    ParseError,
    UnmatchedComponents,
    UnresolvedSimplicity,
)
from .linalg import (
    Lattice,
    MatQ,
    RowSolver,
    Subspace,
    clear_denominators,
    int_kernel,
    int_matmul,
    inverse,
    kernel_rows,
    lattice_intersect_subspace,
    mat_hstack,
    op_apply,
    over_common_den,
    rank,
    row_times_mat,
    vec,
    vec_rows,
    zero_vec,
)
from .wedderburn import (
    SemisimpleDecomposition,
    SimpleComponent,
    SimplicityResult,
    certify_simple_module,
    combination_image,
    decompose,
    isotypic_split,
    operator_algebra,
    radical,
    resolve_split_status,
    restrict_op,
    semisimple_quotient,
    simple_commutant,
    simple_pieces,
)

if TYPE_CHECKING:
    from .criteria import OrderFacts


# -- embedding records --------------------------------------------------------------


@dataclass(frozen=True)
class Embedding:
    """An injective unital ring morphism from an order into a semisimple algebra.

    `map` has one row per domain lattice basis vector, in the coordinates of
    `codomain.parent`. `component_assignment`, when present, names the index
    of the minimal prime of the domain matched to each codomain component.
    """

    domain: OrderRing
    codomain: SemisimpleDecomposition
    map: MatQ
    component_assignment: tuple[int, ...] | None = None

    @property
    def codomain_dim(self) -> int:
        return self.codomain.parent.dim


def _non_multiplicative_pair(
    src: StructureAlgebra, dst: StructureAlgebra, m: MatQ
) -> tuple[int, int] | None:
    """The first basis pair (i, j) with m(b_i b_j) != m(b_i) m(b_j), or None.

    With m the integer rows M over d, m(b_i b_j) is
    sum_k T_ij[k] M[k] / (src.den d) and m(b_i) m(b_j) is
    dst.mul_terms(M[i], M[j]) / (dst.den d^2); both are compared as integers.
    """
    ints, d = m.ints, m.den
    terms = [[(a, x) for a, x in enumerate(r) if x] for r in ints]
    for i, row in enumerate(src.products):
        for j, prod in enumerate(row):
            lhs = [sum(t * ints[k][a] for k, t in prod) for a in range(dst.dim)]
            rhs = dst.mul_terms(terms[i], terms[j])
            if any(p * d * dst.den != q * src.den for p, q in zip(lhs, rhs)):
                return i, j
    return None


def _check_ring_map(src: StructureAlgebra, dst: StructureAlgebra, m: MatQ) -> None:
    if m.shape != (src.dim, dst.dim):
        raise DimensionMismatch(
            f"map shape {m.shape} vs source dim {src.dim}, target dim {dst.dim}"
        )
    if row_times_mat(src.unit, m) != dst.unit:
        raise ParseError("map does not send the unit to the unit")
    pair = _non_multiplicative_pair(src, dst, m)
    if pair is not None:
        raise ParseError(f"map is not multiplicative at basis pair {pair}")


def build_embedding(
    domain: OrderRing,
    codomain: SemisimpleDecomposition,
    map_rows,
    *,
    assignment: tuple[int, ...] | None = None,
) -> Embedding:
    """Validate and freeze an embedding record.

    Checks the unital and multiplicative laws on all basis pairs and the
    injectivity of the matrix; raises ParseError with the failing detail.
    """
    m = map_rows if isinstance(map_rows, MatQ) else MatQ.from_rows(map_rows)
    _check_ring_map(domain.coord_algebra, codomain.parent, m)
    if rank(m) != domain.rank:
        raise ParseError("embedding map has a nonzero kernel")
    if assignment is not None and len(assignment) != len(codomain.components):
        raise DimensionMismatch("component assignment length vs component count")
    return Embedding(domain, codomain, m, assignment)


def _project_rows(
    codomain: SemisimpleDecomposition, rows: MatQ, keep: Sequence[int]
) -> MatQ:
    """Each row's block coordinates in the kept components, concatenated.

    A row v of the codomain's parent projects onto component i as v * e_i,
    with e_i its central idempotent; the result row lists the block
    coordinates of v * e_i for each i in `keep`, in that order. In
    integers: the rows times the transpose of the column-convention
    operator of right multiplication by e_i, solved against the block rows.
    """
    parent = codomain.parent
    blocks = []
    for i in keep:
        comp = codomain.components[i]
        op = parent.right_mult_op(comp.idempotent)
        solver = RowSolver(comp.block_rows)
        coords = []
        for v in int_matmul(rows.ints, list(zip(*op.ints)), parent.dim):
            sol = solver.solve_ints(v, rows.den * op.den)
            if sol is None:
                raise CertificateFailure(
                    {"component": i}, "a central projection leaves its own block"
                )
            coords.append(sol)
        blocks.append(MatQ.from_ints(*over_common_den(coords)))
    return mat_hstack(*blocks)


def canonical_embedding(facts: OrderFacts) -> Embedding:
    """The inclusion of R into its own rational span, in lattice coordinates.

    The codomain is the decomposition already held in `facts`; the ring-map
    and injectivity checks of build_embedding still run.
    """
    if not facts.semiprime:
        raise NotSemiprime(witness=facts.radical_witness)
    order, dec = facts.order, facts.decomposition
    return build_embedding(
        order, dec, MatQ.identity(order.rank),
        assignment=tuple(range(len(dec.components))),
    )


def load_embedding(
    doc: dict,
    *,
    resolver: Callable[[str], dict] | None = None,
    seed: int = 0,
) -> Embedding:
    """Build an embedding from its document.

    The document carries the domain order (inline or as a string reference
    resolved through `resolver`), the list of simple codomain components,
    and the map rows in concatenated component coordinates. Rationals are
    "p/q" strings.
    """

    def resolve(ref) -> dict:
        if isinstance(ref, str):
            if resolver is None:
                raise ParseError(f"reference {ref!r} given without a resolver")
            return resolver(ref)
        return ref

    if "domain" not in doc or "codomain" not in doc or "map" not in doc:
        raise ParseError("embedding document needs domain, codomain and map")
    domain = load_order(resolve(doc["domain"]))
    entries = doc["codomain"]
    if not isinstance(entries, list):
        raise ParseError("embedding codomain must be a list")
    if not entries:
        raise ParseError("embedding codomain list is empty")
    parts = []
    names = []
    for ent in entries:
        alg = load_algebra(resolve(ent))
        try:
            dec = decompose(alg, seed=seed)
        except NotSemisimple as exc:
            raise ParseError(f"codomain entry {alg.name!r} is not semisimple") from exc
        if len(dec.components) != 1:
            raise ParseError(f"codomain entry {alg.name!r} is not simple")
        comp = dec.components[0]
        parts.append((alg, comp.centre_dim, comp.reduced_degree, comp.split_status))
        names.append(alg.name)
    codomain = _product_decomposition(parts, name=" x ".join(names))
    try:
        rows = [[Fraction(str(x)) for x in row] for row in doc["map"]]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed map entry: {exc}") from exc
    return build_embedding(domain, codomain, MatQ.from_rows(rows))


def embedding_to_doc(
    emb: Embedding,
    *,
    name: str | None = None,
    domain_ref: str | None = None,
    codomain_refs: Sequence[str] | None = None,
) -> dict:
    """Document of an embedding, map rows in concatenated component coordinates."""
    doc: dict = {}
    if name is not None:
        doc["name"] = name
    doc["domain"] = domain_ref if domain_ref is not None else order_to_doc(emb.domain)
    if codomain_refs is not None:
        doc["codomain"] = list(codomain_refs)
    else:
        doc["codomain"] = [algebra_to_doc(c.algebra) for c in emb.codomain.components]
    coords = _project_rows(emb.codomain, emb.map, range(len(emb.codomain)))
    doc["map"] = [[str(x) for x in row] for row in coords.rows]
    return doc


# -- minimal primes -----------------------------------------------------------------


def _nilpotent_witness(order: OrderRing, exc: NotSemisimple) -> tuple[int, ...]:
    rad = exc.radical
    if rad is None or rad.dim == 0:
        raise CertificateFailure(message="a non-semisimple span carries no radical")
    witness = rad.rows[0]
    alg = order.coord_algebra
    power = vec(witness)
    for _ in range(alg.dim):
        power = alg.mul(power, vec(witness))
    if any(power):
        raise CertificateFailure({"witness": witness}, "radical witness is not nilpotent")
    return witness


def minimal_primes(order: OrderRing, *, seed: int = 0) -> tuple[LatticeIdeal, ...]:
    """Kernels of the projections of R onto the simple blocks of its span.

    Each returned ideal is saturated (the quotient is torsion-free), the
    family intersects to zero, and no member can be dropped; this is checked
    before returning. Non-semiprime input raises NotSemiprime carrying an
    integer nilpotent witness.
    """
    try:
        dec = decompose(order.coord_algebra, seed=seed)
    except NotSemisimple as exc:
        raise NotSemiprime(witness=_nilpotent_witness(order, exc)) from exc
    return primes_of_decomposition(order, dec)


def primes_of_decomposition(
    order: OrderRing, dec: SemisimpleDecomposition
) -> tuple[LatticeIdeal, ...]:
    """The minimal primes of R, read off the decomposition of its span.

    `dec` must decompose `order.coord_algebra`. This is the body of
    minimal_primes for callers that already hold the decomposition; the
    same saturation, zero-intersection and irredundance checks run.
    """
    n = order.rank
    blocks = [comp.block_rows.ints for comp in dec.components]
    primes = []
    for i in range(len(blocks)):
        others = Subspace.from_rows(n, [r for j, rows in enumerate(blocks) if j != i for r in rows])
        lat = lattice_intersect_subspace(Lattice.standard(n), others)
        ideal = build_ideal(order, lat.basis)
        if not ideal.saturated:
            raise CertificateFailure({"prime": i}, f"minimal prime {i} is not saturated")
        primes.append(ideal)
    spans = [p.span() for p in primes]
    # prefix[i] is the meet of spans[: i + 1] and suffix[i] that of spans[i:],
    # so the family without prime i meets in prefix[i - 1] and suffix[i + 1]
    prefix = spans[:1]
    for s in spans[1:]:
        prefix.append(prefix[-1].intersect(s))
    total = prefix[-1] if spans else Subspace.full(n)
    if total.dim:
        raise CertificateFailure({"intersection_dim": total.dim},
                                 "minimal primes do not intersect to zero")
    k = len(spans)
    if k > 1:
        suffix = {k - 1: spans[k - 1]}
        for i in range(k - 2, 0, -1):
            suffix[i] = spans[i].intersect(suffix[i + 1])
        for i in range(k):
            if 0 < i < k - 1:
                rest = prefix[i - 1].intersect(suffix[i + 1])
            else:
                rest = suffix[1] if i == 0 else prefix[k - 2]
            if rest.dim == 0:
                raise CertificateFailure({"prime": i},
                                         f"minimal prime {i} is redundant in the family")
    return tuple(primes)


def is_prime_lattice_ideal(order: OrderRing, ideal: LatticeIdeal, *, seed: int = 0) -> bool:
    """True iff the quotient by the ideal is an order in a simple algebra."""
    if not ideal.saturated:
        return False
    if ideal.rank == order.rank:
        return False
    quotient = quotient_by_ideal(order, ideal)
    try:
        dec = decompose(quotient.order.coord_algebra, seed=seed)
    except NotSemisimple:
        return False
    return len(dec.components) == 1


# -- morphism certificates ------------------------------------------------------------


@dataclass(frozen=True)
class MorphismCertificate:
    """A morphism between two embeddings of the same order.

    `alpha` maps the source codomain into the target codomain (one row per
    source parent basis vector) and must satisfy target = alpha after source
    on every lattice basis vector. `verified` is set by _require_verified,
    which runs verify_morphism once; reports read it.
    """

    source: Embedding
    target: Embedding
    alpha: MatQ
    kind: str  # "epi" | "mono" | "iso"
    verified: bool


def identity_certificate(f: Embedding) -> MorphismCertificate:
    cert = MorphismCertificate(f, f, MatQ.identity(f.codomain_dim), "iso", verified=False)
    return _require_verified(cert, "identity")


def verify_morphism(cert: MorphismCertificate) -> tuple[bool, dict]:
    """Re-check a morphism certificate entry by entry.

    Returns (ok, diagnostics). The diagnostics name the first failing basis
    pair or lattice basis vector.
    """
    src = cert.source.codomain.parent
    dst = cert.target.codomain.parent
    diag: dict = {
        "shape": cert.alpha.shape == (src.dim, dst.dim),
        "unital": False,
        "multiplicative": True,
        "triangle": True,
        "kind": False,
        "rank": None,
    }
    if not diag["shape"]:
        return False, diag
    diag["unital"] = row_times_mat(src.unit, cert.alpha) == dst.unit
    pair = _non_multiplicative_pair(src, dst, cert.alpha)
    if pair is not None:
        diag["multiplicative"] = False
        diag["failing_pair"] = pair
    for t in range(cert.source.domain.rank):
        if row_times_mat(cert.source.map.row(t), cert.alpha) != cert.target.map.row(t):
            diag["triangle"] = False
            diag["failing_basis_index"] = t
            break
    r = rank(cert.alpha)
    diag["rank"] = r
    if cert.kind == "epi":
        diag["kind"] = r == dst.dim
    elif cert.kind == "mono":
        diag["kind"] = r == src.dim
    elif cert.kind == "iso":
        diag["kind"] = src.dim == dst.dim and r == src.dim
    ok = all(
        diag[key] for key in
        ("shape", "unital", "multiplicative", "triangle", "kind")
    )
    return ok, diag


def _require_verified(cert: MorphismCertificate, what: str) -> MorphismCertificate:
    """`cert` marked verified once verify_morphism accepts it; else CertificateFailure."""
    ok, diag = verify_morphism(cert)
    if not ok:
        raise CertificateFailure(diag, f"{what} certificate failed: {diag}")
    return MorphismCertificate(cert.source, cert.target, cert.alpha, cert.kind, verified=True)


# -- redundancy reduction -------------------------------------------------------------


@dataclass(frozen=True)
class ReduceResult:
    embedding: Embedding
    dropped: tuple[int, ...]
    projection: MorphismCertificate | None  # None when nothing is dropped

    @property
    def certificate(self) -> MorphismCertificate:
        """The certified projection, or the identity, made on demand, when nothing is dropped."""
        if self.projection is None:
            return identity_certificate(self.embedding)
        return self.projection


def project_embedding(f: Embedding, keep: Sequence[int]) -> tuple[Embedding, MorphismCertificate]:
    """Compose with the projection onto a component subfamily.

    The kept family must preserve injectivity; the certified projection is
    returned alongside the projected embedding.
    """
    keep = tuple(keep)
    if not keep or sorted(set(keep)) != list(keep):
        raise DimensionMismatch("keep must be a nonempty strictly increasing index list")
    comps = [f.codomain.components[i] for i in keep]
    parts = [(c.algebra, c.centre_dim, c.reduced_degree, c.split_status) for c in comps]
    dec = _product_decomposition(parts, name=f"{f.codomain.parent.name}.proj")
    pr = _project_rows(f.codomain, MatQ.identity(f.codomain_dim), keep)
    new_map = f.map * pr
    assignment = None
    if f.component_assignment is not None:
        assignment = tuple(f.component_assignment[i] for i in keep)
    emb = build_embedding(f.domain, dec, new_map, assignment=assignment)
    cert = MorphismCertificate(f, emb, pr, "epi", verified=False)
    return emb, _require_verified(cert, "projection")


def _droppable(f: Embedding, keep: Sequence[int], idx: int) -> bool:
    """Whether f stays injective on the components of `keep` other than idx."""
    trial = [j for j in keep if j != idx]
    return bool(trial) and rank(_project_rows(f.codomain, f.map, trial)) == f.domain.rank


def reduce_redundant(f: Embedding) -> ReduceResult:
    """Drop codomain components until no single component can be removed.

    Components are tried from the last index down, so the kept family is the
    lexicographically earliest one the greedy pass can reach. The result is
    certified irredundant: removing any remaining component is re-checked to
    kill injectivity.
    """
    count = len(f.codomain.components)
    keep = list(range(count))
    while True:
        idx = next((i for i in reversed(keep) if _droppable(f, keep, i)), None)
        if idx is None:
            break
        keep.remove(idx)
    for idx in keep:
        if _droppable(f, keep, idx):
            raise CertificateFailure(
                {"component": idx}, "a kept component is redundant after reduction"
            )
    if len(keep) == count:
        return ReduceResult(f, (), None)
    emb, cert = project_embedding(f, keep)
    dropped = tuple(i for i in range(count) if i not in keep)
    return ReduceResult(emb, dropped, cert)


# -- bimodule ladders -----------------------------------------------------------------


@dataclass(frozen=True)
class LadderFactor:
    """One simple subquotient of a component, realized on an invariant summand.

    `upper` and `lower` are consecutive chain members; `carrier` is an
    invariant complement of `lower` inside `upper`, so the factor action
    lives on an honest subspace. Action matrices are in carrier-local
    coordinates: one left matrix per domain lattice basis vector, one right
    matrix per component basis vector.
    """

    upper: Subspace
    lower: Subspace
    carrier: Subspace
    left_action: tuple[MatQ, ...]
    right_action: tuple[MatQ, ...]
    annihilator: LatticeIdeal
    simplicity: SimplicityResult


@dataclass(frozen=True)
class BimoduleLadder:
    component: SimpleComponent
    chain: tuple[Subspace, ...]
    factors: tuple[LadderFactor, ...]

    def __len__(self) -> int:
        return len(self.factors)


def _annihilator_ideal(order: OrderRing, left_mats: Sequence[MatQ]) -> LatticeIdeal:
    # integer x with sum_t x[t] * left_mats[t] = 0, the matrices over one denominator
    ideal = build_ideal(order, int_kernel(vec_rows(left_mats).ints))
    if not ideal.saturated:
        raise CertificateFailure(message="annihilator ideal is not saturated")
    return ideal


def _left_ops_on_component(f: Embedding, index: int) -> tuple[MatQ, ...]:
    algebra = f.codomain.components[index].algebra
    coords = _project_rows(f.codomain, f.map, (index,))
    return tuple(algebra.left_mult_op(row) for row in coords.rows)


def bimodule_ladder(
    order: OrderRing,
    component: SimpleComponent,
    left_action: Sequence[MatQ],
    budget: int,
    *,
    seed: int = 0,
) -> BimoduleLadder:
    """Descending chain of sub-bimodules of a component with simple factors.

    The chain is assembled from a direct-summand decomposition (the combined
    action is semisimple for a semiprime domain): each isotypic part is cut
    by simple_pieces, so every factor comes with an invariant carrier, its
    action matrices, a saturated annihilator ideal and the simplicity
    certificate of its cut. A part whose commutant resists explicit
    splitting raises UnresolvedSimplicity.
    """
    d = component.dim
    for m in left_action:
        if m.shape != (d, d):
            raise DimensionMismatch("left action matrices must act on the component")
    if len(left_action) != order.rank:
        raise DimensionMismatch("one left action matrix per lattice basis vector")
    right_ops = tuple(
        component.algebra.right_mult_op(component.algebra.basis_vec(k))
        for k in range(d)
    )
    e = operator_algebra(tuple(left_action) + right_ops, module_dim=d)
    summands: list[tuple[Subspace, SimplicityResult]] = []
    for w in isotypic_split(e, seed=seed):
        restricted = operator_algebra(tuple(restrict_op(g, w) for g in e.generators), module_dim=w.dim)
        pieces, simplicity = simple_pieces(restricted, budget, seed=seed)
        if not pieces:
            raise UnresolvedSimplicity(
                budget, message=f"isotypic multiplicity not explicitly split: {simplicity.note}")
        summands.extend((w.lift(piece), simplicity) for piece in pieces)
    if sum(s.dim for s, _ in summands) != d:
        raise CertificateFailure(message="simple summands do not fill the component")
    chain = [Subspace.zero(d)]
    for s, _ in reversed(summands):
        chain.append(chain[-1].add(s))
    chain.reverse()
    if chain[0].dim != d:
        raise CertificateFailure(message="simple summands do not span the component")
    factors = []
    for j, (carrier, simplicity) in enumerate(summands):
        left_restricted = tuple(restrict_op(m, carrier) for m in left_action)
        right_restricted = tuple(restrict_op(m, carrier) for m in right_ops)
        ann = _annihilator_ideal(order, left_restricted)
        factors.append(LadderFactor(
            upper=chain[j],
            lower=chain[j + 1],
            carrier=carrier,
            left_action=left_restricted,
            right_action=right_restricted,
            annihilator=ann,
            simplicity=simplicity,
        ))
    return BimoduleLadder(component, tuple(chain), tuple(factors))


# -- collections and the minimization step --------------------------------------------


@dataclass(frozen=True)
class CollectionEntry:
    """A kept simple bimodule factor, keyed by its minimal prime."""

    prime_index: int
    prime: LatticeIdeal
    component_index: int
    factor_index: int
    carrier: Subspace
    left_action: tuple[MatQ, ...]
    right_action: tuple[MatQ, ...]
    end_algebra: StructureAlgebra
    length: int | None
    dim_proxy: int
    simplicity: SimplicityResult


@dataclass(frozen=True)
class Collection:
    parent: Embedding
    entries: tuple[CollectionEntry, ...]


@dataclass(frozen=True)
class MinimizeStepResult:
    """Output of one minimization step.

    `embedding` maps into the product of endomorphism rings of the kept
    factors; `combined` maps into the product over all factors. The two
    certificates make the reduction triangle commute: `into_parent` is the
    monomorphism from the combined product back into the original codomain
    (so original = into_parent after combined) and `onto_selected` is the
    projection of the combined product onto the kept part.
    """

    collection: Collection
    embedding: Embedding
    combined: Embedding
    into_parent: MorphismCertificate
    onto_selected: MorphismCertificate
    ladders: tuple[BimoduleLadder, ...]
    selected: tuple[tuple[int, int], ...]
    dropped: tuple[tuple[int, int], ...]
    source_size: int | None
    target_size: int | None


def _product_decomposition(parts: Sequence[tuple], *, name: str) -> SemisimpleDecomposition:
    """Assemble simple parts into a product algebra with slice components.

    Each part is (algebra, centre_dim, reduced_degree, split_status); the
    resulting decomposition keeps the listed order and carries the given
    split statuses through unchanged.
    """
    product = product_algebra([p[0] for p in parts], name=name)
    total = product.dim
    components = []
    idempotents = []
    offset = 0
    for alg, centre_dim, reduced_degree, status in parts:
        block_rows = MatQ.from_ints(
            ([1 if j == c else 0 for j in range(total)] for c in range(offset, offset + alg.dim)), 1)
        idem = zero_vec(offset) + alg.unit + zero_vec(total - offset - alg.dim)
        idempotents.append(idem)
        components.append(SimpleComponent(
            alg, centre_dim, reduced_degree, status, idem, block_rows,
        ))
        offset += alg.dim
    return SemisimpleDecomposition(product, tuple(idempotents), tuple(components))


def minimize_step(
    f: Embedding,
    primes: tuple[LatticeIdeal, ...],
    budget: int,
    *,
    seed: int = 0,
) -> MinimizeStepResult:
    """One reduction step: keep an irredundant family of simple factors.

    `primes` are the minimal primes of the domain, as minimal_primes returns
    them. Ladders are built per component; factor annihilators are minimal
    primes of the domain. Dropping factors greedily from the last canonical
    index leaves a family whose annihilators intersect to zero and biject
    onto min(R), which is verified. The kept endomorphism product B receives the
    domain through left multiplications, and the step emits the verified
    monomorphism of the full product into the original codomain together
    with the projection onto B. Dimension bounds (per component and, when
    split statuses are certified, total matrix size) are checked.
    """
    domain = f.domain
    family = range(len(f.codomain.components))
    for i in family:
        if _droppable(f, family, i):
            raise NotIrredundant(f"component {i} can be dropped")

    ladders = []
    factors: dict[tuple[int, int], LadderFactor] = {}
    order_keys: list[tuple[int, int]] = []
    for i, comp in enumerate(f.codomain.components):
        ladder = bimodule_ladder(
            domain, comp, _left_ops_on_component(f, i), budget, seed=seed
        )
        ladders.append(ladder)
        for j, fac in enumerate(ladder.factors):
            factors[(i, j)] = fac
            order_keys.append((i, j))

    spans = {k: factors[k].annihilator.span() for k in order_keys}

    def intersects_to_zero(keys: Sequence[tuple[int, int]]) -> bool:
        current = Subspace.full(domain.rank)
        for k in keys:
            current = current.intersect(spans[k])
            if current.dim == 0:
                return True
        return current.dim == 0

    if not intersects_to_zero(order_keys):
        raise CertificateFailure(message="factor annihilators do not intersect to zero")
    selected = list(order_keys)
    for k in reversed(order_keys):
        if len(selected) == 1:
            break
        trial = [x for x in selected if x != k]
        if intersects_to_zero(trial):
            selected = trial
    selected_keys = tuple(selected)
    dropped_keys = tuple(k for k in order_keys if k not in set(selected_keys))

    sel_bases = [factors[k].annihilator.lattice.basis for k in selected_keys]
    prime_bases = [p.lattice.basis for p in primes]
    if len(sel_bases) != len(set(sel_bases)):
        raise CertificateFailure(message="two kept annihilators are equal")
    if set(sel_bases) != set(prime_bases):
        raise CertificateFailure(message="kept annihilators do not enumerate the minimal primes")
    prime_of = {k: prime_bases.index(b) for k, b in zip(selected_keys, sel_bases)}

    for k in selected_keys:
        fac = factors[k]
        for pi in range(len(primes)):
            image = combination_image(primes[pi].lattice.basis, fac.left_action)
            if pi == prime_of[k] and image.dim != 0:
                raise CertificateFailure({"factor": list(k), "prime": pi},
                                         "matched prime does not annihilate its carrier")
            if pi != prime_of[k] and image.dim != fac.carrier.dim:
                raise CertificateFailure({"factor": list(k), "prime": pi},
                                         "another prime acts without full image on a simple carrier")
    for i, comp in enumerate(f.codomain.components):
        kept_dim = sum(factors[k].carrier.dim for k in selected_keys if k[0] == i)
        if kept_dim > comp.dim:
            raise CertificateFailure({"component": i, "kept_dim": kept_dim, "dim": comp.dim},
                                     "kept carriers do not fit inside their component")

    ends: dict[tuple[int, int], tuple] = {}
    for k in order_keys:
        fac = factors[k]
        right_e = operator_algebra(fac.right_action, module_dim=fac.carrier.dim)
        alg, comp, mats = simple_commutant(
            right_e, budget, name=f"End{k[0]}.{k[1]}", seed=seed
        )
        part = (alg, comp.centre_dim, comp.reduced_degree, comp.split_status)
        ends[k] = (part, mats, vec_rows(mats))

    resolved = tuple(
        resolve_split_status(c, budget, seed=seed) for c in f.codomain.components
    )
    source_size = None
    if all(c.split_status.matrix_size is not None for c in resolved):
        source_size = sum(c.split_status.matrix_size for c in resolved)
    target_size = None
    if all(ends[k][0][3].matrix_size is not None for k in selected_keys):
        target_size = sum(ends[k][0][3].matrix_size for k in selected_keys)
    if source_size is not None and target_size is not None and target_size > source_size:
        raise CertificateFailure({"source_size": source_size, "target_size": target_size},
                                 "the matrix size grew")

    lengths: dict[tuple[int, int], int | None] = {}
    for k in selected_keys:
        size = resolved[k[0]].split_status.matrix_size
        if size is None:
            lengths[k] = None
            continue
        length, rest = divmod(factors[k].carrier.dim * size, f.codomain.components[k[0]].dim)
        if rest:
            raise CertificateFailure({"factor": list(k)}, "a carrier length is not integral")
        end_size = ends[k][0][3].matrix_size
        if end_size is not None and end_size != length:
            raise CertificateFailure({"factor": list(k), "length": length, "end_size": end_size},
                                     "an endomorphism matrix size differs from its length")
        lengths[k] = length

    base = f.codomain.parent.name
    sel_parts = [ends[k][0] for k in selected_keys]
    b_dec = _product_decomposition(sel_parts, name=f"{base}.min")
    all_keys = selected_keys + dropped_keys
    if dropped_keys:
        c_dec = _product_decomposition(
            [ends[k][0] for k in all_keys], name=f"{base}.sum"
        )
    else:
        c_dec = b_dec

    # row t of coords[k]: the left action of basis vector t in the basis of End(k)
    coords: dict[tuple[int, int], MatQ] = {}
    for k in all_keys:
        solver = RowSolver(ends[k][2])
        actions = vec_rows(factors[k].left_action)
        per_basis = []
        for t, v in enumerate(actions.ints):
            sol = solver.solve_ints(v, actions.den)
            if sol is None:
                raise CertificateFailure({"factor": list(k), "basis": t},
                                         "left action does not commute with the right action")
            per_basis.append(sol)
        coords[k] = MatQ.from_ints(*over_common_den(per_basis))

    phi_map = mat_hstack(*(coords[k] for k in selected_keys))
    phi = build_embedding(
        domain, b_dec, phi_map,
        assignment=tuple(prime_of[k] for k in selected_keys),
    )
    if dropped_keys:
        combined = build_embedding(domain, c_dec, mat_hstack(*(coords[k] for k in all_keys)))
    else:
        combined = phi

    # the natural property of phi at the level of its own codomain: both
    # annihilators of phi(p) are exactly the matched block
    for pos, k in enumerate(selected_keys):
        prime = primes[prime_of[k]]
        img = Subspace.from_rows(b_dec.parent.dim, int_matmul(
            prime.lattice.basis, phi_map.ints, b_dec.parent.dim))
        block = b_dec.components[pos].subspace()
        l_ann = left_annihilator(b_dec.parent, img)
        r_ann = right_annihilator(b_dec.parent, img)
        if not (l_ann == block and r_ann == block):
            raise CertificateFailure({"factor": pos},
                                     "collection embedding is not natural")

    carriers_by_component: dict[int, list[tuple[int, int]]] = {}
    for k in order_keys:
        carriers_by_component.setdefault(k[0], []).append(k)
    proj_data = {}
    for i, keys in carriers_by_component.items():
        stacked = MatQ.from_rows(r for k in keys for r in factors[k].carrier.basis.rows)
        if stacked.nrows != f.codomain.components[i].dim:
            raise CertificateFailure({"component": i, "carrier_dim": stacked.nrows},
                                     "stacked carriers do not fill their component")
        proj_data[i] = (keys, inverse(stacked))

    alpha_rows = []
    for k in all_keys:
        i, _ = k
        comp = f.codomain.components[i]
        keys, p_inv = proj_data[i]
        combined_coords = row_times_mat(comp.algebra.unit, p_inv)
        offset = 0
        for kk in keys:
            width = factors[kk].carrier.dim
            if kk == k:
                unit_slice = combined_coords[offset:offset + width]
                break
            offset += width
        fac = factors[k]
        for beta in ends[k][1]:
            local = op_apply(beta, unit_slice)
            a_local = row_times_mat(local, fac.carrier.basis)
            alpha_rows.append(comp.to_parent(a_local))
    alpha = MatQ.from_rows(alpha_rows)
    alpha_kind = "iso" if c_dec.parent.dim == f.codomain.parent.dim else "mono"
    into_parent = _require_verified(
        MorphismCertificate(combined, f, alpha, alpha_kind, verified=False), "summand reassembly")

    if dropped_keys:
        b_dim = b_dec.parent.dim
        c_dim = c_dec.parent.dim
        pr = MatQ.from_ints(([1 if r == c else 0 for c in range(b_dim)] for r in range(c_dim)), 1)
        onto_selected = _require_verified(
            MorphismCertificate(combined, phi, pr, "epi", verified=False), "projection")
    else:
        onto_selected = identity_certificate(phi)

    entries = []
    for pos, k in enumerate(selected_keys):
        fac = factors[k]
        entries.append(CollectionEntry(
            prime_index=prime_of[k],
            prime=primes[prime_of[k]],
            component_index=k[0],
            factor_index=k[1],
            carrier=fac.carrier,
            left_action=fac.left_action,
            right_action=fac.right_action,
            end_algebra=ends[k][0][0],
            length=lengths[k],
            dim_proxy=fac.carrier.dim,
            simplicity=fac.simplicity,
        ))
    collection = Collection(parent=f, entries=tuple(entries))
    return MinimizeStepResult(
        collection=collection,
        embedding=phi,
        combined=combined,
        into_parent=into_parent,
        onto_selected=onto_selected,
        ladders=tuple(ladders),
        selected=selected_keys,
        dropped=dropped_keys,
        source_size=source_size,
        target_size=target_size,
    )


# -- classification -------------------------------------------------------------------


@dataclass(frozen=True)
class PrimeReport:
    prime_index: int
    component_index: int
    natural: bool
    simple_bimodule: bool | None
    contraction_ok: bool
    witness: Subspace | None = None
    note: str = ""


@dataclass(frozen=True)
class ClassifyReport:
    natural: bool
    elementary: bool | None
    per_prime: tuple[PrimeReport, ...]
    assignment: tuple[int, ...]


def _unique_perfect_matching(candidates: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    found: list[tuple[int, ...]] = []

    def backtrack(pos: int, used: set, current: list[int]) -> None:
        if len(found) == 2:
            return
        if pos == len(candidates):
            found.append(tuple(current))
            return
        for i in candidates[pos]:
            if i not in used:
                used.add(i)
                current.append(i)
                backtrack(pos + 1, used, current)
                current.pop()
                used.discard(i)

    backtrack(0, set(), [])
    return found[0] if len(found) == 1 else None


def _preimage_lattice(f: Embedding, target: Subspace) -> Lattice:
    n = f.domain.rank
    # integer x with sum_t x[t] * f(b_t) in target
    reduced, _ = clear_denominators([target.reduce_vec(f.map.row(t)) for t in range(n)])
    return Lattice(n, int_kernel(reduced))


def classify(
    f: Embedding,
    primes: tuple[LatticeIdeal, ...],
    budget: int,
    *,
    seed: int = 0,
) -> ClassifyReport:
    """Natural and elementary status of an embedding, per minimal prime.

    `primes` are the minimal primes of the domain, as minimal_primes returns
    them. Components are matched to primes by requiring the component block
    to be annihilated by the prime's image on both sides; a missing or
    ambiguous matching raises UnmatchedComponents. For each matched pair the report
    carries: whether both annihilators equal the block exactly (natural),
    whether the block is a simple bimodule (tri-state, with a proper
    sub-bimodule witness on failure), and whether the preimage of the ideal
    generated by the prime's image is the prime again.
    """
    comps = f.codomain.components
    parent = f.codomain.parent
    if len(primes) != len(comps):
        raise UnmatchedComponents(
            f"{len(comps)} components against {len(primes)} minimal primes"
        )
    ann_pairs = []
    candidates = []
    for p in primes:
        img = Subspace.from_rows(parent.dim, int_matmul(
            p.lattice.basis, f.map.ints, parent.dim))
        l_ann = left_annihilator(parent, img)
        r_ann = right_annihilator(parent, img)
        ann_pairs.append((img, l_ann, r_ann))
        candidates.append([
            i for i, c in enumerate(comps)
            if l_ann.contains(c.subspace()) and r_ann.contains(c.subspace())
        ])
    match = _unique_perfect_matching(candidates)
    if match is None:
        raise UnmatchedComponents(
            "no unique assignment of components to minimal primes"
        )
    reports = []
    for pi, p in enumerate(primes):
        ci = match[pi]
        comp = comps[ci]
        block = comp.subspace()
        img, l_ann, r_ann = ann_pairs[pi]
        natural_here = l_ann == block and r_ann == block
        two_sided = two_sided_ideal_subspace(parent, img.rows) \
            if img.dim else Subspace.zero(parent.dim)
        preimage = _preimage_lattice(f, two_sided)
        contraction_ok = preimage.basis == p.lattice.basis
        left_ops = _left_ops_on_component(f, ci)
        right_ops = tuple(
            comp.algebra.right_mult_op(comp.algebra.basis_vec(k))
            for k in range(comp.dim)
        )
        action = operator_algebra(left_ops + right_ops, module_dim=comp.dim)
        result = certify_simple_module(
            action, Subspace.full(comp.dim), budget, seed=seed
        )
        simple_here: bool | None
        witness = None
        if result.kind == "simple":
            simple_here = True
        elif result.kind == "not_simple":
            simple_here = False
            if result.witness is None:
                raise CertificateFailure({"component": ci}, "a not-simple verdict carries no witness")
            witness = Subspace.from_rows(parent.dim, int_matmul(
                result.witness.rows, comp.block_rows.ints, parent.dim))
        else:
            simple_here = None
        reports.append(PrimeReport(
            prime_index=pi,
            component_index=ci,
            natural=natural_here,
            simple_bimodule=simple_here,
            contraction_ok=contraction_ok,
            witness=witness,
            note=result.note,
        ))
    natural = all(r.natural for r in reports)
    elementary: bool | None
    if not natural:
        elementary = False
    elif any(r.simple_bimodule is False for r in reports):
        elementary = False
    elif any(r.simple_bimodule is None for r in reports):
        elementary = None
    else:
        elementary = True
    return ClassifyReport(
        natural=natural,
        elementary=elementary,
        per_prime=tuple(reports),
        assignment=tuple(match),
    )


# -- iteration to the elementary fixpoint ----------------------------------------------


@dataclass(frozen=True)
class MinimizeChain:
    """The full descending chain from an embedding to its elementary floor."""

    steps: tuple[tuple[str, object], ...]
    final: Embedding
    report: ClassifyReport


def minimize_to_elementary(f: Embedding, budget: int, *, seed: int = 0) -> MinimizeChain:
    """Alternate redundancy reduction and minimization until elementary.

    Each minimization step strictly shrinks the codomain dimension (this is
    asserted), so the loop terminates. A classification that cannot certify
    simplicity within budget raises UnresolvedSimplicity carrying the chain
    so far. The domain never changes along the chain, so its minimal primes
    are computed once.
    """
    primes = minimal_primes(f.domain, seed=seed)
    steps: list[tuple[str, object]] = []
    current = f
    while True:
        reduced = reduce_redundant(current)
        if reduced.dropped:
            steps.append(("reduce", reduced))
            current = reduced.embedding
        report = None
        try:
            report = classify(current, primes, budget, seed=seed)
        except UnmatchedComponents:
            pass
        if report is not None:
            if report.elementary is True:
                return MinimizeChain(tuple(steps), current, report)
            if report.elementary is None:
                raise UnresolvedSimplicity(
                    budget, message="classification left a simplicity certificate open"
                )
        before = current.codomain_dim
        step = minimize_step(current, primes, budget, seed=seed)
        if step.embedding.codomain_dim >= before:
            raise CertificateFailure(
                {"before": before, "after": step.embedding.codomain_dim},
                "a minimization step did not shrink the codomain",
            )
        steps.append(("minimize", step))
        current = step.embedding


# -- necessary conditions for M-equivalence --------------------------------------------


@dataclass(frozen=True)
class MEquivalenceResult:
    verdict: str  # "equivalent" | "not_equivalent" | "undetermined"
    per_prime: tuple[tuple[int, str, str], ...]  # (prime index, verdict, detail)


def m_equivalence_necessary(
    f: Embedding, g: Embedding, budget: int, *, seed: int = 0
) -> MEquivalenceResult:
    """Compare matched components of two natural embeddings prime by prime.

    Certified invariants only: centre dimension always; full matrix algebras
    over the rationals are equivalent regardless of size; quaternion division
    parts compare by their ramified places, which decide isomorphism. Larger
    centres are never compared by isomorphism, leaving those primes
    undetermined.
    """
    fa, ga = f.domain.coord_algebra, g.domain.coord_algebra
    if f.domain.rank != g.domain.rank or (fa.den, fa.products) != (ga.den, ga.products):
        raise DimensionMismatch("embeddings must share their domain order")
    primes = minimal_primes(f.domain, seed=seed)
    try:
        report_f = classify(f, primes, budget, seed=seed)
    except UnmatchedComponents as exc:
        raise NotNatural(f"first embedding is not natural: {exc}") from exc
    try:
        report_g = classify(g, primes, budget, seed=seed)
    except UnmatchedComponents as exc:
        raise NotNatural(f"second embedding is not natural: {exc}") from exc
    if not report_f.natural:
        raise NotNatural("first embedding is not natural")
    if not report_g.natural:
        raise NotNatural("second embedding is not natural")
    per_prime = []
    for pi in range(len(report_f.assignment)):
        comp_f = resolve_split_status(
            f.codomain.components[report_f.assignment[pi]], budget, seed=seed
        )
        comp_g = resolve_split_status(
            g.codomain.components[report_g.assignment[pi]], budget, seed=seed
        )
        if comp_f.centre_dim != comp_g.centre_dim:
            per_prime.append((pi, "not_equivalent",
                              f"centre dims {comp_f.centre_dim} vs {comp_g.centre_dim}"))
            continue
        sf, sg = comp_f.split_status, comp_g.split_status
        if sf.kind == "split" and sg.kind == "split" and comp_f.centre_dim == 1:
            per_prime.append((pi, "equivalent", "both full matrix rings over Q"))
        elif sf.kind == "quaternion_division" and sg.kind == "quaternion_division":
            if sf.places == sg.places:
                per_prime.append((pi, "equivalent",
                                  f"same quaternion ramification {sf.places}"))
            else:
                per_prime.append((pi, "not_equivalent",
                                  f"ramification {sf.places} vs {sg.places}"))
        elif {sf.kind, sg.kind} == {"split", "quaternion_division"}:
            per_prime.append((pi, "not_equivalent", "split against division"))
        else:
            per_prime.append((pi, "undetermined",
                              f"statuses {sf.kind}/{sg.kind}, centre dim {comp_f.centre_dim}"))
    if any(v == "not_equivalent" for _, v, _ in per_prime):
        verdict = "not_equivalent"
    elif all(v == "equivalent" for _, v, _ in per_prime):
        verdict = "equivalent"
    else:
        verdict = "undetermined"
    return MEquivalenceResult(verdict, tuple(per_prime))


# -- semiprimary reduction --------------------------------------------------------------


@dataclass(frozen=True)
class SemiprimaryReduction:
    embedding: Embedding
    projection: MatQ
    radical: Subspace


def reduce_semiprimary(
    order: OrderRing, target: StructureAlgebra, map_rows, *, seed: int = 0
) -> SemiprimaryReduction:
    """Push an embedding into an algebra with radical down to its quotient.

    The domain must miss the radical (a nonzero intersection exhibits a
    nilpotent element of the order and raises DomainNotSemiprime with that
    witness). The returned projection is the canonical epimorphism onto the
    semisimple quotient, composed with the given map.
    """
    m = map_rows if isinstance(map_rows, MatQ) else MatQ.from_rows(map_rows)
    _check_ring_map(order.coord_algebra, target, m)
    if rank(m) != order.rank:
        raise ParseError("map into the target is not injective")
    rad = radical(target)
    if rad.dim == 0:
        dec = decompose(target, seed=seed)
        emb = build_embedding(order, dec, m)
        return SemiprimaryReduction(emb, MatQ.identity(target.dim), rad)
    reduced, _ = clear_denominators([rad.reduce_vec(m.row(t)) for t in range(order.rank)])
    meets = kernel_rows(list(zip(*reduced)), order.rank)  # x with x @ reduced = 0
    if meets:
        # the first kernel vector, primitive, with its first nonzero entry positive
        sign = 1 if next(x for x in meets[0] if x) > 0 else -1
        raise DomainNotSemiprime(witness=tuple(sign * x for x in meets[0]))
    quotient, projection = semisimple_quotient(target)
    new_map = m * projection
    dec = decompose(quotient, seed=seed)
    emb = build_embedding(order, dec, new_map)
    return SemiprimaryReduction(emb, projection, rad)


# -- localization units ------------------------------------------------------------------


def localization_unit_check(
    f: Embedding, denominators: Sequence[Sequence], budget: int, *, seed: int = 0
) -> bool:
    """Check that central regular elements become units under an elementary map.

    For an elementary embedding every central regular denominator must land
    on an invertible element; a False therefore flags an internal
    inconsistency rather than a legitimate outcome.
    """
    try:
        report = classify(f, minimal_primes(f.domain, seed=seed), budget, seed=seed)
    except UnmatchedComponents as exc:
        raise NotElementary(
            f"localization check needs an elementary embedding: {exc}"
        ) from exc
    if report.elementary is not True:
        raise NotElementary("localization check needs a certified elementary embedding")
    alg = f.domain.coord_algebra
    parent = f.codomain.parent
    for s in denominators:
        sv = vec(s)
        if alg.left_mult_op(sv) != alg.right_mult_op(sv):
            raise NotRegular(element=tuple(s), message="element is not central")
        if not is_regular(f.domain, sv):
            raise NotRegular(element=tuple(s))
        image = row_times_mat(sv, f.map)
        if rank(parent.left_mult_op(image)) != parent.dim:
            return False
    return True

"""Semisimple-quotient criteria for orders.

The classical left quotient ring of an order is realized at rational scale:
the lattice's span inside its ambient algebra, with the lattice inclusion as
the quotient map. Goldie-style chain conditions are not tested directly; for
orders they come down to semisimplicity of that rational span, and every
report names this surrogate where it is used. Localizations at central primes
are realized as idempotent slices of the span rather than by Ore fractions,
which agrees with the fraction construction for central denominator sets and
is exactly computable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    LatticeIdeal,
    OrderRing,
    StructureAlgebra,
    build_ideal,
    build_order,
    centre,
    induced_algebra,
    product_algebra,
)
from .embeddings import (
    Embedding,
    _check_ring_map,
    _nilpotent_witness,
    canonical_embedding,
    primes_of_decomposition,
)
from .errors import CentreNotEtale, CertificateFailure, NotSemiprime, NotSemisimple, ParseError
from .linalg import (
    IntVec,
    Lattice,
    MatQ,
    RowSolver,
    Subspace,
    Vec,
    lattice_intersect_subspace,
    rank,
    row_times_mat,
    vec,
)
from .wedderburn import SemisimpleDecomposition, decompose

__all__ = [
    "CentreData",
    "CentreCriterionReport",
    "CriterionCondition",
    "EmbeddabilityReport",
    "IdempotentCentreReport",
    "OrderFacts",
    "QuotientReport",
    "SliceData",
    "centre_criterion",
    "centre_of",
    "classical_quotient",
    "embeddability_report",
    "idempotent_centre_criterion",
    "order_facts",
]


# -- centre data --------------------------------------------------------------------


@dataclass(frozen=True)
class CentreData:
    """The centre lattice of an order, packaged as an order in its own right.

    `subspace` is the centre of the parent's span and `rows` expresses the
    centre lattice basis in the parent's lattice coordinates. When the
    centre's span is semisimple, `decomposition` is its decomposition and
    `idempotents` are its primitive idempotents written in parent
    coordinates, aligned with `minimal_primes`. Otherwise `decomposition` is
    None, `radical` is the radical of the centre's span in centre
    coordinates, and `idempotents` and `minimal_primes` are empty.
    """

    subspace: Subspace
    rows: MatQ
    order: OrderRing
    decomposition: SemisimpleDecomposition | None
    radical: Subspace | None
    radical_witness: IntVec | None
    minimal_primes: tuple[LatticeIdeal, ...]
    idempotents: tuple[Vec, ...]

    @property
    def semiprime(self) -> bool:
        return self.decomposition is not None

    @property
    def rank(self) -> int:
        return self.rows.nrows

    def to_parent(self, coords) -> Vec:
        return row_times_mat(vec(coords), self.rows)


def centre_of(order: OrderRing, *, seed: int = 0) -> CentreData:
    """Z(R) as an order, with its central primes when the span is semisimple."""
    alg = order.coord_algebra
    zsub = centre(alg)
    zlat = lattice_intersect_subspace(Lattice.standard(order.rank), zsub)
    zrows = MatQ.from_rows(zlat.basis)
    zalg = induced_algebra(
        alg, zrows, name=f"Z({order.name})", unit_hint=alg.unit,
        labels=[f"z{i}" for i in range(zrows.nrows)],
    )
    zorder = build_order(zalg)
    try:
        dec = decompose(zorder.coord_algebra, seed=seed)
    except NotSemisimple as exc:
        zwitness = _nilpotent_witness(zorder, exc)
        witness = tuple(int(x) for x in row_times_mat(vec(zwitness), zrows))
        return CentreData(zsub, zrows, zorder, None, exc.radical, witness, (), ())
    primes = primes_of_decomposition(zorder, dec)
    idems = tuple(row_times_mat(c.idempotent, zrows) for c in dec.components)
    return CentreData(zsub, zrows, zorder, dec, None, None, primes, idems)


# -- the facts every criterion reads -------------------------------------------------


@dataclass(frozen=True)
class OrderFacts:
    """The facts about one order at one seed that the criteria share.

    `decomposition` is the Wedderburn decomposition of the order's span; it
    is None when the order is not semiprime, and `radical_witness` is then
    an integer nilpotent element of the order. `minimal_primes` are read off
    that same decomposition (empty when it is None), and `centre` is the
    order's centre. Build it once with order_facts and pass it to every
    report about the order. The slices of the span and their product
    isomorphism are built on first use and kept, so the criteria that read
    them share one copy.
    """

    order: OrderRing
    seed: int
    decomposition: SemisimpleDecomposition | None
    radical_witness: IntVec | None
    minimal_primes: tuple[LatticeIdeal, ...]
    centre: CentreData

    @property
    def semiprime(self) -> bool:
        return self.decomposition is not None

    @cached_property
    def slices(self) -> tuple[SliceData, ...]:
        """One slice e*Q per primitive central idempotent e; empty without them."""
        return _build_slices(self.order.coord_algebra, self.centre, seed=self.seed)

    @cached_property
    def product_iso(self) -> tuple[StructureAlgebra, MatQ]:
        """The product of the slices and the verified isomorphism onto it."""
        return _product_iso(self.order.coord_algebra, self.slices)


def order_facts(order: OrderRing, *, seed: int = 0) -> OrderFacts:
    """Decompose the span, read off the minimal primes, and compute the centre."""
    centre_data = centre_of(order, seed=seed)
    try:
        dec = decompose(order.coord_algebra, seed=seed)
    except NotSemisimple as exc:
        witness = _nilpotent_witness(order, exc)
        return OrderFacts(order, seed, None, witness, (), centre_data)
    primes = primes_of_decomposition(order, dec)
    return OrderFacts(order, seed, dec, None, primes, centre_data)


# -- classical quotient --------------------------------------------------------------


@dataclass(frozen=True)
class QuotientReport:
    """The rational span of an order, read as its classical quotient ring."""

    order: OrderRing
    algebra: StructureAlgebra
    semisimple: bool
    radical_witness: IntVec | None
    decomposition: SemisimpleDecomposition | None
    minimal_primes: tuple[LatticeIdeal, ...]
    prime_spans_match: bool | None
    centre: CentreData


def classical_quotient(facts: OrderFacts) -> QuotientReport:
    """Q = span of R with the lattice inclusion; semisimple iff R is semiprime.

    When semisimple, the minimal ideals of Q are checked to be exactly the
    spans of the minimal primes of R, in matching order.
    """
    order, dec, primes = facts.order, facts.decomposition, facts.minimal_primes
    alg = order.coord_algebra
    if not facts.semiprime:
        return QuotientReport(
            order, alg, False, facts.radical_witness, None, (), None, facts.centre
        )
    match = len(primes) == len(dec.components)
    if match:
        for i, p in enumerate(primes):
            rows = []
            for j, comp in enumerate(dec.components):
                if j != i:
                    rows.extend(comp.block_rows.rows)
            complement = Subspace.from_rows(alg.dim, rows)
            if p.lattice.span() != complement:
                match = False
                break
    return QuotientReport(order, alg, True, None, dec, primes, match, facts.centre)


# -- centre criterion ----------------------------------------------------------------


@dataclass(frozen=True)
class CriterionCondition:
    name: str
    holds: bool | None
    note: str = ""
    witness: IntVec | None = None


@dataclass(frozen=True)
class SliceData:
    """One idempotent slice e*Q of the span, read as a central localization."""

    prime_index: int
    idempotent: Vec
    rows: MatQ
    algebra: StructureAlgebra
    semisimple: bool
    component_count: int | None
    centre_dim: int


@dataclass(frozen=True)
class CentreCriterionReport:
    order: OrderRing
    verdict: bool
    conditions: tuple[CriterionCondition, ...]
    centre: CentreData
    slices: tuple[SliceData, ...]
    product_algebra: StructureAlgebra | None
    product_iso: MatQ | None
    contraction: tuple[int, ...] | None
    contraction_surjective: bool | None


def _build_slices(
    alg: StructureAlgebra, centre_data: CentreData, *, seed: int
) -> tuple[SliceData, ...]:
    slices = []
    for i, e in enumerate(centre_data.idempotents):
        rows = Subspace.image(alg.left_mult_op(e)).basis  # e*A
        sl = induced_algebra(
            alg, rows, name=f"{alg.name}@q{i}", unit_hint=e,
            labels=[f"s{k}" for k in range(rows.nrows)],
        )
        try:
            count = len(decompose(sl, seed=seed).components)
        except NotSemisimple:
            count = None
        slices.append(
            SliceData(i, e, rows, sl, count is not None, count, centre(sl).dim)
        )
    return tuple(slices)


def _product_iso(
    alg: StructureAlgebra, slices: tuple[SliceData, ...]
) -> tuple[StructureAlgebra, MatQ]:
    """A verified isomorphism from the span onto the product of its slices."""
    prod = product_algebra(
        [sl.algebra for sl in slices], name=" x ".join(sl.algebra.name for sl in slices)
    )
    solvers = [RowSolver(sl.rows) for sl in slices]
    rows = []
    for j in range(alg.dim):
        b = alg.basis_vec(j)
        image: list = []
        for sl, solver in zip(slices, solvers):
            coords = solver.solve(alg.mul(sl.idempotent, b))
            if coords is None:
                raise CertificateFailure({"slice": sl.prime_index, "basis_index": j},
                                         "a slice does not contain its projection of the span")
            image.extend(coords)
        rows.append(image)
    m = MatQ.from_rows(rows)
    _check_ring_map(alg, prod, m)
    if rank(m) != alg.dim or prod.dim != alg.dim:
        raise ParseError("slice reassembly is not bijective")
    return prod, m


def _contract_primes(
    primes: tuple[LatticeIdeal, ...], centre_data: CentreData
) -> tuple[tuple[int, ...], bool]:
    """For each minimal prime of R, the minimal central prime it meets Z(R) in."""
    targets = [q.lattice.basis for q in centre_data.minimal_primes]
    zsolver = RowSolver(centre_data.rows)
    indices = []
    for p in primes:
        meet = lattice_intersect_subspace(p.lattice, centre_data.subspace)
        coords = []
        for row in meet.basis:
            c = zsolver.solve(vec(row))
            if c is None:
                raise CertificateFailure(message="a prime meets the centre outside its span")
            coords.append([int(x) for x in c])
        contracted = build_ideal(centre_data.order, coords)
        if contracted.lattice.basis not in targets:
            raise CertificateFailure(
                message="a minimal prime contracted to a non-minimal central ideal"
            )
        indices.append(targets.index(contracted.lattice.basis))
    surjective = set(indices) == set(range(len(targets)))
    return tuple(indices), surjective


def centre_criterion(facts: OrderFacts) -> CentreCriterionReport:
    """Decide semisimplicity of the quotient from the centre of the order.

    Conditions reported: R semiprime; central non-zero-divisors stay regular
    in R (at rational scale a central regular element is already a unit of
    the centre's span, so the check verifies each slice's centre is exactly
    the matching centre component); finitely many minimal central primes; and
    per central prime, semisimplicity of the idempotent slice standing in for
    the localization. When everything holds the report carries a verified
    isomorphism from the span onto the product of the slices, plus the
    contraction map from minimal primes onto minimal central primes.
    """
    order, centre_data = facts.order, facts.centre
    conditions = []

    semiprime = facts.semiprime
    if semiprime:
        conditions.append(CriterionCondition("semiprime", True))
    else:
        conditions.append(
            CriterionCondition(
                "semiprime",
                False,
                note="the span has a nonzero radical",
                witness=facts.radical_witness,
            )
        )

    if not centre_data.semiprime:
        conditions.append(
            CriterionCondition(
                "central-regular-elements-stay-regular",
                True,
                note=(
                    "rational-scale surrogate: a central non-zero-divisor of a "
                    "finite-dimensional span is a unit, hence regular in R"
                ),
            )
        )
        conditions.append(
            CriterionCondition(
                "finitely-many-minimal-central-primes",
                None,
                note="central primes not enumerated: the centre span has a radical",
                witness=centre_data.radical_witness,
            )
        )
        conditions.append(
            CriterionCondition(
                "central-localizations-semisimple",
                None,
                note="no central idempotents available to slice with",
            )
        )
        return CentreCriterionReport(
            order, False, tuple(conditions), centre_data, (), None, None, None, None
        )

    slices = facts.slices
    regular_ok = all(
        sl.centre_dim == centre_data.minimal_primes[sl.prime_index].parent.rank
        - centre_data.minimal_primes[sl.prime_index].lattice.rank
        for sl in slices
    )
    conditions.append(
        CriterionCondition(
            "central-regular-elements-stay-regular",
            regular_ok,
            note=(
                "rational-scale surrogate: each slice's centre equals the "
                "matching component of the centre's span"
            ),
        )
    )
    conditions.append(
        CriterionCondition(
            "finitely-many-minimal-central-primes",
            True,
            note=f"{len(centre_data.minimal_primes)} minimal central primes",
        )
    )
    slices_ok = all(sl.semisimple for sl in slices)
    conditions.append(
        CriterionCondition(
            "central-localizations-semisimple",
            slices_ok,
            note="Goldie surrogate: the idempotent slice of the span is semisimple",
        )
    )

    verdict = semiprime and regular_ok and slices_ok
    product_alg = None
    product_map = None
    contraction = None
    surjective = None
    if verdict:
        product_alg, product_map = facts.product_iso
        contraction, surjective = _contract_primes(facts.minimal_primes, centre_data)
    return CentreCriterionReport(
        order,
        verdict,
        tuple(conditions),
        centre_data,
        slices,
        product_alg,
        product_map,
        contraction,
        surjective,
    )


# -- idempotent centre corollary -------------------------------------------------------


@dataclass(frozen=True)
class IdempotentCentreReport:
    order: OrderRing
    verdict: bool
    semiprime: bool
    radical_witness: IntVec | None
    centre: CentreData
    factors: tuple[SliceData, ...]
    product_algebra: StructureAlgebra | None
    product_iso: MatQ | None


def idempotent_centre_criterion(facts: OrderFacts) -> IdempotentCentreReport:
    """The corollary path: Z(R) spans a product of fields, factor rings split Q.

    Each primitive central idempotent e cuts the factor ring R/R(1-e), realized
    rationally as the slice e*Q; the verdict asks every factor to be semisimple
    and R to be semiprime. A centre whose span has a radical is rejected with
    CentreNotEtale before any factor is built.
    """
    order, centre_data = facts.order, facts.centre
    if not centre_data.semiprime:
        lifted = Subspace.from_rows(
            order.rank,
            [centre_data.to_parent(row) for row in centre_data.radical.basis.rows],
        )
        raise CentreNotEtale(radical=lifted)
    for comp in centre_data.decomposition.components:
        if comp.centre_dim != comp.algebra.dim:
            raise CertificateFailure({"component": comp.algebra.name},
                                     "a block of the commutative centre is not a field")

    factors = facts.slices
    verdict = facts.semiprime and all(f.semisimple for f in factors)
    product_alg = None
    product_map = None
    if verdict:
        product_alg, product_map = facts.product_iso
    return IdempotentCentreReport(
        order,
        verdict,
        facts.semiprime,
        facts.radical_witness,
        centre_data,
        factors,
        product_alg,
        product_map,
    )


# -- embeddability -------------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddabilityReport:
    order: OrderRing
    verdict: bool
    witness: Embedding | None
    nilpotent_witness: IntVec | None
    minimal_primes: tuple[LatticeIdeal, ...]
    component_dims: tuple[int, ...]


def embeddability_report(facts: OrderFacts) -> EmbeddabilityReport:
    """Can every prime quotient's rational span live in a simple Artinian ring?

    For a semiprime order the answer is witnessed directly: the span of each
    R/p is itself simple Artinian, and the canonical map into the product of
    the blocks is the witness embedding. A non-semiprime order fails with a
    nilpotent witness vector.
    """
    order = facts.order
    try:
        sigma = canonical_embedding(facts)
    except NotSemiprime as exc:
        return EmbeddabilityReport(order, False, None, exc.witness, (), ())
    dims = tuple(c.algebra.dim for c in sigma.codomain.components)
    return EmbeddabilityReport(order, True, sigma, None, facts.minimal_primes, dims)

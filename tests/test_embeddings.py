"""Embeddings: construction, minimal primes, ladders, minimization, classification."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordembed import embeddings, wedderburn
from ordembed.algebra import build_ideal, load_order, product_algebra
from ordembed.cli import CORPUS_DIR
from ordembed.criteria import order_facts
from ordembed.embeddings import (
    MorphismCertificate,
    bimodule_ladder,
    build_embedding,
    canonical_embedding,
    classify,
    embedding_to_doc,
    identity_certificate,
    is_prime_lattice_ideal,
    load_embedding,
    localization_unit_check,
    m_equivalence_necessary,
    minimal_primes,
    minimize_step,
    minimize_to_elementary,
    reduce_redundant,
    reduce_semiprimary,
    verify_morphism,
)
from ordembed.embeddings import _project_rows
from ordembed.errors import (
    DimensionMismatch,
    DomainNotSemiprime,
    NotElementary,
    NotIrredundant,
    NotNatural,
    NotRegular,
    NotSemiprime,
    ParseError,
    UnresolvedSimplicity,
    UnmatchedComponents,
)
from ordembed.exact import PolyQ
from ordembed.linalg import Lattice, MatQ, RowSolver, Subspace, rank
from ordembed.samples import (
    cyclic_group_algebra,
    integer_matrix_order,
    integers_order,
    lipschitz_order,
    matrix_algebra,
    padded_split_embedding,
    poly_quotient_algebra,
    quaternion_algebra,
    rational_algebra,
    seeded_semiprime_order,
    split_integers_order,
    upper_triangular_algebra,
)
from ordembed.algebra import build_order
from ordembed.wedderburn import (
    combination_image,
    commutant_matrices,
    decompose,
    matrices_to_algebra,
    operator_algebra,
    restrict_op,
)

from strategies import wide_entries

F = Fraction

BUDGET = 1000


def crt_order():
    alg = poly_quotient_algebra(PolyQ.make([-1, 0, 1]), name="Q[x]/(x^2-1)")
    return build_order(alg, name="Z[x]/(x^2-1)")


def dual_numbers_order():
    alg = poly_quotient_algebra(PolyQ.make([0, 0, 1]), name="Q[x]/(x^2)")
    return build_order(alg, name="Z[x]/(x^2)")


def scalar_matrix_embedding():
    m2 = matrix_algebra(2)
    return build_embedding(integers_order(), decompose(m2), MatQ.from_rows([m2.unit]))


def prime_action_dim(entry, prime):
    """Dimension of the span of a prime's left action images on a carrier."""
    rows = []
    for g in prime.lattice.basis:
        m = MatQ.zeros(entry.carrier.dim, entry.carrier.dim)
        for c, op in zip(g, entry.left_action):
            if c:
                m = m + op.scale(F(c))
        rows.extend(m.transpose().rows)
    return Subspace.from_rows(entry.carrier.dim, rows).dim


# -- minimal primes -------------------------------------------------------------------


def test_minimal_primes_of_crt_order():
    primes = minimal_primes(crt_order())
    assert [p.lattice.basis for p in primes] == [((1, 1),), ((1, -1),)]
    assert all(p.saturated for p in primes)


def test_minimal_primes_of_matrix_order():
    primes = minimal_primes(integer_matrix_order(2))
    assert len(primes) == 1
    assert primes[0].lattice.rank == 0


def test_minimal_primes_are_prime_ideals():
    order = crt_order()
    for p in minimal_primes(order):
        assert is_prime_lattice_ideal(order, p)


def test_minimal_primes_reject_nonsemiprime():
    with pytest.raises(NotSemiprime) as info:
        minimal_primes(dual_numbers_order())
    assert info.value.witness == (0, 1)


def test_nonprime_ideals_are_rejected():
    order = crt_order()
    whole = build_ideal(order, Lattice.from_rows(2, [[1, 0], [0, 1]]))
    assert not is_prime_lattice_ideal(order, whole)
    doubled = build_ideal(order, Lattice.from_rows(2, [[2, 0], [0, 2]]))
    assert not is_prime_lattice_ideal(order, doubled)
    zero = build_ideal(order, Lattice.from_rows(2, []))
    assert not is_prime_lattice_ideal(order, zero)


def test_zero_ideal_is_prime_for_matrix_order():
    order = integer_matrix_order(2)
    zero = build_ideal(order, Lattice.from_rows(4, []))
    assert is_prime_lattice_ideal(order, zero)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_minimal_primes_of_seeded_orders(seed):
    order = seeded_semiprime_order(seed)
    primes = minimal_primes(order, seed=seed)
    assert len(primes) == len(decompose(order.coord_algebra, seed=seed).components)
    assert len({p.lattice.basis for p in primes}) == len(primes)
    for p in primes:
        assert p.saturated
        assert is_prime_lattice_ideal(order, p, seed=seed)


# -- embedding construction -----------------------------------------------------------


def test_build_embedding_rejects_non_unital_map():
    two = split_integers_order(2).coord_algebra
    with pytest.raises(ParseError, match="unit"):
        build_embedding(integers_order(), decompose(two), MatQ.from_rows([[1, 0]]))


def test_build_embedding_rejects_non_multiplicative_map():
    m2 = matrix_algebra(2)
    rows = [m2.unit, [0, 1, 0, 0]]  # x -> e01, but x^2 = 1 while e01^2 = 0
    with pytest.raises(ParseError, match="multiplicative"):
        build_embedding(crt_order(), decompose(m2), MatQ.from_rows(rows))


def test_build_embedding_rejects_non_injective_map():
    with pytest.raises(ParseError, match="kernel"):
        build_embedding(
            crt_order(), decompose(rational_algebra()), MatQ.from_rows([[1], [1]])
        )


def test_canonical_embedding_of_crt_order():
    facts = order_facts(crt_order())
    sigma = canonical_embedding(facts)
    assert sigma.codomain is facts.decomposition
    assert len(sigma.codomain.components) == 2
    assert sigma.component_assignment == (0, 1)
    assert sigma.map == MatQ.identity(2)
    report = classify(sigma, facts.minimal_primes, BUDGET)
    assert report.natural and report.elementary is True


def test_canonical_embedding_rejects_nonsemiprime():
    with pytest.raises(NotSemiprime) as info:
        canonical_embedding(order_facts(dual_numbers_order()))
    assert info.value.witness == (0, 1)


def test_embedding_document_roundtrip():
    sigma = canonical_embedding(order_facts(crt_order()))
    doc = embedding_to_doc(sigma, name="sigma")
    assert doc["name"] == "sigma"
    assert all(isinstance(x, str) for row in doc["map"] for x in row)
    back = load_embedding(doc)
    assert back.codomain_dim == sigma.codomain_dim
    assert len(back.codomain.components) == 2
    report = classify(back, minimal_primes(back.domain), BUDGET)
    assert report.natural and report.elementary is True


def test_load_embedding_resolves_references():
    sigma = canonical_embedding(order_facts(crt_order()))
    doc = embedding_to_doc(sigma)
    stash = {"the-order": doc["domain"]}
    ref_doc = dict(doc, domain="the-order")
    with pytest.raises(ParseError, match="resolver"):
        load_embedding(ref_doc)
    back = load_embedding(ref_doc, resolver=stash.__getitem__)
    assert back.domain.rank == 2


def test_load_embedding_rejects_bad_codomain_entries():
    sigma = canonical_embedding(order_facts(crt_order()))
    doc = embedding_to_doc(sigma)
    from ordembed.algebra import algebra_to_doc

    split_entry = dict(doc, codomain=[algebra_to_doc(cyclic_group_algebra(2))])
    with pytest.raises(ParseError, match="not simple"):
        load_embedding(split_entry)
    radical_entry = dict(doc, codomain=[algebra_to_doc(upper_triangular_algebra(2))])
    with pytest.raises(ParseError, match="not semisimple"):
        load_embedding(radical_entry)


# -- morphism certificates ------------------------------------------------------------


def test_identity_certificate_verifies():
    sigma = canonical_embedding(order_facts(crt_order()))
    ok, diag = verify_morphism(identity_certificate(sigma))
    assert ok, diag


def test_verify_morphism_flags_corrupted_alpha():
    sigma = canonical_embedding(order_facts(crt_order()))
    cert = identity_certificate(sigma)
    bad = MorphismCertificate(
        cert.source, cert.target, MatQ.from_rows([[1, 0], [1, 1]]), "iso", verified=False
    )
    ok, diag = verify_morphism(bad)
    assert not ok
    assert diag["multiplicative"] is False or diag["triangle"] is False


def test_verify_morphism_checks_declared_kind():
    f = scalar_matrix_embedding()
    step = minimize_step(f, minimal_primes(f.domain), BUDGET)
    cert = step.into_parent
    as_epi = MorphismCertificate(cert.source, cert.target, cert.alpha, "epi", verified=False)
    ok, diag = verify_morphism(as_epi)
    assert not ok and diag["kind"] is False


# -- projections onto components --------------------------------------------------------


def _corpus(name):
    return json.loads((CORPUS_DIR / f"{name}.json").read_text())


# two product codomains, whose block rows are unit rows, and the decomposed span
# of d4, whose block rows are not
PROJECTED = (
    load_embedding(_corpus("demo-crt"), resolver=_corpus),
    load_embedding(_corpus("demo-split"), resolver=_corpus),
    canonical_embedding(order_facts(load_order(_corpus("d4")))),
)


def projected_by_definition(codomain, rows, keep):
    """The block coordinates of v * e_i for each row v and i in keep, in `Fraction`s."""
    parent = codomain.parent
    out = []
    for v in rows.rows:
        line = []
        for i in keep:
            comp = codomain.components[i]
            line.extend(RowSolver(comp.block_rows).solve(parent.mul(v, comp.idempotent)))
        out.append(line)
    return MatQ.from_rows(out)


@st.composite
def projection_cases(draw):
    f = draw(st.sampled_from(PROJECTED))
    n, count = f.codomain_dim, len(f.codomain)
    rows = draw(st.lists(st.lists(wide_entries, min_size=n, max_size=n), min_size=1, max_size=3))
    keep = sorted(draw(st.sets(st.integers(0, count - 1), min_size=1)))
    return f, MatQ.from_rows(rows), keep


@given(projection_cases())
@settings(max_examples=60, deadline=None)
def test_projected_rows_match_the_fraction_definition(case):
    f, rows, keep = case
    assert _project_rows(f.codomain, rows, keep) == projected_by_definition(f.codomain, rows, keep)


def test_projecting_rows_constructs_no_fraction(monkeypatch):
    made = [0]
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return original(cls, *args, **kwargs)

    inputs = [(f, rows) for f in PROJECTED for rows in (f.map, MatQ.identity(f.codomain_dim))]
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    for f, rows in inputs:
        _project_rows(f.codomain, rows, range(len(f.codomain)))
    monkeypatch.undo()
    assert made[0] == 0


# -- redundancy reduction -------------------------------------------------------------


def test_reduce_redundant_drops_padding():
    two = split_integers_order(2).coord_algebra
    diag_emb = build_embedding(
        integers_order(), decompose(two), MatQ.from_rows([[1, 1]])
    )
    result = reduce_redundant(diag_emb)
    assert result.dropped == (1,)
    assert result.embedding.codomain_dim == 1
    assert result.certificate.kind == "epi"
    assert verify_morphism(result.certificate)[0]


def test_reduce_redundant_keeps_irredundant_embedding():
    sigma = canonical_embedding(order_facts(crt_order()))
    result = reduce_redundant(sigma)
    assert result.dropped == ()
    assert result.embedding is sigma
    assert result.certificate.kind == "iso"


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_reduce_redundant_reaches_a_fixed_point(seed):
    emb = padded_split_embedding(seed)
    result = reduce_redundant(emb)
    assert result.dropped
    assert verify_morphism(result.certificate)[0]
    assert reduce_redundant(result.embedding).dropped == ()


# -- bimodule ladders -----------------------------------------------------------------


def test_ladder_of_scalars_on_matrix_block():
    f = scalar_matrix_embedding()
    comp = f.codomain.components[0]
    ladder = bimodule_ladder(f.domain, comp, f.left_ops[0], BUDGET)
    assert [s.dim for s in ladder.chain] == [4, 2, 0]
    assert [fac.carrier.dim for fac in ladder.factors] == [2, 2]
    assert all(fac.annihilator.lattice.rank == 0 for fac in ladder.factors)
    assert all(fac.simplicity.is_simple for fac in ladder.factors)
    for fac in ladder.factors:
        assert fac.upper.dim == fac.carrier.dim + fac.lower.dim


def test_ladder_takes_each_summands_simplicity_from_its_split(monkeypatch):
    # `simple_pieces` certified every summand when it cut the component; the
    # ladder certifies none of them again.
    called = []
    for mod in (embeddings, wedderburn):
        monkeypatch.setattr(mod, "certify_simple_module", lambda *args, **kwargs: called.append(args))
    f = scalar_matrix_embedding()
    sigma = canonical_embedding(order_facts(crt_order()))
    for emb in (f, sigma):
        for i, comp in enumerate(emb.codomain.components):
            ladder = bimodule_ladder(emb.domain, comp, emb.left_ops[i], BUDGET)
            assert all(fac.simplicity.note == "commutant is a field" for fac in ladder.factors)
    assert called == []


def test_ladder_of_crt_component_reads_the_prime():
    sigma = canonical_embedding(order_facts(crt_order()))
    ladder = bimodule_ladder(
        sigma.domain, sigma.codomain.components[0],
        sigma.left_ops[0], BUDGET,
    )
    assert len(ladder.factors) == 1
    assert ladder.factors[0].annihilator.lattice.basis == ((1, 1),)


def test_ladder_rejects_wrong_shapes():
    sigma = canonical_embedding(order_facts(crt_order()))
    comp = sigma.codomain.components[0]
    with pytest.raises(DimensionMismatch):
        bimodule_ladder(sigma.domain, comp, (MatQ.identity(3),), BUDGET)
    with pytest.raises(DimensionMismatch):
        bimodule_ladder(sigma.domain, comp, (MatQ.identity(1),) * 3, BUDGET)


def test_ladder_refuses_unsplit_multiplicity_within_budget():
    # (1, 3) is split everywhere, so the block is M2(Q) in disguise; with a
    # zero search budget the multiplicity two cannot be cut explicitly
    hidden = quaternion_algebra(1, 3)
    f = build_embedding(
        integers_order(), decompose(hidden), MatQ.from_rows([hidden.unit])
    )
    comp = f.codomain.components[0]
    ops = f.left_ops[0]
    with pytest.raises(UnresolvedSimplicity):
        bimodule_ladder(f.domain, comp, ops, 0)
    ladder = bimodule_ladder(f.domain, comp, ops, BUDGET)
    assert [fac.carrier.dim for fac in ladder.factors] == [2, 2]


# -- minimize_step --------------------------------------------------------------------


def test_minimize_scalars_in_matrix_algebra():
    f = scalar_matrix_embedding()
    step = minimize_step(f, minimal_primes(f.domain), BUDGET)
    assert step.selected == ((0, 0),)
    assert step.dropped == ((0, 1),)
    assert step.source_size == 2 and step.target_size == 1
    assert step.embedding.codomain_dim == 1
    assert step.into_parent.kind == "mono"
    assert verify_morphism(step.into_parent)[0]
    assert step.onto_selected.kind == "epi"
    assert verify_morphism(step.onto_selected)[0]
    entry, = step.collection.entries
    assert entry.length == 1 and entry.prime_index == 0
    assert entry.simplicity.is_simple


def test_minimize_crt_through_matrix_blocks():
    order = crt_order()
    m2 = matrix_algebra(2)
    prod = product_algebra([m2, m2], name="M2xM2")
    dec = decompose(prod)
    rows = [list(prod.unit), [1, 0, 0, 1, -1, 0, 0, -1]]
    f = build_embedding(order, dec, MatQ.from_rows(rows))
    step = minimize_step(f, minimal_primes(f.domain), BUDGET)
    assert step.selected == ((0, 0), (1, 0))
    assert step.dropped == ((0, 1), (1, 1))
    assert step.source_size == 4 and step.target_size == 2
    assert step.embedding.codomain_dim == 2
    assert verify_morphism(step.into_parent)[0]
    assert verify_morphism(step.onto_selected)[0]
    assert {e.prime_index for e in step.collection.entries} == {0, 1}


def test_minimize_split_scalar_blocks():
    order = split_integers_order(2)
    m2 = matrix_algebra(2)
    prod = product_algebra([m2, m2], name="M2xM2")
    dec = decompose(prod)
    rows = [
        [1, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 1],
    ]
    f = build_embedding(order, dec, MatQ.from_rows(rows))
    step = minimize_step(f, minimal_primes(f.domain), BUDGET)
    assert step.source_size == 4 and step.target_size == 2
    assert [(e.prime_index, e.component_index, e.length)
            for e in step.collection.entries] == [(0, 0, 1), (1, 1, 1)]
    assert step.embedding.map.rows == ((F(0), F(1)), (F(1), F(0)))


def test_minimize_step_rejects_redundant_embeddings():
    two = split_integers_order(2).coord_algebra
    diag_emb = build_embedding(
        integers_order(), decompose(two), MatQ.from_rows([[1, 1]])
    )
    with pytest.raises(NotIrredundant):
        minimize_step(diag_emb, minimal_primes(diag_emb.domain), BUDGET)


def test_minimize_step_fixes_elementary_embeddings():
    facts = order_facts(crt_order())
    sigma = canonical_embedding(facts)
    step = minimize_step(sigma, facts.minimal_primes, BUDGET)
    assert step.dropped == ()
    assert step.embedding.codomain_dim == sigma.codomain_dim
    assert step.into_parent.kind == "iso"
    assert step.onto_selected.kind == "iso"
    assert verify_morphism(step.into_parent)[0]


def test_collection_entries_pair_primes_with_carriers():
    order = crt_order()
    m2 = matrix_algebra(2)
    prod = product_algebra([m2, m2], name="M2xM2")
    rows = [list(prod.unit), [1, 0, 0, 1, -1, 0, 0, -1]]
    f = build_embedding(order, decompose(prod), MatQ.from_rows(rows))
    step = minimize_step(f, minimal_primes(f.domain), BUDGET)
    primes = minimal_primes(order)
    for entry in step.collection.entries:
        assert entry.prime.lattice.basis == primes[entry.prime_index].lattice.basis
        for pi, p in enumerate(primes):
            expected = 0 if pi == entry.prime_index else entry.carrier.dim
            assert prime_action_dim(entry, p) == expected


# -- classification -------------------------------------------------------------------


def test_classify_scalars_in_matrix_algebra():
    f = scalar_matrix_embedding()
    report = classify(f, minimal_primes(f.domain), BUDGET)
    assert report.natural is True
    assert report.elementary is False
    entry, = report.per_prime
    assert entry.contraction_ok
    assert entry.witness is not None and entry.witness.dim == 2


def test_classify_canonical_embeddings():
    for order in (integers_order(), crt_order(), lipschitz_order(),
                  split_integers_order(3)):
        facts = order_facts(order)
        report = classify(canonical_embedding(facts), facts.minimal_primes, BUDGET)
        assert report.natural and report.elementary is True, order.name
        assert all(p.contraction_ok for p in report.per_prime)


def test_classify_demands_matching_counts():
    m2 = matrix_algebra(2)
    rows = [[1, 0, 0, 1], [1, 1, 0, -1]]
    twisted = build_embedding(crt_order(), decompose(m2), MatQ.from_rows(rows))
    with pytest.raises(UnmatchedComponents):
        classify(twisted, minimal_primes(twisted.domain), BUDGET)


# -- minimize_to_elementary -----------------------------------------------------------


def test_chain_for_scalars_in_matrix_algebra():
    chain = minimize_to_elementary(scalar_matrix_embedding(), BUDGET)
    assert [kind for kind, _ in chain.steps] == ["minimize"]
    assert chain.final.codomain_dim == 1
    assert chain.report.elementary is True


def test_chain_computes_the_domain_primes_once(monkeypatch):
    domains = []
    original = embeddings.primes_of_decomposition

    def counting(order, dec):
        domains.append(order.name)
        return original(order, dec)

    monkeypatch.setattr(embeddings, "primes_of_decomposition", counting)
    chain = minimize_to_elementary(scalar_matrix_embedding(), BUDGET)
    # two classifications and one minimization step share the domain's primes
    assert [kind for kind, _ in chain.steps] == ["minimize"]
    assert domains == ["Z"]


def test_chain_for_twisted_matrix_embedding():
    m2 = matrix_algebra(2)
    rows = [[1, 0, 0, 1], [1, 1, 0, -1]]
    twisted = build_embedding(crt_order(), decompose(m2), MatQ.from_rows(rows))
    chain = minimize_to_elementary(twisted, BUDGET)
    assert [kind for kind, _ in chain.steps] == ["minimize"]
    assert chain.final.codomain_dim == 2
    assert chain.final.map.rows == ((F(1), F(1)), (F(-1), F(1)))
    assert chain.report.natural and chain.report.elementary is True
    step = chain.steps[0][1]
    assert [e.prime.lattice.basis for e in step.collection.entries] == \
        [((1, 1),), ((1, -1),)]


def test_chain_is_empty_for_elementary_embeddings():
    sigma = canonical_embedding(order_facts(crt_order()))
    chain = minimize_to_elementary(sigma, BUDGET)
    assert chain.steps == ()
    assert chain.final is sigma


def test_chain_reduces_before_minimizing():
    order = integers_order()
    m2 = matrix_algebra(2)
    prod = product_algebra([m2, rational_algebra()], name="M2xQ")
    dec = decompose(prod)
    rows = [list(prod.unit)]
    f = build_embedding(order, dec, MatQ.from_rows(rows))
    chain = minimize_to_elementary(f, BUDGET)
    kinds = [kind for kind, _ in chain.steps]
    assert kinds == ["reduce"]
    assert chain.final.codomain_dim == 1
    assert chain.report.elementary is True


# -- M-equivalence necessary conditions -----------------------------------------------


def test_m_equivalence_of_field_and_matrix_codomains():
    result = m_equivalence_necessary(
        canonical_embedding(order_facts(integers_order())), scalar_matrix_embedding(), BUDGET
    )
    assert result.verdict == "equivalent"


def test_m_equivalence_detects_quaternion_division():
    hamilton = quaternion_algebra(-1, -1)
    f = build_embedding(
        integers_order(), decompose(hamilton), MatQ.from_rows([hamilton.unit])
    )
    result = m_equivalence_necessary(
        canonical_embedding(order_facts(integers_order())), f, BUDGET
    )
    assert result.verdict == "not_equivalent"
    assert result.per_prime[0][2] == "split against division"


def test_m_equivalence_matches_quaternion_places():
    sigma = canonical_embedding(order_facts(lipschitz_order()))
    result = m_equivalence_necessary(sigma, sigma, BUDGET)
    assert result.verdict == "equivalent"
    assert "ramification" in result.per_prime[0][2]


def test_m_equivalence_leaves_larger_centres_undetermined():
    order = build_order(
        poly_quotient_algebra(PolyQ.make([-2, 0, 1]), name="Q(sqrt2)"),
        name="Z[sqrt2]",
    )
    sigma = canonical_embedding(order_facts(order))
    result = m_equivalence_necessary(sigma, sigma, BUDGET)
    assert result.verdict == "undetermined"


def test_m_equivalence_requires_shared_domain():
    with pytest.raises(DimensionMismatch):
        m_equivalence_necessary(
            canonical_embedding(order_facts(integers_order())),
            canonical_embedding(order_facts(crt_order())),
            BUDGET,
        )


def test_m_equivalence_requires_natural_embeddings():
    m2 = matrix_algebra(2)
    rows = [[1, 0, 0, 1], [1, 1, 0, -1]]
    twisted = build_embedding(crt_order(), decompose(m2), MatQ.from_rows(rows))
    with pytest.raises(NotNatural):
        m_equivalence_necessary(twisted, canonical_embedding(order_facts(crt_order())), BUDGET)


# -- semiprimary reduction ------------------------------------------------------------


def test_reduce_semiprimary_strips_triangular_radical():
    t2 = upper_triangular_algebra(2)
    result = reduce_semiprimary(integers_order(), t2, MatQ.from_rows([t2.unit]))
    assert result.radical.dim == 1
    assert result.projection.shape == (3, 2)
    assert result.embedding.codomain_dim == 2
    assert len(result.embedding.codomain.components) == 2


def test_reduce_semiprimary_is_identity_on_semisimple_targets():
    m2 = matrix_algebra(2)
    result = reduce_semiprimary(integers_order(), m2, MatQ.from_rows([m2.unit]))
    assert result.radical.dim == 0
    assert result.projection == MatQ.identity(4)
    assert result.embedding.codomain_dim == 4


def test_reduce_semiprimary_detects_nilpotent_preimages():
    t2 = upper_triangular_algebra(2)
    rows = [t2.unit, [0, 1, 0]]  # x -> e01 lands in the radical
    with pytest.raises(DomainNotSemiprime) as info:
        reduce_semiprimary(dual_numbers_order(), t2, MatQ.from_rows(rows))
    assert info.value.witness == (0, 1)


def test_reduce_semiprimary_validates_the_map():
    t2 = upper_triangular_algebra(2)
    rows = [t2.unit, [0, 0, 1]]  # x -> e11 is not a ring map from Z[x]/(x^2)
    with pytest.raises(ParseError):
        reduce_semiprimary(dual_numbers_order(), t2, MatQ.from_rows(rows))


# -- localization units ---------------------------------------------------------------


def test_localization_units_for_canonical_embeddings():
    sigma = canonical_embedding(order_facts(crt_order()))
    assert localization_unit_check(sigma, [(2, 0), (2, 1)], BUDGET)
    lip = canonical_embedding(order_facts(lipschitz_order()))
    assert localization_unit_check(lip, [(2, 0, 0, 0), (3, 0, 0, 0)], BUDGET)


def test_localization_rejects_zero_divisors():
    sigma = canonical_embedding(order_facts(split_integers_order(2)))
    with pytest.raises(NotRegular) as info:
        localization_unit_check(sigma, [(1, 0)], BUDGET)
    assert info.value.element == (1, 0)


def test_localization_rejects_noncentral_elements():
    lip = canonical_embedding(order_facts(lipschitz_order()))
    with pytest.raises(NotRegular, match="central"):
        localization_unit_check(lip, [(0, 1, 0, 0)], BUDGET)


def test_localization_requires_elementary_embedding():
    with pytest.raises(NotElementary):
        localization_unit_check(scalar_matrix_embedding(), [(2,)], BUDGET)
    m2 = matrix_algebra(2)
    rows = [[1, 0, 0, 1], [1, 1, 0, -1]]
    twisted = build_embedding(crt_order(), decompose(m2), MatQ.from_rows(rows))
    with pytest.raises(NotElementary):
        localization_unit_check(twisted, [(2, 0)], BUDGET)


# -- seeded end-to-end properties -----------------------------------------------------


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_canonical_embeddings_of_seeded_orders_are_elementary(seed):
    order = seeded_semiprime_order(seed, max_blocks=3, max_dim=8)
    facts = order_facts(order, seed=seed)
    sigma = canonical_embedding(facts)
    report = classify(sigma, facts.minimal_primes, BUDGET, seed=seed)
    assert report.natural and report.elementary is True
    chain = minimize_to_elementary(sigma, BUDGET, seed=seed)
    assert chain.steps == ()


def test_integer_kernels_never_read_the_fraction_view(monkeypatch):
    # A matrix is its integer rows over one denominator; only documents,
    # tests and element vectors read the `Fraction` view `rows`.
    alg = matrix_algebra(2)  # basis e11, e12, e21, e22
    order, dec = integer_matrix_order(2), decompose(alg)

    def unreadable(self):
        raise AssertionError("Fraction view of a matrix read inside an integer kernel")

    monkeypatch.setattr(MatQ, "rows", property(unreadable))
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    left = [alg.left_mult_op(u) for u in units]
    right = [alg.right_mult_op(u) for u in units]
    assert left[0] * left[1] == left[1] and rank(left[0]) == 2
    action = operator_algebra(left + right, module_dim=4)
    assert action.dim == 16  # M2(Q) (x) M2(Q)^op is all of End(Q^4)
    assert len(commutant_matrices(action)) == 1  # the centre, Q
    assert matrices_to_algebra(action.basis_matrices(), name="E")[0].dim == 16
    column = Subspace.image(right[0])  # M2(Q) e11, a left ideal
    assert column.dim == 2 and restrict_op(left[2], column).shape == (2, 2)
    assert combination_image([units[0]], left) == Subspace.image(left[0])
    build_embedding(order, dec, MatQ.identity(4))
    transpose = MatQ.from_ints([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], 1)
    with pytest.raises(ParseError, match="not multiplicative"):
        build_embedding(order, dec, transpose)

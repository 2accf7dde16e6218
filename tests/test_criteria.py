"""Criteria: classical quotients, centre conditions, embeddability verdicts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordembed.algebra import build_order, centre, is_regular, product_algebra
from ordembed.criteria import (
    centre_criterion,
    centre_of,
    classical_quotient,
    embeddability_report,
    idempotent_centre_criterion,
    order_facts,
)
from ordembed.embeddings import _check_ring_map
from ordembed.errors import CentreNotEtale
from ordembed.exact import PolyQ
from ordembed.linalg import MatQ, rank, row_times_mat, vec_add
from ordembed.samples import (
    cyclic_group_algebra,
    dihedral4_group_algebra,
    integer_matrix_order,
    lipschitz_order,
    matrix_algebra,
    poly_quotient_algebra,
    rational_algebra,
    seeded_semiprime_order,
    symmetric3_group_algebra,
    upper_triangular_algebra,
)

F = Fraction


def crt_order():
    alg = poly_quotient_algebra(PolyQ.make([-1, 0, 1]), name="Q[x]/(x^2-1)")
    return build_order(alg, name="Z[x]/(x^2-1)")


def dual_numbers_order():
    alg = poly_quotient_algebra(PolyQ.make([0, 0, 1]), name="Q[x]/(x^2)")
    return build_order(alg, name="Z[x]/(x^2)")


def triangular_order():
    return build_order(upper_triangular_algebra(2), name="T2(Z)")


def mixed_product_order():
    alg = product_algebra([rational_algebra(), matrix_algebra(2)], name="QxM2")
    return build_order(alg, name="ZxM2(Z)")


SEMIPRIME_ORDERS = (
    integer_matrix_order(2),
    crt_order(),
    mixed_product_order(),
    lipschitz_order(),
    build_order(cyclic_group_algebra(3), name="ZC3"),
    build_order(symmetric3_group_algebra(), name="ZS3"),
    build_order(dihedral4_group_algebra(), name="ZD4"),
)


# -- centre data ----------------------------------------------------------------------


def test_centre_of_matrix_order_is_the_scalars():
    data = centre_of(integer_matrix_order(2))
    assert data.rank == 1
    assert data.semiprime
    assert len(data.minimal_primes) == 1
    assert data.idempotents == ((F(1), F(0), F(0), F(1)),)


def test_centre_of_commutative_order_is_everything():
    data = centre_of(crt_order())
    assert data.rank == 2
    assert sorted(data.idempotents) == [
        (F(1, 2), F(-1, 2)),
        (F(1, 2), F(1, 2)),
    ]


def test_centre_idempotents_are_orthogonal_and_sum_to_one():
    for order in SEMIPRIME_ORDERS:
        data = centre_of(order)
        alg = order.coord_algebra
        total = (F(0),) * order.rank
        for e in data.idempotents:
            assert alg.mul(e, e) == tuple(e)
            total = vec_add(total, e)
        assert total == alg.unit
        for e in data.idempotents:
            for f in data.idempotents:
                if e is not f:
                    assert all(c == 0 for c in alg.mul(e, f))


def test_centre_of_nonsemiprime_centre_carries_a_witness():
    data = centre_of(dual_numbers_order())
    assert not data.semiprime
    assert data.radical_witness == (0, 1)
    assert data.minimal_primes == ()


# -- classical quotient ---------------------------------------------------------------


def test_quotient_of_matrix_order():
    report = classical_quotient(order_facts(integer_matrix_order(2)))
    assert report.semisimple
    assert len(report.minimal_primes) == 1
    assert report.prime_spans_match
    assert report.centre.rank == 1


def test_quotient_of_crt_order():
    report = classical_quotient(order_facts(crt_order()))
    assert report.semisimple
    assert len(report.minimal_primes) == 2
    assert report.prime_spans_match
    assert len(report.centre.minimal_primes) == 2


def test_quotient_of_dual_numbers_is_not_semisimple():
    report = classical_quotient(order_facts(dual_numbers_order()))
    assert not report.semisimple
    assert report.radical_witness == (0, 1)
    assert report.decomposition is None
    assert report.minimal_primes == ()


def test_quotient_of_triangular_order_names_a_nilpotent():
    report = classical_quotient(order_facts(triangular_order()))
    assert not report.semisimple
    assert report.radical_witness == (0, 1, 0)
    # the centre (scalars) is fine even though the order is not semiprime
    assert report.centre.semiprime and report.centre.rank == 1


def test_quotient_span_is_generated_by_the_lattice():
    report = classical_quotient(order_facts(lipschitz_order()))
    assert rank(MatQ.identity(report.order.rank)) == report.algebra.dim


# -- centre criterion -----------------------------------------------------------------


def test_centre_criterion_accepts_semiprime_orders():
    for order in SEMIPRIME_ORDERS:
        report = centre_criterion(order_facts(order))
        assert report.verdict, order.name
        assert all(c.holds for c in report.conditions)
        assert report.contraction_surjective
        assert all(sl.semisimple for sl in report.slices)


def test_centre_criterion_reconstruction_is_a_ring_isomorphism():
    for order in (integer_matrix_order(2), mixed_product_order(), crt_order()):
        report = centre_criterion(order_facts(order))
        alg = order.coord_algebra
        assert report.product_algebra.dim == alg.dim
        assert rank(report.product_iso) == alg.dim
        _check_ring_map(alg, report.product_algebra, report.product_iso)


def test_centre_criterion_slice_centres_match_central_components():
    report = centre_criterion(order_facts(mixed_product_order()))
    assert [sl.centre_dim for sl in report.slices] == [1, 1]
    assert [sl.component_count for sl in report.slices] == [1, 1]
    assert sorted(sl.algebra.dim for sl in report.slices) == [1, 4]


def test_centre_criterion_contraction_covers_central_primes():
    report = centre_criterion(order_facts(crt_order()))
    assert sorted(report.contraction) == [0, 1]


def test_centre_criterion_names_the_failing_condition():
    report = centre_criterion(order_facts(dual_numbers_order()))
    assert not report.verdict
    by_name = {c.name: c for c in report.conditions}
    assert by_name["semiprime"].holds is False
    assert by_name["semiprime"].witness == (0, 1)
    assert by_name["finitely-many-minimal-central-primes"].holds is None
    assert report.slices == ()


def test_centre_criterion_flags_bad_localizations():
    report = centre_criterion(order_facts(triangular_order()))
    assert not report.verdict
    by_name = {c.name: c for c in report.conditions}
    assert by_name["semiprime"].holds is False
    assert by_name["central-localizations-semisimple"].holds is False
    assert by_name["central-regular-elements-stay-regular"].holds is True
    slice_data, = report.slices
    assert slice_data.algebra.dim == 3 and not slice_data.semisimple


def test_central_regular_elements_are_regular_in_samples():
    # the condition the surrogate stands in for, spot-checked directly
    order = mixed_product_order()
    data = centre_of(order)
    z = data.to_parent((2, 3))
    assert is_regular(order, z)
    assert centre(order.coord_algebra).coords_of(z) is not None


# -- idempotent centre corollary ------------------------------------------------------


def test_idempotent_centre_splits_mixed_product():
    report = idempotent_centre_criterion(order_facts(mixed_product_order()))
    assert report.verdict
    assert sorted(f.algebra.dim for f in report.factors) == [1, 4]
    assert report.product_algebra.dim == 5
    _check_ring_map(
        report.order.coord_algebra, report.product_algebra, report.product_iso
    )


def test_idempotent_centre_with_trivial_idempotent_matches_quotient():
    facts = order_facts(integer_matrix_order(2))
    report = idempotent_centre_criterion(facts)
    quotient = classical_quotient(facts)
    assert report.verdict == quotient.semisimple
    factor, = report.factors
    assert factor.algebra.dim == 4 and factor.component_count == 1


def test_idempotent_centre_rejects_nilpotent_centres():
    with pytest.raises(CentreNotEtale) as info:
        idempotent_centre_criterion(order_facts(dual_numbers_order()))
    assert info.value.radical.dim == 1


def test_idempotent_centre_fails_on_radical_factors():
    report = idempotent_centre_criterion(order_facts(triangular_order()))
    assert not report.verdict
    assert not report.semiprime and report.radical_witness == (0, 1, 0)
    factor, = report.factors
    assert not factor.semisimple


# -- embeddability --------------------------------------------------------------------


def test_embeddability_of_semiprime_orders():
    for order in SEMIPRIME_ORDERS:
        report = embeddability_report(order_facts(order))
        assert report.verdict, order.name
        assert report.witness is not None
        assert report.witness.map == MatQ.identity(order.rank)
        assert len(report.component_dims) == len(report.minimal_primes)


def test_embeddability_failure_names_a_nilpotent():
    report = embeddability_report(order_facts(dual_numbers_order()))
    assert not report.verdict
    assert report.nilpotent_witness == (0, 1)
    assert report.witness is None


# -- criteria agree -------------------------------------------------------------------


def test_criteria_agree_on_fixed_orders():
    for order in SEMIPRIME_ORDERS + (dual_numbers_order(), triangular_order()):
        facts = order_facts(order)
        quotient = classical_quotient(facts)
        embed = embeddability_report(facts)
        criterion = centre_criterion(facts)
        assert quotient.semisimple == embed.verdict == criterion.verdict, order.name


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_criteria_agree_on_seeded_orders(seed):
    order = seeded_semiprime_order(seed, max_blocks=3, max_dim=8)
    facts = order_facts(order, seed=seed)
    quotient = classical_quotient(facts)
    criterion = centre_criterion(facts)
    assert quotient.semisimple and criterion.verdict
    assert quotient.prime_spans_match
    assert criterion.contraction_surjective
    assert embeddability_report(facts).verdict

"""Radical, decomposition, split resolution, and module certification."""

import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ordembed.algebra import (
    StructureAlgebra,
    build_algebra,
    induced_algebra,
    quotient_algebra_by_subspace,
)
from ordembed.cli import CORPUS_DIR
from ordembed.embeddings import _project_rows, load_embedding
from ordembed.errors import (
    DimensionMismatch,
    NotInvariant,
    NotSemisimple,
    NotSemisimpleAction,
)
from ordembed.linalg import (
    MatQ,
    Subspace,
    kron,
    left_kernel,
    mat_hstack,
    op_apply,
    unit_vec,
)
from ordembed.samples import (
    cyclic_group_algebra,
    dihedral4_group_algebra,
    matrix_algebra,
    planted_radical_instance,
    poly_quotient_algebra,
    product_pair,
    quaternion_algebra,
    symmetric3_group_algebra,
    upper_triangular_algebra,
)
from ordembed import wedderburn
from ordembed.exact import PolyQ, factor_rational_poly
from ordembed.wedderburn import (
    certify_simple_module,
    commutant_matrices,
    decompose,
    fact_store,
    isotypic_split,
    matrices_to_algebra,
    operator_algebra,
    radical,
    resolve_all,
    resolve_split_status,
    restrict_op,
    semisimple_quotient,
    simple_commutant,
)

from fraction_reference import crt_idempotents, mat_unvec, mat_vec_of, subspace_product
from strategies import nonzero_scales, scrambled_semisimple, wide_entries

F = Fraction


def fmat(*rows):
    return MatQ.from_rows(tuple(tuple(F(x) for x in r) for r in rows))


# -- radical ------------------------------------------------------------------------


def test_radical_of_triangular_matrices():
    t2 = upper_triangular_algebra(2)
    rad = radical(t2)
    assert rad.basis.rows == (unit_vec(3, 1),)


def test_radical_of_dual_numbers():
    dual = poly_quotient_algebra(PolyQ.make([0, 0, 1]), name="dual")
    rad = radical(dual)
    assert rad.basis.rows == (unit_vec(2, 1),)


def test_semisimple_algebras_have_zero_radical():
    for alg in (matrix_algebra(2), cyclic_group_algebra(3),
                symmetric3_group_algebra(), quaternion_algebra(-1, -1)):
        assert radical(alg).dim == 0, alg.name


def test_radical_is_nilpotent_ideal():
    t3 = upper_triangular_algebra(3)
    rad = radical(t3)
    assert rad.dim == 3
    sq = subspace_product(t3, rad, rad)
    cube = subspace_product(t3, rad, sq)
    assert sq.dim == 1
    assert cube.dim == 0


def test_quotient_by_radical_is_semisimple():
    t3 = upper_triangular_algebra(3)
    ss, _ = semisimple_quotient(t3)
    assert ss.dim == 3
    assert radical(ss).dim == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_planted_radical_recovered_exactly(seed):
    inst = planted_radical_instance(seed)
    rad = radical(inst.algebra)
    assert rad.basis.rows == inst.radical.basis.rows
    ss, _ = quotient_algebra_by_subspace(inst.algebra, rad, name="ss")
    assert radical(ss).dim == 0


# -- decomposition ------------------------------------------------------------------


def test_decompose_rejects_nonsemisimple():
    with pytest.raises(NotSemisimple) as exc:
        decompose(upper_triangular_algebra(2))
    assert exc.value.radical.dim == 1


@st.composite
def poly_quotients(draw):
    """Q[x]/(p) for p a product of up to three small factors, some repeated, of degree 2 to 6."""
    p = PolyQ.one()
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 2))
        mult = draw(st.integers(1, 2))
        if p.degree + degree * mult > 6:
            break
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=degree, max_size=degree))
        p = p * PolyQ.make(coeffs + [draw(st.integers(1, 2))]) ** mult
    if p.degree < 2:
        p = p * PolyQ.make([draw(st.integers(-3, 3)), 1])
    return poly_quotient_algebra(p)


@given(poly_quotients(), st.lists(st.integers(-2, 2), min_size=6, max_size=6))
@settings(deadline=None, max_examples=60)
def test_crt_idempotents_match_the_xgcd_reference(alg, coeffs):
    # z = x, and an integer combination of 1, x, x^2, ... as a row of `int`
    for z in (alg.basis_vec(1), tuple(coeffs[:alg.dim])):
        factors = factor_rational_poly(alg.minimal_polynomial(z))
        if not factors:
            continue
        ours = wedderburn._crt_idempotents(alg, z, factors)
        assert ours == crt_idempotents(alg, z, factors)
        assert tuple(map(sum, zip(*ours))) == alg.unit


def test_factoring_and_crt_build_no_fraction_but_the_idempotents(monkeypatch):
    polys = [PolyQ.make(cs) for cs in ([0, -1, 1], [1, -2, 1], [-2, 0, 1], [2, -1, -2, 1],
                                       [F(1, 2), 0, 0, 0, 1], [-1, 1, 0, 0, -1, 1])]
    alg = poly_quotient_algebra(PolyQ.make([-1, 1]) ** 2 * PolyQ.make([-2, 0, 0, 1]))
    x = tuple(1 if j == 1 else 0 for j in range(alg.dim))
    factors = factor_rational_poly(alg.minimal_polynomial(x))
    made = [0]
    original = F.__new__

    def counting(cls, *args, **kwargs):
        made[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    for p in polys:
        factor_rational_poly(p)
    factored = made[0]
    idems = wedderburn._crt_idempotents(alg, x, factors)
    monkeypatch.undo()
    assert factored == 0
    assert made[0] <= sum(1 for e in idems for c in e if c)
    assert len(idems) == 2


def test_group_algebra_c2_idempotents():
    dec = decompose(cyclic_group_algebra(2))
    half = F(1, 2)
    assert dec.central_idempotents == ((half, -half), (half, half))
    assert [c.dim for c in dec.components] == [1, 1]


def test_group_algebra_c3_and_c4_component_dims():
    assert [c.dim for c in decompose(cyclic_group_algebra(3)).components] == [1, 2]
    assert [c.dim for c in decompose(cyclic_group_algebra(4)).components] == [1, 1, 2]


def test_group_algebra_s3_components():
    dec = resolve_all(decompose(symmetric3_group_algebra()), 1000)
    assert [c.dim for c in dec.components] == [1, 1, 4]
    four = dec.components[2]
    assert four.centre_dim == 1
    assert four.reduced_degree == 2
    assert four.split_status.kind == "split"
    assert four.matrix_size == 2


def test_group_algebra_d4_components():
    dec = resolve_all(decompose(dihedral4_group_algebra()), 1000)
    assert [c.dim for c in dec.components] == [1, 1, 1, 1, 4]
    assert dec.components[4].split_status.kind == "split"
    assert dec.components[4].matrix_size == 2


def test_decomposition_idempotents_are_central_orthogonal():
    a = symmetric3_group_algebra()
    dec = decompose(a)
    total = a.unit
    acc = tuple(F(0) for _ in range(a.dim))
    for e in dec.central_idempotents:
        assert a.mul(e, e) == e
        for i in range(a.dim):
            b = a.basis_vec(i)
            assert a.mul(e, b) == a.mul(b, e)
        acc = tuple(x + y for x, y in zip(acc, e))
    assert acc == total


def test_component_dimension_invariant():
    for alg in (symmetric3_group_algebra(), dihedral4_group_algebra(),
                matrix_algebra(2), cyclic_group_algebra(4)):
        for comp in decompose(alg).components:
            assert comp.reduced_degree ** 2 * comp.centre_dim == comp.dim


def test_component_blocks_multiply_back_into_parent():
    a = symmetric3_group_algebra()
    for comp in decompose(a).components:
        block = comp.subspace()
        for r in block.basis.rows:
            assert block.contains_vec(a.mul(r, comp.idempotent))
            assert a.mul(r, comp.idempotent) == r


# -- split status -------------------------------------------------------------------


def test_matrix_algebra_splits_with_certificates():
    dec = resolve_all(decompose(matrix_algebra(2)), 1000)
    comp = dec.components[0]
    assert comp.split_status.kind == "split"
    assert comp.matrix_size == 2
    idems = comp.split_status.idempotents
    assert len(idems) == 2
    b = comp.algebra
    for e in idems:
        assert b.mul(e, e) == e
    assert all(x == 0 for x in b.mul(idems[0], idems[1]))


def test_matrix_algebra_3_splits():
    dec = resolve_all(decompose(matrix_algebra(3)), 1000)
    comp = dec.components[0]
    assert comp.split_status.kind == "split"
    assert comp.matrix_size == 3
    assert len(comp.split_status.idempotents) == 3


def test_hamilton_quaternions_are_division():
    dec = resolve_all(decompose(quaternion_algebra(-1, -1)), 1000)
    comp = dec.components[0]
    assert comp.split_status.kind == "quaternion_division"
    assert comp.split_status.places == (2, "inf")
    assert comp.matrix_size == 1


def test_ramified_quaternion_pairs():
    for (a, b), places in [((-1, 3), (2, 3)), ((2, 5), (2, 5))]:
        dec = resolve_all(decompose(quaternion_algebra(a, b)), 1000)
        comp = dec.components[0]
        assert comp.split_status.kind == "quaternion_division"
        assert comp.split_status.places == places


def test_split_quaternion_pair():
    dec = resolve_all(decompose(quaternion_algebra(1, 1)), 1000)
    comp = dec.components[0]
    assert comp.split_status.kind == "split"
    assert comp.matrix_size == 2


def test_zero_budget_leaves_unknown():
    dec = decompose(matrix_algebra(3))
    comp = resolve_split_status(dec.components[0], 0)
    assert comp.split_status.kind == "unknown"
    assert comp.split_status.budget == 0


def test_commutative_component_is_trivially_split():
    dec = decompose(cyclic_group_algebra(3))
    for comp in resolve_all(dec, 10).components:
        assert comp.split_status.kind == "split"
        assert comp.matrix_size == 1


# -- operator algebras and modules --------------------------------------------------


def test_operator_algebra_contains_identity():
    e = operator_algebra([], module_dim=3)
    assert e.dim == 1
    assert e.basis_matrices()[0] == MatQ.identity(3)


def test_operator_algebra_closure():
    nil = fmat((0, 1), (0, 0))
    e = operator_algebra([nil])
    assert e.dim == 2  # I and the nilpotent
    swap = fmat((0, 1), (1, 0))
    assert operator_algebra([swap]).dim == 2
    full = operator_algebra([fmat((0, 1), (0, 0)), fmat((0, 0), (1, 0))])
    assert full.dim == 4


def test_operator_algebra_shape_validation():
    with pytest.raises(DimensionMismatch):
        operator_algebra([])
    with pytest.raises(DimensionMismatch):
        operator_algebra([fmat((0, 1), (0, 0))], module_dim=3)


def test_commutant_of_full_matrix_action_is_scalars():
    gens = [fmat((1, 0), (0, 0)), fmat((0, 1), (0, 0)), fmat((0, 0), (1, 0))]
    e = operator_algebra(gens)
    mats = commutant_matrices(e)
    assert len(mats) == 1
    c, _ = matrices_to_algebra(mats, name="commutant")
    assert c.dim == 1


mixed_entries = st.one_of(
    st.just(F(0)), st.just(F(0)), st.integers(-3, 3).map(F),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)


@st.composite
def generator_sets(draw):
    """1-4 generators (or none) of size d <= 4: scalars, and matrices that
    often preserve the split Q^s + Q^(d-s), so that commutants vary in size."""
    d = draw(st.integers(1, 4))
    split = draw(st.integers(1, d))
    gens = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 3)) == 0:
            c = draw(mixed_entries)
            gens.append(MatQ.identity(d).scale(c))
            continue
        block = draw(st.booleans())
        gens.append(MatQ.from_rows(tuple(
            tuple(F(0) if block and (i < split) != (j < split) else draw(mixed_entries)
                  for j in range(d))
            for i in range(d)
        )))
    return d, gens


@given(generator_sets())
@settings(deadline=None, max_examples=120)
def test_commutant_matches_kronecker_system_and_sympy(case):
    d, gens = case
    e = operator_algebra(gens, module_dim=d)
    ours = tuple(mat_vec_of(m) for m in commutant_matrices(e))
    eye = MatQ.identity(d)
    if gens:
        stacked = mat_hstack(*(kron(eye, g) - kron(g.transpose(), eye) for g in gens))
        expected = Subspace.from_rows(d * d, left_kernel(stacked).rows)
    else:
        stacked = MatQ.from_rows(((),) * (d * d))
        expected = Subspace.full(d * d)
    assert ours == expected.basis.rows
    assert all(type(x) is F for r in ours for x in r)
    theirs = sympy.Matrix(d * d, len(stacked.rows[0]),
                          [sympy.Rational(x.numerator, x.denominator)
                           for r in stacked.rows for x in r]).T.nullspace()
    assert len(theirs) == len(ours)
    oracle = Subspace.from_rows(d * d, [[F(int(x.p), int(x.q)) for x in v] for v in theirs])
    assert oracle.basis.rows == ours


def test_double_centralizer():
    cases = [
        [fmat((0, 1), (1, 0))],
        [fmat((1, 0), (0, 0)), fmat((0, 1), (0, 0)), fmat((0, 0), (1, 0))],
        [fmat((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))],
    ]
    for gens in cases:
        e = operator_algebra(gens)
        first = commutant_matrices(e)
        second = commutant_matrices(operator_algebra(list(first),
                                                     module_dim=e.module_dim))
        back = operator_algebra(list(second), module_dim=e.module_dim)
        assert back.spanned.basis.rows == e.spanned.basis.rows


def test_isotypic_split_of_swap_action():
    e = operator_algebra([fmat((0, 1), (1, 0))])
    parts = isotypic_split(e)
    assert [p.dim for p in parts] == [1, 1]
    bases = {p.basis.rows for p in parts}
    assert bases == {((F(1), F(-1)),), ((F(1), F(1)),)}


def test_isotypic_split_rejects_nilpotent_action():
    with pytest.raises(NotSemisimpleAction):
        isotypic_split(operator_algebra([fmat((0, 1), (0, 0))]))


def test_isotypic_single_part_for_multiplicity_two():
    e11 = fmat((1, 0), (0, 0))
    e12 = fmat((0, 1), (0, 0))
    e21 = fmat((0, 0), (1, 0))

    def diag(m):
        z = [F(0), F(0)]
        return MatQ.from_rows(tuple(tuple(list(r) + z) for r in m.rows)
                    + tuple(tuple(z + list(r)) for r in m.rows))

    e = operator_algebra([diag(e11), diag(e12), diag(e21)])
    parts = isotypic_split(e)
    assert len(parts) == 1
    assert parts[0].dim == 4


def test_restrict_op_requires_invariance():
    swap = fmat((0, 1), (1, 0))
    w = Subspace.from_rows(2, [(F(1), F(0))])
    with pytest.raises(NotInvariant):
        restrict_op(swap, w)
    plus = Subspace.from_rows(2, [(F(1), F(1))])
    r = restrict_op(swap, plus)
    assert r == MatQ.from_rows(((F(1),),))


def test_certify_simple_eigenspace():
    e = operator_algebra([fmat((0, 1), (1, 0))])
    res = certify_simple_module(e, Subspace.from_rows(2, [(F(1), F(1))]), 100)
    assert res.kind == "simple"


def test_certify_whole_module_with_two_isotypics():
    e = operator_algebra([fmat((0, 1), (1, 0))])
    res = certify_simple_module(e, Subspace.full(2), 100)
    assert res.kind == "not_simple"
    w = res.witness
    assert w is not None and 0 < w.dim < 2
    for g in e.generators:
        for row in w.basis.rows:
            assert w.contains_vec(op_apply(g, row))


def test_certify_whole_module_reuses_given_action(monkeypatch):
    e = operator_algebra([fmat((0, 1), (1, 0))])
    calls = {"operator_algebra": 0, "spanned_algebra": 0}

    def counting(name):
        original = getattr(wedderburn, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(wedderburn, name, counting(name))
    res = certify_simple_module(e, Subspace.full(2), 100)
    assert calls == {"operator_algebra": 0, "spanned_algebra": 1}
    assert res.kind == "not_simple"
    assert res.witness is not None and res.witness.dim == 1
    assert res.note == "multiple isotypic components"

    calls.update(operator_algebra=0, spanned_algebra=0)
    res = certify_simple_module(e, Subspace.from_rows(2, [(F(1), F(1))]), 100)
    assert calls == {"operator_algebra": 1, "spanned_algebra": 1}
    assert res.kind == "simple"


def test_certify_multiplicity_two_finds_copy():
    e11 = fmat((1, 0), (0, 0))
    e12 = fmat((0, 1), (0, 0))
    e21 = fmat((0, 0), (1, 0))

    def diag(m):
        z = [F(0), F(0)]
        return MatQ.from_rows(tuple(tuple(list(r) + z) for r in m.rows)
                    + tuple(tuple(z + list(r)) for r in m.rows))

    e = operator_algebra([diag(e11), diag(e12), diag(e21)])
    res = certify_simple_module(e, Subspace.full(4), 400)
    assert res.kind == "not_simple"
    w = res.witness
    assert w is not None and w.dim == 2
    for g in e.generators:
        for row in w.basis.rows:
            assert w.contains_vec(op_apply(g, row))
    diag_copy = Subspace.from_rows(4, [(F(1), F(0), F(1), F(0)),
                                       (F(0), F(1), F(0), F(1))])
    res2 = certify_simple_module(e, diag_copy, 400)
    assert res2.kind == "simple"


def test_certify_nonsemisimple_restriction():
    e = operator_algebra([fmat((0, 1), (0, 0))])
    res = certify_simple_module(e, Subspace.full(2), 100)
    assert res.kind == "not_simple"
    assert res.witness.basis.rows == ((F(1), F(0)),)


def test_certify_rejects_noninvariant_subspace():
    e = operator_algebra([fmat((0, 1), (1, 0))])
    with pytest.raises(NotInvariant):
        certify_simple_module(e, Subspace.from_rows(2, [(F(1), F(0))]), 10)


def test_certify_quaternion_regular_module_is_simple():
    h = quaternion_algebra(-1, -1)
    gens = [h.left_mult_op(h.basis_vec(i)) for i in (1, 2)]
    e = operator_algebra(gens)
    assert e.dim == 4
    res = certify_simple_module(e, Subspace.full(4), 400)
    assert res.kind == "simple"
    assert "quaternion" in res.note


def test_certify_split_quaternion_regular_module_is_not_simple():
    h = quaternion_algebra(1, 1)
    gens = [h.left_mult_op(h.basis_vec(i)) for i in (1, 2)]
    e = operator_algebra(gens)
    res = certify_simple_module(e, Subspace.full(4), 400)
    assert res.kind == "not_simple"
    w = res.witness
    assert w is not None and w.dim == 2
    for g in e.generators:
        for row in w.basis.rows:
            assert w.contains_vec(op_apply(g, row))


# -- the integer operator layer against its definitions -------------------------------

@st.composite
def wide_generator_sets(draw):
    """0-3 generators of size d <= 3 with mixed entries; some are sparse or scalar."""
    d = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            c = draw(wide_entries)
            gens.append(MatQ.from_rows(tuple(tuple(c if i == j else 0 for j in range(d)) for i in range(d))))
        else:
            gens.append(MatQ.from_rows(tuple(
                tuple(draw(wide_entries) if kind > 1 or i <= j else 0 for j in range(d))
                for i in range(d)
            )))
    return d, gens


def pairwise_closure(gens, d):
    """The unital closure by every pairwise product each round, until the span stops growing."""
    span = Subspace.from_rows(d * d, [mat_vec_of(MatQ.identity(d))]
                              + [mat_vec_of(g) for g in gens])
    while True:
        mats = [mat_unvec(r, d, d) for r in span.basis.rows]
        bigger = Subspace.from_rows(
            d * d, list(span.basis.rows) + [mat_vec_of(x * y) for x in mats for y in mats])
        if bigger.dim == span.dim:
            return span
        span = bigger


def sympy_closure_rref(gens, d):
    """The same closure in sympy: the RREF rows of the span of all words."""
    def rat(x):
        return sympy.Rational(F(x).numerator, F(x).denominator)

    basis = [sympy.eye(d)] + [sympy.Matrix(d, d, lambda i, j: rat(g.rows[i][j])) for g in gens]
    while True:
        products = [x * y for x in basis for y in basis]
        stacked = sympy.Matrix([list(m.reshape(1, d * d)) for m in basis + products])
        reduced, pivots = stacked.rref()
        if len(pivots) == len(basis):
            return [[F(int(x.p), int(x.q)) for x in reduced.row(k)] for k in range(len(pivots))]
        basis = [reduced.row(k).reshape(d, d) for k in range(len(pivots))]


def entrywise_product(x, y):
    n = len(y.rows[0])
    return tuple(
        tuple(sum((F(a) * F(row_b[j]) for a, row_b in zip(row_a, y.rows)), F(0)) for j in range(n))
        for row_a in x.rows
    )


@given(wide_generator_sets())
@settings(deadline=None, max_examples=80)
def test_semi_naive_closure_matches_pairwise_closure_and_sympy(case):
    d, gens = case
    e = operator_algebra(gens, module_dim=d)
    assert e.spanned == pairwise_closure(gens, d)
    assert [list(r) for r in e.spanned.basis.rows] == sympy_closure_rref(gens, d)
    assert all(type(x) is F for r in e.spanned.basis.rows for x in r)


@given(wide_generator_sets(), st.lists(nonzero_scales, min_size=9, max_size=9))
@settings(deadline=None, max_examples=80)
def test_matrices_to_algebra_table_matches_entrywise_products(case, scales):
    d, gens = case
    # a scaled basis of the closure: independent, closed, not in RREF
    mats = [m.scale(c) for m, c in zip(operator_algebra(gens, module_dim=d).basis_matrices(),
                                       scales)]
    alg, returned = matrices_to_algebra(mats, name="M")
    assert returned == tuple(mats)

    def combine(coords):
        return tuple(
            tuple(sum((c * m.rows[i][j] for c, m in zip(coords, mats)), F(0)) for j in range(d))
            for i in range(d)
        )

    for i, x in enumerate(mats):
        for j, y in enumerate(mats):
            assert combine(alg.table[i][j]) == entrywise_product(x, y)
            assert all(type(c) is F for c in alg.table[i][j])
    assert combine(alg.unit) == MatQ.identity(d).rows


def test_operator_layer_makes_no_products(monkeypatch):
    """On a corpus embedding, the operator layer and algebra validation read integers only."""
    def load(name):
        return json.loads((CORPUS_DIR / f"{name}.json").read_text())

    f = load_embedding(load("demo-split"), resolver=load)
    parent = f.codomain.parent
    comp = f.codomain.components[0]
    block = comp.algebra
    left = tuple(block.left_mult_op(r) for r in
                 _project_rows(f.codomain, f.map, (0,)).rows)
    right = tuple(block.right_mult_op(block.basis_vec(k)) for k in range(block.dim))
    commuting = commutant_matrices(operator_algebra(left + right, module_dim=block.dim))
    counts = Counter()
    for owner, attr, key in ((MatQ, "__mul__", "MatQ.__mul__"),
                             (StructureAlgebra, "mul", "StructureAlgebra.mul")):
        def counting(*args, _orig=getattr(owner, attr), _key=key):
            counts[_key] += 1
            return _orig(*args)
        monkeypatch.setattr(owner, attr, counting)

    rebuilt = build_algebra(parent.name, parent.basis_labels, parent.unit, parent.table)
    sub = induced_algebra(parent, comp.block_rows, name="blk", unit_hint=comp.idempotent)
    unhinted = induced_algebra(parent, comp.block_rows, name="blk")
    e = operator_algebra(left + right, module_dim=block.dim)
    spanned, _ = matrices_to_algebra(e.basis_matrices(), name="E")
    end, _ = matrices_to_algebra(commuting, name="End")
    assert counts == Counter()
    assert rebuilt.table == parent.table and sub.dim == unhinted.dim == block.dim == 4
    assert sub.unit == unhinted.unit
    assert (e.dim, spanned.dim, end.dim) == (4, 4, 4)


# -- the command's fact store ---------------------------------------------------------


def renamed(alg, name):
    """The same table under another name and other basis labels."""
    return replace(alg, name=name, basis_labels=tuple(f"x{i}" for i in range(alg.dim)))


@given(scrambled_semisimple(), st.integers(0, 3))
@settings(deadline=None, max_examples=20)
def test_a_stored_fact_under_another_name_equals_a_fresh_one(alg, seed):
    other = renamed(alg, "B")
    with fact_store():
        first = resolve_all(decompose(alg, seed=seed), 100, seed=seed)
        hit = resolve_all(decompose(other, seed=seed), 100, seed=seed)
        # the left regular module of a simple block is isotypic
        block = first.components[-1].algebra
        e = operator_algebra([block.left_mult_op(block.basis_vec(i)) for i in range(block.dim)])
        first_end = simple_commutant(e, 100, name="End", seed=seed)
        hit_end = simple_commutant(e, 100, name="Other", seed=seed)
        first_alg = matrices_to_algebra(e.basis_matrices(), name="M")
        hit_alg = matrices_to_algebra(e.basis_matrices(), name="N")
    assert wedderburn._FACTS.get() is None
    # each second call was answered from the store
    assert hit.central_idempotents is first.central_idempotents
    assert hit_end[2] is first_end[2] and hit_alg[0].products is first_alg[0].products
    # and equals a fresh computation under its own name, field by field
    assert hit == resolve_all(decompose(other, seed=seed), 100, seed=seed)
    assert hit.parent is other
    assert {c.algebra.name for c in hit.components} == {"B.blk"}
    assert hit_end == simple_commutant(e, 100, name="Other", seed=seed)
    assert (hit_end[0].name, hit_end[1].algebra.name) == ("Other", "Other.blk")
    assert hit_alg == matrices_to_algebra(e.basis_matrices(), name="N")


def test_no_store_is_open_outside_a_command():
    assert wedderburn._FACTS.get() is None
    with fact_store():
        outer = wedderburn._FACTS.get()
        with fact_store():
            assert wedderburn._FACTS.get() is not outer
        assert wedderburn._FACTS.get() is outer
    assert wedderburn._FACTS.get() is None


def test_a_failure_is_not_stored():
    with fact_store():
        for _ in range(2):
            with pytest.raises(DimensionMismatch):
                matrices_to_algebra([fmat((0, 1), (0, 0))], name="M")
        assert wedderburn._FACTS.get() == {}


@given(scrambled_semisimple())
@settings(deadline=None, max_examples=30)
def test_the_whole_algebra_is_its_own_first_block(alg):
    induced = induced_algebra(alg, MatQ.identity(alg.dim), name="A.blk", unit_hint=alg.unit)
    block = wedderburn._whole_block(alg)
    assert (block.name, block.basis_labels, block.unit, block.den, block.products) == (
        induced.name, induced.basis_labels, induced.unit, induced.den, induced.products)
    assert block == induced


@pytest.mark.parametrize("make", [
    lambda: matrix_algebra(2),
    lambda: quaternion_algebra(-1, -1),
    lambda: poly_quotient_algebra(PolyQ.make([-2, 0, 1]), name="Q(sqrt2)"),
    product_pair,
], ids=["M2", "H", "Qsqrt2", "QC2xQsqrt2"])
def test_the_whole_block_of_a_sample_algebra(make):
    alg = make()
    assert wedderburn._whole_block(alg) == induced_algebra(
        alg, MatQ.identity(alg.dim), name=f"{alg.name}.blk", unit_hint=alg.unit)
    dec = decompose(alg)
    if len(dec) == 1:
        (comp,) = dec.components
        assert comp.algebra == wedderburn._whole_block(alg)
        assert comp.block_rows == MatQ.identity(alg.dim)

"""Structure algebras, orders, ideals, quotients, and the inverse obstruction."""

import json
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from ordembed.algebra import (
    StructureAlgebra,
    _check_associativity,
    _is_saturated,
    algebra_to_doc,
    build_algebra,
    build_ideal,
    build_order,
    centre,
    induced_algebra,
    is_regular,
    left_annihilator,
    load_algebra,
    load_order,
    one_sided_inverse_obstruction,
    order_to_doc,
    product_algebra,
    quotient_by_ideal,
    right_annihilator,
    saturate_ideal,
    two_sided_ideal_subspace,
)
from ordembed.cli import CORPUS_DIR, run_report
from ordembed.errors import (
    NoUnit,
    NonSaturatedIdeal,
    NotAssociative,
    OracleIncomplete,
    ParseError,
)
from ordembed.exact import PolyQ
from ordembed.linalg import Lattice, MatQ, Subspace, lattice_intersect_subspace, unit_vec
from ordembed.samples import (
    change_basis,
    cyclic_group_algebra,
    matrix_algebra,
    poly_quotient_algebra,
    quaternion_algebra,
    random_unimodular,
    rational_algebra,
    upper_triangular_algebra,
)

from fraction_reference import fraction_coords, trace, two_sided_ideal_generated
from strategies import nonzero_scales, wide_entries

F = Fraction


def fmat(*rows):
    return MatQ.from_rows(tuple(tuple(F(x) for x in r) for r in rows))


def test_group_algebra_c2_basics():
    a = cyclic_group_algebra(2)
    assert a.dim == 2
    assert a.unit == (F(1), F(0))
    x = a.basis_vec(1)
    assert a.mul(x, x) == a.unit
    assert a.minimal_polynomial(x) == PolyQ.make([-1, 0, 1])
    assert centre(a).dim == a.dim


def test_matrix_algebra_units_multiply():
    m2 = matrix_algebra(2)
    e01 = m2.basis_vec(1)
    e10 = m2.basis_vec(2)
    # e01 * e10 = e00, e10 * e01 = e11
    assert m2.mul(e01, e10) == m2.basis_vec(0)
    assert m2.mul(e10, e01) == m2.basis_vec(3)
    assert centre(m2).dim < m2.dim
    assert trace(m2, m2.unit) == 4


def test_minimal_polynomial_of_matrix_idempotent():
    m2 = matrix_algebra(2)
    e00 = m2.basis_vec(0)
    assert m2.minimal_polynomial(e00) == PolyQ.make([0, -1, 1])
    assert m2.minimal_polynomial(m2.unit) == PolyQ.make([-1, 1])


def test_centre_dimensions():
    assert centre(matrix_algebra(2)).dim == 1
    assert centre(cyclic_group_algebra(4)).dim == 4
    both = product_algebra([cyclic_group_algebra(2), cyclic_group_algebra(2)])
    assert centre(both).dim == 4


def test_centre_of_product_separates_factors():
    p = product_algebra([matrix_algebra(2), matrix_algebra(2)])
    z = centre(p)
    assert z.dim == 2
    assert z.contains_vec(p.unit)


def test_load_algebra_rejects_nonassociative_table():
    # u*u = v, u*v = 1, but v*u = 0: (uu)u = vu = 0 while u(uu) = uv = 1
    doc = {
        "name": "broken",
        "dim": 3,
        "basis": ["1", "u", "v"],
        "unit": ["1", "0", "0"],
        "table": [
            {"i": 0, "j": 0, "c": ["1", "0", "0"]},
            {"i": 0, "j": 1, "c": ["0", "1", "0"]},
            {"i": 0, "j": 2, "c": ["0", "0", "1"]},
            {"i": 1, "j": 0, "c": ["0", "1", "0"]},
            {"i": 2, "j": 0, "c": ["0", "0", "1"]},
            {"i": 1, "j": 1, "c": ["0", "0", "1"]},
            {"i": 1, "j": 2, "c": ["1", "0", "0"]},
        ],
    }
    with pytest.raises(NotAssociative) as exc:
        load_algebra(doc)
    assert exc.value.triple == (1, 1, 1)


def test_load_algebra_rejects_wrong_unit():
    doc = {
        "name": "unitless",
        "dim": 1,
        "basis": ["a"],
        "unit": ["0"],
        "table": [{"i": 0, "j": 0, "c": ["1"]}],
    }
    with pytest.raises(NoUnit):
        load_algebra(doc)


def test_algebra_doc_roundtrip():
    a = matrix_algebra(2)
    doc = algebra_to_doc(a)
    b = load_algebra(doc)
    assert b.table == a.table
    assert b.unit == a.unit
    assert b.basis_labels == a.basis_labels


def test_induced_subalgebra_upper_triangular():
    m2 = matrix_algebra(2)
    rows = fmat((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1))  # e00, e01, e11
    t2 = induced_algebra(m2, rows, name="T2")
    assert t2.dim == 3
    assert t2.unit == (F(1), F(0), F(1))


def test_left_annihilator_in_triangular_algebra():
    # ann_l(span{e01}) in T2 is span{e01, e11}
    t2 = upper_triangular_algebra(2)
    target = Subspace.from_rows(3, [unit_vec(3, 1)])
    ann = left_annihilator(t2, target)
    assert ann.basis.rows == (unit_vec(3, 1), unit_vec(3, 2))
    # and on the right, e01 is killed by e00
    rann = right_annihilator(t2, target)
    assert rann.basis.rows == (unit_vec(3, 0), unit_vec(3, 1))


def test_annihilator_of_whole_algebra_is_zero():
    m2 = matrix_algebra(2)
    assert left_annihilator(m2, Subspace.full(4)).dim == 0


def test_annihilator_in_split_product():
    p = product_algebra([cyclic_group_algebra(1), cyclic_group_algebra(1)], name="QxQ")
    first = Subspace.from_rows(2, [unit_vec(2, 0)])
    ann = left_annihilator(p, first)
    assert ann.basis.rows == (unit_vec(2, 1),)


def test_order_requires_integral_closure():
    amb = poly_quotient_algebra(PolyQ.make([F(1, 2), 0, 1]), name="halfroot")
    with pytest.raises(ParseError):
        build_order(amb)


def test_ideal_generated_by_unit_is_whole_order():
    r = build_order(cyclic_group_algebra(2))
    whole = two_sided_ideal_generated(r, [r.coord_algebra.unit])
    assert whole.lattice.basis == ((1, 0), (0, 1))
    empty = two_sided_ideal_generated(r, [])
    assert empty.lattice.is_zero


def test_principal_ideal_in_group_ring():
    # (1 - x) inside Z[C2]
    r = build_order(cyclic_group_algebra(2))
    gen = (F(1), F(-1))
    ideal = two_sided_ideal_generated(r, [gen])
    assert ideal.lattice.basis == ((1, -1),)
    assert ideal.saturated


def test_quotient_by_augmentation_ideal():
    r = build_order(cyclic_group_algebra(2))
    ideal = two_sided_ideal_generated(r, [(F(1), F(-1))])
    q = quotient_by_ideal(r, ideal)
    assert q.order.rank == 1
    # both 1 and x map to the same generator
    from ordembed.linalg import row_times_mat

    img_one = row_times_mat((F(1), F(0)), q.projection)
    img_x = row_times_mat((F(0), F(1)), q.projection)
    assert img_one == img_x
    assert img_one != (F(0),)


def test_quotient_projection_is_multiplicative():
    r = build_order(upper_triangular_algebra(2))
    ideal = two_sided_ideal_generated(r, [r.coord_algebra.basis_vec(1)])
    q = quotient_by_ideal(r, ideal)
    assert q.order.rank == 2
    from ordembed.linalg import row_times_mat

    for i in range(3):
        for j in range(3):
            a = r.coord_algebra.basis_vec(i)
            b = r.coord_algebra.basis_vec(j)
            lhs = row_times_mat(r.coord_algebra.mul(a, b), q.projection)
            rhs = q.order.coord_algebra.mul(
                row_times_mat(a, q.projection), row_times_mat(b, q.projection)
            )
            assert lhs == rhs


def test_quotient_by_whole_order_is_zero_ring():
    r = build_order(cyclic_group_algebra(2))
    whole = two_sided_ideal_generated(r, [r.coord_algebra.unit])
    q = quotient_by_ideal(r, whole)
    assert q.is_zero
    assert q.order.rank == 0


def test_quotient_refuses_non_saturated_ideal():
    r = build_order(cyclic_group_algebra(2))
    doubled = build_ideal(r, Lattice.from_rows(2, [(2, 0), (0, 2)]))
    assert not doubled.saturated
    with pytest.raises(NonSaturatedIdeal) as exc:
        quotient_by_ideal(r, doubled)
    sat = exc.value.saturation
    assert sat.lattice.basis == ((1, 0), (0, 1))
    assert saturate_ideal(doubled).saturated


@given(st.integers(1, 5), st.data())
@settings(deadline=None, max_examples=150)
def test_transposed_hnf_saturation_matches_the_definition(n, data):
    # saturated means the lattice is all of Z^n that lies in its span
    rows = data.draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=n + 1))
    for row in rows:
        scale = data.draw(st.sampled_from((1, 1, 2, 3, -4)))
        row[:] = [scale * x for x in row]
    lat = Lattice.from_rows(n, rows)
    definition = lattice_intersect_subspace(Lattice.standard(n), lat.span()).basis == lat.basis
    assert _is_saturated(lat) == definition


def fraction_closed(order, lat):
    """The closure test by its definition: every e_i g and g e_i, as `Fraction` rows, in lat."""
    alg = order.coord_algebra
    return all(
        fraction_coords(lat, p) is not None
        for g in lat.basis for i in range(order.rank)
        for p in (alg.mul(alg.basis_vec(i), g), alg.mul(g, alg.basis_vec(i)))
    )


IDEAL_ORDERS = ("crt", "m2z", "lipschitz", "t2z", "c3")


@given(st.sampled_from(IDEAL_ORDERS), st.integers(1, 3), st.data())
@settings(deadline=None, max_examples=60)
def test_build_ideal_closure_matches_the_fraction_definition(name, count, data):
    order = load_order(json.loads((CORPUS_DIR / f"{name}.json").read_text()))
    n = order.rank
    # random rows, or k times the order, which is always an ideal
    if data.draw(st.booleans()):
        rows = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                                  min_size=count, max_size=count))
    else:
        rows = [[count if j == i else 0 for j in range(n)] for i in range(n)]
    lat = Lattice.from_rows(n, rows)
    if fraction_closed(order, lat):
        assert build_ideal(order, lat).lattice == lat
    else:
        with pytest.raises(ParseError, match="not closed"):
            build_ideal(order, lat)


def test_build_ideal_rejects_rows_that_are_not_closed():
    # e00 of M2(Z) spans a lattice that e00 * e01 = e01 leaves
    order = load_order(json.loads((CORPUS_DIR / "m2z.json").read_text()))
    rows = [[1, 0, 0, 0]]
    lat = Lattice.from_rows(4, rows)
    assert not fraction_closed(order, lat)
    with pytest.raises(ParseError, match="not closed under right multiplication"):
        build_ideal(order, lat)
    doubled = Lattice.from_rows(4, [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    assert build_ideal(order, doubled).rank == 4


def test_regularity_in_group_ring():
    r = build_order(cyclic_group_algebra(2))
    assert is_regular(r, (F(1), F(0)))
    assert is_regular(r, (F(2), F(1)))
    assert not is_regular(r, (F(1), F(1)))  # (1+x)(1-x) = 0


class ShiftOracle:
    """Symbolic model of a ring where y*x = 1 but x*y != 1.

    Elements are integer combinations of monomials x^i y^j, stored sparsely
    as {(i, j): coeff}. Products normalize with the relation y x = 1. A cap
    on the exponents makes the oracle return None beyond its window, which
    is exactly the partial-knowledge situation the obstruction check is
    specified against.
    """

    def __init__(self, cap: int | None = None):
        self.cap = cap

    def one(self):
        return {(0, 0): 1}

    def x(self):
        return {(1, 0): 1}

    def y(self):
        return {(0, 1): 1}

    def mul(self, a, b):
        out: dict = {}
        for (i, j), c in a.items():
            for (k, l), d in b.items():
                # x^i y^j x^k y^l: y^j x^k collapses by min(j, k)
                t = min(j, k)
                key = (i + k - t, j + l - t)
                if self.cap is not None and max(key) > self.cap:
                    return None
                out[key] = out.get(key, 0) + c * d
        return {k: v for k, v in out.items() if v}

    def sub(self, a, b):
        out = dict(a)
        for k, v in b.items():
            out[k] = out.get(k, 0) - v
        return {k: v for k, v in out.items() if v}

    def is_zero(self, a):
        return not a


def test_obstruction_produces_orthogonal_idempotents():
    o = ShiftOracle()
    res = one_sided_inverse_obstruction(o, o.x(), o.y(), 3)
    assert not res.refuted
    assert len(res.idempotents) == 4
    for e in res.idempotents:
        assert o.is_zero(o.sub(o.mul(e, e), e))
    for i, e in enumerate(res.idempotents):
        for j, f in enumerate(res.idempotents):
            if i != j:
                assert o.is_zero(o.mul(e, f))


def test_obstruction_refutes_two_sided_inverse():
    o = ShiftOracle()
    res = one_sided_inverse_obstruction(o, o.one(), o.one(), 5)
    assert res.refuted
    assert res.idempotents == ()


def test_obstruction_incomplete_oracle():
    o = ShiftOracle(cap=2)
    with pytest.raises(OracleIncomplete):
        one_sided_inverse_obstruction(o, o.x(), o.y(), 3)


def test_obstruction_rejects_wrong_orientation():
    o = ShiftOracle()
    with pytest.raises(ValueError):
        one_sided_inverse_obstruction(o, o.y(), o.x(), 3)
    with pytest.raises(ValueError):
        one_sided_inverse_obstruction(o, o.x(), o.y(), -1)


def test_order_doc_roundtrip_keeps_lattice():
    # Z + 2x Z inside Q[C2] is closed under products: (2x)^2 = 4
    amb = cyclic_group_algebra(2)
    from ordembed.linalg import Lattice

    r = build_order(amb, Lattice.from_rows(2, [(1, 0), (0, 2)]), name="index2")
    doc = order_to_doc(r)
    back = load_order(doc)
    assert back.lattice.basis == ((1, 0), (0, 2))
    assert back.ambient.table == r.ambient.table
    assert back.coord_algebra.mul((0, 1), (0, 1))[0] == 4


def test_associativity_is_checked_on_every_triple(tmp_path):
    # M9(Q) with the one product e01 * e12 doubled: (e01 e10) e02 = e02 but
    # e01 (e10 e02) = 2 e02. At dimension 81 a check on sampled triples
    # accepted this table.
    m9 = matrix_algebra(9)
    table = [list(row) for row in m9.table]
    table[1][11] = tuple(2 * x for x in table[1][11])
    with pytest.raises(NotAssociative) as info:
        build_algebra(m9.name, m9.basis_labels, m9.unit, table)
    assert info.value.triple == (1, 9, 2)

    unchecked = StructureAlgebra.from_table("M9-bad", m9.basis_labels, m9.unit, table)
    path = tmp_path / "m9-bad.json"
    path.write_text(json.dumps(algebra_to_doc(unchecked)))
    text, code = run_report("decompose", ["--algebra", str(path)])
    assert code == 1
    error = json.loads(text)["report"]["error"]
    assert error["type"] == "NotAssociative"
    assert "(1, 9, 2)" in error["message"]


# -- the integer table against the entrywise definition ------------------------------

@st.composite
def tables_and_elements(draw):
    """An unchecked table with zero products, and three elements on it."""
    n = draw(st.integers(1, 4))

    def product():
        if draw(st.integers(0, 2)) == 0:
            return (F(0),) * n
        return tuple(F(draw(wide_entries)) for _ in range(n))

    table = tuple(tuple(product() for _ in range(n)) for _ in range(n))
    alg = StructureAlgebra.from_table("T", tuple(f"b{i}" for i in range(n)),
                                      (F(1),) + (F(0),) * (n - 1), table)
    u, v, a = (tuple(draw(wide_entries) for _ in range(n)) for _ in range(3))
    return alg, u, v, a


def product_by_definition(alg, u, v):
    n = alg.dim
    return tuple(
        sum((F(u[i]) * F(v[j]) * alg.table[i][j][m] for i in range(n) for j in range(n)), F(0))
        for m in range(n)
    )


@given(tables_and_elements())
@settings(deadline=None, max_examples=150)
def test_integer_products_match_the_fraction_definition(case):
    alg, u, v, a = case
    n = alg.dim
    prod = alg.mul(u, v)
    assert prod == product_by_definition(alg, u, v)
    left, right = alg.left_mult_op(a), alg.right_mult_op(a)
    for m in range(n):
        for j in range(n):
            assert left.rows[m][j] == sum((F(a[i]) * alg.table[i][j][m] for i in range(n)), F(0))
            assert right.rows[m][j] == sum((F(a[i]) * alg.table[j][i][m] for i in range(n)), F(0))

    def trace_by_definition(x):
        return sum((F(x[i]) * alg.table[i][m][m] for i in range(n) for m in range(n)), F(0))

    assert trace(alg, a) == trace_by_definition(a)
    gram, gram_den = alg.trace_form()
    assert [[F(x, gram_den) for x in r] for r in gram] == [
        [trace_by_definition(alg.table[i][j]) for j in range(n)] for i in range(n)]
    assert all(type(x) is int for r in gram for x in r)
    entries = list(prod) + [x for op in (left, right) for r in op.rows for x in r]
    assert all(type(x) is F for x in entries + [trace(alg, a)])


BLOCKS = (
    rational_algebra,
    lambda: cyclic_group_algebra(2),
    lambda: cyclic_group_algebra(3),
    lambda: poly_quotient_algebra(PolyQ.make([1, 0, 1]), name="Q(i)"),
    lambda: matrix_algebra(2),
    lambda: quaternion_algebra(-1, -1),
    lambda: upper_triangular_algebra(2),
)


@st.composite
def scrambled_products(draw):
    """A product of one or two sample blocks on a scaled unimodular basis."""
    blocks = [BLOCKS[i]() for i in draw(st.lists(st.integers(0, len(BLOCKS) - 1),
                                                 min_size=1, max_size=2))]
    alg = product_algebra(blocks)
    n = alg.dim
    u = random_unimodular(n, random.Random(draw(st.integers(0, 10 ** 6))))
    scales = [F(draw(st.integers(1, 5)), draw(st.integers(1, 7))) for _ in range(n)]
    u = MatQ.from_rows(tuple(tuple(s * x for x in r) for s, r in zip(scales, u.rows)))
    element = tuple(draw(st.integers(-2, 2)) for _ in range(n))
    return change_basis(alg, u), element


def sympy_left_op(alg, a):
    n = alg.dim
    return sympy.Matrix(n, n, lambda m, j: sum(
        (sympy.Rational(F(a[i]) * alg.table[i][j][m]) for i in range(n)), sympy.Integer(0)))


@given(scrambled_products())
@settings(deadline=None, max_examples=40)
def test_centre_matches_sympy(case):
    alg, _ = case
    n = alg.dim
    stacked = sympy.Matrix.vstack(*[
        sympy.Matrix(n, n, lambda m, j: sympy.Rational(alg.table[i][j][m] - alg.table[j][i][m]))
        for i in range(n)
    ])
    theirs = sympy.Matrix.hstack(*stacked.nullspace()).T.rref()[0]
    ours = centre(alg).basis
    assert ours.nrows == theirs.rows
    assert [list(r) for r in ours.rows] == [
        [F(int(x.p), int(x.q)) for x in theirs.row(k)] for k in range(theirs.rows)
    ]


@given(scrambled_products())
@settings(deadline=None, max_examples=40)
def test_minimal_polynomial_matches_sympy(case):
    alg, a = case
    op = sympy_left_op(alg, a)
    powers = [sympy.eye(alg.dim)]
    while True:
        powers.append(op * powers[-1])
        relations = sympy.Matrix.hstack(*[p.reshape(alg.dim ** 2, 1) for p in powers]).nullspace()
        if relations:
            rel = relations[0] / relations[0][len(powers) - 1]
            break
    ours = alg.minimal_polynomial(a)
    assert list(ours.coeffs) == [F(int(x.p), int(x.q)) for x in rel]
    assert all(type(x) is F for x in ours.coeffs)


def sympy_rref_rows(rows):
    """The nonzero rows of the RREF of rows, computed by sympy, as lists of Fractions."""
    if not rows:
        return []
    reduced = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows]).rref()[0]
    return [[F(int(x.p), int(x.q)) for x in reduced.row(k)]
            for k in range(reduced.rows) if any(reduced.row(k))]


def element_rows(n):
    """Up to two elements of an n-dimensional algebra, with int and Fraction entries."""
    return st.lists(st.lists(wide_entries, min_size=n, max_size=n), min_size=0, max_size=2)


@given(scrambled_products(), st.data())
@settings(deadline=None, max_examples=40)
def test_two_sided_ideal_is_the_span_of_basis_products(case, data):
    alg, element = case
    n = alg.dim
    gens = [element] + data.draw(element_rows(n))
    basis = [alg.basis_vec(i) for i in range(n)]
    # A is unital, so A g A is spanned by the e_i g e_j
    rows = [product_by_definition(alg, product_by_definition(alg, e, g), f)
            for g in gens for e in basis for f in basis]
    ours = two_sided_ideal_subspace(alg, gens)
    assert [list(r) for r in ours.basis.rows] == sympy_rref_rows(rows)


@given(scrambled_products(), st.data())
@settings(deadline=None, max_examples=40)
def test_annihilators_match_sympy_nullspaces(case, data):
    alg, element = case
    n = alg.dim
    s = Subspace.from_rows(n, [element] + data.draw(element_rows(n)))
    assume(s.dim)
    basis = [alg.basis_vec(i) for i in range(n)]
    for annihilator, product in (
        (left_annihilator, lambda e, v: product_by_definition(alg, e, v)),
        (right_annihilator, lambda e, v: product_by_definition(alg, v, e)),
    ):
        # x annihilates s exactly when x @ system = 0: row i holds e_i v (or v e_i) for each v
        system = sympy.Matrix([[sympy.Rational(x) for v in s.basis.rows for x in product(e, v)]
                               for e in basis])
        null = [list(w) for w in system.T.nullspace()]
        ours = annihilator(alg, s)
        assert [list(r) for r in ours.basis.rows] == sympy_rref_rows(null)


def test_table_reads_make_no_products(monkeypatch):
    alg = load_order(json.loads((CORPUS_DIR / "d4.json").read_text())).coord_algebra
    calls = []
    original = StructureAlgebra.mul

    def counting(self, u, v):
        calls.append((u, v))
        return original(self, u, v)

    monkeypatch.setattr(StructureAlgebra, "mul", counting)
    z = centre(alg)
    for b in z.basis.rows + alg.table[1]:
        alg.left_mult_op(b)
        alg.right_mult_op(b)
        alg.minimal_polynomial(b)
    assert z.dim == 5
    assert calls == []


@given(scrambled_products(), st.lists(nonzero_scales, min_size=8, max_size=8),
       st.integers(0, 10 ** 6), st.booleans())
@settings(deadline=None, max_examples=40)
def test_induced_algebra_table_matches_the_fraction_definition(case, scales, seed, whole):
    alg, _ = case
    n = alg.dim
    # the whole algebra on a scaled unimodular basis, or its centre on a scaled basis
    rows = random_unimodular(n, random.Random(seed)).rows if whole else centre(alg).basis.rows
    rows = MatQ.from_rows(tuple(tuple(F(c) * x for x in r) for c, r in zip(scales, rows)))
    sub = induced_algebra(alg, rows, name="sub")
    k = rows.nrows

    def combine(coords):
        return tuple(sum((c * r[m] for c, r in zip(coords, rows.rows)), F(0)) for m in range(n))

    for i in range(k):
        for j in range(k):
            assert combine(sub.table[i][j]) == product_by_definition(alg, rows.rows[i], rows.rows[j])
            assert all(type(c) is F for c in sub.table[i][j])
    assert combine(sub.unit) == alg.unit


def first_failing_triple(alg):
    """The first (i, j, k) in loop order with (e_i e_j) e_k != e_i (e_j e_k), by the definition."""
    n = alg.dim
    t = alg.table
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = [sum((t[i][j][m] * t[m][k][p] for m in range(n)), F(0)) for p in range(n)]
                right = [sum((t[j][k][m] * t[i][m][p] for m in range(n)), F(0)) for p in range(n)]
                if left != right:
                    return i, j, k
    return None


@given(st.integers(0, len(BLOCKS) - 1), st.data())
@settings(deadline=None, max_examples=60)
def test_associativity_check_names_the_first_failing_triple(block, data):
    alg = BLOCKS[block]()
    n = alg.dim
    table = [list(row) for row in alg.table]
    for _ in range(data.draw(st.integers(1, 2))):
        i, j, m = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        prod = list(table[i][j])
        prod[m] += F(data.draw(wide_entries))
        table[i][j] = tuple(prod)
    corrupted = StructureAlgebra.from_table("X", alg.basis_labels, alg.unit, table)
    expected = first_failing_triple(corrupted)
    if expected is None:
        _check_associativity(corrupted)
    else:
        with pytest.raises(NotAssociative) as info:
            _check_associativity(corrupted)
        assert info.value.triple == expected


@pytest.mark.parametrize("block", range(len(BLOCKS)))
def test_equal_tables_give_equal_algebras(block):
    # Each constructor stores the same integers over the same least denominator.
    a = BLOCKS[block]()
    same = (
        load_algebra(algebra_to_doc(a)),
        induced_algebra(a, MatQ.identity(a.dim), name=a.name, unit_hint=a.unit,
                        labels=a.basis_labels),
        product_algebra([a], name=a.name, labels=a.basis_labels),
    )
    for b in same:
        assert b == a and hash(b) == hash(a)


def test_product_multiplies_blockwise():
    halves = change_basis(cyclic_group_algebra(2), fmat((F(1, 2), 0), (0, F(1, 2))))
    thirds = change_basis(quaternion_algebra(-1, -1), MatQ.identity(4).scale(F(1, 3)))
    parts = [halves, matrix_algebra(2), thirds]
    p = product_algebra(parts)
    assert (halves.den, thirds.den, p.den) == (2, 3, 6)
    assert p.basis_labels[:3] == ("p0.f0", "p0.f1", "p1.e00")
    rng = random.Random(5)
    u, v = ([F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(p.dim)] for _ in range(2))
    expected, start = [], 0
    for part in parts:
        block = slice(start, start + part.dim)
        expected += part.mul(u[block], v[block])
        start += part.dim
    assert p.mul(u, v) == tuple(expected)
    assert p.unit == halves.unit + matrix_algebra(2).unit + thirds.unit

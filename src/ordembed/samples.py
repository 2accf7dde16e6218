"""Constructors for the stock algebras, orders, and seeded test instances.

Everything here is deterministic: the randomized constructions take an
explicit seed and draw through `random.Random` only.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .algebra import (
    OrderRing,
    StructureAlgebra,
    build_algebra,
    build_order,
    product_algebra,
)
from .exact import PolyQ, rat
from .linalg import MatQ, Subspace, Vec, inverse, row_times_mat, unit_vec, zero_vec


def group_algebra(name: str, elements: list, compose, identity) -> StructureAlgebra:
    """Rational group algebra from an explicit element list and composition."""
    index = {g: i for i, g in enumerate(elements)}
    n = len(elements)
    table = tuple(
        tuple(unit_vec(n, index[compose(g, h)]) for h in elements) for g in elements
    )
    labels = tuple(str(g) for g in elements)
    return build_algebra(name, labels, unit_vec(n, index[identity]), table)


def cyclic_group_algebra(n: int) -> StructureAlgebra:
    return group_algebra(f"QC{n}", list(range(n)), lambda a, b: (a + b) % n, 0)


def symmetric3_group_algebra() -> StructureAlgebra:
    elems = sorted(permutations(range(3)))
    compose = lambda s, t: tuple(s[t[i]] for i in range(3))
    return group_algebra("QS3", elems, compose, (0, 1, 2))


def dihedral4_group_algebra() -> StructureAlgebra:
    """Group algebra of the dihedral group of order 8 (r^4 = s^2 = 1, srs = r^-1)."""
    elems = [(k, b) for b in range(2) for k in range(4)]

    def compose(g, h):
        k1, b1 = g
        k2, b2 = h
        k = (k1 + (k2 if b1 == 0 else -k2)) % 4
        return (k, b1 ^ b2)

    return group_algebra("QD4", elems, compose, (0, 0))


def matrix_algebra(n: int) -> StructureAlgebra:
    """Full matrix algebra on the basis of matrix units e_ij."""
    pairs = [(i, j) for i in range(n) for j in range(n)]
    index = {p: k for k, p in enumerate(pairs)}
    dim = n * n
    table = []
    for (i, j) in pairs:
        row = []
        for (k, l) in pairs:
            row.append(unit_vec(dim, index[(i, l)]) if j == k else zero_vec(dim))
        table.append(tuple(row))
    unit = tuple(
        Fraction(1) if i == j else Fraction(0) for (i, j) in pairs
    )
    labels = tuple(f"e{i}{j}" for (i, j) in pairs)
    return build_algebra(f"M{n}", labels, unit, tuple(table))


def upper_triangular_algebra(n: int) -> StructureAlgebra:
    """Upper triangular matrices on the basis e_ij with i <= j."""
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    index = {p: k for k, p in enumerate(pairs)}
    dim = len(pairs)
    table = []
    for (i, j) in pairs:
        row = []
        for (k, l) in pairs:
            row.append(unit_vec(dim, index[(i, l)]) if j == k else zero_vec(dim))
        table.append(tuple(row))
    unit = tuple(
        Fraction(1) if i == j else Fraction(0) for (i, j) in pairs
    )
    labels = tuple(f"e{i}{j}" for (i, j) in pairs)
    return build_algebra(f"T{n}", labels, unit, tuple(table))


def quaternion_algebra(a, b) -> StructureAlgebra:
    """The rational quaternion algebra with i^2 = a, j^2 = b, k = ij = -ji."""
    a = rat(a)
    b = rat(b)
    z = Fraction(0)
    one = Fraction(1)

    def v(*entries) -> Vec:
        return tuple(rat(e) for e in entries)

    table = (
        (v(1, 0, 0, 0), v(0, 1, 0, 0), v(0, 0, 1, 0), v(0, 0, 0, 1)),
        (v(0, 1, 0, 0), v(a, 0, 0, 0), v(0, 0, 0, 1), v(0, 0, a, 0)),
        (v(0, 0, 1, 0), v(0, 0, 0, -1), v(b, 0, 0, 0), v(0, -b, 0, 0)),
        (v(0, 0, 0, 1), v(0, 0, -a, 0), v(0, b, 0, 0), v(-a * b, 0, 0, 0)),
    )
    return build_algebra(f"Q({a},{b})", ("1", "i", "j", "k"), (one, z, z, z), table)


def poly_quotient_algebra(p: PolyQ, *, name: str | None = None) -> StructureAlgebra:
    """Q[x]/(p) on the basis 1, x, ..., x^(deg-1)."""
    d = p.degree
    if d < 1:
        raise ValueError("modulus must have positive degree")
    monic = p.monic()
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            rem = (PolyQ.x() ** (i + j)) % monic
            coeffs = list(rem.coeffs) + [Fraction(0)] * (d - len(rem.coeffs))
            row.append(tuple(coeffs[:d]))
        table.append(tuple(row))
    labels = tuple("1" if i == 0 else ("x" if i == 1 else f"x^{i}") for i in range(d))
    return build_algebra(name or f"Q[x]/({p})", labels, unit_vec(d, 0), tuple(table))


def trivial_extension(s: StructureAlgebra, copies: int = 1) -> StructureAlgebra:
    """The square-zero extension of s by `copies` copies of its regular bimodule.

    Elements are (s, m_1, ..., m_k); products multiply the algebra part and
    push it through each module slot, with module*module = 0. The radical of
    the result is exactly the module part when s is semisimple.
    """
    n = s.dim
    dim = n * (copies + 1)

    def embed(block: int, v: Vec) -> Vec:
        out = [Fraction(0)] * dim
        for t, x in enumerate(v):
            out[block * n + t] = x
        return tuple(out)

    table = []
    for p in range(dim):
        bp, ip = divmod(p, n)
        row = []
        for q in range(dim):
            bq, iq = divmod(q, n)
            if bp == 0 and bq == 0:
                row.append(embed(0, s.table[ip][iq]))
            elif bp == 0:
                row.append(embed(bq, s.table[ip][iq]))
            elif bq == 0:
                row.append(embed(bp, s.table[ip][iq]))
            else:
                row.append(zero_vec(dim))
        table.append(tuple(row))
    labels = tuple(
        lab if b == 0 else f"{lab}.m{b}"
        for b in range(copies + 1) for lab in s.basis_labels
    )
    return build_algebra(f"{s.name}+rad", labels, embed(0, s.unit), tuple(table))


def random_unimodular(n: int, rng: random.Random, steps: int | None = None) -> MatQ:
    """Product of elementary integer row operations (determinant +-1)."""
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps if steps is not None else 3 * n):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return MatQ.from_ints(rows, 1)


def change_basis(a: StructureAlgebra, u: MatQ, *, name: str | None = None) -> StructureAlgebra:
    """The same algebra written on the basis f_i = sum_j u[i][j] e_j."""
    u_inv = inverse(u)
    n = a.dim
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = a.mul(u.rows[i], u.rows[j])
            row.append(row_times_mat(prod, u_inv))
        table.append(tuple(row))
    unit = row_times_mat(a.unit, u_inv)
    labels = tuple(f"f{i}" for i in range(n))
    return build_algebra(name or f"{a.name}~", labels, unit, tuple(table))


SEMISIMPLE_POOL = (
    lambda: poly_quotient_algebra(PolyQ.make([1, 0, 1]), name="Q(i)"),
    lambda: cyclic_group_algebra(2),
    lambda: cyclic_group_algebra(3),
    lambda: matrix_algebra(2),
    lambda: product_pair(),
)


def product_pair() -> StructureAlgebra:
    parts = [
        cyclic_group_algebra(2),
        poly_quotient_algebra(PolyQ.make([-2, 0, 1]), name="Q(sqrt2)"),
    ]
    labels = [f"{s}.{side}" for p, side in zip(parts, "lr") for s in p.basis_labels]
    return product_algebra(parts, name="QC2xQsqrt2", labels=labels)


@dataclass(frozen=True)
class PlantedRadical:
    algebra: StructureAlgebra
    radical: Subspace


def planted_radical_instance(seed: int) -> PlantedRadical:
    """A scrambled square-zero extension with its known radical.

    The construction takes a small semisimple algebra s, forms the trivial
    extension by one copy of the regular bimodule, and rewrites everything
    on a random unimodular basis. The radical of the result is the image of
    the module slot under the basis change.
    """
    rng = random.Random(seed)
    s = SEMISIMPLE_POOL[rng.randrange(len(SEMISIMPLE_POOL))]()
    ext = trivial_extension(s)
    n = ext.dim
    u = random_unimodular(n, rng)
    scrambled = change_basis(ext, u, name=f"planted{seed}")
    u_inv = inverse(u)
    rad_rows = [row_times_mat(unit_vec(n, s.dim + i), u_inv) for i in range(s.dim)]
    return PlantedRadical(scrambled, Subspace.from_rows(n, rad_rows))


def rational_algebra() -> StructureAlgebra:
    """Q as a one-dimensional structure algebra."""
    return build_algebra("Q", ("1",), (1,), (((1,),),))


def integers_order() -> OrderRing:
    """Z inside Q."""
    return build_order(rational_algebra(), name="Z")


def split_integers_order(k: int) -> OrderRing:
    """Z^k with componentwise multiplication inside Q^k."""
    alg = product_algebra(
        [rational_algebra()] * k, name=f"Q^{k}", labels=[f"e{i}" for i in range(k)]
    )
    return build_order(alg, name=f"Z^{k}")


def lipschitz_order() -> OrderRing:
    """The integer quaternions inside (-1, -1)."""
    return build_order(quaternion_algebra(-1, -1), name="Lipschitz")


def integer_matrix_order(n: int) -> OrderRing:
    return build_order(matrix_algebra(n), name=f"M{n}Z")


SIMPLE_POOL = (
    rational_algebra,
    lambda: poly_quotient_algebra(PolyQ.make([1, 0, 1]), name="Q(i)"),
    lambda: poly_quotient_algebra(PolyQ.make([-2, 0, 1]), name="Q(sqrt2)"),
    lambda: matrix_algebra(2),
    lambda: quaternion_algebra(-1, -1),
)


def seeded_semiprime_order(
    seed: int, *, min_blocks: int = 2, max_blocks: int = 4, max_dim: int = 12
) -> OrderRing:
    """A product of simple blocks on a scrambled unimodular lattice basis.

    The number of blocks, and hence of minimal primes, is drawn from
    [min_blocks, max_blocks]; blocks are padded down to rationals when the
    running dimension would exceed max_dim.
    """
    rng = random.Random(seed)
    k = rng.randint(min_blocks, max_blocks)
    blocks = []
    used = 0
    for i in range(k):
        cand = SIMPLE_POOL[rng.randrange(len(SIMPLE_POOL))]()
        if used + cand.dim + (k - i - 1) > max_dim:
            cand = rational_algebra()
        blocks.append(cand)
        used += cand.dim
    alg = product_algebra(blocks, name=f"blocks{seed}", labels=[f"g{i}" for i in range(used)])
    u = random_unimodular(alg.dim, rng)
    scrambled = change_basis(alg, u, name=f"order{seed}")
    return build_order(scrambled, name=f"order{seed}")


def padded_split_embedding(seed: int):
    """An embedding of Z^k into a longer product of rationals.

    Every projection character appears at least once and at least one is
    duplicated, so the embedding is injective but never irredundant.
    """
    from .embeddings import build_embedding
    from .wedderburn import decompose

    rng = random.Random(seed)
    k = rng.randint(1, 3)
    pad = rng.randint(1, 3)
    total = k + pad
    assign = list(range(k)) + [rng.randrange(k) for _ in range(pad)]
    rng.shuffle(assign)
    order = integers_order() if k == 1 else split_integers_order(k)
    alg = product_algebra(
        [rational_algebra()] * total, name=f"Q^{total}", labels=[f"e{i}" for i in range(total)]
    )
    rows = [
        [1 if assign[slot] == i else 0 for slot in range(total)]
        for i in range(k)
    ]
    return build_embedding(order, decompose(alg, seed=seed), MatQ.from_rows(rows))

"""Seeded benchmark inputs, built with integer arithmetic of their own.

Nothing here imports `ordembed`. Every domain order is a product of simple
blocks written on a scrambled unimodular basis. The construction keeps what
the embeddings are built from: which block each coordinate belongs to and
the basis change.

Coordinates: `e` is the block-diagonal basis, `f_i = sum_a U[i][a] e_a` is
the scrambled one, and the documents use `f` with the standard lattice, so
order coordinates are `f`-coordinates. A row `c` in `f`-coordinates has
`e`-coordinates `c U`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# -- simple blocks ---------------------------------------------------------------------


@dataclass(frozen=True)
class Block:
    """A simple Q-algebra on an integral basis."""

    name: str
    table: tuple  # table[a][b] is the product e_a e_b as an int tuple
    unit: tuple

    @property
    def dim(self) -> int:
        return len(self.unit)


def _unit_row(n: int, i: int) -> tuple:
    return tuple(1 if j == i else 0 for j in range(n))


def _quadratic(name: str, d: int) -> Block:
    """Q[x]/(x^2 - d) on the basis 1, x."""
    table = (((1, 0), (0, 1)), ((0, 1), (d, 0)))
    return Block(name, table, (1, 0))


def _matrix_block(name: str, inner: Block, n: int) -> Block:
    """M_n(inner) on the basis E_pq (x) b_t, index (p * n + q) * dim + t."""
    d = inner.dim
    dim = n * n * d
    table = [[(0,) * dim for _ in range(dim)] for _ in range(dim)]
    for p in range(n):
        for q in range(n):
            for s in range(n):
                for t in range(d):
                    for u in range(d):
                        row = [0] * dim
                        for v, c in enumerate(inner.table[t][u]):
                            row[(p * n + s) * d + v] = c
                        table[(p * n + q) * d + t][(q * n + s) * d + u] = tuple(row)
    unit = [0] * dim
    for p in range(n):
        for t, c in enumerate(inner.unit):
            unit[(p * n + p) * d + t] = c
    return Block(name, tuple(tuple(r) for r in table), tuple(unit))


def _quaternion(name: str, a: int, b: int) -> Block:
    """(a, b) on 1, i, j, k with i^2 = a, j^2 = b, k = ij = -ji."""
    table = (
        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
        ((0, 1, 0, 0), (a, 0, 0, 0), (0, 0, 0, 1), (0, 0, a, 0)),
        ((0, 0, 1, 0), (0, 0, 0, -1), (b, 0, 0, 0), (0, -b, 0, 0)),
        ((0, 0, 0, 1), (0, 0, -a, 0), (0, b, 0, 0), (-a * b, 0, 0, 0)),
    )
    return Block(name, table, (1, 0, 0, 0))


Q = Block("Q", (((1,),),), (1,))
QI = _quadratic("Qi", -1)
QR2 = _quadratic("Qr2", 2)
M2 = _matrix_block("M2", Q, 2)
H = _quaternion("H", -1, -1)
BLOCKS = {b.name: b for b in (Q, QI, QR2, M2, H)}


def scalar_matrix_block(inner: Block) -> Block:
    """M2(inner), the codomain that receives `inner` as scalar matrices."""
    return _matrix_block(f"M2_{inner.name}", inner, 2)


def scalars_into_m2(inner: Block, row: tuple) -> tuple:
    """Image of an element of `inner` as a scalar matrix in M2(inner)."""
    d = inner.dim
    out = [0] * (4 * d)
    for p in range(2):
        for t, c in enumerate(row):
            out[(p * 2 + p) * d + t] = c
    return tuple(out)


# -- integer linear algebra ------------------------------------------------------------


def row_times(v, m) -> list:
    """The row vector v times the matrix m (rows of m)."""
    out = [0] * len(m[0])
    for a, x in enumerate(v):
        if x:
            for b, y in enumerate(m[a]):
                if y:
                    out[b] += x * y
    return out


MAX_ENTRY = 2


def random_unimodular(n: int, rng: random.Random) -> tuple[list, list]:
    """U and U^-1, a product of 3n elementary integer row operations.

    Draws are repeated until every entry of U and U^-1 is at most MAX_ENTRY
    in absolute value: the cost of the exact kernels grows with entry size,
    and a bounded scramble keeps it steady from seed to seed.
    """
    while True:
        u, inv = _elementary_product(n, rng)
        if all(abs(x) <= MAX_ENTRY for m in (u, inv) for r in m for x in r):
            return u, inv


def _elementary_product(n: int, rng: random.Random) -> tuple[list, list]:
    u = [list(_unit_row(n, i)) for i in range(n)]
    inv = [list(_unit_row(n, i)) for i in range(n)]
    for _ in range(3 * n):
        op = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if op == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
            for r in inv:  # U' = E U, so U'^-1 = U^-1 E^-1: column j -= c column i
                r[j] -= c * r[i]
        elif op == 1:
            u[i], u[j] = u[j], u[i]
            for r in inv:
                r[i], r[j] = r[j], r[i]
        else:
            u[i] = [-a for a in u[i]]
            for r in inv:
                r[i] = -r[i]
    return u, inv


# -- orders ----------------------------------------------------------------------------


@dataclass
class BuiltOrder:
    """An order document together with the blocks and basis change it was built from."""

    blocks: list[Block]
    offsets: list[int]  # e-coordinate where each block starts
    u: list
    doc: dict

    @property
    def rank(self) -> int:
        return len(self.u)

    def block_coords(self, k: int) -> range:
        return range(self.offsets[k], self.offsets[k] + self.blocks[k].dim)


def _product_table(blocks: list[Block]) -> tuple[list, list, list]:
    """Block-diagonal sparse table on the e-basis."""
    offsets = []
    n = 0
    for b in blocks:
        offsets.append(n)
        n += b.dim
    sparse = [[[] for _ in range(n)] for _ in range(n)]
    unit = [0] * n
    for b, off in zip(blocks, offsets):
        for a in range(b.dim):
            unit[off + a] = b.unit[a]
            for c in range(b.dim):
                sparse[off + a][off + c] = [
                    (off + t, x) for t, x in enumerate(b.table[a][c]) if x
                ]
    return sparse, unit, offsets


def algebra_doc(name: str, table, unit, label: str) -> dict:
    """An algebra document (see the input formats in the README at the root)."""
    n = len(unit)
    return {
        "name": name,
        "dim": n,
        "basis": [f"{label}{i}" for i in range(n)],
        "unit": [str(x) for x in unit],
        "table": [
            {"i": i, "j": j, "c": [str(x) for x in table[i][j]]}
            for i in range(n)
            for j in range(n)
            if any(table[i][j])
        ],
    }


def build_order(name: str, blocks: list[Block], rng: random.Random) -> BuiltOrder:
    """The product of `blocks` on a scrambled basis."""
    sparse, unit_e, offsets = _product_table(blocks)
    n = len(unit_e)
    u, u_inv = random_unimodular(n, rng)
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = [0] * n
            for a, x in enumerate(u[i]):
                if x:
                    for b, y in enumerate(u[j]):
                        if y:
                            for t, c in sparse[a][b]:
                                prod[t] += x * y * c
            row.append(tuple(row_times(prod, u_inv)))
        table.append(row)
    unit = row_times(unit_e, u_inv)
    return BuiltOrder(list(blocks), offsets, u, algebra_doc(name, table, unit, "f"))


# -- embeddings ------------------------------------------------------------------------


def build_embedding(name: str, order: BuiltOrder,
                    placements: list[tuple[int, str]]) -> tuple[dict, dict[str, dict]]:
    """Embed `order` into a product of algebras made from its own blocks.

    Each placement `(k, how)` adds one codomain component that receives
    block k: `how` is "copy" for the block itself and "scalar" for M2 of the
    block, entered as scalar matrices. Every block needs one placement.
    Returns the embedding document, whose domain is the reference
    `<name>.dom`, and the codomain documents by reference.
    """
    if sorted({k for k, _ in placements}) != list(range(len(order.blocks))):
        raise ValueError("every block of the order needs a codomain component")
    refs, codomain = [], {}
    for k, how in placements:
        b = order.blocks[k]
        alg = b if how == "copy" else scalar_matrix_block(b)
        refs.append(f"{name}.{alg.name}")
        codomain[refs[-1]] = algebra_doc(alg.name, alg.table, alg.unit, "b")
    rows = []
    for i in range(order.rank):
        e_row = order.u[i]  # f_i in e-coordinates
        row: list[int] = []
        for k, how in placements:
            part = tuple(e_row[a] for a in order.block_coords(k))
            row.extend(part if how == "copy" else scalars_into_m2(order.blocks[k], part))
        rows.append([str(x) for x in row])
    doc = {"name": name, "domain": f"{name}.dom", "codomain": refs, "map": rows}
    return doc, codomain

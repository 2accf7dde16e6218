"""Checks of `ordembed` reports against facts computed apart from the program.

Each `check_*` function takes a parsed report body (the `"report"` member of
the envelope) and the facts it should agree with, and raises `CheckFailure`
naming the first disagreement. The arithmetic here is plain `Fraction`
elimination on the structure constants; nothing is imported from `ordembed`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from gen import row_times


class CheckFailure(Exception):
    """A report disagrees with an independently known fact."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


# -- exact arithmetic on documents -----------------------------------------------------


def _rat(x) -> Fraction:
    return Fraction(str(x))


def dense_table(doc: dict) -> tuple[list, list]:
    """Structure constants and unit of an algebra document, as Fractions."""
    n = int(doc["dim"])
    zero = [Fraction(0)] * n
    table = [[zero for _ in range(n)] for _ in range(n)]
    for entry in doc.get("table", []):
        table[entry["i"]][entry["j"]] = [_rat(x) for x in entry["c"]]
    return table, [_rat(x) for x in doc["unit"]]


def mul(table: list, x, y) -> list:
    n = len(table)
    out = [Fraction(0)] * n
    for a, xa in enumerate(x):
        if xa:
            for b, yb in enumerate(y):
                if yb:
                    for t, c in enumerate(table[a][b]):
                        if c:
                            out[t] += xa * yb * c
    return out


def is_nilpotent(table: list, w) -> bool:
    power = list(w)
    for _ in range(len(table)):
        power = mul(table, power, w)
        if not any(power):
            return True
    return False


def _echelon(rows) -> tuple[list, list[int]]:
    """Reduced row echelon form over Q: its nonzero rows and their pivot columns."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots: list[int] = []
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def rank(rows) -> int:
    """Rank of a matrix given by rows."""
    return len(_echelon(rows)[1])


def nullspace(rows, n: int) -> list:
    """A basis of the vectors x of length n with r . x = 0 for every row r."""
    ech, pivots = _echelon(rows)
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        x = [Fraction(0)] * n
        x[f] = Fraction(1)
        for row, p in zip(ech, pivots):
            x[p] = -row[f]
        basis.append(x)
    return basis


def inverse(rows) -> list:
    n = len(rows)
    ech, _ = _echelon([list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)])
    return [r[n:] for r in ech]


def det(rows) -> Fraction:
    m = [[Fraction(x) for x in r] for r in rows]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return d


def is_saturated(rows) -> bool:
    """Independent integer rows span their Q-span's integer points iff their maximal minors have gcd 1."""
    if not rows:
        return True
    g = 0
    for cols in itertools.combinations(range(len(rows[0])), len(rows)):
        g = math.gcd(g, int(det([[r[c] for c in cols] for r in rows])))
        if g == 1:
            return True
    return False


# -- ring maps -------------------------------------------------------------------------


def _order_in_lattice_coords(doc: dict) -> tuple[list, list]:
    """Structure constants and unit of an order document in its lattice basis."""
    table, unit = dense_table(doc)
    n = len(unit)
    lattice = [[Fraction(x) for x in r] for r in doc.get("lattice", [])] or [
        [Fraction(int(i == j)) for j in range(n)] for i in range(n)
    ]
    back = inverse(lattice)
    coords = [
        [row_times(mul(table, lattice[i], lattice[j]), back) for j in range(n)]
        for i in range(n)
    ]
    return coords, row_times(unit, back)


def check_ring_map(embedding: dict, domain_doc: dict) -> None:
    """The map of an embedding document is a unital, multiplicative, injective ring map.

    `embedding` carries its domain and codomain inline, as in a minimize
    report; its domain must equal `domain_doc`, the order that was given.
    """
    dom = embedding["domain"]
    require(dense_table(dom) == dense_table(domain_doc)
            and dom.get("lattice") == domain_doc.get("lattice"),
            "final embedding has another domain than the input order")
    src, src_unit = _order_in_lattice_coords(dom)
    comps = [dense_table(c) for c in embedding["codomain"]]
    dims = [len(u) for _, u in comps]
    total = sum(dims)
    m = [[_rat(x) for x in row] for row in embedding["map"]]
    require(len(m) == len(src) and all(len(r) == total for r in m),
            "map shape does not match domain rank and codomain dimension")

    def dst_mul(x, y) -> list:
        out, off = [], 0
        for (table, _), d in zip(comps, dims):
            out.extend(mul(table, x[off:off + d], y[off:off + d]))
            off += d
        return out

    dst_unit = [x for _, u in comps for x in u]
    require(row_times(src_unit, m) == dst_unit, "map is not unital")
    for i in range(len(src)):
        for j in range(len(src)):
            require(row_times(src[i][j], m) == dst_mul(m[i], m[j]),
                    f"map is not multiplicative at basis pair ({i}, {j})")
    require(rank(m) == len(src), "map is not injective")


def check_final_embedding(report: dict, domain_doc: dict) -> None:
    """The final embedding of a minimize report is a ring map with codomain of the domain's rank."""
    final = report["final"]
    check_ring_map(final["embedding"], domain_doc)
    dims = [int(c["dim"]) for c in final["embedding"]["codomain"]]
    require(final["component_dims"] == dims and final["codomain_dim"] == sum(dims),
            "final codomain dimensions are inconsistent")
    require(final["codomain_dim"] == int(domain_doc["dim"]),
            f"final codomain dimension {final['codomain_dim']} is not the domain rank "
            f"{domain_doc['dim']}")


# -- the bundled corpus ----------------------------------------------------------------

# Classical Wedderburn decompositions of the bundled orders' rational spans,
# as (dimension, split kind, matrix size, ramified places) per simple component.
_F = (1, "split", 1, ())
_QUAD = (2, "split", 1, ())
_M2Q = (4, "split", 2, ())
_HAM = (4, "quaternion_division", 1, ("2", "inf"))
CORPUS_COMPONENTS = {
    "z": [_F],
    "zxz": [_F, _F],
    "crt": [_F, _F],
    "c2": [_F, _F],
    "c3": [_F, _QUAD],
    "c4": [_F, _F, _QUAD],
    "s3": [_F, _F, _M2Q],
    "d4": [_F, _F, _F, _F, _M2Q],
    "m2z": [_M2Q],
    "lipschitz": [_HAM],
}
CORPUS_NOT_SEMIPRIME = ("dual", "t2z")


def _component_key(comp: dict) -> tuple:
    split = comp["split"]
    return (comp["dim"], split["kind"], split["matrix_size"], tuple(sorted(split["places"])))


def _check_components(components: list, expected: list) -> None:
    got = sorted(_component_key(c) for c in components)
    require(got == sorted(expected), f"components {got} differ from the known {sorted(expected)}")


def _check_verdicts(report: dict, semiprime: bool) -> None:
    v = report["verdicts"]
    require(report["semiprime"] is semiprime, f"semiprime is not {semiprime}")
    require(v["quotient_semisimple"] is v["centre_criterion"] is v["embeddability"]
            is semiprime and v["agree"] is True,
            "the three verdicts do not all equal the known semiprimality")


def check_corpus_analyze(name: str, report: dict, order_doc: dict) -> None:
    """An `analyze` report of a bundled order against its classical decomposition."""
    if name in CORPUS_NOT_SEMIPRIME:
        _check_verdicts(report, False)
        w = [Fraction(x) for x in report["radical_witness"]]
        table, _ = dense_table(order_doc)
        require(any(w), "radical witness is zero")
        require(is_nilpotent(table, w), "radical witness is not nilpotent")
        return
    _check_verdicts(report, True)
    comps = report["decomposition"]["components"]
    _check_components(comps, CORPUS_COMPONENTS[name])
    table, _ = _order_in_lattice_coords(order_doc)
    check_minimal_primes(report["minimal_primes"], table,
                         [dim for dim, *_ in CORPUS_COMPONENTS[name]])


def check_minimal_primes(primes: list, table: list, component_dims: list[int]) -> None:
    """The minimal primes of a semiprime order O, whose span A has these simple components.

    They are the O ∩ M for the maximal ideals M of A. Each prime must be
    integral, saturated in O, and span a two-sided ideal of A. If these ideals
    meet in zero and their codimensions add up to the rank, A is the product
    of the quotients by them; with one ideal per simple component, each
    quotient is simple, so each ideal is maximal.
    """
    n = len(table)
    require(len(primes) == len(component_dims),
            "number of minimal primes differs from the number of components")
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    codims, annihilators = [], []
    for k, prime in enumerate(primes):
        rows = [[_rat(x) for x in r] for r in prime["basis"]]
        require(all(x.denominator == 1 for r in rows for x in r), f"prime {k} is not in the order")
        require(rank(rows) == len(rows), f"prime {k} has dependent basis rows")
        products = [p for e in units for r in rows for p in (mul(table, e, r), mul(table, r, e))]
        require(rank(rows + products) == len(rows), f"prime {k} is not a two-sided ideal")
        require(is_saturated(rows), f"prime {k} is not saturated in the order")
        codims.append(n - len(rows))
        annihilators.extend(nullspace(rows, n))
    require(sorted(codims) == sorted(component_dims),
            f"prime codimensions {sorted(codims)} differ from the component dimensions")
    require(rank(annihilators) == n, "the minimal primes do not meet in zero")


# -- generated embeddings -------------------------------------------------------------


def check_classify(report: dict) -> None:
    """Inputs have a codomain larger than the order's rank, so minimization moves them."""
    require(report["elementary"] is False, "a non-minimal embedding is classified elementary")

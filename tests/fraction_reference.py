"""`Fraction` references for work that `ordembed` does in integers, and test-only helpers.

`PolyQ` stores integer coefficients over one denominator, and the package
factors and builds CRT idempotents in integers. The polynomial routines here
redo that work the textbook way, on lists of `Fraction` coefficients (lowest
degree first, trimmed): Euclid's gcd and extended gcd, Yun's squarefree
decomposition, and the CRT idempotents through the extended gcd, evaluated
with `StructureAlgebra.mul` on `Fraction` rows. Polynomials go in and come
out as `PolyQ`. Matrices and subspaces meet `Fraction` rows here too: the
row-major vec of a matrix and back, and the span of products of two
subspaces; lattice coordinates by `Fraction` back-substitution; and an
algebra element's trace, a `Fraction`.
"""

from fractions import Fraction

from ordembed.algebra import LatticeIdeal, saturate_ideal
from ordembed.errors import DimensionMismatch
from ordembed.exact import PolyQ
from ordembed.linalg import Lattice, MatQ, Subspace


def mat_vec_of(m: MatQ):
    return tuple(x for r in m.rows for x in r)


def mat_unvec(v, nrows: int, ncols: int) -> MatQ:
    if len(v) != nrows * ncols:
        raise DimensionMismatch("cannot reshape")
    return MatQ.from_rows(v[i * ncols:(i + 1) * ncols] for i in range(nrows))


def subspace_product(a, u: Subspace, v: Subspace) -> Subspace:
    """Linear span of {x*y : x in u, y in v}."""
    return Subspace.from_rows(a.dim, [a.mul(x, y) for x in u.basis.rows for y in v.basis.rows])


def fraction_coords(lat: Lattice, v):
    """Lattice coordinates by Fraction back-substitution against the HNF rows, or None."""
    residual = [Fraction(x) for x in v]
    coeffs = []
    for row in lat.basis:
        p = next(j for j, x in enumerate(row) if x)
        c = residual[p] / row[p]
        if c.denominator != 1:
            return None
        coeffs.append(c.numerator)
        residual = [a - c * b for a, b in zip(residual, row)]
    return tuple(coeffs) if not any(residual) else None


def trace(alg, a) -> Fraction:
    """Trace of the left regular representation of a, read off the integer traces of the basis."""
    return sum((Fraction(x) * t for x, t in zip(a, alg.int_traces)), Fraction(0)) / alg.den


def two_sided_ideal_generated(parent, gens) -> LatticeIdeal:
    """Smallest multiplication-closed sublattice of an order containing R*g*R for each g."""
    n = parent.rank
    alg = parent.coord_algebra
    current = Lattice.from_rows(n, [list(map(int, g)) for g in gens])
    while True:
        new_rows = [list(r) for r in current.basis]
        for g in current.basis:
            for i in range(n):
                e = alg.basis_vec(i)
                new_rows += [[int(x) for x in p] for p in (alg.mul(e, g), alg.mul(g, e))]
        bigger = Lattice.from_rows(n, new_rows)
        if bigger.basis == current.basis:
            break
        current = bigger
    sat = saturate_ideal(LatticeIdeal(parent, current, saturated=False)).lattice
    return LatticeIdeal(parent, current, saturated=(sat.basis == current.basis))


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _add(a, b):
    n = max(len(a), len(b))
    return _trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _sub(a, b):
    return _add(a, [-c for c in b])


def _mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    q = [Fraction(0)] * max(len(rem) - len(b) + 1, 0)
    while rem and len(rem) >= len(b):
        c = rem[-1] / b[-1]
        shift = len(rem) - len(b)
        q[shift] = c
        for i, y in enumerate(b):
            rem[shift + i] -= c * y
        rem = _trim(rem)
    return _trim(q), rem


def _monic(a):
    return [c / a[-1] for c in a]


def _deriv(a):
    return _trim(i * c for i, c in enumerate(a))[1:]


def _fracs(p: PolyQ):
    return list(p.coeffs)


def _poly(cs) -> PolyQ:
    return PolyQ.make(cs)


def fraction_divmod(a: PolyQ, b: PolyQ) -> tuple[PolyQ, PolyQ]:
    q, r = _divmod(_fracs(a), _fracs(b))
    return _poly(q), _poly(r)


def fraction_mul(a: PolyQ, b: PolyQ) -> PolyQ:
    return _poly(_mul(_fracs(a), _fracs(b)))


def fraction_add(a: PolyQ, b: PolyQ) -> PolyQ:
    return _poly(_add(_fracs(a), _fracs(b)))


def _gcd(a, b):
    while b:
        a, b = b, _divmod(a, b)[1]
    return _monic(a) if a else []


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic gcd; gcd(a, 0) = monic(a), gcd(0, 0) = 0."""
    return _poly(_gcd(_fracs(a), _fracs(b)))


def _xgcd(a, b):
    r0, r1 = a, b
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1))
        t0, t1 = t1, _sub(t0, _mul(q, t1))
    if not r0:
        return [], s0, t0
    inv = 1 / r0[-1]
    return [c * inv for c in r0], [c * inv for c in s0], [c * inv for c in t0]


def poly_xgcd(a: PolyQ, b: PolyQ) -> tuple[PolyQ, PolyQ, PolyQ]:
    """Extended gcd: (d, s, t) with s*a + t*b = d, d monic (or zero)."""
    return tuple(_poly(x) for x in _xgcd(_fracs(a), _fracs(b)))


def squarefree_decomposition(p: PolyQ) -> list[tuple[PolyQ, int]]:
    """Yun's algorithm: p = lc * prod(g_i^i) with the g_i monic squarefree."""
    f = _monic(_fracs(p))
    if len(f) == 1:
        return []
    d = _deriv(f)
    a = _gcd(f, d)
    b = _divmod(f, a)[0]
    c = _divmod(d, a)[0]
    out = []
    i = 1
    while len(b) > 1:
        diff = _sub(c, _deriv(b))
        step = _gcd(b, diff)
        if len(step) > 1:
            out.append((_poly(step), i))
        b = _divmod(b, step)[0]
        c = _divmod(diff, step)[0]
        i += 1
    return out


def crt_idempotents(b, z, factors):
    """The idempotents g_i(z) with g_i = h_i * (h_i^-1 mod f_i^m_i) mod m, h_i = m / f_i^m_i."""
    powers = []
    for f, mult in factors:
        fi = [Fraction(1)]
        for _ in range(mult):
            fi = _mul(fi, _fracs(f))
        powers.append(fi)
    m = [Fraction(1)]
    for fi in powers:
        m = _mul(m, fi)
    out = []
    for fi in powers:
        hi = _divmod(m, fi)[0]
        d, s, _ = _xgcd(hi, fi)
        if len(d) != 1:
            raise ValueError("coprime factor powers have a nonconstant gcd")
        g = _divmod(_mul(hi, _divmod(s, fi)[1]), m)[1]
        value = tuple(Fraction(0) for _ in range(b.dim))
        power = b.unit
        for c in g:
            value = tuple(v + c * w for v, w in zip(value, power))
            power = b.mul(power, z)
        out.append(value)
    return out

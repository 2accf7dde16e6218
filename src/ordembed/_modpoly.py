"""Dense polynomial arithmetic over GF(p) and the Zassenhaus machinery.

Polynomials are lists of ints in [0, p), lowest degree first, no trailing
zeros ([] is the zero polynomial).  Everything here is internal plumbing for
rational factorization: Berlekamp factorization modulo a small prime, a
binary-tree multifactor Hensel lift, and the subset recombination driver.
All routines are deterministic.
"""

from __future__ import annotations

import itertools
import math


def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def mp_sub(f: list[int], g: list[int], p: int) -> list[int]:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % p
    return trim(out)


def mp_mul(f: list[int], g: list[int], p: int) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def mp_divmod(f: list[int], g: list[int], p: int) -> tuple[list[int], list[int]]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = [c % p for c in f]
    trim(f)
    dg = len(g) - 1
    inv = pow(g[-1], -1, p)
    q = [0] * max(len(f) - dg, 0)
    while f and len(f) - 1 >= dg:
        df = len(f) - 1
        c = (f[-1] * inv) % p
        q[df - dg] = c
        for i in range(dg + 1):
            f[df - dg + i] = (f[df - dg + i] - c * g[i]) % p
        trim(f)
    return trim(q), f


def mp_mod(f: list[int], g: list[int], p: int) -> list[int]:
    return mp_divmod(f, g, p)[1]


def mp_monic(f: list[int], p: int) -> list[int]:
    if not f:
        return []
    inv = pow(f[-1], -1, p)
    return [(c * inv) % p for c in f]


def mp_gcd(f: list[int], g: list[int], p: int) -> list[int]:
    a = [c % p for c in f]
    b = [c % p for c in g]
    trim(a), trim(b)
    while b:
        a, b = b, mp_mod(a, b, p)
    return mp_monic(a, p)


def mp_xgcd(f: list[int], g: list[int], p: int):
    """Extended gcd: returns monic (d, s, t) with s*f + t*g = d."""
    r0, r1 = [c % p for c in f], [c % p for c in g]
    trim(r0), trim(r1)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = mp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, mp_sub(s0, mp_mul(q, s1, p), p)
        t0, t1 = t1, mp_sub(t0, mp_mul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    inv = pow(r0[-1], -1, p)
    return ([(c * inv) % p for c in r0],
            [(c * inv) % p for c in s0],
            [(c * inv) % p for c in t0])


def mp_deriv(f: list[int], p: int) -> list[int]:
    return trim([(i * c) % p for i, c in enumerate(f)][1:])


def mp_pow_mod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = mp_mod(base, f, p)
    while e:
        if e & 1:
            result = mp_mod(mp_mul(result, base, p), f, p)
        base = mp_mod(mp_mul(base, base, p), f, p)
        e >>= 1
    return result


def _null_space_mod(mat: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {v : v*mat = 0} over GF(p), mat given as list of rows."""
    n = len(mat)
    if n == 0:
        return []
    rows = [list(r) for r in mat]
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    m = len(rows[0])
    pivot_row = 0
    for col in range(m):
        piv = None
        for r in range(pivot_row, n):
            if rows[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        rows[pivot_row], rows[piv] = rows[piv], rows[pivot_row]
        ident[pivot_row], ident[piv] = ident[piv], ident[pivot_row]
        inv = pow(rows[pivot_row][col], -1, p)
        rows[pivot_row] = [(c * inv) % p for c in rows[pivot_row]]
        ident[pivot_row] = [(c * inv) % p for c in ident[pivot_row]]
        for r in range(n):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [(a - factor * b) % p for a, b in zip(rows[r], rows[pivot_row])]
                ident[r] = [(a - factor * b) % p for a, b in zip(ident[r], ident[pivot_row])]
        pivot_row += 1
        if pivot_row == n:
            break
    return [ident[r] for r in range(n) if not any(rows[r])]


def berlekamp(f: list[int], p: int) -> list[list[int]]:
    """Factor a squarefree monic f over GF(p) into monic irreducibles.

    Plain deterministic Berlekamp: the nullspace of (Frobenius - identity)
    spans the splitting subalgebra; gcds against v - s for s in GF(p)
    separate the factors.  Fine for the small primes used here.
    """
    f = mp_monic(f, p)
    n = len(f) - 1
    if n <= 1:
        return [f]
    xp = mp_pow_mod([0, 1], p, f, p)
    q_rows = []
    cur = [1]
    for _ in range(n):
        q_rows.append(cur + [0] * (n - len(cur)))
        cur = mp_mod(mp_mul(cur, xp, p), f, p)
    qmi = [[(q_rows[i][j] - (1 if i == j else 0)) % p for j in range(n)] for i in range(n)]
    null = _null_space_mod(qmi, p)
    r = len(null)
    if r <= 1:
        return [f]
    factors = [f]
    for v in null:
        basis_poly = trim(list(v))
        if len(basis_poly) <= 1:
            continue  # the constant vector never splits anything
        for s in range(p):
            if len(factors) == r:
                return factors
            shifted = mp_sub(basis_poly, [s], p)
            new_factors = []
            for h in factors:
                if len(h) - 1 <= 1:
                    new_factors.append(h)
                    continue
                g = mp_gcd(h, shifted, p)
                if 0 < len(g) - 1 < len(h) - 1:
                    new_factors.append(g)
                    new_factors.append(mp_monic(mp_divmod(h, g, p)[0], p))
                else:
                    new_factors.append(h)
            factors = new_factors
    return factors


# -- Hensel lifting ------------------------------------------------------------
#
# The pair step follows the classic quadratic scheme: f = g*h (mod m) with h
# monic and s*g + t*h = 1 (mod m) lifts to the same data mod m^2.  The list
# lift splits the factor set in two, carries lc(f) on the non-monic left
# product, and recurses.


def _zp_add(f: list[int], g: list[int], m: int) -> list[int]:
    n = max(len(f), len(g))
    out = [0] * n
    for i, c in enumerate(f):
        out[i] = c
    for i, c in enumerate(g):
        out[i] = (out[i] + c) % m
    return trim(out)


def _zp_divmod_monic(f: list[int], g: list[int], m: int) -> tuple[list[int], list[int]]:
    if not g or g[-1] != 1:
        raise ValueError("divisor must be monic")
    f = [c % m for c in f]
    trim(f)
    dg = len(g) - 1
    q = [0] * max(len(f) - dg, 0)
    while f and len(f) - 1 >= dg:
        df = len(f) - 1
        c = f[-1] % m
        q[df - dg] = c
        for i in range(dg + 1):
            f[df - dg + i] = (f[df - dg + i] - c * g[i]) % m
        trim(f)
    return trim(q), f


def hensel_step(f, g, h, s, t, p: int, prec: int, prec2: int):
    """One quadratic step: data valid mod p^prec becomes valid mod p^prec2."""
    m = p ** prec2
    f = [c % m for c in f]
    e = mp_sub(f, mp_mul(g, h, m), m)
    q, r = _zp_divmod_monic(mp_mul(s, e, m), h, m)
    g_new = _zp_add(g, _zp_add(mp_mul(t, e, m), mp_mul(q, g, m), m), m)
    h_new = _zp_add(h, r, m)
    b = mp_sub(_zp_add(mp_mul(s, g_new, m), mp_mul(t, h_new, m), m), [1], m)
    c, d = _zp_divmod_monic(mp_mul(s, b, m), h_new, m)
    s_new = mp_sub(s, d, m)
    t_new = mp_sub(t, _zp_add(mp_mul(t, b, m), mp_mul(c, g_new, m), m), m)
    return g_new, h_new, s_new, t_new


def hensel_lift_pair(f: list[int], g: list[int], h: list[int], p: int, k: int):
    """Lift f = g*h (mod p), h monic, to f = G*H (mod p^k), H monic.

    g and h must be coprime mod p; lc(f) must be a p-unit and is carried by g.
    """
    d, s, t = mp_xgcd(g, h, p)
    if len(d) != 1:
        raise ValueError("modular factors are not coprime")
    # normalize Bezout degrees: deg s < deg h, then t = (1 - s*g)/h exactly
    s = mp_mod(s, h, p)
    num = mp_sub([1], mp_mul(s, g, p), p)
    t, rem = mp_divmod(num, h, p)
    if rem:
        raise ValueError("the Bezout identity fails modulo p")
    g_cur, h_cur, s_cur, t_cur = g, h, s, t
    prec = 1
    while prec < k:
        prec2 = min(2 * prec, k)
        g_cur, h_cur, s_cur, t_cur = hensel_step(f, g_cur, h_cur, s_cur, t_cur, p, prec, prec2)
        prec = prec2
    return g_cur, h_cur


def hensel_lift_list(f: list[int], factors: list[list[int]], p: int, k: int) -> list[list[int]]:
    """Lift f = lc(f) * prod(factors) (mod p), factors monic, to mod p^k.

    Returns monic lifts matching the input order.
    """
    m = p ** k
    if len(factors) == 1:
        inv = pow(f[-1] % m, -1, m)
        return [trim([(c * inv) % m for c in f])]
    mid = len(factors) // 2
    left, right = factors[:mid], factors[mid:]
    h = [1]
    for fac in right:
        h = mp_mul(h, fac, p)
    g = [f[-1] % p]
    for fac in left:
        g = mp_mul(g, fac, p)
    G, H = hensel_lift_pair(f, g, h, p, k)
    return hensel_lift_list(G, left, p, k) + hensel_lift_list(H, right, p, k)


# -- Zassenhaus driver ---------------------------------------------------------


def _symmetric(c: int, m: int) -> int:
    c %= m
    return c - m if 2 * c > m else c


def _int_poly_divmod_exact(f: list[int], g: list[int]):
    """Division over Z, or None as soon as a coefficient fails to divide."""
    f = list(f)
    dg = len(g) - 1
    lc = g[-1]
    q = [0] * max(len(f) - dg, 0)
    while f and len(f) - 1 >= dg:
        if f[-1] % lc:
            return None
        c = f[-1] // lc
        df = len(f) - 1
        q[df - dg] = c
        for i in range(dg + 1):
            f[df - dg + i] -= c * g[i]
        trim(f)
    return trim(q), f


def _primitive(f: list[int]) -> list[int]:
    if not f:
        return []
    c = math.gcd(*f) if len(f) > 1 else abs(f[0])
    g = [x // c for x in f] if c else list(f)
    if g and g[-1] < 0:
        g = [-x for x in g]
    return g


def _primes():
    """2, 3, 5, 7, 11, ... without end, by trial division."""
    yield 2
    n = 3
    while True:
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            yield n
        n += 2


def factor_squarefree_int(f: list[int]) -> list[list[int]]:
    """Factor a primitive squarefree f in Z[x] into primitive irreducibles.

    Zassenhaus: take the first four good primes, keep the one with fewest
    modular factors, Hensel lift past the Landau-Mignotte bound, then
    recombine subsets of the lifted factors by exact trial division over Z.
    The search ends: a prime is bad only if it divides lc(f) * disc(f), which
    is nonzero for squarefree f, and it stops early at a prime modulo which
    f is irreducible.
    """
    n = len(f) - 1
    if n <= 0:
        return []
    if n == 1:
        return [_primitive(f)]
    lc = f[-1]
    choices = []
    for p in _primes():
        if lc % p == 0:
            continue
        fp = trim([c % p for c in f])
        if len(fp) - 1 != n:
            continue
        if len(mp_gcd(fp, mp_deriv(fp, p), p)) != 1:
            continue  # not squarefree mod p
        factors_p = berlekamp(mp_monic(fp, p), p)
        if len(factors_p) == 1:
            return [_primitive(f)]
        choices.append((len(factors_p), p, factors_p))
        if len(choices) >= 4:
            break
    _, p, factors_p = min(choices, key=lambda t: (t[0], t[1]))
    factors_p = sorted(factors_p, key=lambda h: (len(h), h))
    norm = math.isqrt(sum(c * c for c in f)) + 1
    bound = (1 << (n + 1)) * norm * abs(lc)
    k = 1
    while p ** k <= 2 * bound:
        k += 1
    lifted = hensel_lift_list(f, factors_p, p, k)
    m = p ** k
    result = []
    remaining = list(range(len(lifted)))
    current = list(f)
    size = 1
    while 2 * size <= len(remaining):
        found = True
        while found and 2 * size <= len(remaining):
            found = False
            for combo in itertools.combinations(remaining, size):
                prod = [current[-1] % m]
                for idx in combo:
                    prod = mp_mul(prod, lifted[idx], m)
                cand = _primitive(trim([_symmetric(c, m) for c in prod]))
                if not cand:
                    continue
                division = _int_poly_divmod_exact(current, cand)
                if division is not None and not division[1]:
                    result.append(cand)
                    current = _primitive(division[0])
                    remaining = [i for i in remaining if i not in combo]
                    found = True
                    break
        size += 1
    if len(current) - 1 > 0:
        result.append(_primitive(current))
    return result

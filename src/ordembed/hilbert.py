"""Hilbert symbols over Q and the integer factorization they need.

`hilbert_symbol(a, b, place)` is +1 when z^2 = a*x^2 + b*y^2 has a
nontrivial solution over the completion at `place` (a prime, or the string
"inf" for the real place) and -1 otherwise, computed by the classical
local formulas.  Factorization is trial division up to 10^6 followed by
Pollard rho with a fixed deterministic schedule.
"""

from __future__ import annotations

import math

from .errors import SearchExhausted
from .exact import RatLike, rat

INF_PLACE = "inf"

_TRIAL_LIMIT = 10 ** 6

_RHO_CONSTANTS = 1000

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (the 12-base set covers n < 3.3e24)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n; deterministic parameter sweep."""
    if n % 2 == 0:
        return 2
    for c in range(1, _RHO_CONSTANTS):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise SearchExhausted(_RHO_CONSTANTS - 1, f"factor search exhausted for {n}")


def factor_int(n: int) -> dict[int, int]:
    """Prime factorization of n != 0 as {prime: exponent} (sign dropped)."""
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    increments = (4, 2, 4, 2, 4, 6, 2, 6)  # wheel mod 30
    i = 0
    while f * f <= n and f < _TRIAL_LIMIT:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += increments[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


def squarefree_core(q: RatLike) -> int:
    """The squarefree integer representing q modulo nonzero squares."""
    q = rat(q)
    if q == 0:
        raise ValueError("zero has no squarefree core")
    n = q.numerator * q.denominator  # same square class as q
    sign = -1 if n < 0 else 1
    core = 1
    for p, e in factor_int(n).items():
        if e % 2:
            core *= p
    return sign * core


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p, in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _two_adic_split(n: int, p: int) -> tuple[int, int]:
    """n = p^alpha * u with u a p-unit; returns (alpha, u)."""
    alpha = 0
    while n % p == 0:
        n //= p
        alpha += 1
    return alpha, n


def hilbert_symbol(a: RatLike, b: RatLike, place: int | str) -> int:
    """Hilbert symbol (a, b) at a finite prime or the real place "inf"."""
    a = rat(a)
    b = rat(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol arguments must be nonzero")
    if place == INF_PLACE:
        return -1 if a < 0 and b < 0 else 1
    if not isinstance(place, int) or not is_prime(place):
        raise ValueError(f"place must be a prime or {INF_PLACE!r}, got {place!r}")
    p = place
    aa = squarefree_core(a)
    bb = squarefree_core(b)
    alpha, u = _two_adic_split(aa, p)
    beta, w = _two_adic_split(bb, p)
    if p == 2:
        eps_u = ((u - 1) // 2) % 2
        eps_w = ((w - 1) // 2) % 2
        omega_u = ((u * u - 1) // 8) % 2
        omega_w = ((w * w - 1) // 8) % 2
        exponent = (eps_u * eps_w + alpha * omega_w + beta * omega_u) % 2
        return -1 if exponent else 1
    eps_p = ((p - 1) // 2) % 2
    sign = 1
    if (alpha * beta * eps_p) % 2:
        sign = -sign
    if beta % 2:
        sign *= legendre(u, p)
    if alpha % 2:
        sign *= legendre(w, p)
    return sign


def relevant_places(a: RatLike, b: RatLike) -> tuple[int | str, ...]:
    """The finite places where (a, b) can ramify, plus the real place.

    The symbol is +1 at every odd prime not dividing the squarefree cores,
    so 2, the primes of the cores, and "inf" suffice.
    """
    aa = squarefree_core(a)
    bb = squarefree_core(b)
    primes = {2} | set(factor_int(aa).keys()) | set(factor_int(bb).keys())
    return tuple(sorted(primes)) + (INF_PLACE,)


def ramified_places(a: RatLike, b: RatLike) -> tuple[int | str, ...]:
    """Places where the symbol is -1 (finite even set, by reciprocity)."""
    return tuple(v for v in relevant_places(a, b) if hilbert_symbol(a, b, v) == -1)

"""Exact scalar arithmetic: rationals and univariate rational polynomials.

Rationals are stdlib `fractions.Fraction` (always reduced, denominator
positive), serialized as "p/q", or "p" when the denominator is 1.

`PolyQ` stores coefficients lowest degree first with no trailing zeros, so
the zero polynomial is the empty tuple.  Factorization returns monic
irreducible factors with multiplicities in a deterministic order (degree,
then lexicographic on coefficient sequences).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from . import _modpoly
from .errors import ZeroPolynomial

Rat = Fraction
RatLike = Union[int, str, Fraction]


def rat(x: RatLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x.strip())
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_str(q: Fraction) -> str:
    """Serialize: "p/q", or plain "p" for integers."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class PolyQ:
    """Univariate polynomial over Q; coeffs low degree first, trimmed."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def make(coeffs: Iterable[RatLike]) -> "PolyQ":
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return PolyQ(tuple(cs))

    @staticmethod
    def zero() -> "PolyQ":
        return PolyQ(())

    @staticmethod
    def one() -> "PolyQ":
        return PolyQ((Fraction(1),))

    @staticmethod
    def x() -> "PolyQ":
        return PolyQ((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "PolyQ") -> "PolyQ":
        n = max(len(self.coeffs), len(other.coeffs))
        out = [Fraction(0)] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        return PolyQ.make(out)

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def __neg__(self) -> "PolyQ":
        return PolyQ(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        if self.is_zero or other.is_zero:
            return PolyQ.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return PolyQ.make(out)

    def scale(self, c: RatLike) -> "PolyQ":
        c = rat(c)
        if c == 0:
            return PolyQ.zero()
        return PolyQ(tuple(a * c for a in self.coeffs))

    def __pow__(self, e: int) -> "PolyQ":
        result = PolyQ.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def divmod(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dg = other.degree
        inv = 1 / other.leading
        q = [Fraction(0)] * max(len(rem) - dg, 0)
        while rem and len(rem) - 1 >= dg:
            c = rem[-1] * inv
            q[len(rem) - 1 - dg] = c
            for i in range(dg + 1):
                rem[len(rem) - 1 - dg + i] -= c * other.coeffs[i]
            while rem and rem[-1] == 0:
                rem.pop()
        return PolyQ.make(q), PolyQ.make(rem)

    def __mod__(self, other: "PolyQ") -> "PolyQ":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "PolyQ") -> "PolyQ":
        return self.divmod(other)[0]

    def monic(self) -> "PolyQ":
        if self.is_zero:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        return self.scale(1 / self.leading)

    def derivative(self) -> "PolyQ":
        return PolyQ.make(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    def eval(self, x: RatLike) -> Fraction:
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(rat_str(c))
            elif i == 1:
                parts.append(f"{rat_str(c)}*x" if c != 1 else "x")
            else:
                parts.append(f"{rat_str(c)}*x^{i}" if c != 1 else f"x^{i}")
        return " + ".join(reversed(parts))


def poly_gcd(a: PolyQ, b: PolyQ) -> PolyQ:
    """Monic gcd; gcd(a, 0) = monic(a), gcd(0, 0) = 0."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic() if not a.is_zero else PolyQ.zero()


def poly_xgcd(a: PolyQ, b: PolyQ) -> tuple[PolyQ, PolyQ, PolyQ]:
    """Extended gcd: (d, s, t) with s*a + t*b = d, d monic (or zero)."""
    r0, r1 = a, b
    s0, s1 = PolyQ.one(), PolyQ.zero()
    t0, t1 = PolyQ.zero(), PolyQ.one()
    while not r1.is_zero:
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero:
        return PolyQ.zero(), s0, t0
    inv = 1 / r0.leading
    return r0.scale(inv), s0.scale(inv), t0.scale(inv)


def squarefree_decomposition(p: PolyQ) -> list[tuple[PolyQ, int]]:
    """Yun's algorithm: p = lc * prod(g_i^i) with the g_i monic squarefree."""
    if p.is_zero:
        raise ZeroPolynomial("squarefree decomposition of zero")
    p = p.monic()
    if p.degree == 0:
        return []
    d = p.derivative()
    a = poly_gcd(p, d)
    b = p // a
    c = d // a
    out: list[tuple[PolyQ, int]] = []
    i = 1
    while b.degree > 0:
        step = poly_gcd(b, c - b.derivative())
        if step.degree > 0:
            out.append((step.monic(), i))
        b2 = b // step
        c = (c - b.derivative()) // step
        b = b2
        i += 1
    return out


def _poly_to_primitive_int(p: PolyQ) -> list[int]:
    """Scale a nonzero rational poly to a primitive integer coefficient list."""
    den = lcm(*[c.denominator for c in p.coeffs]) if len(p.coeffs) > 1 else p.coeffs[0].denominator
    ints = [int(c * den) for c in p.coeffs]
    g = gcd(*ints) if len(ints) > 1 else abs(ints[0])
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def factor_rational_poly(p: PolyQ) -> list[tuple[PolyQ, int]]:
    """Factor a nonzero p into monic irreducibles with multiplicities.

    The product of the factors (with multiplicities) equals monic(p).
    Output order: ascending degree, then lexicographic on the coefficient
    sequence.  Raises ZeroPolynomial on the zero polynomial.
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if p.degree == 0:
        return []
    result: list[tuple[PolyQ, int]] = []
    for squarefree, mult in squarefree_decomposition(p):
        ints = _poly_to_primitive_int(squarefree)
        for fac in _modpoly.factor_squarefree_int(ints):
            lead = Fraction(fac[-1])
            monic = PolyQ.make([Fraction(c) / lead for c in fac])
            result.append((monic, mult))
    result.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return result

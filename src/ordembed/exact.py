"""Exact scalar arithmetic: rationals and univariate rational polynomials.

Rationals are stdlib `fractions.Fraction` (always reduced, denominator
positive), serialized as "p/q", or "p" when the denominator is 1.

`PolyQ` stores integer coefficients, lowest degree first with no trailing
zeros, over one least denominator; the `Fraction` coefficients are a view.
Factorization works in Z[x] and returns monic irreducible factors with
multiplicities in a deterministic order (degree, then lexicographic on
coefficient sequences).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence, Union

from . import _modpoly
from .errors import ZeroPolynomial

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
    """Univariate polynomial over Q: the coefficients are ints / den, low degree first, trimmed.

    den > 0 and gcd(den, every coefficient) == 1, so equal polynomials are equal records.
    """

    ints: tuple[int, ...]
    den: int = 1

    @staticmethod
    def from_ints(ints: Iterable[int], den: int = 1) -> "PolyQ":
        """The polynomial with coefficients ints / den, for any nonzero den."""
        cs = _modpoly.trim(list(ints))
        if den < 0:
            den, cs = -den, [-c for c in cs]
        g = gcd(den, *cs)
        return PolyQ(tuple(c // g for c in cs), den // g)

    @staticmethod
    def make(coeffs: Iterable[RatLike]) -> "PolyQ":
        cs = [rat(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        return PolyQ.from_ints((c.numerator * (den // c.denominator) for c in cs), den)

    @staticmethod
    def zero() -> "PolyQ":
        return PolyQ(())

    @staticmethod
    def one() -> "PolyQ":
        return PolyQ((1,))

    @staticmethod
    def x() -> "PolyQ":
        return PolyQ((0, 1))

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as `Fraction`s, lowest degree first: a view for tests and printing."""
        return tuple(Fraction(c, self.den) for c in self.ints)

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def leading(self) -> Fraction:
        if not self.ints:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.den)

    def __add__(self, other: "PolyQ") -> "PolyQ":
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        return PolyQ.from_ints((a * x + b * y for x, y in
                                zip_longest(self.ints, other.ints, fillvalue=0)), den)

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def __neg__(self) -> "PolyQ":
        return PolyQ(tuple(-c for c in self.ints), self.den)

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        return PolyQ.from_ints(_int_mul(self.ints, other.ints), self.den * other.den)

    def __pow__(self, e: int) -> "PolyQ":
        result = PolyQ.one()
        for _ in range(e):
            result = result * self
        return result

    def divmod(self, other: "PolyQ") -> tuple["PolyQ", "PolyQ"]:
        """(q, r) with self == q * other + r, deg r < deg other: from s * A = Q * B + R in integers."""
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r, s = _pseudo_divmod(self.ints, other.ints)
        return (PolyQ.from_ints((c * other.den for c in q), s * self.den),
                PolyQ.from_ints(r, s * self.den))

    def __mod__(self, other: "PolyQ") -> "PolyQ":
        return self.divmod(other)[1]

    def monic(self) -> "PolyQ":
        if self.is_zero:
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        return PolyQ.from_ints(self.ints, self.ints[-1])

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


# -- integer polynomials: lists of ints, lowest degree first, trimmed ----------


def _int_mul(f: Sequence[int], g: Sequence[int]) -> list[int]:
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _pseudo_divmod(f: Sequence[int], g: Sequence[int]) -> tuple[list[int], list[int], int]:
    """(q, r, s): s * f == q * g + r, deg r < deg g, s = lc(g)^k; after scaling by s each step divides."""
    lc, dg = g[-1], len(g) - 1
    k = max(len(f) - dg, 0)
    s = lc ** k
    rem = [c * s for c in f]
    q = [0] * k
    for top in range(len(rem) - 1, dg - 1, -1):
        c = rem[top] // lc
        q[top - dg] = c
        if c:
            for i in range(dg + 1):
                rem[top - dg + i] -= c * g[i]
    return q, _modpoly.trim(rem[:dg]), s


def _int_gcd(f: list[int], g: list[int]) -> list[int]:
    """The primitive gcd in Z[x], leading coefficient positive, by primitive pseudo-remainders."""
    while g:
        f, g = g, _modpoly._primitive(_pseudo_divmod(f, g)[1])
    return _modpoly._primitive(f)


def _exact_quo(f: list[int], g: list[int]) -> list[int]:
    """f / g for a primitive g dividing f in Q[x], which is integral (Gauss)."""
    return _modpoly._int_poly_divmod_exact(f, g)[0]


def _int_deriv(f: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def _squarefree_parts(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm over Z: f = c * prod(g_i^i) with the g_i primitive and squarefree.

    b and c are divided by the same primitive gcds, so they keep the
    relation of the rational steps up to one scale, which no gcd notices.
    """
    d = _int_deriv(f)
    a = _int_gcd(f, d)
    b, c = _exact_quo(f, a), _exact_quo(d, a)
    out = []
    i = 1
    while len(b) > 1:
        d = _modpoly.trim([x - y for x, y in zip_longest(c, _int_deriv(b), fillvalue=0)])
        step = _int_gcd(b, d)
        if len(step) > 1:
            out.append((step, i))
        b, c = _exact_quo(b, step), _exact_quo(d, step)
        i += 1
    return out


def _split_quadratic(f: list[int]) -> list[list[int]]:
    """The primitive irreducible factors of a squarefree quadratic: roots (-c1 -+ root) / (2 * c2)."""
    c0, c1, c2 = f
    disc = c1 * c1 - 4 * c0 * c2
    root = isqrt(disc) if disc > 0 else -1
    if root * root != disc:
        return [f]
    return [_modpoly._primitive([c1 + root, 2 * c2]), _modpoly._primitive([c1 - root, 2 * c2])]


def factor_rational_poly(p: PolyQ) -> list[tuple[PolyQ, int]]:
    """Factor a nonzero p into monic irreducibles with multiplicities.

    The product of the factors (with multiplicities) equals monic(p).
    Output order: ascending degree, then lexicographic on the coefficient
    sequence.  Raises ZeroPolynomial on the zero polynomial.  The squarefree
    parts of p's primitive multiple split by their discriminant (quadratics)
    or by Zassenhaus (`_modpoly.factor_squarefree_int`).
    """
    if p.is_zero:
        raise ZeroPolynomial("cannot factor the zero polynomial")
    if p.degree == 0:
        return []
    found: list[tuple[list[int], int]] = []
    for part, mult in _squarefree_parts(_modpoly._primitive(list(p.ints))):
        split = _split_quadratic(part) if len(part) == 3 else _modpoly.factor_squarefree_int(part)
        found += [(fac, mult) for fac in split]
    # the monic factors f / lc(f), lc(f) > 0, over one denominator compare as integers
    den = lcm(*(fac[-1] for fac, _ in found))
    found.sort(key=lambda fm: (len(fm[0]), [c * (den // fm[0][-1]) for c in fm[0]]))
    return [(PolyQ.from_ints(fac, fac[-1]), mult) for fac, mult in found]

"""Tests for rational polynomial arithmetic, factorization, and Hilbert symbols."""

import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from ordembed import _modpoly
from ordembed.errors import ZeroPolynomial
from ordembed.exact import PolyQ, factor_rational_poly, rat, rat_str
from ordembed.errors import SearchExhausted
from ordembed.hilbert import (
    INF_PLACE,
    _pollard_rho,
    factor_int,
    hilbert_symbol,
    is_prime,
    ramified_places,
    relevant_places,
    squarefree_core,
)
from fraction_reference import (
    fraction_add,
    fraction_divmod,
    fraction_mul,
    poly_gcd,
    poly_xgcd,
    squarefree_decomposition,
)


def P(*coeffs):
    """Poly from low-order-first coefficients."""
    return PolyQ.make([F(c) for c in coeffs])


X = PolyQ.x()


def test_rat_coercions():
    assert rat("3/4") == F(3, 4)
    assert rat(5) == F(5)
    assert rat_str(F(-7, 2)) == "-7/2"
    assert rat_str(F(4, 2)) == "2"


def test_poly_basics():
    p = P(1, 2, 1)
    assert p.degree == 2
    assert p.eval(F(1)) == F(4)
    assert (p * P(1, -1)).coeffs == P(1, 1, -1, -1).coeffs
    q, r = P(0, 0, 0, 1).divmod(P(0, 1))
    assert q == P(0, 0, 1) and r.is_zero
    with pytest.raises(ZeroPolynomial):
        PolyQ.zero().leading


def test_poly_divmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        P(1, 1).divmod(PolyQ.zero())


def test_poly_stores_integers_over_one_least_denominator():
    p = P(F(1, 2), F(-2, 3), 0, 0)
    assert (p.ints, p.den) == ((3, -4), 6)
    assert p.coeffs == (F(1, 2), F(-2, 3))
    assert PolyQ.from_ints([6, -8, 0], 12) == p
    assert PolyQ.from_ints([-3, 4], -6) == p
    assert PolyQ.from_ints([0, 0], 5) == PolyQ.zero() == PolyQ((), 1)
    assert (p.monic().ints, p.monic().den) == ((-3, 4), 4)


rational_coeffs = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), max_size=6)


@given(rational_coeffs, rational_coeffs)
@settings(deadline=None, max_examples=150)
def test_integer_arithmetic_matches_fractions(a, b):
    a, b = PolyQ.make(a), PolyQ.make(b)
    assert a + b == fraction_add(a, b)
    assert a * b == fraction_mul(a, b)
    assert a - b == fraction_add(a, -b)
    if not b.is_zero:
        assert a.divmod(b) == fraction_divmod(a, b)


def test_gcd_examples():
    # gcd(x^2 - 1, x^3 - 1) = x - 1
    a = P(-1, 0, 1)
    b = P(-1, 0, 0, 1)
    assert poly_gcd(a, b) == P(-1, 1)
    assert poly_gcd(a, PolyQ.zero()) == a.monic()
    assert poly_gcd(PolyQ.zero(), PolyQ.zero()).is_zero


def test_xgcd_bezout():
    a = P(-1, 0, 1)
    b = P(2, 3, 1)  # (x+1)(x+2)
    d, s, t = poly_xgcd(a, b)
    assert d == P(1, 1)  # common factor x + 1
    assert s * a + t * b == d


def test_squarefree_decomposition():
    # (x-1)^2 (x+2)^3
    p = P(-1, 1) ** 2 * P(2, 1) ** 3
    parts = squarefree_decomposition(p)
    got = {(mult, tuple(f.coeffs)) for f, mult in parts}
    assert got == {(2, P(-1, 1).coeffs), (3, P(2, 1).coeffs)}


# every prime below 400 divides the discriminant of x^2 - N and of (x - N)(x + N)
N400 = math.prod(p for p in range(2, 400) if all(p % d for d in range(2, p)))

FACTOR_CASES = [
    # (poly, expected list of (coeffs of monic irreducible factor, multiplicity))
    (P(-1, 0, 0, 0, 1), [((F(-1), F(1)), 1), ((F(1), F(1)), 1), ((F(1), F(0), F(1)), 1)]),
    (P(1, 1, 1, 1, 1), [((F(1), F(1), F(1), F(1), F(1)), 1)]),
    (P(4, 0, 0, 0, 1), [((F(2), F(-2), F(1)), 1), ((F(2), F(2), F(1)), 1)]),
    (P(1, 0, -10, 0, 1), [((F(1), F(0), F(-10), F(0), F(1)), 1)]),
    (P(2, 0, 0, 1), [((F(2), F(0), F(0), F(1)), 1)]),
    (P(1, 3, 2), [((F(1, 2), F(1)), 1), ((F(1), F(1)), 1)]),
    (P(-N400, 0, 1), [((F(-N400), F(0), F(1)), 1)]),
    (P(-N400, 1) * P(N400, 1), [((F(-N400), F(1)), 1), ((F(N400), F(1)), 1)]),
    # a cubic, so Zassenhaus runs; its first good prime is above 400
    (P(-N400, 0, 1) * P(-1, 1), [((F(-1), F(1)), 1), ((F(-N400), F(0), F(1)), 1)]),
]


@pytest.mark.parametrize("poly,expected", FACTOR_CASES)
def test_factor_frozen(poly, expected):
    got = [(f.coeffs, m) for f, m in factor_rational_poly(poly)]
    assert got == expected


def test_factor_multiplicities():
    p = P(-1, 1) ** 2 * P(2, 1) ** 3 * P(1, 0, 1)
    got = factor_rational_poly(p)
    assert [(tuple(f.coeffs), m) for f, m in got] == [
        ((F(-1), F(1)), 2),
        ((F(2), F(1)), 3),
        ((F(1), F(0), F(1)), 1),
    ]


def test_factor_degenerate():
    assert factor_rational_poly(P(5)) == []
    with pytest.raises(ZeroPolynomial):
        factor_rational_poly(PolyQ.zero())


def test_factor_cyclotomic_splits():
    x12 = X ** 12 - PolyQ.one()
    factors = factor_rational_poly(x12)
    assert sum(f.degree * m for f, m in factors) == 12
    assert sorted(f.degree for f, m in factors) == [1, 1, 2, 2, 2, 4]


small_rational = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


@st.composite
def polys(draw, max_degree=6):
    coeffs = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=max_degree + 1))
    if all(c == 0 for c in coeffs):
        coeffs[-1] = 1
    return PolyQ.make([F(c) for c in coeffs])


@given(polys())
@settings(deadline=None, max_examples=120)
def test_factor_product_identity(p):
    factors = factor_rational_poly(p)
    prod = PolyQ.one()
    for f, m in factors:
        assert f.degree >= 1
        assert f.leading == 1
        prod = prod * f ** m
    assert prod == p.monic()


@given(polys(max_degree=5))
@settings(deadline=None, max_examples=60)
def test_factor_fixpoint(p):
    for f, _ in factor_rational_poly(p):
        again = factor_rational_poly(f)
        assert again == [(f, 1)]


@st.composite
def factor_products(draw, max_degree=8):
    """A rational multiple of a product of small factors of degree 1 to 3, some repeated.

    Random small factors are often reducible themselves, so reducible
    quadratics and cubics and repeated factors are common.
    """
    p = PolyQ.make([draw(small_rational.filter(bool))])
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 3))
        mult = draw(st.integers(1, 2))
        if p.degree + degree * mult > max_degree:
            break
        coeffs = draw(st.lists(st.integers(-5, 5), min_size=degree, max_size=degree))
        p = p * P(*coeffs, draw(st.integers(1, 3))) ** mult
    return p


@given(st.one_of(factor_products(), polys(max_degree=6)))
@settings(deadline=None, max_examples=120)
def test_factor_matches_sympy(p):
    x = sympy.symbols("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
               for i, c in enumerate(p.coeffs))
    _, sym_factors = sympy.factor_list(sympy.Poly(expr, x))
    theirs = []
    for f, m in sym_factors:
        monic = sympy.Poly(f, x).monic().all_coeffs()[::-1]
        theirs.append((tuple(F(int(c.p), int(c.q)) for c in monic), m))
    ours = [(f.coeffs, m) for f, m in factor_rational_poly(p)]
    assert ours == sorted(theirs, key=lambda fm: (len(fm[0]), fm[0]))


def test_non_monic_hensel_divisor_raises():
    # The checks are raises, not asserts, so they hold under `python -O` too.
    with pytest.raises(ValueError, match="monic"):
        _modpoly._zp_divmod_monic([1, 2, 3], [1, 2], 49)


def test_false_bezout_pair_in_hensel_lift_raises(monkeypatch):
    # x^2 + 1 = (x + 2)(x + 3) mod 5, but s = 1, t = 0 is no Bezout pair.
    monkeypatch.setattr(_modpoly, "mp_xgcd", lambda g, h, p: ([1], [1], []))
    with pytest.raises(ValueError, match="Bezout"):
        _modpoly.hensel_lift_pair([1, 0, 1], [2, 1], [3, 1], 5, 3)


def test_gcd_of_product_families():
    a = P(-2, 1) * P(3, 1) ** 2
    b = P(3, 1) * P(7, 1)
    assert poly_gcd(a, b) == P(3, 1)


# -- integer helpers -------------------------------------------------------------


def test_factor_int():
    assert factor_int(1) == {}
    assert factor_int(2 ** 4 * 3 * 7 ** 2) == {2: 4, 3: 1, 7: 2}
    big = 10_000_019 * 10_000_079
    assert factor_int(big) == {10_000_019: 1, 10_000_079: 1}


def test_factor_search_exhaustion_is_typed():
    # on a prime every rho cycle closes with gcd n, so the sweep runs out
    with pytest.raises(SearchExhausted) as info:
        _pollard_rho(101)
    assert info.value.limit == 999


def test_is_prime_small():
    primes = [p for p in range(50) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 67 - 1)


def test_squarefree_core():
    assert squarefree_core(F(18, 5)) == 10
    assert squarefree_core(F(-4)) == -1
    assert squarefree_core(F(1)) == 1


# -- Hilbert symbols -------------------------------------------------------------


def _val(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _isotropic_mod(a, b, p, k):
    """Brute-force local solvability of z^2 = a x^2 + b y^2.

    Searches primitive solutions modulo p^k. For squarefree a, b and k at
    least 3 (odd p) or 6 (p = 2) a primitive solution lifts to a p-adic one,
    so this decides the symbol.
    """
    m = p ** k
    by_val = {}
    for y in range(m):
        r = (b * y * y) % m
        v = k if y == 0 else min(_val(y, p), k)
        prev = by_val.get(r)
        if prev is None or v < prev:
            by_val[r] = v
    for z in range(m):
        vz = k if z == 0 else _val(z, p)
        for x in range(m):
            r = (z * z - a * x * x) % m
            vy = by_val.get(r)
            if vy is None:
                continue
            vx = k if x == 0 else _val(x, p)
            if min(vz, vx, vy) == 0:
                return True
    return False


def _oracle_symbol(a, b, place):
    if place == INF_PLACE:
        return 1 if (a > 0 or b > 0) else -1
    p = place
    k = 6 if p == 2 else 3
    return 1 if _isotropic_mod(a, b, p, k) else -1


SMALL_SQUAREFREE = [-15, -10, -6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 10, 15]


@pytest.mark.parametrize("p", [2, 3, 5, INF_PLACE])
def test_hilbert_matches_brute_force(p):
    for i, a in enumerate(SMALL_SQUAREFREE):
        for b in SMALL_SQUAREFREE[i:]:
            assert hilbert_symbol(F(a), F(b), p) == _oracle_symbol(a, b, p), (a, b, p)


def test_hilbert_brute_force_at_seven():
    # spot checks at a prime not in the main grid
    for a, b in [(7, -1), (7, 7), (7, 3), (-7, -7), (14, 21), (7, 11)]:
        assert hilbert_symbol(F(a), F(b), 7) == _oracle_symbol(a, b, 7), (a, b)


def test_hilbert_frozen_values():
    assert hilbert_symbol(F(-1), F(-1), 2) == -1
    assert hilbert_symbol(F(-1), F(-1), INF_PLACE) == -1
    assert hilbert_symbol(F(-1), F(-1), 3) == 1
    assert hilbert_symbol(F(2), F(3), 2) == -1
    assert hilbert_symbol(F(2), F(3), 3) == -1
    assert hilbert_symbol(F(2), F(3), INF_PLACE) == 1
    assert hilbert_symbol(F(5), F(5), 5) == 1
    assert hilbert_symbol(F(3), F(3), 3) == -1


def test_hilbert_rational_scaling():
    # the symbol only depends on square classes
    assert hilbert_symbol(F(-4, 9), F(-25), 2) == hilbert_symbol(F(-1), F(-1), 2)
    assert hilbert_symbol(F(8), F(27, 4), 3) == hilbert_symbol(F(2), F(3), 3)


def test_hilbert_rejects_bad_input():
    with pytest.raises(ValueError):
        hilbert_symbol(F(0), F(1), 2)
    with pytest.raises(ValueError):
        hilbert_symbol(F(1), F(1), 4)


nonzero_rational = st.fractions(min_value=-40, max_value=40, max_denominator=12).filter(
    lambda q: q != 0
)


@given(nonzero_rational, nonzero_rational)
@settings(deadline=None, max_examples=200)
def test_hilbert_reciprocity(a, b):
    places = relevant_places(a, b)
    prod = 1
    for v in places:
        prod *= hilbert_symbol(a, b, v)
    assert prod == 1


@given(nonzero_rational, nonzero_rational, nonzero_rational)
@settings(deadline=None, max_examples=150)
def test_hilbert_bimultiplicative(a, b, c):
    for v in set(relevant_places(a, b)) | set(relevant_places(a, c)):
        lhs = hilbert_symbol(a, b * c, v)
        rhs = hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)
        assert lhs == rhs


def test_ramified_places():
    assert ramified_places(F(-1), F(-1)) == (2, INF_PLACE)
    assert ramified_places(F(2), F(3)) == (2, 3)
    assert ramified_places(F(1), F(1)) == ()
    # Hurwitz-style split example: (-1, 3)
    assert ramified_places(F(-1), F(3)) == (2, 3)

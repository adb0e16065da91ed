"""Differential oracles: gross-numbers against sympy, which shares no code
with the kernel.

A base-1 number is a Laurent polynomial in G.  Shifting its G-powers up by
``SHIFT`` (the family's powers lie in [-6, 6]) makes it an ordinary polynomial
in ``x``, so ``*``, ``pow_int`` and ``div_exact`` can be checked against
``sympy.Poly`` arithmetic.  Numbers with exponential bases and fractional
G-powers are Laurent polynomials in more variables (see below), and are
checked the same way, sums and the language's chains of sums too.  The order
is checked against the limit of the sign of the difference as G, read as an
integer variable, grows without bound.  The series are checked against
``sympy.summation`` at gross counts.
"""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from grossone import G, GrossNumber, compare, div_exact, normalize, pow_int, term
from grossone.errors import ExponentNotLinearInGrossone, NotExactlyDivisible
from grossone.exprlang import Binary, Literal, eval_expr
from grossone.series import ap_sum, geometric, powers_of_two_sum, triangular

from conftest import random_number

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
SHIFT = 6


def poly(n: GrossNumber, shift: int = SHIFT) -> "sympy.Poly":
    """``n`` with ``G**p`` read as ``x**(p + shift)``."""
    assert all(t.gpow + shift >= 0 for t in n.terms)
    return sympy.Poly.from_dict(
        {(int(t.gpow) + shift,): sympy.Rational(t.coeff.numerator, t.coeff.denominator)
         for t in n.terms},
        X, domain=sympy.QQ)


def base_one(rng: random.Random, max_terms: int = 5) -> GrossNumber:
    """A number of the ``random_number`` family with every base set to 1."""
    n = random_number(rng, max_terms=max_terms, coeff_bound=1000, coeff_den_bound=rng.choice([1, 6]))
    return normalize(term(t.coeff, 1, t.gpow) for t in n.terms)


@settings(max_examples=60, deadline=None)
@given(st.integers())
def test_product(seed):
    rng = random.Random(seed)
    a, b = base_one(rng), base_one(rng)
    assert poly(a * b, 2 * SHIFT) == poly(a) * poly(b)


@settings(max_examples=60, deadline=None)
@given(st.integers(), st.integers(1, 4))
def test_power(seed, k):
    a = base_one(random.Random(seed), max_terms=3)
    assert poly(pow_int(a, k), k * SHIFT) == poly(a) ** k


@settings(max_examples=80, deadline=None)
@given(st.integers(), st.booleans())
def test_exact_division(seed, multiple):
    rng = random.Random(seed)
    b = base_one(rng, max_terms=3)
    if not b:
        return
    c = base_one(rng)
    a = c * b if multiple else c
    # An exact quotient's G-powers are at least min(a) - min(b) >= -2 * SHIFT,
    # so a dividend shifted by 3 * SHIFT over a divisor shifted by SHIFT has a
    # polynomial quotient exactly when the division is exact.
    q, r = poly(a, 3 * SHIFT).div(poly(b))
    try:
        got = div_exact(a, b)
    except NotExactlyDivisible:
        assert not multiple and not r.is_zero
        return
    assert r.is_zero
    assert poly(got, 2 * SHIFT) == q
    assert not multiple or got == c


# -- numbers with exponential bases and fractional G-powers ----------------------
#
# With L the lcm of the G-power denominators, G := H^L makes every G-power an
# integer power of H.  A base B = 2^e2 * 3^e3 * 5^e5 (the family's pool) gives
# B^G := y2^e2 * y3^e3 * y5^e5, so a gross-number is a Laurent polynomial in
# (H, y2, y3, y5) and the kernel's ring operations are polynomial arithmetic.

H, Y2, Y3, Y5 = GENS = sympy.symbols("h y2 y3 y5")
PRIMES = (2, 3, 5)


def prime_exponents(b) -> tuple:
    b = Fraction(b)
    out = []
    for p in PRIMES:
        e = 0
        for part, sign in ((b.numerator, 1), (b.denominator, -1)):
            while part % p == 0:
                part //= p
                e += sign
        out.append(e)
    assert b == Fraction(2) ** out[0] * Fraction(3) ** out[1] * Fraction(5) ** out[2]
    return tuple(out)


def laurent(n: GrossNumber, L: int) -> dict:
    """``n`` as ``{(h, e2, e3, e5) exponents: coefficient}``."""
    out = {}
    for c, b, p in n.terms:
        h = Fraction(p) * L
        assert h.denominator == 1
        out[(int(h),) + prime_exponents(b)] = sympy.Rational(c.numerator, c.denominator)
    return out


def as_poly(d: dict):
    """A Laurent dict as ``(sympy.Poly, shift)``, shifted by its least
    exponent in each variable so that every exponent is at least 0."""
    low = tuple(min(e[k] for e in d) for k in range(len(GENS)))
    poly = sympy.Poly.from_dict({tuple(a - m for a, m in zip(e, low)): c for e, c in d.items()},
                                *GENS, domain=sympy.QQ)
    return poly, low


def unshift(poly, low) -> dict:
    return {tuple(a + m for a, m in zip(e, low)): c for e, c in poly.terms() if c}


def denominators_lcm(*numbers) -> int:
    return lcm(*(Fraction(t.gpow).denominator for n in numbers for t in n.terms))


def with_bases(rng: random.Random, max_terms: int = 4) -> GrossNumber:
    return random_number(rng, max_terms=max_terms, coeff_bound=1000, fractional_gpow=True,
                         coeff_den_bound=rng.choice([1, 6]))


@settings(max_examples=40, deadline=None)
@given(st.integers())
def test_product_with_bases(seed):
    rng = random.Random(seed)
    a, b = with_bases(rng), with_bases(rng)
    if not a or not b:
        assert not a * b
        return
    L = denominators_lcm(a, b)
    (pa, la), (pb, lb) = as_poly(laurent(a, L)), as_poly(laurent(b, L))
    assert laurent(a * b, L) == unshift(pa * pb, tuple(x + y for x, y in zip(la, lb)))


@settings(max_examples=30, deadline=None)
@given(st.integers(), st.integers(1, 3))
def test_power_with_bases(seed, k):
    a = with_bases(random.Random(seed), max_terms=3)
    if not a:
        return
    L = denominators_lcm(a)
    pa, la = as_poly(laurent(a, L))
    assert laurent(pow_int(a, k), L) == unshift(pa ** k, tuple(k * x for x in la))


@settings(max_examples=40, deadline=None)
@given(st.integers(), st.booleans())
def test_exact_division_with_bases(seed, multiple):
    rng = random.Random(seed)
    b = with_bases(rng, max_terms=3)
    c = with_bases(rng)
    if not b or not c:
        return
    a = c * b if multiple else c
    L = denominators_lcm(a, b)
    # Each side is shifted by its own least exponents, so that no variable
    # divides the divisor: then the Laurent quotient exists exactly when the
    # polynomial division leaves no remainder.
    (pa, la), (pb, lb) = as_poly(laurent(a, L)), as_poly(laurent(b, L))
    q, r = pa.div(pb)
    try:
        got = div_exact(a, b)
    except NotExactlyDivisible:
        assert not multiple and not r.is_zero
        return
    assert r.is_zero
    assert laurent(got, L) == unshift(q, tuple(x - y for x, y in zip(la, lb)))
    assert not multiple or got == c


def laurent_sum(numbers, signs) -> dict:
    """sympy's sum of ``sign * n`` over the numbers, as a Laurent dict: each
    polynomial is moved from its own shift to the least one before adding."""
    nonzero = [(n, s) for n, s in zip(numbers, signs) if n]
    if not nonzero:
        return {}
    L = denominators_lcm(*numbers)
    polys = [(as_poly(laurent(n, L)), s) for n, s in nonzero]
    low = tuple(min(lo[k] for (_, lo), _ in polys) for k in range(len(GENS)))
    total = sympy.Poly(0, *GENS, domain=sympy.QQ)
    for (p, lo), s in polys:
        monomial = sympy.Poly.from_dict({tuple(a - m for a, m in zip(lo, low)): 1}, *GENS, domain=sympy.QQ)
        total += p * monomial * s
    return unshift(total, low)


@settings(max_examples=20, deadline=None)
@given(st.integers())
def test_sums_with_bases(seed):
    # +, - and a five-operand chain of the expression language, whose terms
    # are summed by one normalize; a repeated operand cancels when subtracted.
    rng = random.Random(seed)
    values = [with_bases(rng) for _ in range(5)]
    values[rng.randint(2, 4)] = values[rng.randint(0, 1)]
    signs = [1] + [rng.choice((1, -1)) for _ in values[1:]]
    a, b = values[:2]
    L = denominators_lcm(a, b)
    assert laurent(a + b, L) == laurent_sum((a, b), (1, 1))
    assert laurent(a - b, L) == laurent_sum((a, b), (1, -1))
    chain = Literal(values[0])
    for v, s in zip(values[1:], signs[1:]):
        chain = Binary("+" if s > 0 else "-", chain, Literal(v))
    assert laurent(eval_expr(chain), denominators_lcm(*values)) == laurent_sum(values, signs)


# -- the order: the limit of the sign of the difference --------------------------

X = sympy.Symbol("x", integer=True, positive=True)


def function_of_x(n: GrossNumber, scale: Fraction):
    """``n / scale^G`` with G read as the integer variable x: the sum of
    ``c * (B/scale)^x * x^p``."""
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Rational(Fraction(b) / scale) ** X
                * X ** sympy.Rational(Fraction(p).numerator, Fraction(p).denominator)
                for c, b, p in n.terms), sympy.Integer(0))


def order_pair(seed: int):
    """Two numbers of up to four terms, with bases and fractional G-powers;
    every fifth pair differs in one coefficient only."""
    rng = random.Random(f"sympy order {seed}")
    a = with_bases(rng)
    if seed % 5 == 0 and a.terms:
        k = rng.randrange(len(a.terms))
        c, B, p = a.terms[k]
        return a, a + normalize([term(rng.choice([-1, 1]) * Fraction(1, 7), B, p)])
    return a, with_bases(rng)


@pytest.mark.parametrize("seed", range(20))
def test_order_is_the_limit_of_the_sign_of_the_difference(seed):
    a, b = order_pair(seed)
    # Dividing by scale^x, for the largest base, keeps the sign and leaves
    # sympy's limit one growing exponential fewer, which it needs: as they
    # stand, (507/2)*(5/2)^x*x^2 + 152*(5/2)^x - (773/3)*(3/2)^x*x^(9/4)
    # ends in RecursionError.
    scale = max([Fraction(t.base) for t in a.terms + b.terms], default=Fraction(1))
    difference = function_of_x(a, scale) - function_of_x(b, scale)
    assert compare(a, b) == sympy.limit(sympy.sign(difference), X, sympy.oo)


# -- the series against sympy.summation ---------------------------------------------
#
# Each series sums its addends over k = 1..x; sympy gives the sum in closed
# form, and x is then replaced by the count read in G.  G is declared even,
# as G is divisible by every finite n, so sympy's (-1)^x decides the sign of
# geo's negative ratio as the parity of the count does.

G_SYM = sympy.Symbol("G", positive=True, integer=True, even=True)
K = sympy.Symbol("k", positive=True, integer=True)
COUNTS = {"G": (G, G_SYM), "G/2": (G / 2, G_SYM / 2), "2G+1": (2 * G + 1, 2 * G_SYM + 1)}
SERIES = {
    "tri": (triangular, K),
    "x2": (powers_of_two_sum, 2 ** (K - 1)),
    "geo(-2/3)": (lambda n: geometric(Fraction(-2, 3), n), sympy.Rational(-2, 3) ** K),
    "geo(3)": (lambda n: geometric(3, n), sympy.Integer(3) ** K),
    "ap_sum(5, -3)": (lambda n: ap_sum(5, -3, n), 5 - 3 * (K - 1)),
    "ap_sum(1/2, G)": (lambda n: ap_sum(Fraction(1, 2), G, n), sympy.Rational(1, 2) + G_SYM * (K - 1)),
}


@pytest.mark.parametrize("count", COUNTS)
@pytest.mark.parametrize("name", SERIES)
def test_series_equal_sympy_summation(name, count):
    series, addend = SERIES[name]
    n, x = COUNTS[count]
    if count == "G/2" and name.startswith(("x2", "geo")):
        # 2^(G/2) has the base sqrt(2): no gross-number holds it, and the
        # exponent is refused as not of the form a*G + d with integers a, d.
        with pytest.raises(ExponentNotLinearInGrossone):
            series(n)
        return
    closed = sympy.summation(addend, (K, 1, X)).subs(X, x)
    assert sympy.simplify(function_of_x(series(n), Fraction(1)).subs(X, G_SYM) - closed) == 0

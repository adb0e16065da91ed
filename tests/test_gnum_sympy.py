"""Differential oracle: base-1 gross-numbers against sympy polynomials.

A base-1 number is a Laurent polynomial in G.  Shifting its G-powers up by
``SHIFT`` (the family's powers lie in [-6, 6]) makes it an ordinary polynomial
in ``x``, so ``*``, ``pow_int`` and ``div_exact`` can be checked against
``sympy.Poly`` arithmetic, which shares no code with the kernel.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from grossone import GrossNumber, div_exact, normalize, pow_int, term
from grossone.errors import NotExactlyDivisible

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

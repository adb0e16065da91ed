"""Algebraic laws of the arithmetic, checked property-style."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from grossone import GrossNumber, eval_at, floor_div_mod, normalize, term
from grossone.gnum import ZERO, gnum

from conftest import BASE_POOL, random_number, sign_stabilizes

coeffs = st.one_of(
    st.integers(-(10**6), 10**6).filter(lambda n: n != 0),
    st.builds(
        Fraction,
        st.integers(-(10**6), 10**6).filter(lambda n: n != 0),
        st.integers(1, 100),
    ),
)

terms = st.builds(
    term,
    coeffs,
    st.sampled_from(BASE_POOL),
    st.integers(-6, 6),
)

numbers = st.lists(terms, max_size=5).map(normalize)


@given(numbers, numbers, numbers)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + 0 == a
    assert a * 1 == a
    assert a + (-a) == gnum(0)


@given(numbers, numbers)
def test_eval_homomorphism(a, b):
    for t in (16, 64, 256):
        assert eval_at(a + b, t) == eval_at(a, t) + eval_at(b, t)
        assert eval_at(a * b, t) == eval_at(a, t) * eval_at(b, t)


@given(numbers, terms)
def test_division_roundtrip_monomial(a, d):
    b = GrossNumber((d,))
    assert (a * b) / b == a


@given(numbers, st.lists(terms, min_size=2, max_size=4).map(normalize))
def test_division_roundtrip_multiterm(a, b):
    if not b:
        return
    assert (a * b) / b == a


@settings(max_examples=60)
@given(st.integers())
def test_order_matches_evaluation(seed):
    rng = random.Random(seed)
    a = random_number(rng, coeff_bound=100)
    b = random_number(rng, coeff_bound=100)
    if a == b:
        return
    assert sign_stabilizes(a - b)


@given(st.lists(terms, max_size=8))
def test_normalize_idempotent(raw):
    n = normalize(raw)
    assert normalize(n.terms) == n
    keys = [t.key for t in n.terms]
    assert keys == sorted(keys, reverse=True)
    assert all(t.coeff != 0 for t in n.terms)


@given(numbers)
def test_parts_partition(a):
    assert a.infinite_part() + a.finite_part() + a.infinitesimal_part() == a


@given(numbers, st.integers(1, 60))
def test_floor_div_mod_exact(a, n):
    # Reshape the sample into a gross-integer: base 1, nonnegative integer
    # powers, integer constant term.
    x = normalize(
        term(
            Fraction(t.coeff.numerator) if t.gpow == 0 else t.coeff,
            1,
            abs(t.gpow),
        )
        for t in a.terms
    )
    q, r = floor_div_mod(x, n)
    assert q * n + r == x
    assert 0 <= r < n


@given(numbers, numbers, st.randoms(use_true_random=False))
def test_normalize_of_shuffled_terms_is_the_sum(a, b, rng):
    raw = list(a.terms + b.terms)
    rng.shuffle(raw)
    assert normalize(raw) == a + b
    assert normalize(a.terms + (-a).terms) == ZERO


@given(coeffs | st.just(0))
def test_a_finite_number_hashes_as_its_rational(r):
    x = gnum(r)
    assert hash(x) == hash(r)
    assert x in {r} and {r: r}[x] == r

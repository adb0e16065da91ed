"""Algebraic laws of the arithmetic, checked property-style."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from grossone import (
    GrossNumber, div_exact, eval_at, exp_gross, floor_div_mod, normalize, nth_root, pow_int, term,
)
from grossone.errors import NotExactlyDivisible
from grossone.gnum import GROSSONE, ZERO, compare, gnum

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

# G-powers with denominators 1-4, so that keys mix denominators.
frac_terms = st.builds(
    term,
    coeffs,
    st.sampled_from(BASE_POOL),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 4)),
)

frac_numbers = st.lists(frac_terms, max_size=5).map(normalize)


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


@given(st.lists(frac_terms, max_size=8))
def test_normalize_idempotent(raw):
    n = normalize(raw)
    assert normalize(n.terms) == n
    keys = [t.key for t in n.terms]
    assert keys == sorted(keys, reverse=True)
    assert all(t.coeff != 0 for t in n.terms)
    sums = {}
    for t in raw:
        sums[t.key] = sums.get(t.key, 0) + t.coeff
    assert {t.key: t.coeff for t in n.terms} == {k: c for k, c in sums.items() if c}


def _copy(x: GrossNumber) -> GrossNumber:
    """An equal number built from fresh Fraction objects."""
    return GrossNumber(tuple(
        term(Fraction(c.numerator, c.denominator), Fraction(b.numerator, b.denominator),
             Fraction(p.numerator, p.denominator))
        for c, b, p in x.terms))


@st.composite
def ordered_pairs(draw):
    """Two numbers that are unrelated, equal, one a prefix of the other, one
    with an extra term, apart in one coefficient, or a number and a rational;
    either may be zero."""
    a = draw(frac_numbers)
    how = draw(st.sampled_from(["other", "equal", "prefix", "extra", "coeff", "rational"]))
    if how == "other":
        b = draw(frac_numbers)
    elif how == "equal":
        b = _copy(a)
    elif how == "prefix":
        b = GrossNumber(a.terms[:draw(st.integers(0, len(a.terms)))])
    elif how == "extra":
        b = normalize(a.terms + (draw(frac_terms),))
    elif how == "coeff" and a.terms:
        t = draw(st.sampled_from(a.terms))
        b = normalize(a.terms + (term(draw(coeffs), t.base, t.gpow),))
    else:
        b = draw(st.one_of(st.integers(-3, 3), coeffs))
    return (b, a) if draw(st.booleans()) and isinstance(b, GrossNumber) else (a, b)


@given(ordered_pairs())
def test_compare_matches_sign_of_difference(pair):
    a, b = pair
    assert compare(a, b) == (a - b).sign()


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


@settings(max_examples=200)
@given(st.integers(), st.booleans())
def test_add_and_sub_merge_as_normalize_sums(seed, fractional):
    """``+`` and ``-`` merge canonical tuples; ``normalize`` of the
    concatenated terms is the reference.  ``b`` reuses some of ``a``'s keys,
    so that sums meet equal keys and cancel."""
    rng = random.Random(seed)

    def draw():
        return random_number(rng, max_terms=6, coeff_bound=5, fractional_gpow=fractional,
                             coeff_den_bound=rng.choice([1, 3]))

    a = draw()
    shared = [t for t in a.terms if rng.random() < 0.5]
    b = draw() + normalize(term(rng.choice([-1, 1]) * t.coeff, t.base, t.gpow) for t in shared)
    assert (a + b).terms == normalize(a.terms + b.terms).terms
    assert (a - b).terms == normalize(a.terms + (-b).terms).terms


@given(numbers, st.lists(terms, min_size=2, max_size=4).map(normalize))
def test_an_exact_quotient_is_canonical(q, b):
    if len(b.terms) < 2:
        return
    assert div_exact(q * b, b).terms == normalize(q.terms).terms


@given(coeffs | st.just(0))
def test_a_finite_number_hashes_as_its_rational(r):
    x = gnum(r)
    assert hash(x) == hash(r)
    assert x in {r} and {r: r}[x] == r


def _canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


@settings(max_examples=60)
@given(st.integers())
def test_term_fields_are_ints_or_proper_fractions(seed):
    """Every field of every result term is an int, or a Fraction whose
    denominator is not 1: never a float, a bool or an integral Fraction."""
    rng = random.Random(seed)

    def draw(**kw):
        return random_number(rng, coeff_bound=100, coeff_den_bound=rng.choice([1, 4]),
                             fractional_gpow=rng.random() < 0.3, **kw)

    a, b, m = draw(), draw(), draw(max_terms=1)
    k = rng.randint(1, 3)
    # Coefficients that sum with a's to 0, to an int or to a proper fraction.
    partner = normalize(
        term(rng.choice([0, 1, -2, Fraction(1, 4), Fraction(3, 4)]) - t.coeff, t.base, t.gpow)
        for t in a.terms)
    results = [
        GrossNumber((term(Fraction(4, 2), Fraction(6, 3), Fraction(-3, 1)),)),
        GrossNumber((term(True, True, False),)),
        gnum(Fraction(10, 5)), gnum(True), gnum(Fraction(rng.randint(-9, 9), rng.randint(1, 4))),
        a + b, a - b, -a, a * b, a * m, m * m, a + partner, partner - a, a - (a - m),
        pow_int(a, k), pow_int(b, rng.randint(0, 2)) if b else b,
        exp_gross(rng.choice(BASE_POOL + [0, 7]), rng.randint(1, 3) * GROSSONE + rng.randint(-3, 3)),
        exp_gross(Fraction(rng.randint(1, 9), rng.randint(1, 9)), rng.randint(-3, 3) * GROSSONE),
    ]
    if b:
        results.append(div_exact(a * b, b))
        try:
            results.append(div_exact(a, b))
        except NotExactlyDivisible:
            pass
    if m:
        t = m.terms[0]
        results += [div_exact(a, m), pow_int(m, -k), pow_int(m, k)]
        root = GrossNumber((term(abs(t.coeff), 1, t.gpow),))
        results += [nth_root(pow_int(root, n), n) for n in (1, 2, 3)]
        results.append(nth_root(GrossNumber((term(t.coeff ** 2, 1, t.gpow),)), 2))
    for n in results:
        for t in n.terms:
            assert all(_canonical(x) for x in t), t

"""Shared generators and finite-substitution oracles for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from grossone import GrossNumber, eval_at, normalize, term
from grossone.sets import AdjustedSet, EmptySet

SRC = Path(__file__).resolve().parent.parent / "src"

BASE_POOL = [
    Fraction(1),
    Fraction(1),
    Fraction(1),
    Fraction(1, 2),
    Fraction(2, 3),
    Fraction(3, 2),
    Fraction(2),
    Fraction(5, 2),
    Fraction(3),
]


def random_number(
    rng: random.Random,
    max_terms: int = 5,
    coeff_bound: int = 10**6,
    fractional_gpow: bool = False,
    coeff_den_bound: int = 1,
) -> GrossNumber:
    """A random canonical gross-number drawn from the documented test family."""
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        num = 0
        while num == 0:
            num = rng.randint(-coeff_bound, coeff_bound)
        den = rng.randint(1, coeff_den_bound)
        base = rng.choice(BASE_POOL)
        if fractional_gpow:
            gpow = Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 3, 4]))
        else:
            gpow = Fraction(rng.randint(-6, 6))
        terms.append(term(Fraction(num, den), base, gpow))
    return normalize(terms)


def typed(terms) -> list:
    """Terms with the type of each field, so that 2 and Fraction(2) differ."""
    return [tuple((type(f), f) for f in t) for t in terms]


def sign_stabilizes(diff: GrossNumber, needed: int = 3, t_max: int = 2**20) -> bool:
    """Doubling sweep: does eval_at's sign agree with the symbolic sign for
    ``needed`` consecutive points?"""
    symbolic = diff.sign()
    streak = 0
    t = 16
    while t <= t_max:
        value = diff.eval_at(t)
        numeric = (value > 0) - (value < 0)
        streak = streak + 1 if numeric == symbolic else 0
        if streak >= needed:
            return True
        t *= 2
    return False


# --- brute-force enumerations for the substitution oracle ---------------------


def enum_residue_class(k: int, n: int, t: int) -> set:
    """Members of the k-th residue class mod n inside {1..t}."""
    return set(range(k, t + 1, n))


def enum_integers(t: int) -> set:
    return set(range(-t, t + 1))


def enum_set(s, t: int) -> set:
    """Evaluate a library set at G := t by expanding its representation."""
    if isinstance(s, EmptySet):
        return set()
    if isinstance(s, AdjustedSet):
        return (enum_set(s.base, t) | set(s.added)) - set(s.removed)
    first = s.first if isinstance(s.first, int) else int(eval_at(s.first, t))
    count = int(eval_at(s.count, t))
    return set(range(first, first + count * s.step, s.step))


def assert_set_matches(s, expected: set, t: int):
    from grossone.sets import cardinality, last_element

    got = enum_set(s, t)
    assert got == expected
    assert eval_at(cardinality(s), t) == len(expected)
    if not isinstance(s, (EmptySet, AdjustedSet)) and expected:
        assert eval_at(last_element(s), t) == max(expected)

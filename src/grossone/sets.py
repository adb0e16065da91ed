"""Sets measured with the infinite unit: arithmetic progressions with
gross-integer element counts, plus finite adjustments.

Every set handled here is an arithmetic progression ``{first + (i-1)*step}``
for ``1 <= i <= count`` where ``count`` is a positive gross-integer.  The
natural numbers are ``AP(1, 1, G)``, their n-th parts ``AP(k, n, G/n)``, the
integers ``AP(-G, 1, 2*G + 1)``.  Progressions whose first element is itself
infinite (the integers, tails of doubled sets) support only cardinality, last
element and membership; richer operations reject them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

from .errors import (
    ElementAlreadyPresent,
    ElementNotPresent,
    GrossFirstUnsupported,
    IndexOutOfRange,
    NotPositive,
    ResidueOutOfRange,
)
from .gnum import G, GrossNumber, floor_div_mod, gnum, nth_root, pow_int

FirstLike = Union[int, GrossNumber]


def _as_first(value: FirstLike):
    """Collapse a finite pure integer gross-number back to a plain int."""
    if isinstance(value, GrossNumber):
        if not value.terms:
            return 0
        if len(value.terms) == 1 and value.terms[0].key == (1, 0) and value.terms[0].coeff.denominator == 1:
            return int(value.terms[0].coeff)
    return value


@dataclass(frozen=True)
class GrossAP:
    """Arithmetic progression with a gross-integer number of elements."""

    first: FirstLike
    step: int
    count: GrossNumber

    def __post_init__(self):
        object.__setattr__(self, "first", _as_first(self.first))
        object.__setattr__(self, "count", gnum(self.count))
        if self.step <= 0:
            raise NotPositive("step must be a positive integer")
        if not self.count.is_gross_integer() or self.count.sign() <= 0:
            raise NotPositive("count must be a positive gross-integer")

    @property
    def last(self) -> GrossNumber:
        return gnum(self.first) + (self.count - 1) * self.step

    def __str__(self) -> str:
        return f"AP(first={self.first}, step={self.step}, count={self.count})"


@dataclass(frozen=True)
class AdjustedSet:
    """A progression with finitely many integers added and removed."""

    base: GrossAP
    added: Tuple[int, ...] = ()
    removed: Tuple[int, ...] = ()

    def __str__(self) -> str:
        out = str(self.base)
        if self.added:
            out += " + {" + ",".join(str(x) for x in self.added) + "}"
        if self.removed:
            out += " - {" + ",".join(str(x) for x in self.removed) + "}"
        return out


class EmptySet:
    """The empty intersection result."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self) -> str:
        return "Empty"

    def __repr__(self) -> str:
        return "EmptySet()"


EMPTY = EmptySet()

SetLike = Union[GrossAP, AdjustedSet, EmptySet]


@dataclass(frozen=True)
class RootCount:
    """The count ``floor(radicand**(1/degree))``, kept bracketed.

    The floor is never resolved to a gross-number; callers get the exact
    upper value and the structural guarantee that squaring it recovers the
    radicand, which brackets the floor between ``upper - 1`` and ``upper``.
    """

    radicand: GrossNumber
    degree: int

    def upper_value(self) -> GrossNumber:
        return nth_root(self.radicand, self.degree)

    def bracket_ok(self) -> bool:
        return pow_int(self.upper_value(), self.degree) == self.radicand

    def __str__(self) -> str:
        rad = str(self.radicand)
        if len(self.radicand.terms) > 1:
            rad = f"({rad})"
        return f"floor({rad}^(1/{self.degree}))"


# -- constructors ----------------------------------------------------------

def ap_nat(k: int, n: int) -> GrossAP:
    """The k-th residue class mod n of the naturals; it has G/n elements."""
    if not 1 <= k <= n:
        raise ResidueOutOfRange(f"need 1 <= k <= n, got k={k}, n={n}")
    return GrossAP(k, n, G / n)


def naturals() -> GrossAP:
    return ap_nat(1, 1)


def evens() -> GrossAP:
    return ap_nat(2, 2)


def odds() -> GrossAP:
    return ap_nat(1, 2)


def integers_set() -> GrossAP:
    """All integers: G negative, zero, and G positive elements."""
    return GrossAP(-G, 1, 2 * G + 1)


# -- queries ----------------------------------------------------------------

def cardinality(s: SetLike) -> GrossNumber:
    if isinstance(s, EmptySet):
        return gnum(0)
    if isinstance(s, AdjustedSet):
        return s.base.count + len(s.added) - len(s.removed)
    return s.count


def element_at(s: GrossAP, i) -> GrossNumber:
    idx = gnum(i)
    if not idx.is_gross_integer() or idx.sign() <= 0 or idx > s.count:
        raise IndexOutOfRange(f"index {idx} outside 1..{s.count}")
    return gnum(s.first) + (idx - 1) * s.step


def last_element(s: GrossAP) -> GrossNumber:
    return s.last


def member(s: SetLike, x) -> bool:
    """Membership by residue plus symbolic range test.

    ``x`` is normally a finite integer; gross-integers are accepted too so
    range questions like "does G+2 belong" can be answered symbolically.
    """
    if isinstance(s, EmptySet):
        return False
    if isinstance(s, AdjustedSet):
        if isinstance(x, int):
            if x in s.added:
                return True
            if x in s.removed:
                return False
        return member(s.base, x)
    value = gnum(x)
    offset = value - gnum(s.first)
    if offset.sign() < 0:
        return False
    if value > s.last:
        return False
    if not offset.is_gross_integer():
        return False
    _, r = floor_div_mod(offset, s.step)
    return r == 0


# -- combinators --------------------------------------------------------------

def intersect(a: GrossAP, b: GrossAP):
    """Intersection via the Chinese remainder theorem.

    Returns a :class:`GrossAP` on the combined residue class, or ``EMPTY``
    when the residues are incompatible or the ranges miss each other.
    """
    if not isinstance(a.first, int) or not isinstance(b.first, int):
        raise GrossFirstUnsupported("intersection needs finite first elements")
    g = math.gcd(a.step, b.step)
    if (b.first - a.first) % g != 0:
        return EMPTY
    lcm = a.step // g * b.step
    m = b.step // g
    k = 0
    if m > 1:
        k = (b.first - a.first) // g * pow(a.step // g, -1, m) % m
    residue = (a.first + a.step * k) % lcm
    lo = max(a.first, b.first)
    first = lo + (residue - lo) % lcm
    last = a.last if a.last <= b.last else b.last
    span = last - first
    if span.sign() < 0:
        return EMPTY
    q, _ = floor_div_mod(span, lcm)
    return GrossAP(first, lcm, q + 1)


def scale(s: GrossAP, m: int) -> GrossAP:
    """Multiply every element by m; the element count is unchanged."""
    if m <= 0:
        raise NotPositive("scale factor must be a positive integer")
    first = s.first * m if isinstance(s.first, int) else gnum(s.first) * m
    return GrossAP(first, s.step * m, s.count)


def _as_adjusted(s: Union[GrossAP, AdjustedSet]) -> AdjustedSet:
    return s if isinstance(s, AdjustedSet) else AdjustedSet(s)


def add_finite(s: Union[GrossAP, AdjustedSet], elems) -> AdjustedSet:
    adj = _as_adjusted(s)
    added = set(adj.added)
    removed = set(adj.removed)
    for x in sorted(set(int(e) for e in elems)):
        if x in removed:
            removed.discard(x)
        elif x in added or member(adj.base, x):
            raise ElementAlreadyPresent(f"{x} is already in the set")
        else:
            added.add(x)
    return AdjustedSet(adj.base, tuple(sorted(added)), tuple(sorted(removed)))


def remove_finite(s: Union[GrossAP, AdjustedSet], elems) -> AdjustedSet:
    adj = _as_adjusted(s)
    added = set(adj.added)
    removed = set(adj.removed)
    for x in sorted(set(int(e) for e in elems)):
        if x in added:
            added.discard(x)
        elif x not in removed and member(adj.base, x):
            removed.add(x)
        else:
            raise ElementNotPresent(f"{x} is not in the set")
    return AdjustedSet(adj.base, tuple(sorted(added)), tuple(sorted(removed)))


def couples_count(a: SetLike, b: SetLike) -> GrossNumber:
    """Number of ordered pairs drawn from two sets."""
    return cardinality(a) * cardinality(b)


def squares_count() -> RootCount:
    """How many perfect squares are natural numbers: floor(G^(1/2)), bracketed."""
    return RootCount(G, 2)

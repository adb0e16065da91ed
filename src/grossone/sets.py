"""Sets measured with the infinite unit: arithmetic progressions with
gross-integer element counts, plus finite adjustments.

Every set handled here is an arithmetic progression ``{first + (i-1)*step}``
for ``1 <= i <= count`` where ``count`` is a positive gross-integer.  The
natural numbers are ``AP(1, 1, G)``, their n-th parts ``AP(k, n, G/n)``, the
integers ``AP(-G, 1, 2*G + 1)``.  Progressions whose first element (always a
gross-number) is infinite, like the integers, support only cardinality, last
element and membership; richer operations reject them.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Tuple, Union

from .errors import (
    ElementAlreadyPresent,
    ElementNotPresent,
    GrossFirstUnsupported,
    IndexOutOfRange,
    NotPositive,
    ResidueOutOfRange,
    format_int,
)
from .gnum import G, GrossNumber, _integer, floor_div_mod, gnum, nth_root, pow_int


class GrossAP(NamedTuple("GrossAP", [("first", GrossNumber), ("step", int),
                                     ("count", GrossNumber)])):
    """Arithmetic progression with a gross-integer number of elements."""

    __slots__ = ()

    def __new__(cls, first, step: int, count):
        first, count, step = gnum(first), gnum(count), _integer(step)
        if step <= 0:
            raise NotPositive("step must be a positive integer")
        if not count.is_gross_integer() or count.sign() <= 0:
            raise NotPositive("count must be a positive gross-integer")
        return super().__new__(cls, first, step, count)

    # _replace builds through _make, which would skip the checks above.
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __str__(self) -> str:
        return f"AP(first={self.first}, step={format_int(self.step)}, count={self.count})"


class AdjustedSet(NamedTuple):
    """A progression or the empty set with finitely many integers added and removed."""

    base: Union[GrossAP, EmptySet]
    added: Tuple[int, ...] = ()
    removed: Tuple[int, ...] = ()

    def __str__(self) -> str:
        out = str(self.base)
        if self.added:
            out += " + {" + ",".join(map(format_int, self.added)) + "}"
        if self.removed:
            out += " - {" + ",".join(map(format_int, self.removed)) + "}"
        return out


class EmptySet(NamedTuple):
    """The empty intersection result."""

    def __str__(self) -> str:
        return "Empty"


EMPTY = EmptySet()

SetLike = Union[GrossAP, AdjustedSet, EmptySet]


class RootCount(NamedTuple):
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
        if len(self.radicand) > 1:
            rad = f"({rad})"
        return f"floor({rad}^(1/{self.degree}))"


# -- constructors ----------------------------------------------------------

def ap_nat(k: int, n: int) -> GrossAP:
    """The k-th residue class mod n of the naturals; it has G/n elements."""
    if not 1 <= k <= n:
        raise ResidueOutOfRange(k, n)
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
        return cardinality(s.base) + len(s.added) - len(s.removed)
    return s.count


def element_at(s: GrossAP, i) -> GrossNumber:
    idx = gnum(i)
    if not idx.is_gross_integer() or idx.sign() <= 0 or idx > s.count:
        raise IndexOutOfRange(idx, s.count)
    return s.first + (idx - 1) * s.step


def last_element(s: GrossAP) -> GrossNumber:
    return s.first + (s.count - 1) * s.step


def member(s: SetLike, x) -> bool:
    """Membership by residue plus symbolic range test.

    ``x`` is normally a finite integer; gross-integers are accepted too so
    range questions like "does G+2 belong" can be answered symbolically.
    """
    if isinstance(s, EmptySet):
        return False
    value = gnum(x)
    if isinstance(s, AdjustedSet):
        if value in s.added:
            return True
        if value in s.removed:
            return False
        return member(s.base, value)
    offset = value - s.first
    if offset.sign() < 0:
        return False
    if value > last_element(s):
        return False
    # Every non-constant term of a gross-integer is divisible by the finite step.
    return offset.is_gross_integer() and int(offset.constant_coeff()) % s.step == 0


# -- combinators --------------------------------------------------------------

def intersect(a: GrossAP, b: GrossAP):
    """Intersection via the Chinese remainder theorem.

    Returns a :class:`GrossAP` on the combined residue class, or ``EMPTY``
    when the residues are incompatible or the ranges miss each other.
    """
    if any(s.first.infinite_part() or not s.first.is_gross_integer() for s in (a, b)):
        raise GrossFirstUnsupported("intersection needs finite first elements")
    a_first, b_first = int(a.first.constant_coeff()), int(b.first.constant_coeff())
    g = math.gcd(a.step, b.step)
    if (b_first - a_first) % g != 0:
        return EMPTY
    lcm = a.step // g * b.step
    m = b.step // g
    k = 0
    if m > 1:
        k = (b_first - a_first) // g * pow(a.step // g, -1, m) % m
    residue = (a_first + a.step * k) % lcm
    lo = max(a_first, b_first)
    first = lo + (residue - lo) % lcm
    span = min(last_element(a), last_element(b)) - first
    if span.sign() < 0:
        return EMPTY
    q, _ = floor_div_mod(span, lcm)
    return GrossAP(first, lcm, q + 1)


def scale(s: GrossAP, m: int) -> GrossAP:
    """Multiply every element by m; the element count is unchanged."""
    m = _integer(m)
    if m <= 0:
        raise NotPositive("scale factor must be a positive integer")
    return GrossAP(s.first * m, s.step * m, s.count)


def _adjust(s: Union[GrossAP, AdjustedSet], elems, adding: bool) -> AdjustedSet:
    """Add or remove the integers ``elems``, checked in increasing order; a
    change first undoes the opposite change to the same element."""
    adj = s if isinstance(s, AdjustedSet) else AdjustedSet(s)
    added = set(adj.added)
    removed = set(adj.removed)
    undo, record = (removed, added) if adding else (added, removed)
    for x in sorted(set(map(_integer, elems))):
        present = member(adj, x)
        if adding and present:
            raise ElementAlreadyPresent(x)
        if not adding and not present:
            raise ElementNotPresent(x)
        if x in undo:
            undo.discard(x)
        else:
            record.add(x)
    return AdjustedSet(adj.base, tuple(sorted(added)), tuple(sorted(removed)))


def add_finite(s: Union[GrossAP, AdjustedSet], elems) -> AdjustedSet:
    return _adjust(s, elems, adding=True)


def remove_finite(s: Union[GrossAP, AdjustedSet], elems) -> AdjustedSet:
    return _adjust(s, elems, adding=False)


def couples_count(a: SetLike, b: SetLike) -> GrossNumber:
    """Number of ordered pairs drawn from two sets."""
    return cardinality(a) * cardinality(b)


def squares_count() -> RootCount:
    """How many perfect squares are natural numbers: floor(G^(1/2)), bracketed."""
    return RootCount(G, 2)

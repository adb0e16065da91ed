"""Exact arithmetic over gross-numbers.

A gross-number is a finite sum of terms ``c * B**G * G**p`` where ``G`` is the
infinite unit (the number of elements of the set of natural numbers), ``c`` is
a nonzero rational, ``B`` a positive rational exponential base (``B == 1``
means the exponential factor is absent) and ``p`` a rational power.  Terms are
kept in canonical form: unique ``(base, gpow)`` keys, strictly descending, no
zero coefficients, and each of ``c``, ``B`` and ``p`` an ``int`` when it is
integral and a ``Fraction`` only otherwise (never a float or a bool).  A larger
base always dominates (exponential growth beats any power of G); for equal
bases the larger power of G dominates.

Everything here is immutable and every operation is a pure function, so values
can be shared freely across threads.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Tuple, Union

from .errors import (
    BaseRootUnsupported,
    CoefficientNotPerfectPower,
    DivisionByZero,
    ExponentNotLinearInGrossone,
    FractionalGrossPower,
    NegativePowerOfSum,
    NotAGrossInteger,
    NotAMonomial,
    NotExactlyDivisible,
    NotPositive,
    TooLarge,
    TooManyDigits,
    ZeroToZero,
)

RationalLike = Union[int, Fraction]

_ONE = 1
_ZERO = 0
_FINITE_KEY = (_ONE, _ZERO)

#: The most bits ``pow_int`` (of a single term) and ``exp_gross`` let one
#: power of a rational need; a larger power is refused with :class:`TooLarge`
#: before it is built.
MAX_POWER_BITS = 1 << 20


class NumberClass(Enum):
    ZERO = "zero"
    INFINITESIMAL = "infinitesimal"
    FINITE_PURE = "finite"
    FINITE_WITH_INFINITESIMAL_PART = "finite-with-infinitesimal"
    INFINITE = "infinite"


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


class GrossTerm(NamedTuple):
    """One canonical summand ``coeff * base**G * G**gpow``."""

    coeff: RationalLike
    base: RationalLike
    gpow: RationalLike

    @property
    def key(self) -> Tuple[RationalLike, RationalLike]:
        return (self.base, self.gpow)


def _q(x: RationalLike) -> RationalLike:
    """The canonical form of an exact rational: an ``int`` when it is integral."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


def _div(x: RationalLike, y: RationalLike) -> RationalLike:
    """The exact quotient ``x / y`` in canonical form; never a float."""
    if type(x) is int and type(y) is int:
        q, r = divmod(x, y)
        return Fraction(x, y) if r else q
    return _q(x / y)


def _rational(x: RationalLike) -> RationalLike:
    """An ``int`` or a ``Fraction`` in canonical form; no floats, no strings."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {type(x).__name__}")
    return _q(x)


def term(coeff: RationalLike, base: RationalLike = 1, gpow: RationalLike = 0) -> GrossTerm:
    """Build a term, coercing arguments to exact rationals."""
    b = _rational(base)
    if b <= 0:
        raise NotPositive("exponential base must be positive")
    return GrossTerm(_rational(coeff), b, _rational(gpow))


def _operator(fn):
    """A binary dunder: ``fn(self, gnum(other))`` for a gross-number or
    rational ``other``, ``NotImplemented`` for anything else."""

    def method(self, other):
        if not isinstance(other, (GrossNumber, int, Fraction)):
            return NotImplemented
        return fn(self, gnum(other))

    return method


def _add(a: "GrossNumber", b: "GrossNumber") -> "GrossNumber":
    """``a + b`` by one merge of the two canonical term tuples.

    Both tuples descend by ``(base, gpow)``, so the sum is column addition:
    an unmatched term is kept as it is, and the coefficients of equal keys
    are added, with the term dropped when they cancel.
    """
    x, y = a.terms, b.terms
    if not y:
        return a
    if not x:
        return b
    out = []
    n, m = len(x), len(y)
    i = j = 0
    s, t = x[0], y[0]
    while True:
        # Fields by index: (coeff, base, gpow).
        if s[1] == t[1]:
            if s[2] == t[2]:
                c = s[0] + t[0]
                if c:
                    out.append(GrossTerm(c if type(c) is int else _q(c), s[1], s[2]))
                i += 1
                j += 1
                if i == n or j == m:
                    break
                s, t = x[i], y[j]
                continue
            first = s[2] > t[2]
        else:
            first = s[1] > t[1]
        if first:
            out.append(s)
            i += 1
            if i == n:
                break
            s = x[i]
        else:
            out.append(t)
            j += 1
            if j == m:
                break
            t = y[j]
    out += x[i:]
    out += y[j:]
    return GrossNumber(tuple(out))


@dataclass(frozen=True, eq=False)
class GrossNumber:
    """Canonical finite sum of :class:`GrossTerm`; the empty sum is zero."""

    terms: Tuple[GrossTerm, ...]

    # -- ring structure -------------------------------------------------

    __add__ = __radd__ = _operator(_add)
    __sub__ = _operator(lambda a, b: a + (-b))
    __rsub__ = _operator(lambda a, b: (-a) + b)
    __truediv__ = _operator(lambda a, b: div_exact(a, b))
    __rtruediv__ = _operator(lambda a, b: div_exact(b, a))

    @_operator
    def __mul__(self, other):
        return normalize(
            (ca * cb, ba * bb, pa + pb) for ca, ba, pa in self.terms for cb, bb, pb in other.terms
        )

    __rmul__ = __mul__

    def __neg__(self) -> "GrossNumber":
        return GrossNumber(tuple(GrossTerm(-t.coeff, t.base, t.gpow) for t in self.terms))

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return pow_int(self, k)

    # -- order ------------------------------------------------------------

    def sign(self) -> int:
        if not self.terms:
            return 0
        return 1 if self.terms[0].coeff > 0 else -1

    __eq__ = _operator(lambda a, b: a.terms == b.terms)
    __lt__ = _operator(lambda a, b: compare(a, b) < 0)
    __le__ = _operator(lambda a, b: compare(a, b) <= 0)
    __gt__ = _operator(lambda a, b: compare(a, b) > 0)
    __ge__ = _operator(lambda a, b: compare(a, b) >= 0)

    def __hash__(self):
        # Equal values hash alike, and a finite pure number equals its rational.
        if self.classify() in (NumberClass.ZERO, NumberClass.FINITE_PURE):
            return hash(self.as_rational())
        return hash(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- structure queries ---------------------------------------------

    def classify(self) -> NumberClass:
        if not self.terms:
            return NumberClass.ZERO
        lead = self.terms[0].key
        if lead > _FINITE_KEY:
            return NumberClass.INFINITE
        if lead == _FINITE_KEY:
            if len(self.terms) > 1:
                return NumberClass.FINITE_WITH_INFINITESIMAL_PART
            return NumberClass.FINITE_PURE
        return NumberClass.INFINITESIMAL

    def infinite_part(self) -> "GrossNumber":
        return GrossNumber(tuple(t for t in self.terms if t.key > _FINITE_KEY))

    def finite_part(self) -> "GrossNumber":
        return GrossNumber(tuple(t for t in self.terms if t.key == _FINITE_KEY))

    def infinitesimal_part(self) -> "GrossNumber":
        return GrossNumber(tuple(t for t in self.terms if t.key < _FINITE_KEY))

    def is_gross_integer(self) -> bool:
        """Whether this value denotes an integer under the divisibility axiom.

        Requires base 1 and nonnegative integer G-powers everywhere; the
        constant term must have an integer coefficient.  Non-constant terms
        may carry any rational coefficient because G is divisible by every
        finite positive integer.
        """
        for t in self.terms:
            if t.base != 1:
                return False
            if t.gpow.denominator != 1 or t.gpow < 0:
                return False
            if t.gpow == 0 and t.coeff.denominator != 1:
                return False
        return True

    def constant_coeff(self) -> RationalLike:
        for t in self.terms:
            if t.key == _FINITE_KEY:
                return t.coeff
        return _ZERO

    def parity(self) -> Parity:
        if not self.is_gross_integer():
            raise NotAGrossInteger(f"{self} is not a gross-integer")
        # G is a multiple of every finite 2n, so every non-constant term is
        # even; only the constant decides.
        c = int(self.constant_coeff())
        return Parity.EVEN if c % 2 == 0 else Parity.ODD

    def as_rational(self) -> RationalLike:
        """The exact rational value of a finite pure number, an ``int`` when
        it is integral."""
        if not self.terms:
            return _ZERO
        if len(self.terms) == 1 and self.terms[0].key == _FINITE_KEY:
            return self.terms[0].coeff
        raise ValueError(f"{self} is not a finite pure rational")

    def eval_at(self, t: int) -> Fraction:
        """Substitute the finite integer ``t`` for G and evaluate exactly."""
        if t <= 0:
            raise NotPositive("substitution point must be a positive integer")
        total = _ZERO
        for c, b, p in self.terms:
            if type(p) is not int:
                raise FractionalGrossPower(f"G^({p}) cannot be evaluated")
            v = c * b ** t
            # A negative power of an int would be a float.
            total += v * t ** p if p >= 0 else Fraction(v) / t ** -p
        return Fraction(total)

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        return format_number(self)

    def __repr__(self) -> str:
        return f"GrossNumber({str(self)!r})"


ZERO = GrossNumber(())
ONE = GrossNumber((GrossTerm(_ONE, _ONE, _ZERO),))
GROSSONE = GrossNumber((GrossTerm(_ONE, _ONE, _ONE),))
G = GROSSONE


def gnum(value: Union[RationalLike, GrossNumber]) -> GrossNumber:
    """A rational as a gross-number; a gross-number is returned unchanged."""
    if isinstance(value, GrossNumber):
        return value
    c = _rational(value)
    return GrossNumber((GrossTerm(c, _ONE, _ZERO),) if c else ())


def normalize(raw: Iterable[Tuple[RationalLike, RationalLike, RationalLike]]) -> GrossNumber:
    """Merge equal keys, drop zero coefficients, sort descending; idempotent.

    The builder for terms in any order, such as the pairwise products of
    ``*``; ``+`` merges two canonical tuples without it.  ``raw`` yields
    ``(coeff, base, gpow)`` triples, such as :class:`GrossTerm`, of ``int``s
    and ``Fraction``s; the result holds them in canonical form.
    """
    # Keyed on the four ints of base and G-power, which hash far faster than
    # two Fractions; each entry is the running [coeff, base, gpow], with an
    # integral base or G-power taken from the key as an int.
    merged: dict = {}
    for c, b, p in raw:
        k = (b.numerator, b.denominator, p.numerator, p.denominator)
        entry = merged.get(k)
        if entry is None:
            merged[k] = [c, k[0] if k[1] == 1 else b, k[2] if k[3] == 1 else p]
        else:
            entry[0] += c
    entries = merged.values()
    if len(merged) > 1:
        # Over the common denominators, the scaled numerators order the keys
        # as the Fractions do, and compare as plain ints.
        lb = lcm(*(k[1] for k in merged))
        lp = lcm(*(k[3] for k in merged))
        entries = [merged[k] for k in sorted(
            merged, key=lambda k: (k[0] * (lb // k[1]), k[2] * (lp // k[3])), reverse=True)]
    return GrossNumber(tuple(
        GrossTerm(c if type(c) is int else _q(c), b, p) for c, b, p in entries if c))


def compare(a: GrossNumber, b) -> int:
    """-1, 0 or +1 as ``a`` is less than, equal to, or greater than ``b``.

    Reads both canonical term tuples from the top down, as the sign of
    ``a - b`` is decided by the first term where they differ.
    """
    x, y = a.terms, gnum(b).terms
    for s, t in zip(x, y):
        if s != t:
            if s.key == t.key:
                return 1 if s.coeff > t.coeff else -1
            if s.key > t.key:
                return 1 if s.coeff > 0 else -1
            return -1 if t.coeff > 0 else 1
    if len(x) > len(y):
        return 1 if x[len(y)].coeff > 0 else -1
    if len(y) > len(x):
        return -1 if y[len(x)].coeff > 0 else 1
    return 0


parity = GrossNumber.parity
eval_at = GrossNumber.eval_at


# -- division -----------------------------------------------------------------

def _divide_term(a: GrossTerm, b: GrossTerm) -> GrossTerm:
    return GrossTerm(_div(a.coeff, b.coeff), _div(a.base, b.base), _q(a.gpow - b.gpow))


def div_exact(a: GrossNumber, b: GrossNumber) -> GrossNumber:
    """Exact quotient of gross-numbers.

    A single-term divisor divides every term directly.  Otherwise graded long
    division runs in descending key order and must leave remainder zero; the
    quotient-term bounds below make inexactness detectable in finitely many
    steps.  No approximate expansion (e.g. of ``1/(G+1)``) is ever produced.
    """
    if not b.terms:
        raise DivisionByZero("division by zero")
    if not a.terms:
        return ZERO
    if len(b.terms) == 1:
        d = b.terms[0]
        return GrossNumber(tuple(_divide_term(t, d) for t in a.terms))

    # For an exact quotient q the extreme layers of a = q*b cannot cancel,
    # so every term of q has base in [minB(a)/minB(b), maxB(a)/maxB(b)] and
    # G-power in [minP(a)-minP(b), maxP(a)-maxP(b)].  A candidate outside
    # either interval proves the division inexact.
    pows_a = [t.gpow for t in a.terms]
    pows_b = [t.gpow for t in b.terms]
    # Terms are sorted by base first, so the extreme bases are the end terms.
    base_lo = _div(a.terms[-1].base, b.terms[-1].base)
    base_hi = _div(a.terms[0].base, b.terms[0].base)
    pow_lo = min(pows_a) - min(pows_b)
    pow_hi = max(pows_a) - max(pows_b)

    lead = b.terms[0]
    quotient: list = []
    rest = a
    while rest.terms:
        t = _divide_term(rest.terms[0], lead)
        if not (base_lo <= t.base <= base_hi and pow_lo <= t.gpow <= pow_hi):
            raise NotExactlyDivisible(f"({a}) is not exactly divisible by ({b})")
        quotient.append(t)
        rest = rest - GrossNumber((t,)) * b
    # The lead key of ``rest`` falls at every step, so the quotient terms
    # are already distinct, descending and nonzero.
    return GrossNumber(tuple(quotient))


def _power(x: RationalLike, k: int) -> RationalLike:
    """``x ** k`` in canonical form, refused when a lower bound on its size
    (0 for x = ±1) passes ``MAX_POWER_BITS``."""
    if (max(abs(x.numerator), x.denominator).bit_length() - 1) * abs(k) > MAX_POWER_BITS:
        raise TooLarge(f"a power would need more than {MAX_POWER_BITS} bits")
    # A negative power of an int would be a float.
    return _q((x if k >= 0 else Fraction(x)) ** k)


def pow_int(a: GrossNumber, k: int) -> GrossNumber:
    """Exact integer power; ``a**0 == 1`` for nonzero ``a``."""
    if k == 0:
        if not a.terms:
            raise ZeroToZero("0^0 is undefined")
        return ONE
    if not a.terms:
        if k < 0:
            raise DivisionByZero("zero has no negative powers")
        return ZERO
    if len(a.terms) == 1:
        t = a.terms[0]
        return GrossNumber((GrossTerm(_power(t.coeff, k), _power(t.base, k), _q(t.gpow * k)),))
    if k < 0:
        raise NegativePowerOfSum(f"({a})^{k}: negative powers need a single term")
    result = ONE
    square = a
    while k:
        if k & 1:
            result = result * square
        k >>= 1
        if k:
            square = square * square
    return result


def linear_gross_parts(e: GrossNumber) -> Tuple[int, int]:
    """Decompose ``e = a*G + d`` with integer a, d, or reject the shape."""
    parts = {_ONE: 0, _ZERO: 0}  # G-power -> integer coefficient
    for t in e.terms:
        if t.base != 1 or t.gpow not in parts or t.coeff.denominator != 1:
            raise ExponentNotLinearInGrossone(f"exponent {e} is not of the form a*G + d")
        parts[t.gpow] = int(t.coeff)
    return parts[_ONE], parts[_ZERO]


def exp_gross(b: RationalLike, e) -> GrossNumber:
    """Raise a rational base to a gross-integer exponent of shape ``a*G + d``.

    The result is the single term ``b**d * (b**a)**G``.  Base 0 is admitted
    only with a positive exponent, realizing the axiom ``0**G == 0``.
    """
    base = _rational(b)
    e = gnum(e)
    a, d = linear_gross_parts(e)
    if base == 0:
        if e.sign() > 0:
            return ZERO
        if not e.terms:
            raise ZeroToZero("0^0 is undefined")
        raise DivisionByZero("zero has no negative powers")
    if base < 0:
        raise NotPositive("exponential base must be nonnegative")
    return GrossNumber((GrossTerm(_power(base, d), _power(base, a), _ZERO),))


def floor_div_mod(x: GrossNumber, n: int) -> Tuple[GrossNumber, int]:
    """Euclidean division of a gross-integer by a finite positive integer.

    The remainder comes from the constant term alone; every non-constant term
    is exactly divisible by ``n`` thanks to the divisibility axiom.
    """
    if n <= 0:
        raise DivisionByZero("modulus must be a positive integer")
    if not x.is_gross_integer():
        raise NotAGrossInteger(f"{x} is not a gross-integer")
    r = int(x.constant_coeff()) % n
    return (x - r) / n, r


def _iroot_exact(k: int, n: int):
    """Exact integer n-th root of ``k``, or None; a negative ``k`` has one
    only for odd ``n``."""
    if k < 0:
        r = _iroot_exact(-k, n) if n % 2 else None
        return None if r is None else -r
    if k in (0, 1) or n == 1:
        return k
    x = 1 << ((k.bit_length() + n - 1) // n)
    while True:
        y = ((n - 1) * x + k // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x if x ** n == k else None


def _ordinal(n: int) -> str:
    """``n`` as an English ordinal: 2nd, 3rd, 11th, 21st."""
    suffix = "th" if 11 <= n % 100 <= 13 else {1: "st", 2: "nd", 3: "rd"}.get(n % 10, "th")
    return f"{n}{suffix}"


def nth_root(a: GrossNumber, n: int) -> GrossNumber:
    """Exact n-th root of a single-term number with a perfect-power coefficient."""
    if n <= 0:
        raise NotPositive("root degree must be a positive integer")
    if not a.terms:
        return ZERO
    if len(a.terms) != 1:
        raise NotAMonomial(f"nth_root needs a single term, got {a}")
    t = a.terms[0]
    if n == 1:
        return a
    if t.base != 1:
        raise BaseRootUnsupported(f"cannot take a root of the factor {t.base}^G")
    num = _iroot_exact(t.coeff.numerator, n)
    den = _iroot_exact(t.coeff.denominator, n)
    if num is None or den is None:
        raise CoefficientNotPerfectPower(f"{t.coeff} is not a perfect {_ordinal(n)} power")
    return GrossNumber((GrossTerm(_div(num, den), _ONE, _div(t.gpow, n)),))


# -- canonical rendering -------------------------------------------------------

def _coeff_str(c: RationalLike) -> str:
    # A coefficient, exponential base or G-power; fractions are parenthesized
    # so the string reparses with the same precedence.
    if c.denominator == 1:
        return str(c.numerator)
    return f"({c.numerator}/{c.denominator})"


def _term_str(t: GrossTerm) -> str:
    # Renders |coeff| * factors; the caller supplies the sign.
    c = abs(t.coeff)
    factors = []
    if t.base != 1:
        factors.append(_coeff_str(t.base) + "^G")
    if t.gpow != 0:
        factors.append("G" if t.gpow == 1 else "G^" + _coeff_str(t.gpow))
    if not factors:
        return str(c)
    if c != 1:
        factors.insert(0, _coeff_str(c))
    return "*".join(factors)


def format_number(a: GrossNumber) -> str:
    """Canonical string form; injective on canonical values and reparseable."""
    if not a.terms:
        return "0"
    first = a.terms[0]
    try:
        out = ("-" if first.coeff < 0 else "") + _term_str(first)
        for t in a.terms[1:]:
            out += " - " if t.coeff < 0 else " + "
            out += _term_str(t)
    except ValueError:  # str() of an int past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        raise TooManyDigits(f"cannot print a number with more than {limit} digits") from None
    return out

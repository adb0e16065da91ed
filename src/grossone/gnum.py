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

A :class:`GrossNumber` is the tuple of its canonical terms, each a
:class:`GrossTerm`: ``len`` counts them, iteration and indexing give them from
the leading term down, and the empty tuple is zero.  The ``terms`` property
gives them as a plain ``tuple``, which no number equals or is ordered against.

Everything here is immutable and every operation is a pure function, so values
can be shared freely across threads.  The one shared state is the cache of
bases and G-powers behind ``_key``, on which no result depends.
"""

from __future__ import annotations

from _thread import allocate_lock
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
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
    NotRational,
    TooLarge,
    TooManyDigits,
    TooManyTerms,
    ZeroToZero,
)

RationalLike = Union[int, Fraction]

_FINITE_KEY = (1, 0)

# Builds a GrossTerm as ``_new(GrossTerm, (c, b, p))`` without the Python-level
# ``__new__`` frame of a NamedTuple; only for fields already in canonical form.
_new = tuple.__new__

#: The most bits ``pow_int`` (of a single term), ``exp_gross`` and
#: ``eval_at`` let one power of a rational need; a larger power is refused
#: with :class:`TooLarge` before it is built.  ``pow_int`` of a sum refuses
#: a squaring or product whose coefficients may need more.
MAX_POWER_BITS = 1 << 20

#: ``eval_at`` sums a term in ints while the size bound of its powers is at
#: most this many bits, and as a Fraction past it.  Timed with CPython 3.11
#: on a 2-core x86-64 VM, ``5 + 7 * (3/2)^t`` cost the same both ways near
#: 512 bits; at 4096 bits the ints took 3.7 times as long, for the gcd that
#: ``Fraction(n, d)`` takes.
INT_POWER_BITS = 512

#: The most pairwise term products ``*`` builds for one product of sums,
#: ``len(x) * len(y)``; a larger product is refused with
#: :class:`TooManyTerms` before any term is built.  Squaring a sum doubles
#: its term count, so this ends nested ``tri`` and powers of sums such as
#: ``(G+1)^100000`` after a few cheap steps.
MAX_PRODUCT_TERMS = 1 << 16


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


def _ratio(n: int, d: int) -> RationalLike:
    """The exact quotient of the ints ``n / d`` in canonical form: ``n // d``
    when ``d`` divides ``n``, a ``Fraction`` only otherwise."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


# Key fields are shared.  Every exponential base and G-power the kernel
# builds comes from ``_key``, which returns the int, or the one Fraction it
# keeps for that value, so equal keys are mostly one object and the ``is``
# tests of ``_add`` and ``compare`` decide them without reading numerators
# and denominators.  Correctness never depends on it: a key built elsewhere,
# too wide to keep, or built again after the cache was emptied is a distinct
# object of equal value, and every comparison falls back to the values.
# Coefficients are never shared.
#
# ``_KEYS`` maps the pair ``(n, d)`` a caller computed, reduced or not, to
# the canonical value of ``n / d``.  It holds at most ``KEYS_MAX`` pairs and
# is emptied when full; a value whose pair is wider than ``KEY_BITS`` bits is
# built and not kept.  Writers take the lock, so threads keep the bound.
_KEYS: dict = {}
_KEYS_LOCK = allocate_lock()
KEYS_MAX = 1 << 10
KEY_BITS = 64


def _key(n: int, d: int) -> RationalLike:
    """The base or G-power ``n / d``, for ints with ``d > 0``, in canonical
    form: ``n // d`` when ``d`` divides ``n``, else the Fraction ``_KEYS``
    keeps for that value."""
    k = (n, d)
    x = _KEYS.get(k)
    if x is None:
        x = _ratio(n, d)
        if n.bit_length() <= KEY_BITS and d.bit_length() <= KEY_BITS:
            with _KEYS_LOCK:
                if len(_KEYS) + 2 > KEYS_MAX:
                    _KEYS.clear()
                if type(x) is not int:
                    x = _KEYS.setdefault((x.numerator, x.denominator), x)
                _KEYS[k] = x
    return x


def _shared(x: RationalLike) -> RationalLike:
    """A base or G-power already in canonical form, as ``_key`` keeps it; an
    int, or a Fraction too wide to keep, as it is."""
    if type(x) is int or x.numerator.bit_length() > KEY_BITS or x.denominator.bit_length() > KEY_BITS:
        return x
    return _key(x.numerator, x.denominator)


def _rational(x: RationalLike) -> RationalLike:
    """An ``int`` or a ``Fraction`` in canonical form; no floats, no strings."""
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"expected an int or a Fraction, got {type(x).__name__}")
    return _q(x)


def _integer(x: RationalLike) -> int:
    """An ``int``, or an integral ``Fraction`` as its ``int``; a float, a
    string or any other rational is refused with ``TypeError``."""
    x = _rational(x)
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x}")
    return x


def term(coeff: RationalLike, base: RationalLike = 1, gpow: RationalLike = 0) -> GrossTerm:
    """Build a term, coercing arguments to exact rationals."""
    b = _rational(base)
    if b <= 0:
        raise NotPositive("exponential base must be positive")
    return GrossTerm(_rational(coeff), _shared(b), _shared(_rational(gpow)))


def _operator(fn, tuples=None):
    """A binary dunder: ``fn(self, gnum(other))`` for a gross-number or
    rational ``other``, ``NotImplemented`` for anything else but a plain tuple,
    which ``tuples`` answers for a comparison: a number is a tuple, and tuple's
    own reflected comparison would answer by the terms (``ZERO == ()``)."""

    def method(self, other):
        if type(other) is GrossNumber:
            return fn(self, other)
        if not isinstance(other, (GrossNumber, int, Fraction)):
            return tuples(self, other) if tuples and isinstance(other, tuple) else NotImplemented
        return fn(self, gnum(other))

    return method


def _unordered(a, b):
    raise TypeError(f"a GrossNumber and a {type(b).__name__} are not ordered")


def _add(x: "GrossNumber", y: "GrossNumber", subtract: bool = False) -> "GrossNumber":
    """``x + y``, or ``x - y``, by one merge of the two canonical term tuples.

    Both tuples descend by ``(base, gpow)``, so the sum is column addition:
    an unmatched term is kept as it is (negated when it is taken from ``y``
    of a difference), and the coefficients of equal keys are added or
    subtracted, with the term dropped when they cancel.
    """
    if not y:
        return x
    if not x:
        return -y if subtract else y
    out = []
    n, m = len(x), len(y)
    i = j = 0
    s, t = x[0], y[0]
    while True:
        # Fields by index: (coeff, base, gpow).  One object, or two ints,
        # compare as they are (the identity test spares the type tests where
        # both bases are the int 1); any other pair as the ints sn*td and
        # tn*sd, with positive denominators, so no Fraction comparison runs.
        # Once the bases, or failing them the G-powers, differ, u > v decides.
        u, v = s[1], t[1]
        if u is not v and (type(u) is not int or type(v) is not int):
            u, v = u.numerator * v.denominator, v.numerator * u.denominator
        if u is v or u == v:
            u, v = s[2], t[2]
            if u is not v and (type(u) is not int or type(v) is not int):
                u, v = u.numerator * v.denominator, v.numerator * u.denominator
            if u is v or u == v:
                # The coefficients add over the common denominator d.
                u, v, d = s[0], t[0], 1
                if type(u) is not int or type(v) is not int:
                    d = u.denominator * v.denominator
                    u, v = u.numerator * v.denominator, v.numerator * u.denominator
                c = u - v if subtract else u + v
                if c:
                    out.append(_new(GrossTerm, (c if d == 1 else _ratio(c, d), s[1], s[2])))
                i += 1
                j += 1
                if i == n or j == m:
                    break
                s, t = x[i], y[j]
                continue
        if u > v:
            out.append(s)
            i += 1
            if i == n:
                break
            s = x[i]
        else:
            out.append(_new(GrossTerm, (-t[0], t[1], t[2])) if subtract else t)
            j += 1
            if j == m:
                break
            t = y[j]
    out += x[i:]
    out += [_new(GrossTerm, (-t[0], t[1], t[2])) for t in y[j:]] if subtract else y[j:]
    return GrossNumber(out)


def _times(u: RationalLike, v: RationalLike, ratio=_ratio) -> RationalLike:
    """``u * v`` in canonical form, with no Fraction arithmetic: two ints
    multiply, a factor 1 gives the other factor as it stands, and any other
    pair goes through ``ratio`` on numerators and denominators: ``_ratio``
    for a coefficient, ``_key`` for a base."""
    if type(u) is int:
        if type(v) is int:
            return u * v
        if u == 1:
            return v
    elif type(v) is int and v == 1:
        return u
    return ratio(u.numerator * v.numerator, u.denominator * v.denominator)


def _plus(u: RationalLike, v: RationalLike) -> RationalLike:
    """``u + v`` of two G-powers in canonical form, through ``_key``, with
    no Fraction arithmetic."""
    if type(u) is int and type(v) is int:
        return u + v
    return _key(u.numerator * v.denominator + v.numerator * u.denominator,
                u.denominator * v.denominator)


def _scale(x, c: RationalLike, B: RationalLike, p: RationalLike) -> "GrossNumber":
    """The terms ``x`` times the one term ``c * B**G * G**p`` (``c`` nonzero,
    ``B`` positive), with no merge: one positive factor on every base and one
    shift of every G-power keep the key order, and nonzero coefficients have a
    nonzero product.  A loop, as a comprehension before Python 3.12 is a
    frame of its own, with a cell for each of ``c``, ``B`` and ``p``."""
    out = []
    for xc, xb, xp in x:
        out.append(_new(GrossTerm, (_times(xc, c), _times(xb, B, _key), _plus(xp, p))))
    return GrossNumber(out)


def div_exact(a: GrossNumber, b: GrossNumber) -> GrossNumber:
    """Exact quotient of gross-numbers.

    A single-term divisor scales ``a`` by its inverse.  Otherwise graded long
    division runs in descending key order and must leave remainder zero; the
    quotient-term bounds below make inexactness detectable in finitely many
    steps.  No approximate expansion (e.g. of ``1/(G+1)``) is ever produced.
    Fields are computed on int numerators and denominators; a ``Fraction``
    is built only for one that is not integral.
    """
    if not b:
        raise DivisionByZero("division by zero")
    if not a:
        return ZERO
    lc, lb, lp = b[0]
    lcn, lcd, lbn, lbd = lc.numerator, lc.denominator, lb.numerator, lb.denominator
    nlp = -lp
    if len(b) == 1:
        return _scale(a, _ratio(lcd, lcn), _key(lbd, lbn), nlp)

    # For an exact quotient q the extreme layers of a = q*b cannot cancel,
    # so every term of q has base in [minB(a)/minB(b), maxB(a)/maxB(b)] and
    # G-power in [minP(a)-minP(b), maxP(a)-maxP(b)].  A candidate outside
    # either interval proves the division inexact.  Terms are sorted by base
    # first, so the extreme bases are the end terms; the base bounds are
    # kept as int pairs (lo_n/lo_d, hi_n/hi_d) with positive denominators.
    lo_a, lo_b, hi_a = a[-1][1], b[-1][1], a[0][1]
    lo_n, lo_d = lo_a.numerator * lo_b.denominator, lo_a.denominator * lo_b.numerator
    hi_n, hi_d = hi_a.numerator * lbd, hi_a.denominator * lbn
    pow_lo = min([t[2] for t in a]) - min([t[2] for t in b])
    pow_hi = max([t[2] for t in a]) - max([t[2] for t in b])

    tail = b[1:]
    low = a[-1]
    quotient: list = []
    rest = a
    while rest:
        # Trailing-term refusal, the cheap half of bidirectional exact
        # division (Krandick and Jebelean, 1996).  The key order is
        # compatible with multiplication, so the lowest term of a product
        # q*b is q_low * b_low, with no cancellation.  While an exact
        # division runs, rest equals the quotient terms not yet found times
        # b, and q_low is among them; so rest's lowest term is always a's.
        if rest[-1] != low:
            raise NotExactlyDivisible(a, b)
        # The next quotient term c/lc * (B/lb)^G * G^(p-lp), as cn/cd, bn/bd.
        c, B, p = rest[0]
        cn, cd = c.numerator * lcd, c.denominator * lcn
        bn, bd = B.numerator * lbd, B.denominator * lbn
        p = _plus(p, nlp)
        if not (lo_n * bd <= bn * lo_d and bn * hi_d <= hi_n * bd and pow_lo <= p <= pow_hi):
            raise NotExactlyDivisible(a, b)
        qb = _key(bn, bd)
        quotient.append(_new(GrossTerm, (_ratio(cn, cd), qb, p)))
        # rest - t*b in one merge: t*lead cancels rest's lead term exactly.
        rest = GrossNumber(rest[1:]) + _scale(tail, _ratio(-cn, cd), qb, p)
    # The lead key of ``rest`` falls at every step, so the quotient terms
    # are already distinct, descending and nonzero.
    return GrossNumber(quotient)


class GrossNumber(tuple):
    """Canonical finite sum: the tuple of its :class:`GrossTerm` items, built
    from terms already in canonical form; the empty sum is zero."""

    __slots__ = ()

    terms = property(tuple, doc="The terms as a plain ``tuple``.")

    # -- ring structure -------------------------------------------------

    __add__ = __radd__ = _operator(_add)
    __sub__ = _operator(lambda a, b: _add(a, b, True))
    __rsub__ = _operator(lambda a, b: _add(b, a, True))
    __truediv__ = _operator(div_exact)
    __rtruediv__ = _operator(lambda a, b: div_exact(b, a))

    @_operator
    def __mul__(self, other):
        # A nonzero number times one term scales its terms in order; two
        # sums, or a zero side, build the pairwise products and merge them.
        if len(other) == 1 and self:
            return _scale(self, *other[0])
        if len(self) == 1 and other:
            return _scale(other, *self[0])
        if len(self) * len(other) > MAX_PRODUCT_TERMS:
            raise TooManyTerms(MAX_PRODUCT_TERMS)
        return normalize((_times(ca, cb), _times(ba, bb, _key), _plus(pa, pb))
                         for ca, ba, pa in self for cb, bb, pb in other)

    __rmul__ = __mul__

    def __neg__(self) -> "GrossNumber":
        return GrossNumber([_new(GrossTerm, (-c, b, p)) for c, b, p in self])

    def __pow__(self, k):
        # p/q as the language's ^ takes it: an exact power, then a q-th root.
        if isinstance(k, Fraction) and k.denominator != 1:
            return nth_root(pow_int(self, k.numerator), k.denominator)
        if not isinstance(k, (int, Fraction)):
            return NotImplemented
        return pow_int(self, int(k))

    # -- order ------------------------------------------------------------

    def sign(self) -> int:
        if not self:
            return 0
        return 1 if self[0].coeff.numerator > 0 else -1

    # A number equals only numbers and rationals, as it hashes; tuple's own
    # != would also answer gnum(3) != 3 with True.
    __eq__ = _operator(tuple.__eq__, lambda a, b: False)
    __ne__ = _operator(tuple.__ne__, lambda a, b: True)
    __lt__ = _operator(lambda a, b: compare(a, b) < 0, _unordered)
    __le__ = _operator(lambda a, b: compare(a, b) <= 0, _unordered)
    __gt__ = _operator(lambda a, b: compare(a, b) > 0, _unordered)
    __ge__ = _operator(lambda a, b: compare(a, b) >= 0, _unordered)

    def __hash__(self):
        # Equal values hash alike, and a finite pure number equals its rational.
        if self.classify() in (NumberClass.ZERO, NumberClass.FINITE_PURE):
            return hash(self.as_rational())
        return tuple.__hash__(self)

    # -- structure queries ---------------------------------------------

    def classify(self) -> NumberClass:
        if not self:
            return NumberClass.ZERO
        _, base, gpow = self[0]  # the lead term decides, as key (base, gpow) orders
        if base > 1 or (base == 1 and gpow > 0):
            return NumberClass.INFINITE
        if base == 1 and gpow == 0:
            if len(self) > 1:
                return NumberClass.FINITE_WITH_INFINITESIMAL_PART
            return NumberClass.FINITE_PURE
        return NumberClass.INFINITESIMAL

    def infinite_part(self) -> "GrossNumber":
        return GrossNumber(t for t in self if t.key > _FINITE_KEY)

    def finite_part(self) -> "GrossNumber":
        return GrossNumber(t for t in self if t.key == _FINITE_KEY)

    def infinitesimal_part(self) -> "GrossNumber":
        return GrossNumber(t for t in self if t.key < _FINITE_KEY)

    def is_gross_integer(self) -> bool:
        """Whether this value denotes an integer under the divisibility axiom.

        Requires base 1 and nonnegative integer G-powers everywhere; the
        constant term must have an integer coefficient.  Non-constant terms
        may carry any rational coefficient because G is divisible by every
        finite positive integer.
        """
        for t in self:
            if t.base != 1:
                return False
            if t.gpow.denominator != 1 or t.gpow < 0:
                return False
            if t.gpow == 0 and t.coeff.denominator != 1:
                return False
        return True

    def constant_coeff(self) -> RationalLike:
        for t in self:
            if t.key == _FINITE_KEY:
                return t.coeff
        return 0

    def parity(self) -> Parity:
        if not self.is_gross_integer():
            raise NotAGrossInteger(self)
        # G is a multiple of every finite 2n, so every non-constant term is
        # even; only the constant decides.
        c = int(self.constant_coeff())
        return Parity.EVEN if c % 2 == 0 else Parity.ODD

    def as_rational(self) -> RationalLike:
        """The exact rational value of a finite pure number, an ``int`` when
        it is integral."""
        if not self:
            return 0
        if len(self) == 1 and self[0].key == _FINITE_KEY:
            return self[0].coeff
        raise NotRational(self)

    def eval_at(self, t: int) -> Fraction:
        """Substitute the finite integer ``t`` for G and evaluate exactly."""
        t = t if type(t) is int else _integer(t)
        if t <= 0:
            raise NotPositive("substitution point must be a positive integer")
        # Terms are summed in ints as num / den, over the lcm of their
        # denominators, with one Fraction built at the end; a term whose
        # powers may pass INT_POWER_BITS is summed as a Fraction.  Each
        # power is refused with TooLarge before it is built.
        num, den, large = 0, 1, 0
        for c, b, p in self:
            if type(p) is not int:
                raise FractionalGrossPower(gnum(p))
            bn, bd = b.numerator, b.denominator  # equal only for b == 1
            bits = _check_power(bn, bd, t) if bn != bd else 0
            if p:
                bits += _check_power(t, 1, p)
            if bits > INT_POWER_BITS:
                large += c * Fraction(b) ** t * Fraction(t) ** p
                continue
            n, d = c.numerator, c.denominator
            if bn != bd:
                n *= bn ** t
                d *= bd ** t
            if p > 0:
                n *= t ** p
            elif p:
                d *= t ** -p
            if d == den:
                num += n
            else:
                m = lcm(den, d)
                num = num * (m // den) + n * (m // d)
                den = m
        return Fraction(num, den) + large if large else Fraction(num, den)

    # -- rendering --------------------------------------------------------

    def __str__(self) -> str:
        return format_number(self)

    def __repr__(self) -> str:
        return f"GrossNumber({str(self)!r})"


ZERO = GrossNumber()
ONE = GrossNumber((GrossTerm(1, 1, 0),))
GROSSONE = GrossNumber((GrossTerm(1, 1, 1),))
G = GROSSONE


def gnum(value: Union[RationalLike, GrossNumber]) -> GrossNumber:
    """A rational as a gross-number; a gross-number is returned unchanged."""
    if isinstance(value, GrossNumber):
        return value
    c = value if type(value) is int else _rational(value)
    return GrossNumber((_new(GrossTerm, (c, 1, 0)),) if c else ())


def normalize(raw: Iterable[Tuple[RationalLike, RationalLike, RationalLike]]) -> GrossNumber:
    """Merge equal keys, drop zero coefficients, sort descending; idempotent.

    The builder for terms in any order, such as the pairwise products of
    ``*`` and the operands' terms of a chain of three or more ``+``/``-``
    operands in the expression language; ``+`` of two numbers merges their
    canonical tuples without it.  ``raw`` yields
    ``(coeff, base, gpow)`` triples, such as :class:`GrossTerm`, of ``int``s
    and ``Fraction``s; the result holds them in canonical form.
    """
    # Keyed on the four ints of base and G-power, which hash far faster than
    # two Fractions; each entry is the running [num, den, base, gpow], the
    # coefficient summed as num / den over the lcm of its denominators, with
    # an integral base or G-power taken from the key as an int.  An int
    # coefficient adds to an entry of den 1 as it is.
    merged: dict = {}
    for c, b, p in raw:
        k = (b.numerator, b.denominator, p.numerator, p.denominator)
        entry = merged.get(k)
        if entry is None:
            entry = merged[k] = [c, 1, k[0] if k[1] == 1 else b, k[2] if k[3] == 1 else p]
            if type(c) is not int:
                entry[0], entry[1] = c.numerator, c.denominator
        elif type(c) is int and entry[1] == 1:
            entry[0] += c
        else:
            n, d, e = c.numerator, c.denominator, entry[1]
            if d == e:
                entry[0] += n
            else:
                g = gcd(d, e)
                entry[0] = entry[0] * (d // g) + n * (e // g)
                entry[1] = e // g * d
    entries = merged.values()
    if len(merged) > 1:
        # Over the common denominators, the scaled numerators order the keys
        # as the Fractions do, and compare as plain ints; keys of all-int
        # bases and G-powers, (bn, 1, pn, 1), are in that order as they are.
        lb = lcm(*(k[1] for k in merged))
        lp = lcm(*(k[3] for k in merged))
        entries = [merged[k] for k in sorted(merged, reverse=True, key=None if lb == lp == 1 else (
            lambda k: (k[0] * (lb // k[1]), k[2] * (lp // k[3]))))]
    return GrossNumber([
        _new(GrossTerm, (n if d == 1 else _ratio(n, d), b, p)) for n, d, b, p in entries if n])


def compare(a: GrossNumber, b) -> int:
    """-1, 0 or +1 as ``a`` is less than, equal to, or greater than ``b``.

    Reads both canonical term tuples from the top down, as the sign of
    ``a - b`` is decided by the first term where they differ.  Fields are
    compared as ``_add`` compares them, on ints, in the order base, G-power,
    coefficient; the sign of a coefficient is that of its numerator.
    """
    b = gnum(b)
    for s, t in zip(a, b):
        u, v = s[1], t[1]
        if u is not v and (type(u) is not int or type(v) is not int):
            u, v = u.numerator * v.denominator, v.numerator * u.denominator
        if u is v or u == v:
            u, v = s[2], t[2]
            if u is not v and (type(u) is not int or type(v) is not int):
                u, v = u.numerator * v.denominator, v.numerator * u.denominator
            if u is v or u == v:
                u, v = s[0], t[0]
                if u is not v and (type(u) is not int or type(v) is not int):
                    u, v = u.numerator * v.denominator, v.numerator * u.denominator
                if u is v or u == v:
                    continue
                return 1 if u > v else -1
        # The keys differ: the term of the larger key decides.
        if u > v:
            return 1 if s[0].numerator > 0 else -1
        return -1 if t[0].numerator > 0 else 1
    if len(a) > len(b):
        return 1 if a[len(b)][0].numerator > 0 else -1
    if len(b) > len(a):
        return -1 if b[len(a)][0].numerator > 0 else 1
    return 0


parity = GrossNumber.parity
eval_at = GrossNumber.eval_at


# -- powers and roots ---------------------------------------------------------

def _check_power(n: int, d: int, k: int) -> int:
    """A lower bound on the bits of ``(n/d) ** k`` (0 for ``n/d = ±1``), for a
    positive ``d``; refused with :class:`TooLarge` past ``MAX_POWER_BITS``."""
    bits = (max(abs(n), d).bit_length() - 1) * abs(k)
    if bits > MAX_POWER_BITS:
        raise TooLarge(MAX_POWER_BITS)
    return bits


def _power(x: RationalLike, k: int) -> RationalLike:
    """``x ** k`` in canonical form, refused by :func:`_check_power`."""
    if x == 1:
        return 1
    _check_power(x.numerator, x.denominator, k)
    # A negative power of an int would be a float.
    return _q((x if k >= 0 else Fraction(x)) ** k)


def pow_int(a: GrossNumber, k: int) -> GrossNumber:
    """Exact integer power; ``a**0 == 1`` for nonzero ``a``."""
    k = k if type(k) is int else _integer(k)
    if k == 0:
        if not a:
            raise ZeroToZero("0^0 is undefined")
        return ONE
    if not a:
        if k < 0:
            raise DivisionByZero("zero has no negative powers")
        return ZERO
    if len(a) == 1:
        c, b, p = a[0]
        # 1 to any power is 1, and an int G-power times k is an int.
        c, b = (c if c == 1 else _power(c, k)), (b if b == 1 else _shared(_power(b, k)))
        return GrossNumber((_new(GrossTerm, (
            c, b, p * k if type(p) is int else _key(p.numerator * k, p.denominator))),))
    if k < 0:
        raise NegativePowerOfSum(a, k)
    # The first and last terms of a**k are those of a to the k-th power, as
    # no other product reaches their keys; refuse their fields at once.
    for c, b, _ in (a[0], a[-1]):
        _check_power(c.numerator, c.denominator, k)
        _check_power(b.numerator, b.denominator, k)
    result = ONE
    square = a
    while k:
        if k & 1:
            _check_product(result, square)
            result = result * square
        k >>= 1
        if k:
            _check_product(square, square)
            square = square * square
    return result


def _field_bits(a: GrossNumber) -> int:
    """The most bits of any numerator or denominator among ``a``'s fields (0 for zero)."""
    fields = 0  # their OR has the bit length of their largest
    for c, b, p in a:
        fields |= (abs(c.numerator) | c.denominator | b.numerator | b.denominator
                   | abs(p.numerator) | p.denominator)
    return fields.bit_length()


def _check_product(x: GrossNumber, y: GrossNumber) -> None:
    """Refuse ``x * y`` with :class:`TooLarge` when its largest field may
    need more than ``MAX_POWER_BITS`` bits, estimated as the bits of the
    largest field of each factor together, plus the bits of the number of
    term products that may add into one coefficient."""
    bits = _field_bits(x) + _field_bits(y) + min(len(x), len(y)).bit_length()
    if bits > MAX_POWER_BITS:
        raise TooLarge(MAX_POWER_BITS)


def linear_gross_parts(e: GrossNumber) -> Tuple[int, int]:
    """Decompose ``e = a*G + d`` with integer a, d, or reject the shape."""
    parts = {1: 0, 0: 0}  # G-power -> integer coefficient
    for t in e:
        if t.base != 1 or t.gpow not in parts or t.coeff.denominator != 1:
            raise ExponentNotLinearInGrossone(e)
        parts[t.gpow] = int(t.coeff)
    return parts[1], parts[0]


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
        if not e:
            raise ZeroToZero("0^0 is undefined")
        raise DivisionByZero("zero has no negative powers")
    if base < 0:
        raise NotPositive("exponential base must be nonnegative")
    return GrossNumber((GrossTerm(_power(base, d), _shared(_power(base, a)), 0),))


def floor_div_mod(x: GrossNumber, n: int) -> Tuple[GrossNumber, int]:
    """Euclidean division of a gross-integer by a finite positive integer.

    The remainder comes from the constant term alone; every non-constant term
    is exactly divisible by ``n`` thanks to the divisibility axiom.
    """
    n = _integer(n)
    if n <= 0:
        raise DivisionByZero("modulus must be a positive integer")
    if not x.is_gross_integer():
        raise NotAGrossInteger(x)
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
    if n >= k.bit_length():  # a root r >= 2 needs 2**n <= r**n == k
        return None
    x = 1 << ((k.bit_length() + n - 1) // n)
    while True:
        y = ((n - 1) * x + k // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x if x ** n == k else None


def _ordinal_suffix(n: int) -> str:
    """The suffix of ``n`` as an English ordinal: 2nd, 3rd, 11th, 21st."""
    return "th" if 11 <= n % 100 <= 13 else {1: "st", 2: "nd", 3: "rd"}.get(n % 10, "th")


def nth_root(a: GrossNumber, n: int) -> GrossNumber:
    """Exact n-th root of a single-term number with a perfect-power coefficient."""
    n = _integer(n)
    if n <= 0:
        raise NotPositive("root degree must be a positive integer")
    if not a:
        return ZERO
    if len(a) != 1:
        raise NotAMonomial(a)
    t = a[0]
    if n == 1:
        return a
    if t.base != 1:
        raise BaseRootUnsupported(GrossNumber((GrossTerm(1, t.base, 0),)))
    num = _iroot_exact(t.coeff.numerator, n)
    den = _iroot_exact(t.coeff.denominator, n)
    if num is None or den is None:
        raise CoefficientNotPerfectPower(gnum(t.coeff), n, _ordinal_suffix(n))
    gpow = _key(t.gpow.numerator, t.gpow.denominator * n)
    return GrossNumber((GrossTerm(_ratio(num, den), 1, gpow),))


# -- canonical rendering -------------------------------------------------------

def _coeff_str(c: RationalLike) -> str:
    # A coefficient, exponential base or G-power; fractions are parenthesized
    # so the string reparses with the same precedence.
    if c.denominator == 1:
        return str(c.numerator)
    return f"({c.numerator}/{c.denominator})"


def _term_str(t: GrossTerm) -> str:
    # Renders |coeff| * factors; the caller supplies the sign.  Each field is
    # read as its numerator and denominator, so no Fraction method runs: a
    # reduced n/d is 1 exactly when n == d.
    c, b, p = t
    n, d = abs(c.numerator), c.denominator
    factors = []
    if b.numerator != b.denominator:
        factors.append(_coeff_str(b) + "^G")
    if p.numerator:
        factors.append("G" if p.numerator == p.denominator else "G^" + _coeff_str(p))
    if not factors:
        return str(n) if d == 1 else f"{n}/{d}"
    if n != d:
        factors.insert(0, str(n) if d == 1 else f"({n}/{d})")
    return "*".join(factors)


def format_number(a: GrossNumber) -> str:
    """Canonical string form; injective on canonical values and reparseable."""
    if not a:
        return "0"
    first = a[0]
    try:
        out = ("-" if first.coeff.numerator < 0 else "") + _term_str(first)
        for t in a[1:]:
            out += " - " if t.coeff.numerator < 0 else " + "
            out += _term_str(t)
    except ValueError:  # str() of an int past the interpreter's digit limit
        raise TooManyDigits() from None
    return out

"""Reference arithmetic that the benchmark checks grossone's outputs against.

Nothing here imports grossone.  A number is a dict mapping ``(base, gpow)``
to a nonzero coefficient, all :class:`~fractions.Fraction`; the empty dict is
zero.  Values are compared by substituting ``G := T`` and reducing modulo the
Mersenne prime ``P``: substitution is a ring homomorphism, so a correct sum,
product or quotient maps to the sum, product or quotient of the images, and
reduction modulo ``P`` keeps the exponential terms ``B**T`` cheap.  Ordering,
which no finite substitution decides, is checked symbolically by the sign of
the leading term.  Canonical strings are parsed and re-rendered here by the
rules the README states for ``format_number``.
"""

from __future__ import annotations

import re
from fractions import Fraction

P = (1 << 127) - 1
# G := T.  T is divisible by every modulus the corpora use (1..12) and by the
# lcm of any two of them, so every cardinality G/n is an integer at T.
T = 55440

ONE = Fraction(1)
ZERO = Fraction(0)
FINITE_KEY = (ONE, ZERO)


class OracleError(Exception):
    """A string is not in canonical form, or a value cannot be substituted."""


# -- construction -------------------------------------------------------------

def num(terms) -> dict:
    """Merge ``(coeff, base, gpow)`` triples into a number."""
    out: dict = {}
    for c, b, p in terms:
        k = (Fraction(b), Fraction(p))
        v = out.get(k, ZERO) + Fraction(c)
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def const(c) -> dict:
    return num([(c, 1, 0)])


def from_spec(spec) -> dict:
    """A number from its corpus form: rows ``[cnum, cden, bnum, bden, gpow]``."""
    return num((Fraction(cn, cd), Fraction(bn, bd), p) for cn, cd, bn, bd, p in spec)


def to_spec(a: dict) -> list:
    return [
        [c.numerator, c.denominator, b.numerator, b.denominator, int(p)]
        for (b, p), c in sorted(a.items(), reverse=True)
    ]


# -- ring operations ------------------------------------------------------------

def add(a: dict, b: dict) -> dict:
    return num([(c, *k) for k, c in a.items()] + [(c, *k) for k, c in b.items()])


def neg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def sub(a: dict, b: dict) -> dict:
    return add(a, neg(b))


def mul(a: dict, b: dict) -> dict:
    return num(
        (ca * cb, ka[0] * kb[0], ka[1] + kb[1]) for ka, ca in a.items() for kb, cb in b.items()
    )


def power(a: dict, k: int) -> dict:
    if k < 0:
        if len(a) != 1:
            raise OracleError("negative power of a sum")
        ((b, p), c), = a.items()
        return {(b ** k, p * k): c ** k}
    out = const(1)
    for _ in range(k):
        out = mul(out, a)
    return out


def div_monomial(a: dict, m: dict) -> dict:
    ((mb, mp), mc), = m.items()
    return {(b / mb, p - mp): c / mc for (b, p), c in a.items()}


def sign(a: dict) -> int:
    if not a:
        return 0
    return 1 if a[max(a)] > 0 else -1


def compare(a: dict, b: dict) -> int:
    return sign(sub(a, b))


def classify(a: dict) -> str:
    if not a:
        return "zero"
    lead = max(a)
    if lead > FINITE_KEY:
        return "infinite"
    if lead == FINITE_KEY:
        return "finite-with-infinitesimal" if len(a) > 1 else "finite"
    return "infinitesimal"


# -- substitution ---------------------------------------------------------------

def residue_of(q) -> int:
    """A rational modulo P."""
    q = Fraction(q)
    try:
        return q.numerator * pow(q.denominator, -1, P) % P
    except ValueError:
        raise OracleError(f"{q} has no residue modulo P") from None


def residue(a: dict, t: int = T) -> int:
    """The value of ``a`` at ``G := t``, modulo P."""
    total = 0
    for (b, p), c in a.items():
        if p.denominator != 1:
            raise OracleError(f"G^({p}) has no value at a non-square point")
        bt = pow(b.numerator, t, P) * pow(b.denominator, -t, P)
        total += residue_of(c) * bt * pow(t, int(p), P)
    return total % P


def exact_at(a: dict, t: int) -> Fraction:
    """The exact value of ``a`` at ``G := t``; for small t only."""
    total = ZERO
    for (b, p), c in a.items():
        if p.denominator != 1:
            raise OracleError(f"G^({p}) has no rational value")
        total += c * b ** t * Fraction(t) ** int(p)
    return total


def linear_at(a: int, d: int, t: int = T) -> int:
    """The integer ``a*G + d`` at ``G := t``."""
    return a * t + d


# -- canonical strings ------------------------------------------------------------

def _ratio_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"({q.numerator}/{q.denominator})"


def _term_str(c: Fraction, b: Fraction, p: Fraction) -> str:
    c = abs(c)
    factors = []
    if b != 1:
        factors.append(f"{_ratio_str(b)}^G")
    if p == 1:
        factors.append("G")
    elif p.denominator == 1 and p:
        factors.append(f"G^{p.numerator}")
    elif p:
        factors.append(f"G^({p.numerator}/{p.denominator})")
    if not factors:
        return str(c)
    if c != 1:
        factors.insert(0, _ratio_str(c))
    return "*".join(factors)


def render(a: dict) -> str:
    """Canonical form: terms by descending (base, gpow), signs between terms."""
    if not a:
        return "0"
    out = []
    for i, (k, c) in enumerate(sorted(a.items(), reverse=True)):
        if i == 0:
            out.append(("-" if c < 0 else "") + _term_str(c, *k))
        else:
            out.append((" - " if c < 0 else " + ") + _term_str(c, *k))
    return "".join(out)


_RATIO = re.compile(r"(\d+)|\((\d+)/(\d+)\)")
_CONST = re.compile(r"(\d+)(?:/(\d+))?")
_GPOW = re.compile(r"G(?:\^(-?\d+)|\^\((-?\d+)/(\d+)\))?")


def _ratio(text: str, pattern=_RATIO) -> Fraction:
    m = pattern.fullmatch(text)
    if not m:
        raise OracleError(f"bad rational {text!r}")
    if pattern is _CONST:
        return Fraction(int(m[1]), int(m[2] or 1))
    return Fraction(int(m[1])) if m[1] else Fraction(int(m[2]), int(m[3]))


def _parse_term(text: str):
    parts = text.split("*")
    coeff = ONE
    if len(parts) == 1 and not parts[0].endswith("^G") and not parts[0].startswith("G"):
        return _ratio(parts[0], _CONST), ONE, ZERO
    if not parts[0].endswith("^G") and not parts[0].startswith("G"):
        coeff = _ratio(parts.pop(0))
    base, gpow = ONE, ZERO
    if parts and parts[0].endswith("^G"):
        base = _ratio(parts.pop(0)[:-2])
    if parts:
        m = _GPOW.fullmatch(parts.pop(0))
        if not m:
            raise OracleError(f"bad term {text!r}")
        if m[1]:
            gpow = Fraction(int(m[1]))
        elif m[2]:
            gpow = Fraction(int(m[2]), int(m[3]))
        else:
            gpow = ONE
    if parts:
        raise OracleError(f"bad term {text!r}")
    return coeff, base, gpow


def split_terms(text: str) -> list:
    """The signed terms of a canonical string, as ``(sign, term)`` pairs."""
    body = text[1:] if text.startswith("-") else text
    pieces = re.split(r" ([+-]) ", body)
    signs = ["-" if text.startswith("-") else "+"] + pieces[1::2]
    return list(zip(signs, pieces[0::2]))


def parse(text: str) -> dict:
    """Read a canonical string back; raise OracleError unless it is canonical."""
    if text == "0":
        return {}
    out: dict = {}
    try:
        for s, piece in split_terms(text):
            c, b, p = _parse_term(piece)
            out[(b, p)] = out.get((b, p), ZERO) + (-c if s == "-" else c)
    except (ValueError, ZeroDivisionError):
        raise OracleError(f"not a canonical number: {text!r}") from None
    out = {k: c for k, c in out.items() if c}
    if render(out) != text:
        raise OracleError(f"not in canonical form: {text!r}")
    return out


# -- sets, enumerated at G := T -------------------------------------------------

def ap_range(k: int, n: int, t: int = T) -> range:
    """The k-th residue class mod n of {1..t}."""
    return range(k, t + 1, n)

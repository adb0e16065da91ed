"""The five classic puzzles, replayed with explicit infinite counts.

Each function composes the arithmetic, set and series layers into a
:class:`ParadoxReport`: a list of claims, each carrying the computed value
and the result of an exact check.  A report is RESOLVED only if every check
passed; the narratives are fixed templates, not generated prose.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Tuple

from .errors import CountNotGrossInteger, NotInfinitesimalWidth, NotPositive, TooManyNewcomers
from .gnum import G, NumberClass, Parity, exp_gross, gnum
from .series import ap_sum, geometric
from .sets import (
    GrossAP,
    ap_nat,
    cardinality,
    element_at,
    last_element,
    member,
    naturals,
    scale,
    squares_count,
)


class LampState(Enum):
    ON = "on"
    OFF = "off"

    def toggled(self) -> "LampState":
        return LampState.OFF if self is LampState.ON else LampState.ON


class Claim(NamedTuple):
    description: str
    value: str
    ok: bool


class ParadoxReport(NamedTuple):
    name: str
    claims: Tuple[Claim, ...]
    narrative: str

    @property
    def resolved(self) -> bool:
        return all(c.ok for c in self.claims)

    def __str__(self) -> str:
        lines = [f"Paradox: {self.name}"]
        for c in self.claims:
            mark = "ok" if c.ok else "FAIL"
            lines.append(f"  [{mark}] {c.description}: {c.value}")
        lines.append(f"Status: {'RESOLVED' if self.resolved else 'NOT RESOLVED'}")
        lines.append(self.narrative)
        return "\n".join(lines)

    def to_json(self) -> dict:
        claims = [{"desc": c.description, "value": c.value, "ok": c.ok} for c in self.claims]
        return {"name": self.name, "claims": claims, "resolved": self.resolved}


def galileo_report() -> ParadoxReport:
    """Counting evens and perfect squares against all naturals."""
    nat = naturals()
    ev = ap_nat(2, 2)
    half = G / 2
    claims = [
        Claim(
            "the evens number half the naturals",
            f"{cardinality(ev)} < {cardinality(nat)}",
            cardinality(ev) == half and cardinality(ev) < cardinality(nat) == G,
        ),
        Claim(
            "pairing starts at (2, 1)",
            f"({element_at(ev, 1)}, 1)",
            element_at(ev, 1) == 2,
        ),
        Claim(
            "pairing ends at (G, G/2)",
            f"({element_at(ev, half)}, {half})",
            element_at(ev, half) == G and last_element(ev) == G,
        ),
    ]
    squares = squares_count()
    upper = squares.upper_value()
    claims.append(
        Claim(
            "the squares count is bracketed below G",
            f"{squares} with {upper} < G",
            squares.bracket_ok() and upper < G,
        )
    )
    claims.append(
        Claim(
            "square pairing ends at",
            f"({squares}^2, {squares})",
            squares.bracket_ok(),
        )
    )
    return ParadoxReport(
        "galileo",
        tuple(claims),
        "Both pairings close: the evens stop at G <-> G/2 and the squares at "
        "floor(G^(1/2))^2 <-> floor(G^(1/2)), so the part stays smaller than the whole.",
    )


def multiplication_report() -> ParadoxReport:
    """Doubling every natural number keeps the element count at G."""
    nat = naturals()
    doubled = scale(nat, 2)
    tail = GrossAP(G + 2, 2, G / 2)
    claims = [
        Claim(
            "doubling preserves the count",
            f"{cardinality(doubled)} = {cardinality(nat)}",
            cardinality(doubled) == cardinality(nat) == G,
        ),
        Claim(
            "the doubled set ends at 2*G",
            str(last_element(doubled)),
            last_element(doubled) == 2 * G,
        ),
        Claim(
            "G + 2 is in the doubled set but not natural",
            f"member(doubled, G + 2) = true, member(naturals, G + 2) = false",
            member(doubled, G + 2) and not member(nat, G + 2),
        ),
        Claim(
            "exactly G/2 doubled elements exceed G",
            f"{tail} with count {cardinality(tail)}",
            cardinality(tail) == G / 2
            and element_at(tail, 1) > G
            and last_element(tail) == 2 * G,
        ),
    ]
    return ParadoxReport(
        "multiplication",
        tuple(claims),
        "All three finite-set properties survive: equal counts, escape from the "
        "original set, and G/2 elements beyond its last element.",
    )


def hilbert_accommodate(m=1) -> ParadoxReport:
    """Shift every guest up by m rooms in a hotel with exactly G rooms."""
    m = gnum(m)
    if not m.is_gross_integer() or m.sign() <= 0:
        raise TooManyNewcomers(m, message="newcomer count {} must be a positive gross-integer")
    if m > G:
        raise TooManyNewcomers(m)
    freed = GrossAP(1, 1, m)
    evicted = GrossAP(G - m + 1, 1, m)
    remaining = G - m
    claims = [
        Claim(
            "newcomers occupy the freed rooms",
            f"{freed} with count {cardinality(freed)}",
            cardinality(freed) == m,
        ),
        Claim(
            "guests of the last m rooms are evicted",
            f"{evicted}",
            cardinality(evicted) == m and last_element(evicted) == G,
        ),
        Claim(
            "occupancy is conserved",
            f"G = ({remaining}) + ({m})",
            remaining + m == G,
        ),
    ]
    return ParadoxReport(
        "hilbert",
        tuple(claims),
        "The hotel has exactly G rooms: room 1 is freed for the newcomer, but the "
        "guest of room G must go out; nothing is created from nothing.",
    )


def thomson_lamp(initial: LampState, switches=None) -> ParadoxReport:
    """Run the stated number of switch events and clock the whole procedure.

    The first switch event puts the lamp into its starting configuration (it
    is on *for* the first half minute); each later event toggles it.  So the
    lamp ends in the starting configuration when the number of switches is
    odd and in the opposite one when it is even.
    """
    switches = G if switches is None else gnum(switches)
    if switches.sign() <= 0:
        raise NotPositive("the number of switches must be positive")
    par = switches.parity()
    final = initial.toggled() if par is Parity.EVEN else initial
    elapsed = geometric(Fraction(1, 2), switches)
    direct = 1 - exp_gross(Fraction(1, 2), switches)
    claims = [
        Claim(
            f"after {switches} switches the lamp is",
            final.value,
            (final != initial) == (par is Parity.EVEN),
        ),
        Claim(
            "elapsed time",
            str(elapsed),
            elapsed == direct,
        ),
    ]
    if switches.classify() is NumberClass.INFINITE:
        gap = 1 - elapsed
        claims.append(
            Claim(
                "the minute is never completed",
                f"1 - elapsed = {gap}",
                gap.classify() is NumberClass.INFINITESIMAL and elapsed < 1,
            )
        )
    else:
        claims.append(Claim("elapsed stays below one minute", str(elapsed), elapsed < 1))
    return ParadoxReport(
        "thomson",
        tuple(claims),
        "With the number of switches stated explicitly, the final state is fixed by "
        "its parity and the switching time falls infinitesimally short of one minute.",
    )


def torricelli(h=None) -> ParadoxReport:
    """Cover both halves of a 1 x 2 rectangle with strips of infinitesimal width.

    Horizontal strips of width h cover the upper triangle, vertical strips of
    width 2h the lower one; each strip ends in a corner triangle of area h^2.
    Both coverages sum to exactly 1 for every admissible width.
    """
    h = gnum(h) if h is not None else G ** -1
    if (
        len(h) != 1
        or h[0].base != 1
        or h[0].coeff <= 0
        or h.classify() is not NumberClass.INFINITESIMAL
    ):
        raise NotInfinitesimalWidth(h)
    count = 1 / h
    if not count.is_gross_integer():
        raise CountNotGrossInteger(count)
    corner = h * (2 * h) / 2
    # Horizontal strip i: rectangle h x (2 - 2*h*i) plus one corner triangle.
    upper = ap_sum(2 * h - 2 * h * h + corner, -2 * h * h, count)
    # Vertical strip i: rectangle 2h x (1 - h*i); corners added as one batch.
    lower = ap_sum(2 * h * (1 - h), -2 * h * h, count) + count * corner
    claims = [
        Claim("strips per triangle", str(count), count == 1 / h),
        Claim("corner triangle area", str(corner), corner == h * h),
        Claim("upper triangle area", str(upper), upper == 1),
        Claim("lower triangle area", str(lower), lower == 1),
        Claim("the two areas agree", f"{upper} = {lower}", upper == lower),
    ]
    return ParadoxReport(
        "torricelli",
        tuple(claims),
        "Counting the strips with gross-numbers makes both coverages sum to exactly "
        "half the rectangle; the corner triangles account for the missing area.",
    )

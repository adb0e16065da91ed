"""Recorded kernel outcomes replay with equal field types and values.

``kernel_outputs.jsonl`` holds one ``[op, a, b, outcome]`` per line, where
``op`` is ``*``, ``/``, ``-`` or ``+``, each operand is the list of its terms
as ``[cn, cd, bn, bd, pn, pd]`` (coefficient, base and G-power as numerator
and denominator), and ``outcome`` is ``["number", terms]`` with each field as
its type name and value, or ``["error", class name, message]``.  It was
recorded before products by a single term stopped going through
``normalize``.  Its lines are the ``mul``, ``div`` and ``sub`` entries of the
first 100 rounds of perfbench's ``kernel_small`` corpus for seed 1, then hand
cases: a zero side of ``*``, ``(3/2)^G * (2/3)^G``, a sum times and divided
by a term with a ``Fraction`` coefficient, base and G-power, negative divisor
terms, ``(G+1)/(G-1)`` and long divisions whose divisor has a ``Fraction``
base.
"""

import json
from fractions import Fraction
from operator import add, mul, sub, truediv
from pathlib import Path

from grossone.gnum import normalize, term

OPS = {"*": mul, "/": truediv, "-": sub, "+": add}

CASES = [json.loads(row) for row in
         (Path(__file__).parent / "kernel_outputs.jsonl").read_text(encoding="utf-8").splitlines()]


def number(rows):
    return normalize([term(Fraction(cn, cd), Fraction(bn, bd), Fraction(pn, pd))
                      for cn, cd, bn, bd, pn, pd in rows])


def field(f):
    return [type(f).__name__, f] if type(f) is int else [type(f).__name__, f.numerator, f.denominator]


def outcome(op, x, y):
    try:
        r = OPS[op](x, y)
    except Exception as exc:  # recorded as its class and message
        return ["error", type(exc).__name__, str(exc)]
    return ["number", [[field(f) for f in t] for t in r]]


def test_the_fixture_covers_every_operation_and_outcome():
    assert len(CASES) == 434
    assert {op for op, _, _, _ in CASES} == set(OPS)
    assert {o[0] if o[0] == "number" else o[1] for _, _, _, o in CASES} == {
        "number", "NotExactlyDivisible", "DivisionByZero"}
    # A single-term side, a zero side and two sums, for each of * and /.
    for op in "*/":
        sides = {min(len(a), len(b), 2) for o, a, b, _ in CASES if o == op}
        assert sides == {0, 1, 2}


def test_every_recorded_outcome_replays_with_equal_types():
    differ = []
    for op, a, b, want in CASES:
        got = outcome(op, number(a), number(b))
        if got != want:
            differ.append((op, a, b, want, got))
    assert differ == []

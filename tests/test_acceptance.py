"""Acceptance suite: one test per criterion, exact tolerances, one printed
pass/fail line each.

Everything here is symbolic desk-scale arithmetic; the whole file is expected
to finish in well under a minute.
"""

import math
import random
from fractions import Fraction

from grossone import (
    G,
    LampState,
    NumberClass,
    eval_at,
    galileo_report,
    geometric,
    grandi,
    multiplication_report,
    powers_of_two_sum,
    thomson_lamp,
    torricelli,
    triangular,
)
from grossone.gnum import gnum
from grossone.cli import main
from grossone.exprlang import evaluate, print_value
from grossone.sets import EMPTY, ap_nat, cardinality, integers_set, intersect, scale

from conftest import (
    assert_set_matches,
    enum_integers,
    enum_residue_class,
    enum_set,
    random_number,
    sign_stabilizes,
)


def report(number: int, label: str, ok: bool):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, label


def outputs(pairs):
    return [(expr, print_value(evaluate(expr)), want) for expr, want in pairs]


def test_criterion_1_identity_suite():
    got = outputs(
        [
            ("0*G", "0"),
            ("G-G", "0"),
            ("G/G", "1"),
            ("G^0", "1"),
            ("G^-1 * G", "1"),
        ]
    )
    report(1, "identity suite evaluates to 0, 0, 1, 1, 1", all(o == w for _, o, w in got))


def test_criterion_2_set_counting():
    got = outputs(
        [
            ("card(ap(2,2))", "(1/2)*G"),
            ("card(remf(ap(1,3),{7}))", "(1/3)*G - 1"),
            ("card(addf(intersect(ap(4,5),ap(3,11)),{3,4,5}))", "(1/55)*G + 3"),
            ("card(ints())", "2*G + 1"),
            ("couples(nat(),nat())", "G^2"),
        ]
    )
    report(2, "set counting matches the exact strings", all(o == w for _, o, w in got))


def test_criterion_3_galileo():
    rep = galileo_report()
    endpoint = any("(G, (1/2)*G)" == c.value for c in rep.claims)
    squares = any("floor(G^(1/2))" in c.value for c in rep.claims)
    symbolic = print_value(evaluate("root(G,2) < G")) == "true"
    report(3, "Galileo endpoints and bracketed squares count", rep.resolved and endpoint and squares and symbolic)


def test_criterion_4_set_multiplication():
    rep = multiplication_report()
    report(4, "set-multiplication claims (i)-(iii) all pass", rep.resolved and len(rep.claims) >= 3)


def test_criterion_5_hilbert(capsys):
    code = main(["paradox", "hilbert"])
    out = capsys.readouterr().out
    ok = (
        code == 0
        and "AP(first=1, step=1, count=1)" in out
        and "AP(first=G, step=1, count=1)" in out
        and "G = (G - 1) + (1)" in out
        and "RESOLVED" in out
    )
    report(5, "Hilbert frees room 1, evicts the guest of room G, conserves G", ok)


def test_criterion_6_series():
    got = outputs(
        [
            ("x2(G)", "2^G - 1"),
            ("x2(3*G)", "8^G - 1"),
            ("grandi(G)", "0"),
            ("grandi(G-1)", "1"),
            ("grandirr(2*G)", "0"),
            ("tri(G)", "(1/2)*G^2 + (1/2)*G"),
        ]
    )
    from grossone import ramanujan_audit

    audit = ramanujan_audit()
    expected = -3 * G / 2 * (G + 1)
    ok = all(o == w for _, o, w in got) and audit.consistent and audit.lhs == audit.rhs == expected
    report(6, "series closed forms and Ramanujan audit", ok)


def test_criterion_7_torricelli():
    ok = True
    for width in (G**-1, 2 * G**-1, G**-3):
        rep = torricelli(width)
        areas = [c for c in rep.claims if "triangle area" in c.description and "corner" not in c.description]
        ok = ok and rep.resolved and all(c.value == "1" for c in areas)
    got = outputs(
        [
            ("tsum(2*G)", "2*G^-1"),
            ("tsum(3*G^2)", "3"),
            ("tsum(4*G^3)", "4*G"),
        ]
    )
    report(7, "Torricelli areas are exactly 1 and T(k) has all three regimes", ok and all(o == w for _, o, w in got))


def test_criterion_8_thomson():
    rep = thomson_lamp(LampState.ON, G)
    elapsed = geometric(Fraction(1, 2), G)
    ok = (
        rep.resolved
        and rep.claims[0].value == "off"
        and str(elapsed) == "1 - (1/2)^G"
        and (1 - elapsed).classify() is NumberClass.INFINITESIMAL
    )
    report(8, "Thomson lamp ends off with elapsed 1 - (1/2)^G", ok)


# --- criterion 9: the counted property suites --------------------------------


def test_criterion_9a_ring_axioms():
    rng = random.Random(314159)
    failures = 0
    for _ in range(1000):
        a = random_number(rng)
        b = random_number(rng)
        c = random_number(rng)
        ok = (
            a + b == b + a
            and (a + b) + c == a + (b + c)
            and a * b == b * a
            and (a * b) * c == a * (b * c)
            and a * (b + c) == a * b + a * c
            and a + 0 == a
            and a * 1 == a
            and a + (-a) == gnum(0)
        )
        failures += 0 if ok else 1
    report(9, f"ring axioms on 1000 random triples ({failures} failures)", failures == 0)


def test_criterion_9b_order_evaluation_consistency():
    rng = random.Random(271828)
    checked = 0
    failures = 0
    while checked < 500:
        a = random_number(rng, coeff_bound=100)
        b = random_number(rng, coeff_bound=100)
        if a == b:
            continue
        checked += 1
        if not sign_stabilizes(a - b):
            failures += 1
    report(9, f"order vs evaluation on 500 pairs, doubling sweep to 2^20 ({failures} failures)", failures == 0)


def test_criterion_9c_substitution_oracle():
    mismatches = 0
    for t in (660, 55440):
        steps = [n for n in range(1, 13) if t % n == 0]
        for n in steps:
            union = set()
            for k in range(1, n + 1):
                expected = enum_residue_class(k, n, t)
                try:
                    assert_set_matches(ap_nat(k, n), expected, t)
                except AssertionError:
                    mismatches += 1
                union |= expected
            if union != set(range(1, t + 1)):
                mismatches += 1
        for n1 in steps:
            for n2 in steps:
                if t % math.lcm(n1, n2) != 0:
                    continue
                s = intersect(ap_nat(n1, n1), ap_nat(n2, n2))
                expected = enum_residue_class(n1, n1, t) & enum_residue_class(n2, n2, t)
                try:
                    if s is EMPTY:
                        assert expected == set()
                    else:
                        assert_set_matches(s, expected, t)
                except AssertionError:
                    mismatches += 1
        for m in (2, 3, 5):
            for n in steps:
                s = scale(ap_nat(1, n), m)
                expected = {m * x for x in enum_residue_class(1, n, t)}
                try:
                    assert_set_matches(s, expected, t)
                except AssertionError:
                    mismatches += 1
        if enum_set(integers_set(), t) != enum_integers(t):
            mismatches += 1
        if eval_at(cardinality(integers_set()), t) != 2 * t + 1:
            mismatches += 1
    report(9, f"finite-substitution oracle at t in {{660, 55440}} ({mismatches} mismatches)", mismatches == 0)


def test_criterion_9d_series_against_direct_summation():
    ok = True
    for k in range(1, 201):
        ok = ok and triangular(k) == sum(range(1, k + 1))
        ok = ok and powers_of_two_sum(k) == 2**k - 1
        ok = ok and geometric(Fraction(1, 2), k) == gnum(sum(Fraction(1, 2**i) for i in range(1, k + 1)))
        ok = ok and grandi(k) == (k % 2)
    t = 1024
    ok = ok and eval_at(triangular(G), t) == sum(range(1, t + 1))
    ok = ok and eval_at(powers_of_two_sum(G), t) == 2**t - 1
    ok = ok and eval_at(geometric(Fraction(1, 2), G), t) == 1 - Fraction(1, 2**t)
    ok = ok and eval_at(geometric(2, G), t) == 2**(t + 1) - 2
    ok = ok and grandi(G) == 0 and t % 2 == 0
    report(9, "series closed forms vs direct summation (k <= 200 and G := 1024)", ok)


def test_expression_criteria_run_as_script(tmp_path, capsys):
    # Every expression-shaped criterion must also pass through --script.
    lines = [
        "0*G", "G-G", "G/G", "G^0", "G^-1 * G",
        "card(ap(2,2))", "card(remf(ap(1,3),{7}))",
        "card(addf(intersect(ap(4,5),ap(3,11)),{3,4,5}))",
        "card(ints())", "couples(nat(),nat())",
        "x2(G)", "x2(3*G)", "grandi(G)", "grandi(G-1)", "grandirr(2*G)",
        "tri(G)", "tsum(2*G)", "tsum(3*G^2)", "tsum(4*G^3)",
    ]
    script = tmp_path / "criteria.g"
    script.write_text("\n".join(lines) + "\n")
    code = main(["--script", str(script)])
    out = capsys.readouterr().out
    report(9, "all expression criteria pass through run_script", code == 0 and out.count("=>") == len(lines))


def test_criterion_9e_parser_round_trip():
    rng = random.Random(161803)
    failures = 0
    for _ in range(1000):
        n = random_number(rng, fractional_gpow=True, coeff_den_bound=100)
        s = str(n)
        value = evaluate(s)
        if print_value(value) != s or value != n:
            failures += 1
    report(9, f"parser round-trip on 1000 canonical strings ({failures} failures)", failures == 0)

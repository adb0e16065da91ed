"""The builtin table: every builtin's printed and JSON output pinned byte for
byte, the ``paradox`` subcommand routed through the same builtins, the order in
which a call is evaluated, and the exit codes of the errors it reports."""

import io
import json

import pytest

from grossone import GrossAP, G, LampState, naturals
from grossone.cli import PARADOXES, main
from grossone.errors import NotPositive
from grossone.exprlang import BUILTINS, Call, evaluate, parse, print_value, tokenize, value_json
from grossone.paradoxes import thomson_lamp
from grossone.series import grandi_rearranged, powers_of_two_sum
from grossone.sets import scale


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Expression: (print_value, json.dumps of value_json), byte for byte as the
# evaluator printed them before the builtin table replaced its chain of ifs.
PINNED = {
    "ap(4, 5)": (
        "AP(first=4, step=5, count=(1/5)*G)",
        '{"type": "set", "value": "AP(first=4, step=5, count=(1/5)*G)"}',
    ),
    "nat()": (
        "AP(first=1, step=1, count=G)",
        '{"type": "set", "value": "AP(first=1, step=1, count=G)"}',
    ),
    "evens()": (
        "AP(first=2, step=2, count=(1/2)*G)",
        '{"type": "set", "value": "AP(first=2, step=2, count=(1/2)*G)"}',
    ),
    "odds()": (
        "AP(first=1, step=2, count=(1/2)*G)",
        '{"type": "set", "value": "AP(first=1, step=2, count=(1/2)*G)"}',
    ),
    "ints()": (
        "AP(first=-G, step=1, count=2*G + 1)",
        '{"type": "set", "value": "AP(first=-G, step=1, count=2*G + 1)"}',
    ),
    "card(ap(3, 7))": (
        "(1/7)*G",
        '{"type": "number", "value": "(1/7)*G"}',
    ),
    "last(ap(2, 3))": (
        "G - 1",
        '{"type": "number", "value": "G - 1"}',
    ),
    "at(evens(), G/2)": (
        "G",
        '{"type": "number", "value": "G"}',
    ),
    "member(odds(), G - 1)": (
        "true",
        '{"type": "bool", "value": true}',
    ),
    "intersect(ap(4, 5), ap(3, 11))": (
        "AP(first=14, step=55, count=(1/55)*G)",
        '{"type": "set", "value": "AP(first=14, step=55, count=(1/55)*G)"}',
    ),
    "scale(nat(), 3)": (
        "AP(first=3, step=3, count=G)",
        '{"type": "set", "value": "AP(first=3, step=3, count=G)"}',
    ),
    "addf(nat(), {0, -1}, -2)": (
        "AP(first=1, step=1, count=G) + {-2,-1,0}",
        (
            '{"type": "set", "value": "AP(first=1, step=1, count=G) + {-2,'
            '-1,0}"}'
        ),
    ),
    "remf(evens(), {2}, 4)": (
        "AP(first=2, step=2, count=(1/2)*G) - {2,4}",
        (
            '{"type": "set", "value": "AP(first=2, step=2, count=(1/2)*G) '
            '- {2,4}"}'
        ),
    ),
    "couples(evens(), ints())": (
        "G^2 + (1/2)*G",
        '{"type": "number", "value": "G^2 + (1/2)*G"}',
    ),
    "squares()": (
        "floor(G^(1/2))",
        '{"type": "count", "value": "floor(G^(1/2))"}',
    ),
    "tri(G)": (
        "(1/2)*G^2 + (1/2)*G",
        '{"type": "number", "value": "(1/2)*G^2 + (1/2)*G"}',
    ),
    "geo(1/2, G)": (
        "1 - (1/2)^G",
        '{"type": "number", "value": "1 - (1/2)^G"}',
    ),
    "x2(3*G)": (
        "8^G - 1",
        '{"type": "number", "value": "8^G - 1"}',
    ),
    "grandi(G + 1)": (
        "1",
        '{"type": "number", "value": "1"}',
    ),
    "grandirr(G)": (
        "0",
        '{"type": "number", "value": "0"}',
    ),
    "ramanujan(4)": (
        "lhs = -30; rhs = -30; consistent = true",
        '{"type": "audit", "lhs": "-30", "rhs": "-30", "consistent": true}',
    ),
    "tsum(G^2)": (
        "1",
        '{"type": "number", "value": "1"}',
    ),
    "parity(G - 1)": (
        "odd",
        '{"type": "parity", "value": "odd"}',
    ),
    "class(1 + G^-1)": (
        "finite-with-infinitesimal",
        '{"type": "class", "value": "finite-with-infinitesimal"}',
    ),
    "evalat(G^2 + 1, 3)": (
        "10",
        '{"type": "number", "value": "10"}',
    ),
    "root(4*G^2, 2)": (
        "2*G",
        '{"type": "number", "value": "2*G"}',
    ),
    # A root of zero is zero; unlike the other entries, not pinned from the
    # older evaluator, which rejected it.
    "root(0, 2)": (
        "0",
        '{"type": "number", "value": "0"}',
    ),
    "0^(1/2)": (
        "0",
        '{"type": "number", "value": "0"}',
    ),
    "hotel(3)": (
        (
            "Paradox: hilbert\n"
            "  [ok] newcomers occupy the freed rooms: AP(first=1, step=1, "
            "count=3) with count 3\n"
            "  [ok] guests of the last m rooms are evicted: AP(first=G - 2,"
            " step=1, count=3)\n"
            "  [ok] occupancy is conserved: G = (G - 3) + (3)\n"
            "Status: RESOLVED\n"
            "The hotel has exactly G rooms: room 1 is freed for the newcomer,"
            " but the guest of room G must go out; nothing is created from "
            "nothing."
        ),
        (
            '{"type": "report", "name": "hilbert", "claims": [{"desc": "newcomers '
            'occupy the freed rooms", "value": "AP(first=1, step=1, count=3) '
            'with count 3", "ok": true}, {"desc": "guests of the last m rooms '
            'are evicted", "value": "AP(first=G - 2, step=1, count=3)", "ok": '
            'true}, {"desc": "occupancy is conserved", "value": "G = (G - '
            '3) + (3)", "ok": true}], "resolved": true}'
        ),
    ),
    "lamp(off, 5)": (
        (
            "Paradox: thomson\n"
            "  [ok] after 5 switches the lamp is: off\n"
            "  [ok] elapsed time: 31/32\n"
            "  [ok] elapsed stays below one minute: 31/32\n"
            "Status: RESOLVED\n"
            "With the number of switches stated explicitly, the final state "
            "is fixed by its parity and the switching time falls infinitesimally "
            "short of one minute."
        ),
        (
            '{"type": "report", "name": "thomson", "claims": [{"desc": "after '
            '5 switches the lamp is", "value": "off", "ok": true}, {"desc": '
            '"elapsed time", "value": "31/32", "ok": true}, {"desc": "elapsed '
            'stays below one minute", "value": "31/32", "ok": true}], "resolved": '
            "true}"
        ),
    ),
    "torricelli(2*G^-1)": (
        (
            "Paradox: torricelli\n"
            "  [ok] strips per triangle: (1/2)*G\n"
            "  [ok] corner triangle area: 4*G^-2\n"
            "  [ok] upper triangle area: 1\n"
            "  [ok] lower triangle area: 1\n"
            "  [ok] the two areas agree: 1 = 1\n"
            "Status: RESOLVED\n"
            "Counting the strips with gross-numbers makes both coverages sum "
            "to exactly half the rectangle; the corner triangles account for "
            "the missing area."
        ),
        (
            '{"type": "report", "name": "torricelli", "claims": [{"desc": '
            '"strips per triangle", "value": "(1/2)*G", "ok": true}, {"desc": '
            '"corner triangle area", "value": "4*G^-2", "ok": true}, {"desc": '
            '"upper triangle area", "value": "1", "ok": true}, {"desc": "lower '
            'triangle area", "value": "1", "ok": true}, {"desc": "the two '
            'areas agree", "value": "1 = 1", "ok": true}], "resolved": true}'
        ),
    ),
    "galileo()": (
        (
            "Paradox: galileo\n"
            "  [ok] the evens number half the naturals: (1/2)*G < G\n"
            "  [ok] pairing starts at (2, 1): (2, 1)\n"
            "  [ok] pairing ends at (G, G/2): (G, (1/2)*G)\n"
            "  [ok] the squares count is bracketed below G: floor(G^(1/2)) "
            "with G^(1/2) < G\n"
            "  [ok] square pairing ends at: (floor(G^(1/2))^2, floor(G^(1/2)))\n"
            "Status: RESOLVED\n"
            "Both pairings close: the evens stop at G <-> G/2 and the squares "
            "at floor(G^(1/2))^2 <-> floor(G^(1/2)), so the part stays smaller "
            "than the whole."
        ),
        (
            '{"type": "report", "name": "galileo", "claims": [{"desc": "the '
            'evens number half the naturals", "value": "(1/2)*G < G", "ok": '
            'true}, {"desc": "pairing starts at (2, 1)", "value": "(2, 1)",'
            ' "ok": true}, {"desc": "pairing ends at (G, G/2)", "value": "(G,'
            ' (1/2)*G)", "ok": true}, {"desc": "the squares count is bracketed '
            'below G", "value": "floor(G^(1/2)) with G^(1/2) < G", "ok": true},'
            ' {"desc": "square pairing ends at", "value": "(floor(G^(1/2))^2,'
            ' floor(G^(1/2)))", "ok": true}], "resolved": true}'
        ),
    ),
    "multiplication()": (
        (
            "Paradox: multiplication\n"
            "  [ok] doubling preserves the count: G = G\n"
            "  [ok] the doubled set ends at 2*G: 2*G\n"
            "  [ok] G + 2 is in the doubled set but not natural: member(doubled,"
            " G + 2) = true, member(naturals, G + 2) = false\n"
            "  [ok] exactly G/2 doubled elements exceed G: AP(first=G + 2,"
            " step=2, count=(1/2)*G) with count (1/2)*G\n"
            "Status: RESOLVED\n"
            "All three finite-set properties survive: equal counts, escape "
            "from the original set, and G/2 elements beyond its last element."
        ),
        (
            '{"type": "report", "name": "multiplication", "claims": [{"desc": '
            '"doubling preserves the count", "value": "G = G", "ok": true},'
            ' {"desc": "the doubled set ends at 2*G", "value": "2*G", "ok": '
            'true}, {"desc": "G + 2 is in the doubled set but not natural",'
            ' "value": "member(doubled, G + 2) = true, member(naturals, G '
            '+ 2) = false", "ok": true}, {"desc": "exactly G/2 doubled elements '
            'exceed G", "value": "AP(first=G + 2, step=2, count=(1/2)*G) with '
            'count (1/2)*G", "ok": true}], "resolved": true}'
        ),
    ),
    "{3, 4, 5}": (
        "{3,4,5}",
        '{"type": "intset", "value": [3, 4, 5]}',
    ),
    "G > 1": (
        "true",
        '{"type": "bool", "value": true}',
    ),
}


# ``paradox galileo --json`` prints the report's own JSON, without the
# "type": "report" that ``--json --eval "galileo()"`` puts first.
GALILEO_PARADOX_JSON = (
    '{"name": "galileo", "claims": [{"desc": "the evens number half '
    'the naturals", "value": "(1/2)*G < G", "ok": true}, {"desc": '
    '"pairing starts at (2, 1)", "value": "(2, 1)", "ok": true}, {"desc": '
    '"pairing ends at (G, G/2)", "value": "(G, (1/2)*G)", "ok": true},'
    ' {"desc": "the squares count is bracketed below G", "value": '
    '"floor(G^(1/2)) with G^(1/2) < G", "ok": true}, {"desc": "square '
    'pairing ends at", "value": "(floor(G^(1/2))^2, floor(G^(1/2)))",'
    ' "ok": true}], "resolved": true}\n'
)


def _called_names(expr) -> set:
    names = {expr.name} if isinstance(expr, Call) else set()
    for child in vars(expr).values():
        for node in child if isinstance(child, tuple) else (child,):
            if hasattr(node, "__dataclass_fields__"):
                names |= _called_names(node)
    return names


@pytest.mark.parametrize("expr", sorted(PINNED))
def test_output_is_pinned(expr):
    text, obj = PINNED[expr]
    value = evaluate(expr)
    assert print_value(value) == text
    assert json.dumps(value_json(value)) == obj


def test_pins_cover_every_builtin():
    called = set().union(*(_called_names(parse(tokenize(e))) for e in PINNED))
    assert set(BUILTINS) <= called


def test_paradox_json_differs_from_eval_json_only_by_type(capsys):
    assert run(capsys, "--json", "paradox", "galileo") == (0, GALILEO_PARADOX_JSON, "")
    assert run(capsys, "--json", "--eval", "galileo()") == (0, PINNED["galileo()"][1] + "\n", "")
    eval_obj = json.loads(PINNED["galileo()"][1])
    assert eval_obj.pop("type") == "report"
    assert json.loads(GALILEO_PARADOX_JSON) == eval_obj


@pytest.mark.parametrize("argv, expr", [
    (["paradox", "galileo"], "galileo()"),
    (["paradox", "multiplication"], "multiplication()"),
    (["paradox", "hilbert", "--m", "3"], "hotel(3)"),
    (["paradox", "thomson", "--initial", "off", "--switches", "5"], "lamp(off, 5)"),
    (["paradox", "torricelli", "--h", "2*G^-1"], "torricelli(2*G^-1)"),
])
def test_paradox_prints_its_builtins_report(capsys, argv, expr):
    assert PARADOXES[argv[1]][0] == expr.split("(")[0]
    assert run(capsys, *argv) == (0, PINNED[expr][0] + "\n", "")


def test_paradox_flag_of_the_wrong_type_is_an_evaluation_error(capsys):
    code, out, err = run(capsys, "paradox", "hilbert", "--m", "ap(1,2)")
    assert (code, out, err) == (3, "", "error: hotel: argument 1: expected a number\n")
    code, out, err = run(capsys, "paradox", "thomson", "--switches", "nat()")
    assert (code, out, err) == (3, "", "error: lamp: argument 2: expected a number\n")


def test_paradox_flag_that_does_not_parse_is_a_parse_error(capsys):
    code, out, err = run(capsys, "paradox", "hilbert", "--m", "1+")
    assert (code, out, err) == (2, "", "error: expected expression at offset 2\n")


# Error messages as the evaluator reported them before the builtin table.
# Arguments are evaluated before the name is looked up and before the arity is
# checked; the arity is checked before any argument is coerced, and lamp's
# bare word before its second argument is evaluated.
ERRORS = {
    "foo(1/0)": "division by zero",
    "foo()": "unknown function 'foo'",
    "tri(1, 1/0)": "division by zero",
    "tri(nat(), 2)": "tri: argument 2: expected 1 argument(s), got 2",
    "hotel(1, 2)": "hotel: argument 2: expected 0..1 argument(s), got 2",
    "addf(nat())": "addf: argument 1: expected 2+ argument(s), got 1",
    "couples(1, 2)": "couples: argument 1: expected a set",
    "card(7)": "card: argument 1: expected a set",
    "ap(1/2, 3)": "ap: argument 1: expected a finite integer",
    "geo(G, 2)": "geo: argument 1: expected a finite rational",
    "at(addf(nat(), {0}), 1)": "at: argument 1: expected an arithmetic progression",
    "addf(nat(), {1}, 1/2)": "addf: argument 3: expected a finite integer",
    "root(G, 0)": "root: argument 2: expected a positive integer degree",
    "evalat(G, 0)": "evalat: argument 2: expected a positive integer",
    "0^(-1/2)": "zero has no negative powers",
    "lamp()": "lamp: argument 0: expected 1..2 argument(s), got 0",
    "lamp(x, 1/0)": "lamp: argument 1: expected 'on' or 'off'",
    "lamp(on, 1, 1/0)": "lamp: argument 3: expected 1..2 argument(s), got 3",
    "lamp(on, nat())": "lamp: argument 2: expected a number",
    "on": "unknown identifier 'on'",
}


@pytest.mark.parametrize("expr", sorted(ERRORS))
def test_error_message_is_pinned(capsys, expr):
    assert run(capsys, "--eval", expr) == (3, "", f"error: {ERRORS[expr]}\n")


NOT_POSITIVE = {
    "lamp(on, 0)": "the number of switches must be positive",
    "scale(nat(), 0)": "scale factor must be a positive integer",
    "x2(0)": "the number of addends must be positive",
    "grandirr(0)": "the number of addends must be positive",
}


@pytest.mark.parametrize("expr", sorted(NOT_POSITIVE))
def test_a_count_that_is_not_positive_exits_3(capsys, expr):
    assert run(capsys, "--eval", expr) == (3, "", f"error: {NOT_POSITIVE[expr]}\n")


def test_paradox_with_no_switches_exits_3(capsys):
    code, out, err = run(capsys, "paradox", "thomson", "--switches", "0")
    assert (code, out, err) == (3, "", "error: the number of switches must be positive\n")


def test_repl_keeps_running_after_a_count_that_is_not_positive(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("x2(0)\nlamp(on, 0)\nG+1\n:quit\n"))
    assert main([]) == 0
    captured = capsys.readouterr()
    assert "G + 1" in captured.out
    assert captured.err.splitlines() == [
        "error: the number of addends must be positive",
        "error: the number of switches must be positive",
    ]


@pytest.mark.parametrize("make", [
    lambda: scale(naturals(), 0),
    lambda: GrossAP(1, 0, G),
    lambda: GrossAP(1, 1, 0),
    lambda: powers_of_two_sum(0),
    lambda: grandi_rearranged(-2),
    lambda: thomson_lamp(LampState.ON, 0),
])
def test_not_positive_is_a_value_error_of_the_package(make):
    with pytest.raises(NotPositive) as err:
        make()
    assert isinstance(err.value, ValueError)

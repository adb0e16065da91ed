"""The builtin table: every builtin's printed and JSON output pinned byte for
byte, the ``paradox`` subcommand routed through the same builtins, the order in
which a call is evaluated, and the exit codes of the errors it reports."""

import io
import json
from fractions import Fraction

import pytest

from grossone import GrossAP, G, LampState, naturals
from grossone.cli import PARADOXES, main
from grossone.errors import DivisionByZero, ExponentNotLinearInGrossone, NotAGrossInteger, NotPositive
from grossone.exprlang import BUILTINS, Call, evaluate, parse, print_value, tokenize, value_json
from grossone.gnum import floor_div_mod, nth_root
from grossone.paradoxes import thomson_lamp
from grossone.series import grandi, grandi_rearranged, powers_of_two_sum
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
    "scale(ints(), 3)": (
        "AP(first=-3*G, step=3, count=2*G + 1)",
        '{"type": "set", "value": "AP(first=-3*G, step=3, count=2*G + 1)"}',
    ),
    "last(scale(ints(), 2))": (
        "2*G",
        '{"type": "number", "value": "2*G"}',
    ),
    "at(scale(ints(), 3), 2)": (
        "-3*G + 3",
        '{"type": "number", "value": "-3*G + 3"}',
    ),
    "intersect(scale(nat(), 3), ap(2, 4))": (
        "AP(first=6, step=12, count=(1/12)*G)",
        '{"type": "set", "value": "AP(first=6, step=12, count=(1/12)*G)"}',
    ),
    "addf(remf(nat(), {3}), {3})": (
        "AP(first=1, step=1, count=G)",
        '{"type": "set", "value": "AP(first=1, step=1, count=G)"}',
    ),
    "remf(addf(nat(), {0}), {0, 3})": (
        "AP(first=1, step=1, count=G) - {3}",
        '{"type": "set", "value": "AP(first=1, step=1, count=G) - {3}"}',
    ),
    # An adjusted set answers for its added and removed elements; the older
    # evaluator looked at them only for a Python int, never for a number of the
    # language, and answered these two the other way round.
    "member(remf(nat(), {5}), 5)": (
        "false",
        '{"type": "bool", "value": false}',
    ),
    "member(addf(nat(), {-3}), -3)": (
        "true",
        '{"type": "bool", "value": true}',
    ),
    # An adjusted empty set counts its adjustments; unlike the other entries,
    # not pinned from the older evaluator, which raised AttributeError here.
    "card(addf(intersect(ap(1,2), ap(2,2)), {1}))": (
        "1",
        '{"type": "number", "value": "1"}',
    ),
    "couples(addf(intersect(ap(1,2), ap(2,2)), {1}), nat())": (
        "G",
        '{"type": "number", "value": "G"}',
    ),
    "card(remf(addf(intersect(ap(1,2), ap(2,2)), {1}), {1}))": (
        "0",
        '{"type": "number", "value": "0"}',
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


# ``paradox NAME --json`` without its flags: the library's own defaults, as
# the CLI printed them when it also wrote them out (--m 1, --switches G,
# --h G^-1).  galileo, which has no flags, is pinned above.
FLAGLESS_PARADOX_JSON = {
    "hilbert": (
        '{"name": "hilbert", "claims": [{"desc": "newcomers occupy the freed '
        'rooms", "value": "AP(first=1, step=1, count=1) with count 1", "ok": '
        'true}, {"desc": "guests of the last m rooms are evicted", "value": '
        '"AP(first=G, step=1, count=1)", "ok": true}, {"desc": "occupancy is '
        'conserved", "value": "G = (G - 1) + (1)", "ok": true}], "resolved": true}\n'
    ),
    "thomson": (
        '{"name": "thomson", "claims": [{"desc": "after G switches the lamp '
        'is", "value": "off", "ok": true}, {"desc": "elapsed time", "value": '
        '"1 - (1/2)^G", "ok": true}, {"desc": "the minute is never completed", '
        '"value": "1 - elapsed = (1/2)^G", "ok": true}], "resolved": true}\n'
    ),
    "torricelli": (
        '{"name": "torricelli", "claims": [{"desc": "strips per triangle", '
        '"value": "G", "ok": true}, {"desc": "corner triangle area", "value": '
        '"G^-2", "ok": true}, {"desc": "upper triangle area", "value": "1", '
        '"ok": true}, {"desc": "lower triangle area", "value": "1", "ok": true}, '
        '{"desc": "the two areas agree", "value": "1 = 1", "ok": true}], '
        '"resolved": true}\n'
    ),
}


def _called_names(expr) -> set:
    """The builtins a syntax tree calls; a node's children are the syntax-tree
    objects among its attributes."""
    names = {expr.name} if isinstance(expr, Call) else set()
    for child in vars(expr).values():
        for node in child if isinstance(child, tuple) else (child,):
            if type(node).__module__ == Call.__module__ and hasattr(node, "__dict__"):
                names |= _called_names(node)
    return names


def test_called_names_walks_the_whole_tree():
    assert _called_names(parse(tokenize("-card(scale(nat(), 2)) + {tri(1)}"))) == {
        "card", "scale", "nat", "tri"}


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


@pytest.mark.parametrize("name", sorted(FLAGLESS_PARADOX_JSON))
def test_a_paradox_without_flags_reports_the_library_defaults(capsys, name):
    assert run(capsys, "--json", "paradox", name) == (0, FLAGLESS_PARADOX_JSON[name], "")


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
# bare word before its second argument is evaluated.  ``addf`` and ``remf``
# check their elements in increasing order and report the first that fails.
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
    "intersect(ints(), nat())": "intersection needs finite first elements",
    "addf(nat(), {4})": "4 is already in the set",
    "remf(nat(), {0})": "0 is not in the set",
    "addf(nat(), {5, 4})": "4 is already in the set",
    "remf(nat(), {0, -1})": "-1 is not in the set",
    "remf(addf(evens(), {1}), {1, 2, 5})": "5 is not in the set",
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


NOT_AN_INTEGER = (TypeError, "expected an integer, got 3/2")

# Each site of the library's two argument rules, called with k: a positive
# integer ("... must be a positive integer") and a positive count ("the number
# of ... must be positive").  0 and -1 raise the rule's class and message, the
# first pair; the non-integer 3/2 raises the site's own refusal, the second.
ARGUMENT_RULES = {
    "eval_at": (lambda k: (G + 1).eval_at(k),
                NotPositive, "substitution point must be a positive integer", *NOT_AN_INTEGER),
    "nth_root": (lambda k: nth_root(G, k),
                 NotPositive, "root degree must be a positive integer", *NOT_AN_INTEGER),
    "floor_div_mod": (lambda k: floor_div_mod(G + 1, k),
                      DivisionByZero, "modulus must be a positive integer", *NOT_AN_INTEGER),
    "GrossAP-step": (lambda k: GrossAP(1, k, G),
                     NotPositive, "step must be a positive integer", *NOT_AN_INTEGER),
    "scale": (lambda k: scale(naturals(), k),
              NotPositive, "scale factor must be a positive integer", *NOT_AN_INTEGER),
    "powers_of_two_sum": (powers_of_two_sum,
                          NotPositive, "the number of addends must be positive",
                          ExponentNotLinearInGrossone, "exponent 3/2 is not of the form a*G + d"),
    # A bare ValueError, as perfbench pins it (ROADMAP).
    "grandi": (grandi,
               ValueError, "the number of addends must be positive",
               NotAGrossInteger, "3/2 is not a gross-integer"),
    "grandi_rearranged": (grandi_rearranged,
                          NotPositive, "the number of addends must be positive",
                          NotAGrossInteger, "3/2 is not a gross-integer"),
    "thomson_lamp": (lambda k: thomson_lamp(LampState.ON, k),
                     NotPositive, "the number of switches must be positive",
                     NotAGrossInteger, "3/2 is not a gross-integer"),
}


@pytest.mark.parametrize("k", [0, -1, Fraction(3, 2)], ids=["0", "-1", "3/2"])
@pytest.mark.parametrize("site", sorted(ARGUMENT_RULES))
def test_each_argument_rule_raises_its_class_and_message(site, k):
    call, *outcomes = ARGUMENT_RULES[site]
    error, message = outcomes[2:] if type(k) is Fraction else outcomes[:2]
    with pytest.raises(error) as err:
        call(k)
    assert type(err.value) is error and str(err.value) == message

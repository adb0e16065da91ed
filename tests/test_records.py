"""The library's records: what they are, that they cannot be changed, and that
they copy and pickle to equal values."""

import copy
import json
import operator
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from grossone import G, GrossNumber, evaluate
from grossone.cli import main
from grossone.errors import NotPositive
from grossone.gnum import ZERO, gnum, term
from grossone.paradoxes import galileo_report
from grossone.series import ramanujan_audit
from grossone.sets import EMPTY, AdjustedSet, GrossAP, RootCount, add_finite, naturals, squares_count

RECORDS = {
    "GrossNumber": lambda: 2 * G - gnum(1) / 3,
    "GrossAP": lambda: GrossAP(5, 2, G / 2),
    "AdjustedSet": lambda: add_finite(naturals(), [0, -1]),
    "RootCount": squares_count,
    "EmptySet": lambda: EMPTY,
    "ParadoxReport": galileo_report,
    "RamanujanAudit": ramanujan_audit,
}

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
}


@pytest.mark.parametrize("how", ROUND_TRIPS)
@pytest.mark.parametrize("record", RECORDS)
def test_a_round_trip_gives_an_equal_value(record, how):
    value = RECORDS[record]()
    back = ROUND_TRIPS[how](value)
    assert type(back) is type(value)
    assert back == value
    assert str(back) == str(value)


def test_a_round_trip_keeps_a_number_s_terms():
    x = G**2 / 3 - 1
    for how in ROUND_TRIPS.values():
        assert how(x).terms == x.terms


@pytest.mark.parametrize("assign", [
    lambda: setattr(G, "terms", ()),
    lambda: setattr(G, "other", 1),
    lambda: delattr(gnum(3), "terms"),
    lambda: setattr(GrossAP(1, 1, G), "first", gnum(2)),
    lambda: setattr(GrossAP(1, 1, G), "other", 1),
])
def test_a_record_cannot_be_changed(assign):
    with pytest.raises(AttributeError):
        assign()


def test_a_number_is_unchanged_by_a_refused_assignment():
    x = G + 1
    with pytest.raises(AttributeError):
        x.terms = ()
    assert str(x) == "G + 1"


def test_a_number_is_the_tuple_of_its_terms():
    x = 2 * G - gnum(1) / 3
    assert isinstance(x, tuple) and len(G + 1) == 2
    assert list(x) == list(x.terms) and x[0] == x.terms[0] == (2, 1, 1)
    assert type(x.terms) is tuple and x.terms == tuple(x)
    assert not GrossNumber() and GrossNumber() == 0
    assert GrossNumber([term(1, 1, 1), term(1)]) == G + 1
    assert (1,) + x == (1, *x.terms) and type(x[1:]) is tuple
    assert json.dumps(G + 1) == "[[1, 1, 1], [1, 1, 0]]"


def test_a_number_is_unequal_by_value_not_as_a_tuple():
    assert not gnum(3) != 3 and not 3 != gnum(3)
    assert G != G + 1 and gnum(3) != Fraction(1, 3) and G + 1 != "G + 1"


@pytest.mark.parametrize("x", [ZERO, gnum(3), G + 1], ids=str)
def test_a_number_equals_no_plain_tuple_of_its_terms(x):
    # Equal values hash alike: gnum(3) equals 3 and hashes as 3, so it
    # cannot also equal the tuple of its terms, which hashes otherwise.
    plain = tuple(x)
    assert x != plain and plain != x and not x == plain and not plain == x
    assert len({x, plain}) == 2 and {x: 1}.get(plain) is None
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(x, plain)
        with pytest.raises(TypeError):
            op(plain, x)


def test_value_records_are_tuples_of_their_fields():
    s = GrossAP(5, 1, G)
    first, step, count = s
    assert (first, step, count) == (gnum(5), 1, G) == tuple(s)
    assert AdjustedSet(s) == (s, (), ())
    assert RootCount(G, 2) == (G, 2)
    report = galileo_report()
    assert report == (report.name, report.claims, report.narrative)


def test_a_progression_checks_its_fields_in_order():
    assert type(GrossAP(5, 1, G).first) is GrossNumber
    # The first element, then the count are made numbers, then the step and
    # the count are checked.
    with pytest.raises(TypeError):
        GrossAP(1.5, 0, 1.5)
    with pytest.raises(TypeError):
        GrossAP(1, 0, 1.5)
    with pytest.raises(NotPositive, match="step"):
        GrossAP(1, 0, 0)
    with pytest.raises(NotPositive, match="count"):
        GrossAP(1, 1, 0)


def test_a_replaced_progression_is_checked_as_a_new_one():
    s = GrossAP(1, 1, G)
    assert s._replace(first=2) == GrossAP(2, 1, G)
    assert type(s._replace(first=2).first) is GrossNumber
    with pytest.raises(NotPositive, match="step"):
        s._replace(step=0)
    with pytest.raises(NotPositive, match="count"):
        GrossAP._make((1, 1, -G))


def test_a_report_is_not_taken_for_a_set_literal(capsys):
    # A record or a number is a tuple, but only a {...} literal gives a
    # builtin its ints.
    assert main(["--eval", "addf(nat(), galileo())"]) == 3
    assert capsys.readouterr() == ("", "error: addf: argument 2: expected a number\n")
    assert main(["--eval", "addf(nat(), G + 1)"]) == 3
    assert capsys.readouterr() == ("", "error: addf: argument 2: expected a finite integer\n")
    assert str(evaluate("addf(nat(), {0}, -1)")) == "AP(first=1, step=1, count=G) + {-1,0}"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = "import sys, grossone.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out == "[]\n"

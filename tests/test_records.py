"""The library's records: what they are, that they cannot be changed, and that
they copy and pickle to equal values."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from grossone import G, GrossNumber, evaluate
from grossone.cli import main
from grossone.errors import NotPositive
from grossone.gnum import gnum
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
    # A record is a tuple, but only a {...} literal gives a builtin its ints.
    assert main(["--eval", "addf(nat(), galileo())"]) == 3
    assert capsys.readouterr() == ("", "error: addf: argument 2: expected a number\n")
    assert str(evaluate("addf(nat(), {0}, -1)")) == "AP(first=1, step=1, count=G) + {-1,0}"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    code = "import sys, grossone.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out == "[]\n"

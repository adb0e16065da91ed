"""Set algebra: examples plus the finite-substitution enumeration oracle."""

import math

import pytest

from grossone import (
    G,
    add_finite,
    ap_nat,
    cardinality,
    couples_count,
    element_at,
    eval_at,
    evens,
    integers_set,
    intersect,
    last_element,
    member,
    naturals,
    odds,
    remove_finite,
    scale,
    squares_count,
)
from grossone.gnum import gnum
from grossone.errors import (
    ElementAlreadyPresent,
    ElementNotPresent,
    GrossFirstUnsupported,
    IndexOutOfRange,
    ResidueOutOfRange,
)
from grossone.sets import EMPTY, GrossAP

from conftest import assert_set_matches, enum_integers, enum_residue_class, enum_set


class TestConstructors:
    def test_naturals(self):
        n = ap_nat(1, 1)
        assert cardinality(n) == G
        assert last_element(n) == G

    def test_evens(self):
        assert cardinality(ap_nat(2, 2)) == G / 2

    def test_residue_bounds(self):
        ap_nat(4, 5)
        with pytest.raises(ResidueOutOfRange):
            ap_nat(6, 5)
        with pytest.raises(ResidueOutOfRange):
            ap_nat(0, 3)

    def test_integers(self):
        z = integers_set()
        assert cardinality(z) == 2 * G + 1
        assert last_element(z) == G
        assert member(z, 0)
        assert element_at(z, 1) == -G


class TestCardinality:
    def test_one_removed(self):
        assert cardinality(remove_finite(ap_nat(1, 3), [7])) == G / 3 - 1

    def test_intersection_plus_three(self):
        b = add_finite(intersect(ap_nat(4, 5), ap_nat(3, 11)), [3, 4, 5])
        assert cardinality(b) == G / 55 + 3


class TestElements:
    def test_last_of_evens(self):
        assert last_element(evens()) == G

    def test_last_of_shifted_class(self):
        # Oracle at t=550: members of the class of 14 mod 55 end at 509 = 550 - 41.
        s = ap_nat(14, 55)
        assert last_element(s) == G - 41
        assert eval_at(last_element(s), 550) == max(enum_residue_class(14, 55, 550))

    def test_element_at_identity(self):
        assert element_at(naturals(), G / 2) == G / 2

    def test_index_bounds(self):
        with pytest.raises(IndexOutOfRange):
            element_at(naturals(), G + 1)
        with pytest.raises(IndexOutOfRange):
            element_at(naturals(), 0)


class TestMember:
    def test_shifted_class_membership(self):
        s = ap_nat(14, 55)
        assert member(s, 69)
        assert not member(s, 3)
        assert not member(s, 4)
        assert not member(s, 5)

    def test_large_even(self):
        assert member(scale(naturals(), 2), 2 * 10**9)

    def test_gross_argument(self):
        assert member(scale(naturals(), 2), G + 2)
        assert not member(naturals(), G + 2)


class TestIntersect:
    def test_crt_combines_residues(self):
        s = intersect(ap_nat(4, 5), ap_nat(3, 11))
        assert (s.first, s.step) == (14, 55)
        assert cardinality(s) == G / 55

    def test_disjoint_residues(self):
        assert intersect(ap_nat(1, 2), ap_nat(2, 2)) is EMPTY

    def test_common_residue(self):
        # Oracle with G := 1200: {2, 14, 26, ...} has 100 = 1200/12 members.
        s = intersect(GrossAP(2, 4, G / 4), GrossAP(2, 6, G / 6))
        assert (s.first, s.step) == (2, 12)
        assert cardinality(s) == G / 12
        expected = enum_residue_class(2, 4, 1200) & enum_residue_class(2, 6, 1200)
        assert_set_matches(s, expected, 1200)

    def test_rejects_gross_first(self):
        with pytest.raises(GrossFirstUnsupported):
            intersect(integers_set(), naturals())


class TestScale:
    def test_doubling_naturals(self):
        d = scale(naturals(), 2)
        assert (d.first, d.step) == (2, 2)
        assert cardinality(d) == G
        assert last_element(d) == 2 * G

    def test_oracle(self):
        # {3, 9, 15, ...} with G := 60 has 30 members.
        s = scale(ap_nat(1, 2), 3)
        assert (s.first, s.step) == (3, 6)
        assert cardinality(s) == G / 2
        expected = {3 * x for x in enum_residue_class(1, 2, 60)}
        assert_set_matches(s, expected, 60)

    def test_identity(self):
        s = ap_nat(3, 4)
        assert scale(s, 1) == s


class TestAdjustments:
    def test_add_present_element(self):
        with pytest.raises(ElementAlreadyPresent):
            add_finite(ap_nat(1, 2), [7])

    def test_remove_absent_element(self):
        with pytest.raises(ElementNotPresent):
            remove_finite(ap_nat(1, 2), [4])

    def test_add_then_remove_cancels(self):
        s = add_finite(ap_nat(1, 2), [4])
        back = remove_finite(s, [4])
        assert cardinality(back) == cardinality(ap_nat(1, 2))

    def test_membership(self):
        s = add_finite(remove_finite(ap_nat(1, 2), [3]), [8])
        assert member(s, 8)
        assert not member(s, 3)
        assert member(s, 5)


class TestCounts:
    def test_couples(self):
        assert couples_count(naturals(), naturals()) == G**2
        assert couples_count(evens(), odds()) == G**2 / 4

    def test_squares(self):
        rc = squares_count()
        assert str(rc) == "floor(G^(1/2))"
        assert rc.upper_value() ** 2 == G
        assert rc.bracket_ok()
        assert rc.upper_value() < G


class TestPartitionProperties:
    def test_residue_classes_partition_naturals(self):
        for n in range(1, 13):
            total = gnum(0)
            for k in range(1, n + 1):
                total = total + cardinality(ap_nat(k, n))
            assert total == G

    def test_whole_greater_than_part(self):
        for n in range(2, 13):
            assert cardinality(ap_nat(1, n)) < G

    def test_scale_preserves_count(self):
        for n in range(1, 8):
            for m in (2, 3, 5):
                s = ap_nat(1, n)
                assert cardinality(scale(s, m)) == cardinality(s)


class TestSetMultiplicationProperties:
    def test_counts_equal(self):
        assert cardinality(scale(naturals(), 2)) == cardinality(naturals())

    def test_escape_element(self):
        assert not member(naturals(), G + 2)

    def test_tail_beyond_naturals(self):
        tail = GrossAP(G + 2, 2, G / 2)
        assert cardinality(tail) == G / 2
        assert element_at(tail, 1) > G
        assert last_element(tail) == 2 * G


def test_substitution_oracle_small():
    t = 660
    steps = [n for n in range(1, 13) if t % n == 0]
    for n in steps:
        for k in range(1, n + 1):
            assert_set_matches(ap_nat(k, n), enum_residue_class(k, n, t), t)
    for n1 in steps:
        for n2 in steps:
            if t % math.lcm(n1, n2) != 0:
                continue
            s = intersect(ap_nat(n1, n1), ap_nat(n2, n2))
            expected = enum_residue_class(n1, n1, t) & enum_residue_class(n2, n2, t)
            if s is EMPTY:
                assert expected == set()
            else:
                assert_set_matches(s, expected, t)
    for m in (2, 3, 4):
        for n in steps[:6]:
            s = scale(ap_nat(1, n), m)
            expected = {m * x for x in enum_residue_class(1, n, t)}
            assert_set_matches(s, expected, t)
    z = integers_set()
    assert enum_set(z, t) == enum_integers(t)
    assert eval_at(cardinality(z), t) == len(enum_integers(t))

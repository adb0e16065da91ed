"""Series closed forms against direct term-by-term summation."""

from fractions import Fraction

import pytest

from grossone import (
    G,
    GrossNumber,
    ap_sum,
    eval_at,
    exp_gross,
    geometric,
    grandi,
    grandi_rearranged,
    infinitesimal_sum,
    powers_of_two_sum,
    ramanujan_audit,
    triangular,
)
from grossone.gnum import gnum
from grossone.errors import ExponentNotLinearInGrossone, NotPositive, OddLength, UnitRatio


def direct_ap_sum(first: Fraction, step: Fraction, count: int) -> Fraction:
    return sum((first + i * step for i in range(count)), Fraction(0))


class TestApSum:
    def test_odd_addends_grouping(self):
        # The odds among 1..G: (1 + (G-1)) * G/4.
        assert ap_sum(1, 2, G / 2) == G**2 / 4

    def test_even_addends_grouping(self):
        assert ap_sum(2, 2, G / 2) == (2 + G) * G / 4

    def test_constant_summand(self):
        assert ap_sum(5, 0, 3) == gnum(15)

    def test_finite_consistency(self):
        for k in range(1, 201):
            assert ap_sum(3, 7, k) == direct_ap_sum(Fraction(3), Fraction(7), k)


class TestTriangular:
    def test_all_naturals(self):
        assert triangular(G) == G**2 / 2 + G / 2

    def test_finite(self):
        assert triangular(4) == gnum(10)

    def test_doubled_length(self):
        # Oracle at t=100: 200*201/2.
        assert triangular(2 * G) == G * (2 * G + 1)
        assert eval_at(triangular(2 * G), 100) == 20100

    def test_finite_consistency(self):
        for k in range(1, 201):
            assert triangular(k) == sum(range(1, k + 1))


class TestGeometric:
    def test_halving(self):
        assert geometric(Fraction(1, 2), G) == 1 - exp_gross(Fraction(1, 2), G)

    def test_finite(self):
        assert geometric(2, 5) == gnum(62)

    def test_doubling(self):
        # Oracle at t=10: 2 + 4 + ... + 2^10 == 2046.
        s = geometric(2, G)
        assert s == 2 * exp_gross(2, G) - 2
        assert eval_at(s, 10) == 2046

    def test_unit_ratio_rejected(self):
        with pytest.raises(UnitRatio):
            geometric(1, G)

    def test_finite_consistency(self):
        for q in (Fraction(1, 2), Fraction(2), Fraction(-3, 5)):
            for k in range(1, 201):
                direct = sum(q**i for i in range(1, k + 1))
                assert geometric(q, k) == gnum(direct)


class TestPowersOfTwo:
    def test_whole_length(self):
        assert str(powers_of_two_sum(G)) == "2^G - 1"

    def test_triple_length(self):
        assert str(powers_of_two_sum(3 * G)) == "8^G - 1"

    def test_finite(self):
        assert powers_of_two_sum(4) == gnum(15)

    def test_rejects_nonlinear(self):
        with pytest.raises(ExponentNotLinearInGrossone):
            powers_of_two_sum(G**2)

    def test_a_negative_count_is_refused_by_its_sign_after_its_shape(self):
        with pytest.raises(NotPositive):
            powers_of_two_sum(-G)
        with pytest.raises(ExponentNotLinearInGrossone):
            powers_of_two_sum(-G**2)

    def test_finite_consistency(self):
        for k in range(1, 201):
            assert powers_of_two_sum(k) == 2**k - 1


class TestGrandi:
    def test_even_infinite_length(self):
        assert grandi(G) == gnum(0)

    def test_odd_infinite_length(self):
        assert grandi(G - 1) == gnum(1)

    def test_finite(self):
        assert grandi(7) == gnum(1)

    def test_is_a_gross_number(self):
        for k in (G, G - 1, 7):
            assert isinstance(grandi(k), GrossNumber)

    def test_finite_consistency(self):
        for k in range(1, 201):
            direct = sum((-1) ** (i + 1) for i in range(1, k + 1))
            assert grandi(k) == direct


class TestGrandiRearranged:
    def test_doubled_length(self):
        assert grandi_rearranged(2 * G) == gnum(0)

    def test_finite(self):
        assert grandi_rearranged(4) == gnum(0)

    def test_shifted_even_length(self):
        # Parity even via the constant term -2; block audit at t=100:
        # 99 positives -> 49 blocks and one leftover +1, then 50 lone -1s.
        assert grandi_rearranged(2 * G - 2) == gnum(0)

    def test_odd_length_rejected(self):
        with pytest.raises(OddLength):
            grandi_rearranged(G + 1)

    def test_matches_grandi(self):
        for k in (gnum(2), gnum(100), 2 * G, 4 * G, 2 * G - 2, G):
            assert grandi_rearranged(k) == grandi(k)


class TestRamanujanAudit:
    def test_infinite_audit(self):
        audit = ramanujan_audit()
        expected = -3 * G / 2 * (G + 1)
        assert audit.consistent
        assert audit.lhs == expected
        assert audit.rhs == expected
        assert str(audit.lhs) == "-(3/2)*G^2 - (3/2)*G"

    def test_finite_grouping_against_brute_force(self):
        for n in range(2, 101, 2):
            audit = ramanujan_audit(gnum(n))
            assert audit.consistent
            assert audit.lhs == -3 * sum(range(1, n + 1))

    def test_eight(self):
        audit = ramanujan_audit(gnum(8))
        assert audit.lhs == gnum(-108)
        assert audit.rhs == gnum(-108)

    def test_json_shape(self):
        audit = ramanujan_audit()
        data = audit.to_json()
        assert data == {
            "lhs": "-(3/2)*G^2 - (3/2)*G",
            "rhs": "-(3/2)*G^2 - (3/2)*G",
            "consistent": True,
        }


class TestInfinitesimalSum:
    def test_three_regimes(self):
        assert infinitesimal_sum(2 * G) == 2 * G**-1
        assert infinitesimal_sum(3 * G**2) == gnum(3)
        assert infinitesimal_sum(4 * G**3) == 4 * G


def test_substitution_consistency():
    for t in (100, 1024):
        assert eval_at(triangular(G), t) == sum(range(1, t + 1))
        assert eval_at(triangular(2 * G), t) == sum(range(1, 2 * t + 1))
        assert eval_at(geometric(Fraction(1, 2), G), t) == sum(
            Fraction(1, 2**i) for i in range(1, t + 1)
        )
        assert eval_at(geometric(2, G), t) == sum(2**i for i in range(1, t + 1))
        assert eval_at(powers_of_two_sum(G), t) == sum(2**i for i in range(t))
        assert eval_at(grandi(G), t) == sum((-1) ** (i + 1) for i in range(1, t + 1))
        assert eval_at(infinitesimal_sum(2 * G), t) == Fraction(2 * t, t**2)

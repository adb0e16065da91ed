"""Paradox reports: every claim must check out, and each scenario must agree
with a direct finite simulation under the substitution G := t."""

from fractions import Fraction

import pytest

from grossone import (
    G,
    LampState,
    NumberClass,
    eval_at,
    exp_gross,
    galileo_report,
    hilbert_accommodate,
    multiplication_report,
    thomson_lamp,
    torricelli,
)
from grossone.gnum import gnum
from grossone.errors import (
    CountNotGrossInteger,
    NotInfinitesimalWidth,
    TooManyNewcomers,
)


class TestGalileo:
    def test_resolved(self):
        report = galileo_report()
        assert report.resolved
        assert report.name == "galileo"

    def test_claim_values(self):
        values = [c.value for c in galileo_report().claims]
        assert "(1/2)*G < G" in values
        assert "(2, 1)" in values
        assert "(G, (1/2)*G)" in values
        assert any("floor(G^(1/2))" in v for v in values)

    def test_finite_shadow(self):
        # With G := 100 the evens below 100 are 50 and pair off at (100, 50).
        t = 100
        evens = [x for x in range(1, t + 1) if x % 2 == 0]
        assert len(evens) == t // 2
        assert evens[-1] == t
        squares = [x for x in range(1, t + 1) if int(x**0.5 + 0.5) ** 2 == x]
        assert len(squares) < t


class TestMultiplication:
    def test_resolved(self):
        assert multiplication_report().resolved

    def test_finite_shadow(self):
        # Doubling {1..t} keeps t elements, t/2 of which escape the original.
        t = 100
        doubled = [2 * x for x in range(1, t + 1)]
        assert len(doubled) == t
        outside = [x for x in doubled if x > t]
        assert len(outside) == t // 2
        assert doubled[-1] == 2 * t


class TestHilbert:
    def test_single_newcomer(self):
        report = hilbert_accommodate(1)
        assert report.resolved
        text = str(report)
        assert "AP(first=G, step=1, count=1)" in text

    def test_five_newcomers(self):
        report = hilbert_accommodate(5)
        assert report.resolved
        assert "AP(first=G - 4, step=1, count=5)" in str(report)

    def test_full_turnover(self):
        report = hilbert_accommodate(G)
        assert report.resolved

    def test_too_many(self):
        with pytest.raises(TooManyNewcomers):
            hilbert_accommodate(G + 1)
        with pytest.raises(TooManyNewcomers):
            hilbert_accommodate(0)

    def test_finite_shadow(self):
        # Simulate a t-room hotel: guests shift up by m, the last m go out.
        t = 100
        for m in (1, 5, 100):
            guests = {room: f"guest{room}" for room in range(1, t + 1)}
            evicted = [guests[r] for r in range(t - m + 1, t + 1)]
            shifted = {r + m: guests[r] for r in range(1, t - m + 1)}
            freed = [r for r in range(1, t + 1) if r not in shifted]
            assert len(evicted) == m
            assert freed == list(range(1, m + 1))
            assert len(shifted) + len(evicted) == t
            evicted_ap = hilbert_accommodate(m).claims[1]
            assert f"count={m}" in evicted_ap.value


class TestThomson:
    def test_even_switch_count_flips(self):
        report = thomson_lamp(LampState.ON)
        assert report.resolved
        assert report.claims[0].value == "off"
        assert report.claims[1].value == "1 - (1/2)^G"

    def test_off_becomes_on(self):
        assert thomson_lamp(LampState.OFF).claims[0].value == "on"

    def test_finite_run(self):
        report = thomson_lamp(LampState.ON, gnum(3))
        assert report.resolved
        assert report.claims[0].value == "on"
        assert report.claims[1].value == "7/8"

    def test_elapsed_is_infinitesimally_short(self):
        elapsed = 1 - exp_gross(Fraction(1, 2), G)
        assert (1 - elapsed).classify() is NumberClass.INFINITESIMAL
        assert elapsed < 1

    def test_finite_shadow(self):
        # t switch events: the first sets the state, t-1 toggle it.
        for t in (2, 3, 100):
            state = True
            for _ in range(t - 1):
                state = not state
            report = thomson_lamp(LampState.ON, gnum(t))
            assert report.claims[0].value == ("on" if state else "off")
            elapsed = sum(Fraction(1, 2**i) for i in range(1, t + 1))
            symbolic = 1 - exp_gross(Fraction(1, 2), G)
            assert eval_at(symbolic, t) == elapsed


class TestTorricelli:
    @pytest.mark.parametrize(
        "width,count",
        [(G**-1, G), (2 * G**-1, G / 2), (G**-3, G**3)],
    )
    def test_admissible_widths(self, width, count):
        report = torricelli(width)
        assert report.resolved
        assert report.claims[0].value == str(count)
        assert report.claims[2].value == "1"
        assert report.claims[3].value == "1"

    def test_generalized_widths(self):
        for c in (Fraction(1), Fraction(2), Fraction(1, 2)):
            for m in (1, 2, 3):
                assert torricelli(c * G**-m).resolved

    def test_rejects_non_infinitesimal(self):
        with pytest.raises(NotInfinitesimalWidth):
            torricelli(G)
        with pytest.raises(NotInfinitesimalWidth):
            torricelli(gnum(Fraction(1, 2)))
        with pytest.raises(NotInfinitesimalWidth):
            torricelli(G**-1 + G**-2)

    def test_rejects_fractional_count(self):
        with pytest.raises(CountNotGrossInteger):
            torricelli(nth_root_of_g_inverse())

    def test_finite_shadow(self):
        # t strips of width 1/t over the 1 x 2 rectangle: both coverages sum
        # to exactly 1 in plain rational arithmetic.
        t = 100
        h = Fraction(1, t)
        upper = sum(h * (2 - 2 * h * i) + h * 2 * h / 2 for i in range(1, t + 1))
        lower = sum(2 * h * (1 - h * i) + h * h for i in range(1, t + 1))
        assert upper == lower == 1
        strip_one = 2 * G**-1 - 2 * G**-2 + G**-2
        assert eval_at(strip_one, t) == h * (2 - 2 * h) + h * h


def nth_root_of_g_inverse():
    from grossone import nth_root

    return nth_root(G, 2) ** -1

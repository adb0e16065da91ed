"""Unit tests for the core arithmetic."""

import operator
import types
from fractions import Fraction

import pytest

from grossone import (
    G,
    NumberClass,
    Parity,
    compare,
    eval_at,
    exp_gross,
    floor_div_mod,
    normalize,
    nth_root,
    parity,
    pow_int,
    term,
)
from grossone.gnum import gnum
from grossone.errors import (
    BaseRootUnsupported,
    CoefficientNotPerfectPower,
    DivisionByZero,
    ExponentNotLinearInGrossone,
    FractionalGrossPower,
    NegativePowerOfSum,
    NotAGrossInteger,
    NotAMonomial,
    NotExactlyDivisible,
    ZeroToZero,
)


class TestNormalize:
    def test_merges_like_terms(self):
        assert normalize([term(1, 1, 1), term(2, 1, 1)]) == 3 * G

    def test_cancellation_gives_zero(self):
        assert normalize([term(1), term(-1)]) == gnum(0)
        assert not normalize([term(1), term(-1)])

    def test_exponential_term_leads(self):
        # eval_at at t=64 confirms the ordering: 2^64 > 64^5.
        n = normalize([term(1, 2, 0), term(-1, 1, 5)])
        assert n.terms[0].base == 2
        assert eval_at(n, 64) == 2**64 - 64**5 > 0

    def test_idempotent(self):
        n = normalize([term(3, 2, 1), term(-1, 1, -2), term(5)])
        assert normalize(n.terms) == n


class TestIdentitySuite:
    def test_zero_times_g(self):
        assert gnum(0) * G == gnum(0)
        assert G * 0 == gnum(0)

    def test_g_minus_g(self):
        assert G - G == gnum(0)

    def test_g_over_g(self):
        assert G / G == gnum(1)

    def test_g_to_zero(self):
        assert G**0 == gnum(1)

    def test_one_to_g(self):
        assert exp_gross(1, G) == gnum(1)

    def test_zero_to_g(self):
        assert exp_gross(0, G) == gnum(0)

    def test_inverse_element(self):
        assert G**-1 * G == gnum(1)


class TestAddMul:
    def test_extended_natural(self):
        assert str(G + 1) == "G + 1"

    def test_add_inverse(self):
        a = 2 * G**2 - G + 7
        assert a + (-a) == gnum(0)

    def test_constant_cancellation(self):
        assert (exp_gross(2, G) - 1) + 1 == exp_gross(2, G)

    def test_mul_of_exponentials(self):
        left = exp_gross(2, G) * G
        right = exp_gross(3, G) * G**2
        assert str(left * right) == "6^G*G^3"


class TestDivision:
    def test_monomial_divisor(self):
        assert (G**2 + G) / G == G + 1

    def test_multi_term_exact(self):
        a = (G + 1) * (G - 1)
        assert a / (G - 1) == G + 1

    def test_not_exactly_divisible(self):
        with pytest.raises(NotExactlyDivisible):
            (G + 1) / (G - 1)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            G / gnum(0)

    def test_mixed_base_inexact_terminates(self):
        with pytest.raises(NotExactlyDivisible):
            (exp_gross(2, G) + exp_gross(Fraction(1, 2), G)) / (G + 1)


class TestPow:
    def test_square(self):
        assert (G**2).terms[0].gpow == 2

    def test_zero_power(self):
        assert (2 * G) ** 0 == gnum(1)
        with pytest.raises(ZeroToZero):
            pow_int(gnum(0), 0)

    def test_monomial_reciprocal(self):
        assert (2 * G) ** -1 == G**-1 / 2

    def test_negative_power_of_sum_rejected(self):
        with pytest.raises(NegativePowerOfSum):
            (G + 1) ** -1


class TestExpGross:
    def test_two_to_g(self):
        n = exp_gross(2, G)
        assert n.terms[0].base == 2 and n.terms[0].gpow == 0

    def test_two_to_three_g(self):
        assert exp_gross(2, 3 * G) == exp_gross(8, G)

    def test_half_to_g_is_infinitesimal(self):
        n = exp_gross(Fraction(1, 2), G)
        assert n.classify() is NumberClass.INFINITESIMAL

    def test_negative_linear_part(self):
        assert exp_gross(2, -G) == exp_gross(Fraction(1, 2), G)
        assert exp_gross(2, G - 1) == exp_gross(2, G) / 2

    def test_rejects_nonlinear_exponents(self):
        for e in (G**2, G / 2, exp_gross(2, G)):
            with pytest.raises(ExponentNotLinearInGrossone):
                exp_gross(2, e)


class TestCompare:
    def test_finite_below_g(self):
        assert compare(gnum(7), G) == -1

    def test_sqrt_below_g(self):
        assert nth_root(G, 2) < G

    def test_exponential_beats_power(self):
        # eval_at agrees from t >= 997 on: 2^1024 > 1024^100.
        d = exp_gross(2, G) - G**100
        assert d.sign() == 1
        assert d.eval_at(1024) > 0

    def test_total_order(self):
        values = [gnum(0), G**-1, gnum(1), nth_root(G, 2), G, exp_gross(2, G)]
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                assert (a < b) == (i < j)


class TestClassify:
    def test_infinitesimal(self):
        assert (2 * G**-1).classify() is NumberClass.INFINITESIMAL

    def test_finite_pure(self):
        assert gnum(3).classify() is NumberClass.FINITE_PURE

    def test_finite_with_infinitesimal(self):
        n = 1 - exp_gross(Fraction(1, 2), G)
        assert n.classify() is NumberClass.FINITE_WITH_INFINITESIMAL_PART
        assert n.finite_part() == gnum(1)

    def test_parts_sum_back(self):
        n = 2 * G**2 + 3 + G**-1 - exp_gross(Fraction(1, 2), G)
        assert n.infinite_part() + n.finite_part() + n.infinitesimal_part() == n
        assert n.infinite_part().classify() is NumberClass.INFINITE


class TestParity:
    def test_g_is_even(self):
        assert parity(G) is Parity.EVEN

    def test_g_minus_one_is_odd(self):
        assert parity(G - 1) is Parity.ODD

    def test_division_axiom_parts_are_even(self):
        # Oracle: any t that is a multiple of 110 gives t/55 + 3 odd.
        n = G / 55 + 3
        assert parity(n) is Parity.ODD
        for t in (110, 550, 1100):
            assert eval_at(n, t) % 2 == 1

    def test_rejects_non_integers(self):
        with pytest.raises(NotAGrossInteger):
            parity(G**-1)
        with pytest.raises(NotAGrossInteger):
            parity(gnum(Fraction(1, 2)))


class TestFloorDivMod:
    def test_divides_g(self):
        assert floor_div_mod(G, 55) == (G / 55, 0)

    def test_shifted(self):
        # Oracle at t=550: 536 == 55*9 + 41 and 9 == 550/55 - 1.
        q, r = floor_div_mod(G - 14, 55)
        assert (q, r) == (G / 55 - 1, 41)
        assert eval_at(q, 550) == 9

    def test_finite(self):
        assert floor_div_mod(gnum(7), 3) == (gnum(2), 1)

    def test_exactness(self):
        for x in (G, G - 14, 3 * G + 2, G / 5 + 9):
            for n in (2, 3, 7, 55):
                q, r = floor_div_mod(x, n)
                assert q * n + r == x
                assert 0 <= r < n

    def test_zero_modulus(self):
        with pytest.raises(DivisionByZero):
            floor_div_mod(G, 0)


class TestNthRoot:
    def test_sqrt_g(self):
        r = nth_root(G, 2)
        assert r.terms[0].gpow == Fraction(1, 2)
        assert r * r == G

    def test_perfect_square(self):
        assert nth_root(4 * G**2, 2) == 2 * G

    def test_irrational_coefficient(self):
        with pytest.raises(CoefficientNotPerfectPower):
            nth_root(2 * G, 2)

    def test_sum_rejected(self):
        with pytest.raises(NotAMonomial):
            nth_root(G + 1, 2)

    def test_base_root_unsupported(self):
        with pytest.raises(BaseRootUnsupported):
            nth_root(exp_gross(2, G), 2)

    def test_degree_one(self):
        assert nth_root(G, 1) == G

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_root_of_zero_is_zero(self, n):
        assert nth_root(gnum(0), n) == 0

    def test_root_of_zero_still_needs_a_positive_degree(self):
        with pytest.raises(ValueError):
            nth_root(gnum(0), 0)


class TestEvalAt:
    def test_substitution(self):
        assert eval_at(G + 1, 100) == 101

    def test_big_rational(self):
        assert eval_at(exp_gross(2, G) - 1, 10) == 1023

    def test_fractional_power_guarded(self):
        with pytest.raises(FractionalGrossPower):
            eval_at(nth_root(G, 2), 100)


class TestFormat:
    def test_spec_strings(self):
        assert str(G) == "G"
        assert str(2 * G + 1) == "2*G + 1"
        assert str(1 - exp_gross(Fraction(1, 2), G)) == "1 - (1/2)^G"
        assert str(gnum(0)) == "0"
        assert str(-G) == "-G"
        assert str(G * (G + 1) / 2) == "(1/2)*G^2 + (1/2)*G"
        assert str(2 * G**-1) == "2*G^-1"
        assert str(gnum(Fraction(7, 8))) == "7/8"

    def test_bases_and_powers(self):
        assert str(G**-2) == "G^-2"
        assert str(nth_root(G, 2) ** -1) == "G^(-1/2)"
        assert str(exp_gross(3, G)) == "3^G"
        assert str(exp_gross(Fraction(1, 2), G) * nth_root(G, 2)) == "(1/2)^G*G^(1/2)"
        assert str(normalize([term(Fraction(-3, 4), Fraction(2, 3), Fraction(-5, 7))])) == (
            "-(3/4)*(2/3)^G*G^(-5/7)"
        )


OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
}


class TestOperandCoercion:
    @pytest.mark.parametrize("op", sorted(OPERATORS))
    @pytest.mark.parametrize("r", [3, Fraction(-2, 5)])
    @pytest.mark.parametrize("x", [2 * G, gnum(3)])
    def test_a_rational_on_either_side_acts_as_a_gross_number(self, op, r, x):
        fn = OPERATORS[op]
        assert fn(x, r) == fn(x, gnum(r))
        assert fn(r, x) == fn(gnum(r), x)

    @pytest.mark.parametrize("op", sorted(set(OPERATORS) - {"=="}))
    def test_a_string_on_either_side_is_a_type_error(self, op):
        fn = OPERATORS[op]
        with pytest.raises(TypeError):
            fn(G, "x")
        with pytest.raises(TypeError):
            fn("x", G)

    def test_a_string_is_never_equal(self):
        assert (G == "x") is False
        assert ("x" == G) is False


def test_grossone_gnum_is_the_submodule():
    import grossone.gnum as m

    assert isinstance(m, types.ModuleType)
    assert m.gnum(3) == 3

"""Unit tests for the core arithmetic."""

import operator
import sys
import types
from fractions import Fraction

import pytest

from grossone import (
    G,
    GrossTerm,
    NumberClass,
    Parity,
    compare,
    eval_at,
    exp_gross,
    floor_div_mod,
    format_number,
    geometric,
    normalize,
    nth_root,
    parity,
    pow_int,
    term,
)
from grossone.gnum import ZERO, gnum
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
    NotPositive,
    TooManyDigits,
    ZeroToZero,
)


class TestTermRecord:
    def test_a_term_is_a_tuple_with_named_fields(self):
        t = term(3, 2, -1)
        assert isinstance(t, tuple) and t == (3, 2, -1)
        assert GrossTerm._fields == ("coeff", "base", "gpow")
        assert (t.coeff, t.base, t.gpow, t.key) == (3, 2, -1, (2, -1))

    @pytest.mark.parametrize("field", ["coeff", "base", "gpow"])
    def test_a_term_is_immutable(self, field):
        with pytest.raises(AttributeError):
            setattr(term(3, 2, -1), field, Fraction(5))


class TestCanonicalFields:
    """A term field is an int when integral and a Fraction otherwise, and
    eval_at returns a Fraction: the cases where plain int arithmetic would
    give a float, or a Fraction result would be left integral."""

    def test_int_over_int_is_a_fraction(self):
        c = (gnum(3) / 2).terms[0].coeff
        assert type(c) is Fraction and c == Fraction(3, 2)

    def test_negative_power_of_an_int(self):
        c = pow_int(gnum(2), -3).terms[0].coeff
        assert type(c) is Fraction and c == Fraction(1, 8)

    def test_exp_gross_with_a_negative_g_part(self):
        b = exp_gross(2, -G).terms[0].base
        assert type(b) is Fraction and b == Fraction(1, 2)

    def test_root_of_an_integer_g_power(self):
        t = nth_root(4 * G, 2).terms[0]
        assert type(t.gpow) is Fraction and t.gpow == Fraction(1, 2)
        assert type(t.coeff) is int and t.coeff == 2

    def test_eval_at_returns_a_fraction(self):
        v = (G**2).eval_at(3)
        assert type(v) is Fraction and v == 9

    def test_g_powers_that_cancel_give_the_int_zero(self):
        p = (G**-1 * G).terms[0].gpow
        assert type(p) is int and p == 0


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

    def test_takes_plain_triples(self):
        raw = ((Fraction(2), Fraction(1), Fraction(1)), (Fraction(-1), Fraction(1), Fraction(0)))
        assert normalize(iter(raw)) == 2 * G - 1


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


def _n(*triples):
    """A number from ``(coeff, base, gpow)`` triples, in any order."""
    return normalize(term(*t) for t in triples)


class TestAddByMerge:
    """``+`` and ``-`` merge two canonical term tuples; ``normalize`` of the
    concatenated terms is the reference."""

    @pytest.mark.parametrize("a, b, total", [
        (_n((2, 1, 2), (-1, 1, 1), (7, 1, 0)), _n((-2, 1, 2), (1, 1, 1), (-7, 1, 0)), "0"),
        (_n((1, 2, 0), (3, 1, 1), (1, 1, 0)), _n((-3, 1, 1), (5, 1, -1)), "2^G + 1 + 5*G^-1"),
        (_n((1, Fraction(3, 2), 0), (1, 1, 3), (1, Fraction(1, 2), 0)),
         _n((2, Fraction(3, 2), 1), (4, 1, 0), (1, Fraction(1, 2), 0), (5, Fraction(1, 2), -2)),
         "2*(3/2)^G*G + (3/2)^G + G^3 + 4 + 2*(1/2)^G + 5*(1/2)^G*G^-2"),
        (_n((1, 1, 3), (1, 1, -1)), _n((2, 1, 2), (2, 1, 0), (2, 1, -2)),
         "G^3 + 2*G^2 + 2 + G^-1 + 2*G^-2"),
        (_n((1, 1, 1), (Fraction(1, 2), 1, 0)), ZERO, "G + 1/2"),
    ], ids=["full-cancellation", "middle-cancels", "interleaved-bases",
            "equal-base-other-powers", "zero-operand"])
    def test_matches_normalize_both_ways(self, a, b, total):
        assert str(a + b) == total
        assert (a + b).terms == normalize(a.terms + b.terms).terms
        assert (b + a).terms == (a + b).terms
        assert (a - b).terms == normalize(a.terms + (-b).terms).terms

    def test_one_operand_zero_returns_the_other(self):
        a = 3 * G - Fraction(1, 2)
        assert a + ZERO is a and ZERO + a is a
        assert a - 0 == a and 0 - a == -a

    def test_a_sum_that_becomes_integral_is_an_int(self):
        c = (gnum(Fraction(1, 4)) + Fraction(3, 4)).terms[0].coeff
        assert type(c) is int and c == 1

    def test_unmatched_terms_are_reused(self):
        a, b = G**2 + 1, G
        s = a + b
        assert s.terms[0] is a.terms[0] and s.terms[1] is b.terms[0]


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

    def test_multi_term_quotient_is_canonical(self):
        q = _n((3, 2, 1), (-1, 1, 2), (Fraction(1, 2), 1, 0), (4, Fraction(1, 2), -1))
        b = G**2 - exp_gross(Fraction(1, 2), G) + 1
        assert (q * b / b).terms == q.terms


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

    def test_base_one_or_no_g_part_is_finite(self):
        assert exp_gross(1, 3 * G + 2).terms == gnum(1).terms
        assert exp_gross(Fraction(2, 3), gnum(-2)).terms == gnum(Fraction(9, 4)).terms

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

    @pytest.mark.parametrize("a, n, root", [
        (gnum(-8), 3, gnum(-2)),
        (-8 * G**3, 3, -2 * G),
        (gnum(Fraction(-8, 27)), 3, gnum(Fraction(-2, 3))),
        (-32 * G**-5, 5, -2 * G**-1),
    ])
    def test_odd_root_of_a_negative_coefficient(self, a, n, root):
        assert nth_root(a, n) == root

    @pytest.mark.parametrize("a", [gnum(-4), -4 * G**2, gnum(Fraction(-1, 9))])
    def test_even_root_of_a_negative_coefficient_is_refused(self, a):
        with pytest.raises(CoefficientNotPerfectPower, match="is not a perfect 2nd power"):
            nth_root(a, 2)

    @pytest.mark.parametrize("n, ordinal", [
        (2, "2nd"), (3, "3rd"), (4, "4th"), (11, "11th"), (12, "12th"), (13, "13th"),
        (21, "21st"), (22, "22nd"), (23, "23rd"), (111, "111th"), (101, "101st"),
    ])
    def test_the_degree_is_an_english_ordinal(self, n, ordinal):
        with pytest.raises(CoefficientNotPerfectPower) as info:
            nth_root(gnum(5), n)
        assert str(info.value) == f"5 is not a perfect {ordinal} power"


class TestEvalAt:
    def test_substitution(self):
        assert eval_at(G + 1, 100) == 101

    def test_big_rational(self):
        assert eval_at(exp_gross(2, G) - 1, 10) == 1023

    def test_fractional_power_guarded(self):
        with pytest.raises(FractionalGrossPower, match=r"^G\^\(1/2\) cannot be evaluated$"):
            eval_at(nth_root(G, 2), 100)

    def test_negative_g_powers_are_exact(self):
        v = eval_at(3 * G**-2 + Fraction(1, 2) * G - 1, 7)
        assert type(v) is Fraction and v == Fraction(3, 49) + Fraction(7, 2) - 1

    @pytest.mark.parametrize("x", [gnum(0), gnum(5), G**2 - G, exp_gross(2, G) * G**-1])
    def test_always_a_fraction(self, x):
        assert type(eval_at(x, 4)) is Fraction


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


# Each place that takes a plain rational: an int or a Fraction, nothing else.
RATIONAL_ONLY = {
    "gnum": lambda x: gnum(x),
    "compare": lambda x: compare(G, x),
    "term-coeff": lambda x: term(x),
    "term-base": lambda x: term(1, x),
    "term-gpow": lambda x: term(1, 1, x),
    "exp_gross-base": lambda x: exp_gross(x, G),
    "geometric-ratio": lambda x: geometric(x, G),
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

    @pytest.mark.parametrize("bad", [0.5, "1/2"])
    @pytest.mark.parametrize("where", sorted(RATIONAL_ONLY))
    def test_a_float_or_a_string_is_not_a_rational(self, where, bad):
        with pytest.raises(TypeError):
            RATIONAL_ONLY[where](bad)


def test_grossone_gnum_is_the_submodule():
    import grossone.gnum as m

    assert isinstance(m, types.ModuleType)
    assert m.gnum(3) == 3


@pytest.mark.parametrize("make, message", [
    (lambda: term(1, 0), "exponential base must be positive"),
    (lambda: (G + 1).eval_at(0), "substitution point must be a positive integer"),
    (lambda: exp_gross(-2, G), "exponential base must be nonnegative"),
    (lambda: nth_root(G, 0), "root degree must be a positive integer"),
], ids=["term", "eval_at", "exp_gross", "nth_root"])
def test_a_domain_error_is_not_positive(make, message):
    with pytest.raises(NotPositive) as err:
        make()
    assert str(err.value) == message


class TestHash:
    """Equal values hash alike, so a finite pure number and its rational
    find each other in sets and dicts."""

    @pytest.mark.parametrize("r", [0, 3, -7, Fraction(1, 2), Fraction(-22, 7)])
    def test_a_finite_number_is_found_as_its_rational(self, r):
        x = gnum(r)
        assert hash(x) == hash(r)
        assert x in {r} and r in {x}
        assert {r: "r"}[x] == "r" and {x: "x"}[r] == "x"

    def test_zero_hashes_as_zero(self):
        assert hash(ZERO) == hash(gnum(0)) == 0

    def test_other_numbers_hash_by_their_terms(self):
        for x in (G, G + 1, 1 + G**-1, G**-1, exp_gross(2, G)):
            assert hash(x) == hash(x.terms)
            assert x in {x, 0, 1}
        assert len({G + 1, 1 + G, gnum(1), 1, Fraction(1)}) == 2


class TestDigitLimit:
    """Printing a number whose integers exceed the interpreter's
    int-to-string digit limit is a TooManyDigits error, not a ValueError."""

    def test_format_number_raises_too_many_digits(self):
        huge = gnum(2) ** (4 * sys.get_int_max_str_digits())
        for x in (huge, G - huge, G / huge):
            with pytest.raises(TooManyDigits, match="cannot print a number with more than"):
                format_number(x)

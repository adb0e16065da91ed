"""Lexer, parser, evaluator and printer for the expression language."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from grossone.errors import (
    EvalTypeError,
    LexError,
    ParseError,
    UnknownIdentifier,
)
from grossone.exprlang import (
    GROSSONE_GLYPH,
    Binary,
    Literal,
    TokenKind,
    Unary,
    evaluate,
    parse,
    print_value,
    tokenize,
    value_json,
)
from grossone import exprlang
from grossone.gnum import GrossNumber, NumberClass, Parity
from grossone.paradoxes import ParadoxReport
from grossone.series import RamanujanAudit
from grossone.sets import EMPTY, AdjustedSet, EmptySet, GrossAP, RootCount

from conftest import random_number


class TestTokenize:
    def test_simple(self):
        kinds = [t.kind for t in tokenize("G^2 + 1")]
        assert kinds == [
            TokenKind.G,
            TokenKind.CARET,
            TokenKind.INT,
            TokenKind.PLUS,
            TokenKind.INT,
            TokenKind.END,
        ]

    def test_call(self):
        toks = tokenize("card(ap(4,5))")
        assert toks[0].lexeme == "card"
        assert toks[0].kind == TokenKind.IDENT
        assert toks[2].lexeme == "ap"

    def test_lex_error_offset(self):
        with pytest.raises(LexError) as err:
            tokenize("@")
        assert err.value.offset == 0
        with pytest.raises(LexError) as err:
            tokenize("1 + $")
        assert err.value.offset == 4

    def test_offsets_count_utf8_bytes(self):
        # The glyph takes three bytes.
        with pytest.raises(LexError) as err:
            tokenize("① @")
        assert err.value.offset == 4
        with pytest.raises(ParseError) as err:
            parse(tokenize("① +"))
        assert err.value.offset == 5

    def test_big_integers(self):
        tok = tokenize(str(10**40))[0]
        assert int(tok.lexeme) == 10**40

    def test_glyph_synonym(self):
        assert print_value(evaluate("① + 1")) == "G + 1"


class TestParse:
    def test_power_binds_tighter_than_minus(self):
        expr = parse(tokenize("2^G - 1"))
        assert isinstance(expr, Binary) and expr.op == "-"
        assert isinstance(expr.left, Binary) and expr.left.op == "^"

    def test_mul_binds_tighter_than_plus(self):
        expr = parse(tokenize("2*G + 1"))
        assert expr.op == "+"
        assert expr.left.op == "*"

    def test_power_right_associative(self):
        expr = parse(tokenize("2^2^3"))
        assert expr.op == "^"
        assert isinstance(expr.left, Literal)
        assert expr.right.op == "^"

    def test_comparison_is_binary(self):
        expr = parse(tokenize("G + 1 >= G"))
        assert isinstance(expr, Binary)
        assert expr.op == ">="
        assert isinstance(expr.left, Binary) and expr.left.op == "+"

    def test_unary_minus_below_power(self):
        assert evaluate("-2^2") == evaluate("-(2^2)")
        assert print_value(evaluate("-2^2")) == "-4"

    def test_parse_error_position(self):
        with pytest.raises(ParseError) as err:
            parse(tokenize("tri(G,"))
        assert err.value.offset == 6
        with pytest.raises(ParseError):
            parse(tokenize("1 + "))
        with pytest.raises(ParseError):
            parse(tokenize("(1"))

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse(tokenize("1 2"))


class TestEval:
    def test_identities(self):
        assert print_value(evaluate("G/G")) == "1"
        assert print_value(evaluate("G^0")) == "1"

    def test_set_pipeline(self):
        out = print_value(evaluate("card(intersect(ap(4,5), ap(3,11)))"))
        assert out == "(1/55)*G"

    def test_grandi(self):
        assert print_value(evaluate("grandi(G)")) == "0"

    def test_comparisons(self):
        assert evaluate("G/2 < G") is True
        assert evaluate("G + 1 > G") is True
        assert evaluate("2^G >= G^100") is True
        assert evaluate("G - G = 0") is True

    def test_fractional_exponent_routes_to_root(self):
        assert print_value(evaluate("G^(1/2)")) == "G^(1/2)"
        assert print_value(evaluate("4^(1/2)")) == "2"
        assert print_value(evaluate("G^(-1/2)")) == "G^(-1/2)"

    def test_gross_exponent_requires_rational_base(self):
        with pytest.raises(EvalTypeError):
            evaluate("(G+1)^G")
        with pytest.raises(EvalTypeError):
            evaluate("(0-2)^G")

    def test_unknown_names(self):
        with pytest.raises(UnknownIdentifier):
            evaluate("frobnicate(1)")
        with pytest.raises(UnknownIdentifier):
            evaluate("x + 1")

    def test_arity_errors(self):
        with pytest.raises(EvalTypeError):
            evaluate("tri(1, 2)")
        with pytest.raises(EvalTypeError):
            evaluate("card(7)")

    def test_lamp_takes_bare_state(self):
        assert evaluate("lamp(on, G)").claims[0].value == "off"
        with pytest.raises(EvalTypeError):
            evaluate("lamp(1, G)")

    def test_reports_and_audits(self):
        assert value_json(evaluate("ramanujan()"))["consistent"] is True
        assert value_json(evaluate("hotel(1)"))["resolved"] is True
        assert value_json(evaluate("torricelli(G^-1)"))["resolved"] is True

    def test_set_literal_prints(self):
        assert print_value(evaluate("{3, 4, 5}")) == "{3,4,5}"


class TestValues:
    """Evaluation yields the library's own objects, one class per output row."""

    CASES = {
        "G + 1": GrossNumber,
        "ap(1, 2)": GrossAP,
        "addf(nat(), {0})": AdjustedSet,
        "intersect(ap(1, 2), ap(2, 2))": EmptySet,
        "parity(G)": Parity,
        "class(G)": NumberClass,
        "G > 1": bool,
        "squares()": RootCount,
        "hotel(1)": ParadoxReport,
        "ramanujan()": RamanujanAudit,
        "{1, 2}": tuple,
    }

    @pytest.mark.parametrize("text, cls", CASES.items())
    def test_value_is_the_library_object(self, text, cls):
        assert type(evaluate(text)) is cls

    def test_every_output_row_is_covered(self):
        assert set(self.CASES.values()) == set(exprlang._OUTPUT)

    def test_singletons_and_literals(self):
        assert evaluate("intersect(ap(1, 2), ap(2, 2))") is EMPTY
        assert evaluate("{1, 2}") == (1, 2)

    @pytest.mark.parametrize("render", [print_value, value_json])
    def test_a_non_value_is_refused(self, render):
        with pytest.raises(TypeError, match="not a value"):
            render(1)


class TestRoundTrip:
    def test_seeded_canonical_strings(self):
        rng = random.Random(20260809)
        for _ in range(300):
            n = random_number(rng, fractional_gpow=True, coeff_den_bound=100)
            s = str(n)
            assert print_value(evaluate(s)) == s

    def test_specific_strings(self):
        for s in [
            "0",
            "1",
            "-1",
            "7/8",
            "-7/8",
            "G",
            "-G",
            "2*G + 1",
            "(1/2)*G",
            "G^(1/2)",
            "2*G^-1",
            "1 - (1/2)^G",
            "2^G - 1",
            "8^G - 1",
            "6^G*G^3",
            "(1/2)*G^2 + (1/2)*G",
            "-(3/2)*G^2 - (3/2)*G",
            "2*2^G - 2",
            "-5 + (2/3)^G*G^2",
        ]:
            assert print_value(evaluate(s)) == s


# --- precedence oracle -------------------------------------------------------
#
# Random expression trees over plain rationals are rendered with minimal
# parentheses, reparsed, and compared against an independent Fraction
# evaluator.

_PREC = {"cmp": 1, "+": 2, "-": 2, "*": 3, "/": 3, "neg": 4, "^": 5, "atom": 6}


def render(expr, parent: int = 0) -> str:
    if isinstance(expr, Literal):
        text, prec = str(expr.value.numerator), _PREC["atom"]
    elif isinstance(expr, Unary):
        text, prec = "-" + render(expr.operand, _PREC["neg"]), _PREC["neg"]
    elif isinstance(expr, Binary):
        prec = _PREC[expr.op]
        left = render(expr.left, prec if expr.op != "^" else prec + 1)
        right = render(expr.right, prec + 1 if expr.op != "^" else prec)
        text = f"{left} {expr.op} {right}" if expr.op != "^" else f"{left}^{right}"
    else:
        raise TypeError(expr)
    return f"({text})" if prec < parent else text


def ref_eval(expr) -> Fraction:
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Unary):
        return -ref_eval(expr.operand)
    left, right = ref_eval(expr.left), ref_eval(expr.right)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if expr.op == "/":
        return left / right
    if expr.op == "^":
        if left == 0 and right == 0:
            raise ZeroDivisionError("0^0 is undefined here as well")
        return left ** int(right)
    raise TypeError(expr.op)


def rational_trees(depth: int):
    leaf = st.builds(Literal, st.integers(0, 40).map(Fraction))
    small = st.builds(Literal, st.integers(0, 3).map(Fraction))

    def extend(children):
        return st.one_of(
            st.builds(Unary, st.just("-"), children),
            st.builds(Binary, st.sampled_from(["+", "-", "*", "/"]), children, children),
            st.builds(Binary, st.just("^"), children, small),
        )

    return st.recursive(leaf, extend, max_leaves=depth)


@given(rational_trees(20))
def test_precedence_matches_reference(tree):
    try:
        expected = ref_eval(tree)
    except ZeroDivisionError:
        return
    text = render(tree)
    value = evaluate(text)
    assert isinstance(value, GrossNumber)
    assert value.as_rational() == expected


@given(st.text(max_size=40))
def test_parser_totality(text):
    # Any input either lexes and parses or fails with a positioned error;
    # nothing escapes the typed hierarchy.
    try:
        parse(tokenize(text))
    except LexError as err:
        assert 0 <= err.offset <= len(text.encode("utf-8"))
    except ParseError as err:
        assert 0 <= err.offset <= len(text.encode("utf-8"))


_LEXABLE = st.sampled_from(list("G①ab_éλ0129٣+-*/^(){},<>= \t\n"))


@given(st.text(alphabet=_LEXABLE, max_size=60))
def test_token_offsets_point_at_their_source(text):
    data = text.encode("utf-8")
    tokens = tokenize(text)
    for tok in tokens[:-1]:
        rest = data[tok.offset:]
        assert rest.startswith(tok.lexeme.encode("utf-8")) or (
            tok.kind is TokenKind.G and rest.startswith(GROSSONE_GLYPH.encode("utf-8"))
        )
    assert tokens[-1].kind is TokenKind.END and tokens[-1].offset == len(data)

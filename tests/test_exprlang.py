"""Lexer, parser, evaluator and printer for the expression language."""

import itertools
import operator
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from grossone.errors import (
    CoefficientNotPerfectPower,
    DivisionByZero,
    EvalTypeError,
    ExponentNotLinearInGrossone,
    LexError,
    NegativePowerOfSum,
    ParseError,
    TooLarge,
    UnknownIdentifier,
    ZeroToZero,
)
from grossone.exprlang import (
    GROSSONE_GLYPH,
    Binary,
    Call,
    Literal,
    Name,
    SetLit,
    Unary,
    eval_expr,
    evaluate,
    parse,
    print_value,
    tokenize,
    value_json,
)
from grossone import exprlang
from grossone.gnum import GROSSONE, GrossNumber, NumberClass, Parity, format_number, gnum
from grossone.gnum import normalize as gnum_normalize
from grossone.paradoxes import ParadoxReport
from grossone.series import RamanujanAudit
from grossone.sets import EMPTY, AdjustedSet, EmptySet, GrossAP, RootCount

from conftest import SRC, random_number, typed


class TestTokenize:
    def test_simple(self):
        assert tokenize("G^2 + 1") == ["G", "^", "2", "+", "1", ""]

    def test_punctuation(self):
        assert tokenize("+-*/^(){},") == ["+", "-", "*", "/", "^", "(", ")", "{", "}", ",", ""]

    def test_call(self):
        toks = tokenize("card(ap(4,5))")
        assert toks == ["card", "(", "ap", "(", "4", ",", "5", ")", ")", ""]
        assert toks.offsets == [0, 4, 5, 7, 8, 9, 10, 11, 12, 13]

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
        # A letter or a digit outside ASCII takes two.
        for text in ("é + $", "٣ + $"):
            with pytest.raises(LexError) as err:
                tokenize(text)
            assert err.value.offset == 5

    def test_big_integers(self):
        assert int(tokenize(str(10**40))[0]) == 10**40

    def test_glyph_synonym(self):
        assert print_value(evaluate("① + 1")) == "G + 1"


class TestParse:
    def test_literals(self):
        for text in ("G", GROSSONE_GLYPH):
            g = parse(tokenize(text))
            assert type(g) is Literal and g.value is GROSSONE
        seven = parse(tokenize("7"))
        assert type(seven.value) is GrossNumber and seven.value == 7
        # Evaluating a literal returns the number the parser built.
        assert eval_expr(seven) is seven.value

    def test_a_literal_past_the_digit_limit_is_a_parse_error(self):
        limit = sys.get_int_max_str_digits()
        assert parse(tokenize("9" * limit)).value == 10**limit - 1
        with pytest.raises(ParseError) as err:
            parse(tokenize("(" + "9" * (limit + 1) + ")"))
        assert (err.value.offset, err.value.expected) == (1, f"an integer of at most {limit} digits")

    @pytest.mark.parametrize("prefix", ["(", "-", "2^"])
    def test_nesting_past_the_limit_is_refused_at_the_leaf(self, prefix):
        # The leaf after 101 levels is refused; after 100 it parses (or wants its ')').
        text = prefix * 101 + "1"
        with pytest.raises(ParseError) as err:
            parse(tokenize(text))
        assert (err.value.offset, err.value.expected) == (len(text) - 1, "at most 100 levels of nesting")
        text = prefix * 100 + "1"
        if prefix == "(":
            with pytest.raises(ParseError, match="^expected '\\)' at offset 101$"):
                parse(tokenize(text))
        else:
            parse(tokenize(text))

    def test_a_literal_is_read_under_the_digit_limit_of_each_parse(self):
        text = "9" * 700
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(4300)
            assert parse(tokenize(text)).value == 10**700 - 1
            sys.set_int_max_str_digits(640)
            with pytest.raises(ParseError) as err:
                parse(tokenize(text))
            assert (err.value.offset, err.value.expected) == (0, "an integer of at most 640 digits")
        finally:
            sys.set_int_max_str_digits(limit)

    def test_a_chain_keeps_its_tree_and_shares_equal_literals(self):
        def shape(node):
            if type(node) is Name:
                return node.ident
            if type(node) is Unary:
                return (node.op, shape(node.operand))
            return (node.op, shape(node.left), shape(node.right))

        # Identifier leaves are never folded, so every operator keeps its node.
        tree = parse(tokenize("a*b^-c + a*b^c"))
        assert shape(tree) == ("+", ("*", "a", ("^", "b", ("-", "c"))), ("*", "a", ("^", "b", "c")))
        assert type(tree.left.right.right) is Unary
        # One Literal per lexeme within a parse, a new one in the next parse.
        tree = parse(tokenize("3*x^2 + 3*y^2"))
        assert tree.left.left is tree.right.left
        assert tree.left.right.right is tree.right.right.right
        assert parse(tokenize("3")) is not parse(tokenize("3"))

    def test_power_binds_tighter_than_minus(self):
        expr = parse(tokenize("a^b - c"))
        assert isinstance(expr, Binary) and expr.op == "-"
        assert isinstance(expr.left, Binary) and expr.left.op == "^"

    def test_mul_binds_tighter_than_plus(self):
        expr = parse(tokenize("a*b + c"))
        assert expr.op == "+"
        assert expr.left.op == "*"

    def test_power_right_associative(self):
        expr = parse(tokenize("a^b^c"))
        assert expr.op == "^"
        assert isinstance(expr.left, Name)
        assert expr.right.op == "^"

    def test_comparison_is_binary(self):
        expr = parse(tokenize("G + 1 >= G"))
        assert isinstance(expr, Binary)
        assert expr.op == ">="
        assert isinstance(expr.left, Binary) and expr.left.op == "+"

    def test_unary_minus_below_power(self):
        assert evaluate("-2^2") == evaluate("-(2^2)")
        assert print_value(evaluate("-2^2")) == "-4"

    @pytest.mark.parametrize("text, out", [
        ("-G^2", "-G^2"),
        ("2^3^2", "512"),
        ("G^-1", "G^-1"),
        ("-2^-1", "-1/2"),
        ("4^-2^-1", "1/2"),
        ("-G^-2^-1", "-G^(-1/2)"),
    ])
    def test_power_exponents_take_a_unary_minus(self, text, out):
        assert print_value(evaluate(text)) == out

    @pytest.mark.parametrize("text, offset, expected", [
        ("1 < 2 < 3", 6, "end of input"),
        ("(1 < 2 < 3)", 7, "')'"),
        ("tri(1 < 2 < 3)", 10, "')'"),
        ("{1 < 2 < 3}", 7, "'}'"),
        ("1 + 2 < 3 = 4", 10, "end of input"),
    ])
    def test_comparisons_do_not_chain(self, text, offset, expected):
        with pytest.raises(ParseError) as err:
            parse(tokenize(text))
        assert (err.value.offset, err.value.expected) == (offset, expected)

    def test_a_bracketed_comparison_is_an_operand(self):
        expr = parse(tokenize("(1 < 2) < 3"))
        assert expr.op == "<" and expr.left.op == "<"
        assert isinstance(expr.right, Literal)

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


class TestLiteralFold:
    """A unary minus, ``^``, ``*`` or ``/`` over Literals parses to one Literal
    of its value, shared within the parse, unless computing it raises."""

    def test_equal_subexpressions_are_one_literal_per_parse(self):
        text = "3*G^-2 + 3*G^-2"
        tree = parse(tokenize(text))
        assert type(tree) is Binary and tree.op == "+"
        assert type(tree.left) is Literal and tree.left is tree.right
        assert tree.left.value == 3 * GROSSONE ** -2
        again = parse(tokenize(text))
        assert again.left is not tree.left and again.left.value == tree.left.value

    def test_each_folded_power_is_computed_once_per_parse(self, monkeypatch):
        calls = []
        monkeypatch.setattr(exprlang, "pow_int", lambda a, k: calls.append(k) or a**k)
        assert print_value(evaluate("3*G^2 - 3*G^2 + 3*G^2 - G^-1 + G^-1")) == "3*G^2"
        assert sorted(calls) == [-1, 2]

    @pytest.mark.parametrize("text, unfolded", [
        ("-G", Unary("-", Literal(GROSSONE))),
        ("2^G", Binary("^", Literal(gnum(2)), Literal(GROSSONE))),
        ("G/2*3", Binary("*", Binary("/", Literal(GROSSONE), Literal(gnum(2))), Literal(gnum(3)))),
        ("-4^-(1/2)", Unary("-", Binary("^", Literal(gnum(4)), Unary(
            "-", Binary("/", Literal(gnum(1)), Literal(gnum(2))))))),
    ])
    def test_a_fold_is_the_value_of_its_tree(self, text, unfolded):
        tree = parse(tokenize(text))
        assert type(tree) is Literal
        want = eval_expr(unfolded)
        assert typed(tree.value.terms) == typed(want.terms) and str(tree.value) == str(want)

    @pytest.mark.parametrize("text", ["1 + 2", "2 - 1", "1 < 2", "tri(3)", "{1, 2}", "x * 2", "-x"])
    def test_sums_comparisons_calls_sets_and_names_are_not_folded(self, text):
        assert type(parse(tokenize(text))) is not Literal

    @pytest.mark.parametrize("text, unfolded, error, message", [
        ("(1/0)", Binary("/", Literal(gnum(1)), Literal(gnum(0))),
         DivisionByZero, "division by zero"),
        ("0^0", Binary("^", Literal(gnum(0)), Literal(gnum(0))),
         ZeroToZero, "0^0 is undefined"),
        ("G^G", Binary("^", Literal(GROSSONE), Literal(GROSSONE)),
         EvalTypeError, "^: argument 1: a G-exponent needs a nonnegative rational base"),
        ("2^(2^30)", Binary("^", Literal(gnum(2)), Literal(gnum(2**30))),
         TooLarge, "a power would need more than 1048576 bits"),
    ])
    def test_a_fold_that_raises_is_left_to_evaluation(self, text, unfolded, error, message):
        tree = parse(tokenize(text))
        assert type(tree) is Binary
        for expr in (tree, unfolded):
            with pytest.raises(error) as err:
                eval_expr(expr)
            assert type(err.value) is error and str(err.value) == message

    @pytest.mark.parametrize("text, offset, expected", [
        ("0^0 + )", 6, "expression"),
        ("(1/0) )", 6, "end of input"),
    ])
    def test_parse_errors_come_before_a_fold_error(self, text, offset, expected):
        with pytest.raises(ParseError) as err:
            parse(tokenize(text))
        assert (err.value.offset, err.value.expected) == (offset, expected)

    @pytest.mark.parametrize("op", ["*", "/"])
    def test_a_product_past_the_bit_bound_is_left_to_evaluation(self, op):
        # 7^370000 has 1038722 bits: one fits MAX_POWER_BITS, two together do not.
        tree = parse(tokenize(f"7^370000{op}7^370000"))
        assert type(tree) is Binary and tree.op == op
        assert type(tree.left) is Literal and type(tree.right) is Literal
        assert eval_expr(tree) == (tree.left.value * tree.right.value if op == "*" else 1)

    @pytest.mark.parametrize("text", ["7^370000*0", "0*7^370000", "7^370000/1"])
    def test_a_product_within_the_bit_bound_folds(self, text):
        # A zero operand counts 0 bits.
        assert type(parse(tokenize(text))) is Literal


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

    # 4^(1/2) and G^(1/2) are pinned by test_fractional_exponent_routes_to_root.
    @pytest.mark.parametrize("text, out", [
        ("(1/2)^-3", "8"),
        ("nat()^2", (EvalTypeError, "^: argument 1: expected a number")),
        ("2^nat()", (EvalTypeError, "^: argument 2: expected a number")),
        ("nat()^nat()", (EvalTypeError, "^: argument 2: expected a number")),
        ("2^(1/2)", (CoefficientNotPerfectPower, "2 is not a perfect 2nd power")),
        ("0^0", (ZeroToZero, "0^0 is undefined")),
        ("(G+1)^-1", (NegativePowerOfSum, "(G + 1)^-1: negative powers need a single term")),
        ("2^(G/2)", (ExponentNotLinearInGrossone, "exponent (1/2)*G is not of the form a*G + d")),
        ("(-2)^G", (EvalTypeError, "^: argument 1: a G-exponent needs a nonnegative rational base")),
        ("G^G", (EvalTypeError, "^: argument 1: a G-exponent needs a nonnegative rational base")),
        ("2^(2^70)", (TooLarge, "a power would need more than 1048576 bits")),
        ("(2*G)^(10^30)", (TooLarge, "a power would need more than 1048576 bits")),
    ])
    def test_power_routes_by_its_operands(self, text, out):
        # The exponent (argument 2) is checked before the base (argument 1).
        if isinstance(out, str):
            assert print_value(evaluate(text)) == out
        else:
            with pytest.raises(out[0]) as err:
                evaluate(text)
            assert type(err.value) is out[0] and str(err.value) == out[1]

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


class TestDispatch:
    """Every node class reaches its own branch of eval_expr."""

    # Each tree's root is a node of the class its id names.
    TREES = {
        "Literal": (Literal(GROSSONE), "G"),
        "Binary": (Binary("-", Literal(GROSSONE), Literal(gnum(2))), "G - 2"),
        "Binary ^": (Binary("^", Literal(GROSSONE), Unary("-", Literal(gnum(1)))), "G^-1"),
        "Binary <": (Binary("<", Literal(gnum(1)), Literal(GROSSONE)), "true"),
        "Unary": (Unary("-", Binary("*", Literal(gnum(3)), Literal(GROSSONE))), "-3*G"),
        "Call": (Call("card", (Call("ap", (Literal(gnum(2)), Literal(gnum(4)))),)), "(1/4)*G"),
        "SetLit": (SetLit((Literal(gnum(3)), Unary("-", Literal(gnum(1))))), "{3,-1}"),
    }

    @pytest.mark.parametrize("root", TREES)
    def test_every_node_class_evaluates(self, root):
        tree, out = self.TREES[root]
        assert type(tree).__name__ == root.split()[0]
        assert print_value(eval_expr(tree)) == out

    def test_a_name_is_an_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier, match="^unknown identifier 'x'$"):
            eval_expr(Name("x"))

    def test_a_literal_returns_its_own_value(self):
        lit = Literal(gnum(7))
        assert eval_expr(lit) is lit.value

    def test_an_unknown_operator_is_refused_after_both_operands(self):
        with pytest.raises(UnknownIdentifier, match="^unknown operator '%'$"):
            eval_expr(Binary("%", Literal(gnum(1)), Literal(GROSSONE)))
        with pytest.raises(EvalTypeError, match="argument 2"):
            eval_expr(Binary("%", Literal(gnum(1)), SetLit(())))

    def test_the_left_operand_is_checked_before_the_right_is_evaluated(self):
        with pytest.raises(EvalTypeError, match="^\\+: argument 1: expected a number$"):
            eval_expr(Binary("+", SetLit(()), Name("x")))
        with pytest.raises(UnknownIdentifier, match="'y'"):
            eval_expr(Binary("*", Literal(gnum(1)), Binary("+", Name("y"), SetLit(()))))

    @pytest.mark.parametrize("thing", [1, "G", None, GROSSONE, (Literal(GROSSONE),)])
    def test_a_non_node_is_a_type_error(self, thing):
        with pytest.raises(TypeError, match="^not an expression: "):
            eval_expr(thing)


class TestRecursionHeadroom:
    """A flat chain costs one evaluator frame per operand, so chains of 800
    operands evaluate under pytest, also with ``python -X dev`` (as CI runs it)."""

    N = 800

    def test_a_long_sum_of_g(self):
        assert print_value(evaluate(" + ".join(["G"] * self.N))) == f"{self.N}*G"

    def test_a_long_alternating_chain(self):
        # G + G - G + G - ... - G + G: 400 pluses and 399 minuses after the first G.
        text = "G" + "".join(" + G" if i % 2 else " - G" for i in range(1, self.N))
        assert print_value(evaluate(text)) == "2*G"
        text = "1" + "".join(f" {'+-'[i % 2]} {i}*G^{i % 3}" for i in range(1, self.N))
        expected = gnum(1)
        for i in range(1, self.N):
            expected = expected + (1 if i % 2 == 0 else -1) * i * GROSSONE ** (i % 3)
        assert evaluate(text) == expected

    def test_a_990_operand_chain_evaluates_in_the_cli(self):
        # Outside pytest's frames: the headroom a command line has.
        p = subprocess.run([sys.executable, "-m", "grossone.cli", "--eval", " + ".join(["G"] * 990)],
                           env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60)
        assert (p.returncode, p.stdout, p.stderr) == (0, "990*G\n", "")


class TestChainFold:
    """A ``+``/``-`` chain of three or more operands is summed with one
    ``normalize`` of all its operands' terms; it gives what the pairwise
    dunders give, term for term and string for string."""

    @staticmethod
    def pairwise(values, ops) -> GrossNumber:
        out = values[0]
        for op, v in zip(ops, values[1:]):
            out = out + v if op == "+" else out - v
        return out

    def operands(self, rng: random.Random):
        """3 to 12 numbers with their operators; some chains cancel to 0."""
        values = [random_number(rng, max_terms=4, coeff_bound=30, fractional_gpow=True,
                                coeff_den_bound=6) for _ in range(rng.randint(3, 12))]
        for i in range(1, len(values)):
            if rng.random() < 0.2:
                values[i] = rng.choice(values[:i])  # a repeat, which a "-" cancels
        ops = [rng.choice("+-") for _ in values[1:]]
        if rng.random() < 0.3:
            # The last operand is the sum so far, subtracted: the chain is 0.
            values[-1], ops[-1] = self.pairwise(values[:-1], ops[:-1]), "-"
        return values, ops

    def test_random_chains_equal_the_pairwise_fold(self):
        rng = random.Random("chain fold")
        zeros = 0
        for _ in range(300):
            values, ops = self.operands(rng)
            want = self.pairwise(values, ops)
            tree = Literal(values[0])
            for op, v in zip(ops, values[1:]):
                tree = Binary(op, tree, Literal(v))
            got = eval_expr(tree)
            assert typed(got.terms) == typed(want.terms)
            assert format_number(got) == format_number(want)
            text = f"({values[0]})" + "".join(f" {op} ({v})" for op, v in zip(ops, values[1:]))
            assert print_value(evaluate(text)) == format_number(want)
            zeros += not want
        assert zeros > 50

    def test_bases_fractions_and_bracketed_chains(self):
        text = "(3/2)^G*G^(1/2) - (1/3)*G + (2/3)^G - (1/2)*(3/2)^G*G^(1/2) - (G - (1/3)*G + 1 - 1)"
        assert print_value(evaluate(text)) == "(1/2)*(3/2)^G*G^(1/2) - G + (2/3)^G"
        assert print_value(evaluate("G^(1/2) - G^(1/2) + (2/3)^G - (2/3)^G")) == "0"

    def test_one_normalize_per_chain_and_none_for_two_operands(self, monkeypatch):
        calls = []
        monkeypatch.setattr(exprlang, "normalize", lambda raw: calls.append(raw) or gnum_normalize(raw))
        assert print_value(evaluate("G + 2")) == "G + 2" and calls == []
        assert print_value(evaluate("G + 2 - (1/2)*G + G^-1")) == "(1/2)*G + 2 + G^-1"
        assert len(calls) == 1
        # A bracketed chain on the right is summed by itself, then its terms join.
        assert print_value(evaluate("G - (1 + 2 + G) + 3")) == "0"
        assert len(calls) == 3


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
# Random expression trees over plain rationals, some under one comparison, are
# rendered with minimal parentheses and reparsed.  Rendered with identifier
# leaves, which the parser never folds, the parse must give back the same tree;
# rendered with the literals, its value must match an independent Fraction
# evaluator.

_COMPARISONS = {"<": operator.lt, "<=": operator.le, "=": operator.eq,
                ">=": operator.ge, ">": operator.gt}
_PREC = {**dict.fromkeys(_COMPARISONS, 1), "+": 2, "-": 2, "*": 3, "/": 3,
         "neg": 4, "^": 5, "atom": 6}


def render(expr, parent: int = 0, named: bool = False) -> str:
    """The tree's text; ``named`` writes each literal ``n`` as the identifier ``xn``."""
    if isinstance(expr, Literal):
        n = expr.value.numerator
        text, prec = f"x{n}" if named else str(n), _PREC["atom"]
    elif isinstance(expr, Unary):
        text, prec = "-" + render(expr.operand, _PREC["neg"], named), _PREC["neg"]
    elif isinstance(expr, Binary):
        prec = _PREC[expr.op]
        left = render(expr.left, prec if expr.op != "^" else prec + 1, named)
        right = render(expr.right, prec + 1 if expr.op != "^" else prec, named)
        text = f"{left} {expr.op} {right}" if expr.op != "^" else f"{left}^{right}"
    else:
        raise TypeError(expr)
    return f"({text})" if prec < parent else text


def shape(expr):
    """The tree as nested tuples, with each literal, or its name ``xn``, as its rational."""
    if isinstance(expr, Literal):
        value = expr.value
        return value if isinstance(value, Fraction) else value.as_rational()
    if isinstance(expr, Name):
        return Fraction(expr.ident[1:])
    if isinstance(expr, Unary):
        return (expr.op, shape(expr.operand))
    if isinstance(expr, Binary):
        return (expr.op, shape(expr.left), shape(expr.right))
    raise TypeError(expr)


def ref_eval(expr):
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, Unary):
        return -ref_eval(expr.operand)
    left, right = ref_eval(expr.left), ref_eval(expr.right)
    if expr.op in _COMPARISONS:
        return _COMPARISONS[expr.op](left, right)
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


def comparison_trees(depth: int):
    sides = rational_trees(depth)
    return st.builds(Binary, st.sampled_from(sorted(_COMPARISONS)), sides, sides)


@given(st.one_of(rational_trees(20), comparison_trees(10)))
def test_precedence_matches_reference(tree):
    # Identifier leaves are never folded: the parse gives back the tree itself.
    assert shape(parse(tokenize(render(tree, named=True)))) == shape(tree)
    text = render(tree)
    try:
        expected = ref_eval(tree)
    except ZeroDivisionError:
        return
    value = evaluate(text)
    if isinstance(expected, bool):
        assert value is expected
    else:
        assert isinstance(value, GrossNumber)
        assert value.as_rational() == expected


def _chains():
    """Every unbracketed chain of three or four literals 2 and 3 over
    ``+ - * / ^``, with no comparison or with one in any slot: 8600 texts."""
    arithmetic, comparisons = ["+", "-", "*", "/", "^"], sorted(_COMPARISONS)
    for n in (3, 4):
        for ops in itertools.product(arithmetic + comparisons, repeat=n - 1):
            if sum(op in _COMPARISONS for op in ops) > 1:
                continue
            for literals in itertools.product("23", repeat=n):
                yield literals, ops


def test_every_short_chain_matches_python_precedence():
    """Python's own grammar is the reference: its ``**`` binds tighter than
    ``* /``, which bind tighter than ``+ -``, and ``**`` is right-associative,
    as ``^`` is here; a lone comparison binds loosest in both."""
    checked = 0
    for literals, ops in _chains():
        text = literals[0] + "".join(f" {op} {x}" for op, x in zip(ops, literals[1:]))
        # Right to left, a run of ^ must stay small enough to compute.
        exponent = 1
        for op, x in zip(reversed(ops), reversed(literals[1:])):
            exponent = int(x) ** exponent if op == "^" else 1
            if exponent > 64:
                break
        else:
            python = "".join(f"Fraction({x})" if x in "23" else {"^": "**", "=": "=="}.get(x, x)
                             for x in text.split())
            expected = eval(python)  # built above from digits and operators only
            value = evaluate(text)
            if isinstance(expected, bool):
                assert value is expected, text
            else:
                assert value.as_rational() == expected, text
            checked += 1
    assert checked > 8500


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
    assert len(tokens.offsets) == len(tokens)
    for lexeme, offset in zip(tokens[:-1], tokens.offsets):
        rest = data[offset:]
        assert rest.startswith(lexeme.encode("utf-8")) or (
            lexeme == "G" and rest.startswith(GROSSONE_GLYPH.encode("utf-8"))
        )
    assert tokens[-1] == "" and tokens.offsets[-1] == len(data)

"""Expression language over the whole library, with ``G`` as the infinite unit.

Grammar::

    expression := operand (binary-operator operand)*
    operand    := "-" operand
                | primary ("^" operand)?    -- right-associative
    primary    := INT | "G" | ident "(" args ")" | ident
                | "(" expression ")" | "{" int-elements "}"

A token is its lexeme, and the lexeme is its kind: :func:`tokenize` lists a
line's lexemes, ``""`` last, with their byte offsets beside them.

Binding, loosest first: the comparisons ``< <= = >= >``, then ``+ -``, then
``* /`` (left-associative), then unary minus, then ``^``.  Comparisons do not
chain: ``1 < 2 < 3`` is a parse error, ``(1 < 2) < 3`` parses.  Every binary
operator but ``^`` is one entry of :data:`BINARY_OPERATORS`, its level and its
function, which the parser's one precedence-climbing loop and eval_expr read.

The parser folds constants: a unary minus, ``^``, ``*`` or ``/`` over Literals
becomes one :class:`Literal` of its value, computed by :func:`_apply` as
evaluation would, and equal subexpressions share one Literal within a parse.
A fold that raises keeps its operator node, so evaluation raises the error in
its turn, after any parse error.  ``+``/``-`` chains, comparisons, calls and
sets are not folded, nor is a ``*`` or ``/`` that ``gnum._check_product``
refuses, as it refuses a step of ``pow_int``: its product is left to
evaluation.

The glyph for the infinite unit used in print is accepted as a synonym for
``G`` on input.  ``^`` routes by the value of its operands: an integer
exponent is an exact power, a fractional one an exact root, and an exponent
containing ``G`` requires a nonnegative rational base and produces an
exponential term.  There are no variables; every line is standalone.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from itertools import chain
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

from . import paradoxes, series, sets
from .errors import (
    EvalTypeError,
    GrossoneError,
    LexError,
    ParseError,
    UnknownIdentifier,
    format_int,
)
from .gnum import (
    GROSSONE,
    GrossNumber,
    NumberClass,
    Parity,
    _check_product,
    exp_gross,
    gnum,
    normalize,
    nth_root,
    pow_int,
)
from .paradoxes import LampState, ParadoxReport
from .series import RamanujanAudit
from .sets import AdjustedSet, EmptySet, GrossAP, RootCount

GROSSONE_GLYPH = "①"

#: The most levels of nesting (open brackets, unary minuses and unfinished ``^``
#: exponents) around an operand; deeper input is a ParseError, not a RecursionError.
MAX_NESTING = 100


# --- tokens -------------------------------------------------------------

class Tokens(list):
    """A line's lexemes, ``""`` last, with ``offsets[i]`` where lexeme ``i`` starts."""

    __slots__ = ("offsets",)


def tokenize(text: str) -> Tokens:
    """Maximal-munch lexing into lexemes; integers are arbitrary precision.

    A lexeme is its own kind: an integer starts with a decimal digit, ``G``
    is the infinite unit (the glyph lexes as ``G``), any other word starting
    with a letter or ``_`` is an identifier, every operator, bracket and
    comparison is its own lexeme, and ``""`` is the end of input.  Offsets
    count UTF-8 bytes; the offset is carried forward lexeme by lexeme, and in
    ASCII text it is the character index.
    """
    tokens = Tokens()
    offsets = tokens.offsets = []
    append, mark = tokens.append, offsets.append
    ascii_only = text.isascii()
    i = offset = 0
    n = len(text)
    while i < n:
        c = text[i]
        j = i + 1
        if c in " \t\r\n":
            i, offset = j, offset + 1
            continue
        if c == GROSSONE_GLYPH:
            lexeme = "G"
        elif c.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            lexeme = text[i:j]
        elif c.isalpha() or c == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            lexeme = text[i:j]
        elif c in "<>" and text[j:j + 1] == "=":
            j += 1
            lexeme = text[i:j]
        elif c in "+-*/^(){},<=>":
            lexeme = c
        else:
            raise LexError(offset, c)
        append(lexeme)
        mark(offset)
        offset = j if ascii_only else offset + len(text[i:j].encode("utf-8"))
        i = j
    append("")
    mark(offset)
    return tokens


# --- syntax tree ----------------------------------------------------------

# Plain objects, so a walker reads a node's fields with vars(); none is changed.

class Literal:
    def __init__(self, value: GrossNumber):  # of an integer, G or a folded operator
        self.value = value


class Name:
    def __init__(self, ident: str):
        self.ident = ident


class Unary:
    def __init__(self, op: str, operand: "Expr"):
        self.op, self.operand = op, operand


class Binary:
    def __init__(self, op: str, left: "Expr", right: "Expr"):
        self.op, self.left, self.right = op, left, right


class Call:
    def __init__(self, name: str, args: Tuple["Expr", ...]):
        self.name, self.args = name, args


class SetLit:
    def __init__(self, items: Tuple["Expr", ...]):
        self.items = items


Expr = Union[Literal, Name, Unary, Binary, Call, SetLit]


class BinaryOperator(NamedTuple):
    level: int  # binding level: a higher level binds tighter
    apply: Callable  # the value of ``left op right`` from the operands' values


COMPARISON, SUM, PRODUCT = 1, 2, 3

# The one place a binary operator other than ``^`` is defined: the parser reads
# its level, _apply its function (a number, or a bool for a comparison).
BINARY_OPERATORS = {
    "<": BinaryOperator(COMPARISON, operator.lt),
    "<=": BinaryOperator(COMPARISON, operator.le),
    "=": BinaryOperator(COMPARISON, operator.eq),
    ">=": BinaryOperator(COMPARISON, operator.ge),
    ">": BinaryOperator(COMPARISON, operator.gt),
    "+": BinaryOperator(SUM, operator.add),
    "-": BinaryOperator(SUM, operator.sub),
    "*": BinaryOperator(PRODUCT, operator.mul),
    "/": BinaryOperator(PRODUCT, operator.truediv),
}


class Parser:
    # Reads self.tokens[self.pos] directly: a method call per token was a
    # large share of the time spent parsing.
    def __init__(self, tokens: Tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        # A lexeme, or a folded operator with the Literals it applies to
        # (op, left, right), mapped to its Literal, shared within this parse.
        self.literals: dict = {}

    def error(self, what: str, pos: int) -> ParseError:
        """The error of expecting ``what`` at the lexeme at ``pos``."""
        return ParseError(self.tokens.offsets[pos], what)

    def expect(self, lexeme: str) -> None:
        if self.tokens[self.pos] != lexeme:
            raise self.error(f"'{lexeme}'", self.pos)
        self.pos += 1

    def parse(self) -> Expr:
        expr = self.expression()
        if self.tokens[self.pos]:
            raise self.error("end of input", self.pos)
        return expr

    def expression(self, least: int = COMPARISON) -> Expr:
        """Operands joined left to right by the binary operators of level
        ``least`` or tighter; a comparison ends it, so comparisons do not chain."""
        node = self.operand()
        lexeme = self.tokens[self.pos]
        op = BINARY_OPERATORS.get(lexeme)
        while op is not None and op.level >= least:
            self.pos += 1
            if op.level == PRODUCT:
                # No binary operator binds tighter than * and /: their right side is one operand.
                node = self.fold(lexeme, node, self.operand())
            else:
                node = Binary(lexeme, node, self.expression(op.level + 1))
            if op.level == COMPARISON:
                break
            lexeme = self.tokens[self.pos]
            op = BINARY_OPERATORS.get(lexeme)
        return node

    def operand(self) -> Expr:
        # Each call but a leaf's is one level of nesting: a unary minus, an
        # unfinished ``^`` exponent (right-associative), a bracket, a brace or a call.
        tokens, pos = self.tokens, self.pos
        if self.depth > MAX_NESTING:
            raise self.error(f"at most {MAX_NESTING} levels of nesting", pos)
        lexeme = tokens[pos]
        self.pos = pos + 1
        node = self.literals.get(lexeme)
        if node is None and (lexeme == "G" or lexeme.isdecimal()):
            node = self.literal(pos)
        if node is not None:
            if tokens[pos + 1] != "^":
                return node  # a leaf
            self.depth += 1
        else:
            self.depth += 1
            if lexeme == "-":
                node = self.fold("-", None, self.operand())
            elif lexeme == "(":
                node = self.expression()
                self.expect(")")
            elif lexeme == "{":
                node = SetLit(self.items("}"))
            elif lexeme[:1].isalpha() or lexeme[:1] == "_":
                if tokens[pos + 1] == "(":
                    self.pos += 1
                    node = Call(lexeme, self.items(")"))
                else:
                    node = Name(lexeme)
            else:
                raise self.error("expression", pos)
        # After a minus no ``^`` is left: the operand took it, so -x^y is -(x^y).
        if tokens[self.pos] == "^":
            self.pos += 1
            node = self.fold("^", node, self.operand())
        self.depth -= 1
        return node

    def fold(self, op: str, left: Optional[Expr], right: Expr) -> Expr:
        """The node of ``op`` over its operands (``left`` is None for a unary
        minus).  Over Literals it is one Literal of the value, shared within
        this parse, unless computing the value raises: the operator node is
        then kept, and evaluation raises the same error in its turn.  So is a
        product or quotient that :func:`gnum._check_product` refuses:
        evaluation computes it, after any parse error."""
        if type(right) is Literal and (left is None or type(left) is Literal):
            key = (op, left, right)
            node = self.literals.get(key)
            if node is not None:
                return node
            try:
                if op in "*/":
                    _check_product(left.value, right.value)
                node = self.literals[key] = Literal(
                    -right.value if left is None else _apply(op, left.value, right.value))
                return node
            except GrossoneError:
                pass  # evaluation raises it again, or computes the product
        return Unary(op, right) if left is None else Binary(op, left, right)

    def literal(self, pos: int) -> Literal:
        """A new Literal for the integer or ``G`` at ``pos``, kept in ``literals``."""
        lexeme = self.tokens[pos]
        try:
            value = GROSSONE if lexeme == "G" else gnum(int(lexeme))
        except ValueError:  # past the interpreter's digit limit
            limit = sys.get_int_max_str_digits()
            raise self.error(f"an integer of at most {limit} digits", pos) from None
        node = self.literals[lexeme] = Literal(value)
        return node

    def items(self, close: str) -> Tuple[Expr, ...]:
        """A comma-separated list of expressions up to and including ``close``."""
        items: List[Expr] = []
        if self.tokens[self.pos] != close:
            items.append(self.expression())
            while self.tokens[self.pos] == ",":
                self.pos += 1
                items.append(self.expression())
        self.expect(close)
        return tuple(items)


def parse(tokens: Tokens) -> Expr:
    return Parser(tokens).parse()


# --- values -----------------------------------------------------------------
#
# Evaluation yields the library's own objects; a ``{...}`` literal yields the
# tuple of its ints.

_SETS = (GrossAP, AdjustedSet, EmptySet)

Value = Union[
    GrossNumber, GrossAP, AdjustedSet, EmptySet, Parity, NumberClass, bool,
    RootCount, ParadoxReport, RamanujanAudit, Tuple[int, ...],
]


def _field(render: Callable) -> Callable:
    return lambda value: {"value": render(value)}


_enum_value = operator.attrgetter("value")


def _int_list(xs: Tuple[int, ...]) -> List[int]:
    # json.dumps would end in a bare ValueError on an int past the digit limit.
    for x in xs:
        format_int(x)
    return list(xs)


# Value class: (JSON "type", text of the value, JSON fields of the value).
_OUTPUT = {
    GrossNumber: ("number", str, _field(str)),
    **dict.fromkeys(_SETS, ("set", str, _field(str))),
    Parity: ("parity", _enum_value, _field(_enum_value)),
    NumberClass: ("class", _enum_value, _field(_enum_value)),
    bool: ("bool", lambda b: "true" if b else "false", _field(bool)),
    RootCount: ("count", str, _field(str)),
    ParadoxReport: ("report", str, ParadoxReport.to_json),
    RamanujanAudit: ("audit", str, RamanujanAudit.to_json),
    tuple: ("intset", lambda xs: "{" + ",".join(map(format_int, xs)) + "}", _field(_int_list)),
}


def _output(v: Value) -> tuple:
    try:
        return _OUTPUT[type(v)]
    except KeyError:
        raise TypeError(f"not a value: {v!r}") from None


def print_value(v: Value) -> str:
    return _output(v)[1](v)


def value_json(v: Value) -> dict:
    kind, _, fields = _output(v)
    return {"type": kind, **fields(v)}


# --- argument coercion ---------------------------------------------------------
#
# A coercer takes the builtin's name, the 1-based argument position and the
# argument's value, and returns what the library function takes or raises
# EvalTypeError naming the position.

_RATIONAL_CLASSES = (NumberClass.FINITE_PURE, NumberClass.ZERO)  # of a plain rational


def _number(name: str, pos: int, v: Value) -> GrossNumber:
    if not isinstance(v, GrossNumber):
        raise EvalTypeError(name, pos, "expected a number")
    return v


def _int(name: str, pos: int, v: Value) -> int:
    n = _number(name, pos, v)
    if n.classify() in _RATIONAL_CLASSES and type(r := n.as_rational()) is int:
        return r
    raise EvalTypeError(name, pos, "expected a finite integer")


def _positive(name: str, pos: int, v: Value, what: str = "a positive integer") -> int:
    n = _int(name, pos, v)
    if n <= 0:
        raise EvalTypeError(name, pos, f"expected {what}")
    return n


def _degree(name: str, pos: int, v: Value) -> int:
    return _positive(name, pos, v, "a positive integer degree")


def _rational(name: str, pos: int, v: Value) -> Fraction:
    n = _number(name, pos, v)
    if n.classify() in _RATIONAL_CLASSES:
        return n.as_rational()
    raise EvalTypeError(name, pos, "expected a finite rational")


def _set(name: str, pos: int, v: Value):
    if not isinstance(v, _SETS):
        raise EvalTypeError(name, pos, "expected a set")
    return v


def _ap(name: str, pos: int, v: Value) -> GrossAP:
    s = _set(name, pos, v)
    if not isinstance(s, GrossAP):
        raise EvalTypeError(name, pos, "expected an arithmetic progression")
    return s


def _ints(name: str, pos: int, v: Value) -> Tuple[int, ...]:
    """A ``{...}`` literal's elements, or one finite integer."""
    # Exactly a tuple: the records a builtin returns are tuples as well.
    return v if type(v) is tuple else (_int(name, pos, v),)


def _word(name: str, pos: int, state: LampState) -> LampState:
    """``lamp``'s bare on/off, already read by :func:`_eval_call`."""
    return state


def _check_arity(name: str, args, lo: int, hi: Optional[int]):
    if len(args) < lo or (hi is not None and len(args) > hi):
        want = str(lo) if hi == lo else (f"{lo}+" if hi is None else f"{lo}..{hi}")
        raise EvalTypeError(name, len(args), f"expected {want} argument(s), got {len(args)}")


# --- builtins --------------------------------------------------------------------

class Builtin(NamedTuple):
    """A function of the language.

    ``coercers`` has one entry per argument position; the last entry also
    covers any further arguments of a variadic builtin (``most`` is None).
    ``call`` gets the coerced arguments and looks its library function up on
    the module each time, so a rebinding of that function is honoured; its
    result is the value of the call.
    """

    least: int
    most: Optional[int]
    coercers: Tuple[Callable, ...]
    call: Callable


# The one place a builtin is defined: evaluation and the CLI's paradox
# subcommand both go through this table.
BUILTINS = {
    "ap": Builtin(2, 2, (_int, _int), lambda k, n: sets.ap_nat(k, n)),
    "nat": Builtin(0, 0, (), lambda: sets.naturals()),
    "evens": Builtin(0, 0, (), lambda: sets.evens()),
    "odds": Builtin(0, 0, (), lambda: sets.odds()),
    "ints": Builtin(0, 0, (), lambda: sets.integers_set()),
    "card": Builtin(1, 1, (_set,), lambda s: sets.cardinality(s)),
    "last": Builtin(1, 1, (_ap,), lambda s: sets.last_element(s)),
    "at": Builtin(2, 2, (_ap, _number), lambda s, i: sets.element_at(s, i)),
    "member": Builtin(2, 2, (_set, _number), lambda s, x: sets.member(s, x)),
    "intersect": Builtin(2, 2, (_ap, _ap), lambda a, b: sets.intersect(a, b)),
    "scale": Builtin(2, 2, (_ap, _int), lambda s, m: sets.scale(s, m)),
    "addf": Builtin(2, None, (_set, _ints), lambda s, *xs: sets.add_finite(s, chain(*xs))),
    "remf": Builtin(2, None, (_set, _ints), lambda s, *xs: sets.remove_finite(s, chain(*xs))),
    "couples": Builtin(2, 2, (_set, _set), lambda a, b: sets.couples_count(a, b)),
    "squares": Builtin(0, 0, (), lambda: sets.squares_count()),
    "tri": Builtin(1, 1, (_number,), lambda n: series.triangular(n)),
    "geo": Builtin(2, 2, (_rational, _number), lambda q, k: series.geometric(q, k)),
    "x2": Builtin(1, 1, (_number,), lambda k: series.powers_of_two_sum(k)),
    "grandi": Builtin(1, 1, (_number,), lambda k: series.grandi(k)),
    "grandirr": Builtin(1, 1, (_number,), lambda k: series.grandi_rearranged(k)),
    "ramanujan": Builtin(0, 1, (_number,), lambda *n: series.ramanujan_audit(*n)),
    "tsum": Builtin(1, 1, (_number,), lambda k: series.infinitesimal_sum(k)),
    "parity": Builtin(1, 1, (_number,), lambda n: n.parity()),
    "class": Builtin(1, 1, (_number,), lambda n: n.classify()),
    "evalat": Builtin(2, 2, (_number, _positive), lambda n, t: gnum(n.eval_at(t))),
    "root": Builtin(2, 2, (_number, _degree), lambda n, d: nth_root(n, d)),
    "hotel": Builtin(0, 1, (_number,), lambda *m: paradoxes.hilbert_accommodate(*m)),
    "lamp": Builtin(1, 2, (_word, _number), lambda s, *k: paradoxes.thomson_lamp(s, *k)),
    "torricelli": Builtin(0, 1, (_number,), lambda *h: paradoxes.torricelli(*h)),
    "galileo": Builtin(0, 0, (), lambda: paradoxes.galileo_report()),
    "multiplication": Builtin(0, 0, (), lambda: paradoxes.multiplication_report()),
}


# --- evaluation ----------------------------------------------------------------

def _eval_power(left: Value, right: Value) -> GrossNumber:
    if type(right) is not GrossNumber:
        right = _number("^", 2, right)
    # A rational exponent is zero or one term with neither B^G nor G: its coefficient.
    if not right or (len(right) == 1 and right[0].base == 1 and right[0].gpow == 0):
        r = right[0].coeff if right else 0
        if type(left) is not GrossNumber:
            left = _number("^", 1, left)
        # An integral exponent goes to pow_int directly; any other is a root.
        return pow_int(left, r) if type(r) is int else left ** r
    # Exponent involves G: the base must be a plain nonnegative rational.
    if not (isinstance(left, GrossNumber) and left.classify() in _RATIONAL_CLASSES
            and left.sign() >= 0):
        raise EvalTypeError("^", 1, "a G-exponent needs a nonnegative rational base")
    return exp_gross(left.as_rational(), right)


def _apply(op: str, lv: Value, rv: Value) -> Value:
    """The value of ``lv op rv`` for one binary operator, from its operands'
    values: eval_expr's and the parser's fold's one way to compute it.  For
    any operator but ``^``, ``lv`` is a number: eval_expr checks it before it
    evaluates ``rv``, and the fold passes only Literals."""
    if op == "^":
        return _eval_power(lv, rv)
    if type(rv) is not GrossNumber:
        rv = _number(op, 2, rv)
    spec = BINARY_OPERATORS.get(op)
    if spec is None:
        raise UnknownIdentifier(f"unknown operator '{op}'")
    return spec.apply(lv, rv)


_SUMS = ("+", "-")


def _sum_terms(expr: Binary, terms: list) -> None:
    """Append the terms of the ``+``/``-`` chain ``expr`` to ``terms``, left
    to right, those of each ``-`` operand negated.  One frame per operand,
    and each operand is checked as the dunders' chain would check it."""
    op, left, right = expr.op, expr.left, expr.right
    if type(left) is Binary and left.op in _SUMS:
        _sum_terms(left, terms)
    else:
        lv = left.value if type(left) is Literal else eval_expr(left)
        terms.extend(lv if type(lv) is GrossNumber else _number(op, 1, lv))
    rv = right.value if type(right) is Literal else eval_expr(right)
    if type(rv) is not GrossNumber:
        rv = _number(op, 2, rv)
    if op == "-":
        terms += [(-c, b, p) for c, b, p in rv]
    else:
        terms.extend(rv)


def eval_expr(expr: Expr) -> Value:
    # One frame per tree level above the leaves: a Literal child's value is
    # read in place.  The most frequent node classes are tested first.
    cls = type(expr)
    if cls is Binary:
        op, left, right = expr.op, expr.left, expr.right
        if type(left) is Binary and op in _SUMS and left.op in _SUMS:
            # A chain of three or more operands: one normalize of all their
            # terms in place of a merge per operand.
            terms = []
            _sum_terms(expr, terms)
            return normalize(terms)
        lv = left.value if type(left) is Literal else eval_expr(left)
        if type(lv) is not GrossNumber and op != "^":
            _number(op, 1, lv)  # argument 1 is checked before argument 2 is evaluated
        return _apply(op, lv, right.value if type(right) is Literal else eval_expr(right))
    if cls is Literal:
        return expr.value
    if cls is Unary:
        operand = expr.operand
        v = operand.value if type(operand) is Literal else eval_expr(operand)
        return -(v if type(v) is GrossNumber else _number("-", 1, v))
    if cls is Call:
        return _eval_call(expr)
    if cls is Name:
        raise UnknownIdentifier(f"unknown identifier '{expr.ident}'")
    if cls is SetLit:
        return tuple(_int("{}", i + 1, eval_expr(e)) for i, e in enumerate(expr.items))
    raise TypeError(f"not an expression: {expr!r}")


def _eval_call(call: Call) -> Value:
    """Evaluate the arguments, look the name up, check the arity, coerce the
    arguments left to right and call; the library's result is the value."""
    name = call.name
    if name == "lamp":
        # The initial state is the bare word on/off, not an expression; it is
        # checked before the switch count is evaluated.
        _check_arity(name, call.args, 1, 2)
        head = call.args[0]
        if not isinstance(head, Name) or head.ident not in ("on", "off"):
            raise EvalTypeError(name, 1, "expected 'on' or 'off'")
        args = [LampState(head.ident)] + [eval_expr(a) for a in call.args[1:]]
    else:
        args = [eval_expr(a) for a in call.args]
    spec = BUILTINS.get(name)
    if spec is None:
        raise UnknownIdentifier(f"unknown function '{name}'")
    _check_arity(name, args, spec.least, spec.most)
    last = len(spec.coercers) - 1
    coerced = [spec.coercers[min(i, last)](name, i + 1, v) for i, v in enumerate(args)]
    return spec.call(*coerced)


def evaluate(text: str) -> Value:
    """Tokenize, parse and evaluate one expression."""
    return eval_expr(parse(tokenize(text)))

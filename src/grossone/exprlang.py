"""Expression language over the whole library, with ``G`` as the infinite unit.

Grammar (loosest binding first)::

    expression := additive (("<" | "<=" | "=" | ">=" | ">") additive)?
    additive   := multiplicative (("+" | "-") multiplicative)*
    multiplicative := unary (("*" | "/") unary)*
    unary      := "-" unary | power
    power      := atom ("^" unary)?          -- right-associative
    atom       := INT | "G" | ident "(" args ")" | ident
                | "(" expression ")" | "{" int-elements "}"

The glyph for the infinite unit used in print is accepted as a synonym for
``G`` on input.  ``^`` routes by the value of its operands: an integer
exponent is an exact power, a fractional one an exact root, and an exponent
containing ``G`` requires a nonnegative rational base and produces an
exponential term.  There are no variables; every line is standalone.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain
from typing import Callable, List, Optional, Tuple, Union

from . import paradoxes, series, sets
from .errors import (
    EvalTypeError,
    LexError,
    ParseError,
    UnknownIdentifier,
)
from .gnum import (
    GROSSONE,
    GrossNumber,
    NumberClass,
    Parity,
    exp_gross,
    gnum,
    nth_root,
    pow_int,
)
from .paradoxes import LampState, ParadoxReport
from .series import RamanujanAudit
from .sets import AdjustedSet, EmptySet, GrossAP, RootCount

GROSSONE_GLYPH = "①"


# --- tokens -------------------------------------------------------------

class TokenKind(Enum):
    INT = "int"
    G = "G"
    IDENT = "ident"
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    CARET = "^"
    LPAREN = "("
    RPAREN = ")"
    LBRACE = "{"
    RBRACE = "}"
    COMMA = ","
    CMP = "cmp"
    END = "end"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    lexeme: str
    offset: int


_SINGLE = {
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "^": TokenKind.CARET,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    ",": TokenKind.COMMA,
}


def tokenize(text: str) -> List[Token]:
    """Maximal-munch lexing; integers are arbitrary precision.

    Offsets count UTF-8 bytes; the offset is carried forward token by token.
    """
    tokens: List[Token] = []
    i = offset = 0
    n = len(text)
    while i < n:
        c = text[i]
        j = i + 1
        if c in " \t\r\n":
            i, offset = j, offset + 1
            continue
        if c == GROSSONE_GLYPH:
            kind, lexeme = TokenKind.G, "G"
        elif c.isdecimal():
            while j < n and text[j].isdecimal():
                j += 1
            kind, lexeme = TokenKind.INT, text[i:j]
        elif c.isalpha() or c == "_":
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            lexeme = text[i:j]
            kind = TokenKind.G if lexeme == "G" else TokenKind.IDENT
        elif c in "<>=":
            if c != "=" and text[j:j + 1] == "=":
                j += 1
            kind, lexeme = TokenKind.CMP, text[i:j]
        elif c in _SINGLE:
            kind, lexeme = _SINGLE[c], c
        else:
            raise LexError(offset, c)
        tokens.append(Token(kind, lexeme, offset))
        offset += len(text[i:j].encode("utf-8"))
        i = j
    tokens.append(Token(TokenKind.END, "", offset))
    return tokens


# --- syntax tree ----------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    value: Fraction


@dataclass(frozen=True)
class Grossone:
    pass


@dataclass(frozen=True)
class Name:
    ident: str


@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: Tuple["Expr", ...]


@dataclass(frozen=True)
class SetLit:
    items: Tuple["Expr", ...]


Expr = Union[Literal, Grossone, Name, Unary, Binary, Call, SetLit]


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: TokenKind, what: str) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            raise ParseError(tok.offset, what)
        return self.advance()

    def parse(self) -> Expr:
        expr = self.expression()
        tok = self.peek()
        if tok.kind is not TokenKind.END:
            raise ParseError(tok.offset, "end of input")
        return expr

    def expression(self) -> Expr:
        left = self.additive()
        if self.peek().kind is TokenKind.CMP:
            op = self.advance().lexeme
            right = self.additive()
            return Binary(op, left, right)
        return left

    def additive(self) -> Expr:
        node = self.multiplicative()
        while self.peek().kind in (TokenKind.PLUS, TokenKind.MINUS):
            op = self.advance().lexeme
            node = Binary(op, node, self.multiplicative())
        return node

    def multiplicative(self) -> Expr:
        node = self.unary()
        while self.peek().kind in (TokenKind.STAR, TokenKind.SLASH):
            op = self.advance().lexeme
            node = Binary(op, node, self.unary())
        return node

    def unary(self) -> Expr:
        if self.peek().kind is TokenKind.MINUS:
            self.advance()
            return Unary("-", self.unary())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self.peek().kind is TokenKind.CARET:
            self.advance()
            return Binary("^", node, self.unary())
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind is TokenKind.INT:
            self.advance()
            return Literal(Fraction(int(tok.lexeme)))
        if tok.kind is TokenKind.G:
            self.advance()
            return Grossone()
        if tok.kind is TokenKind.LPAREN:
            self.advance()
            inner = self.expression()
            self.expect(TokenKind.RPAREN, "')'")
            return inner
        if tok.kind is TokenKind.LBRACE:
            self.advance()
            return SetLit(self.items(TokenKind.RBRACE, "'}'"))
        if tok.kind is TokenKind.IDENT:
            self.advance()
            if self.peek().kind is TokenKind.LPAREN:
                self.advance()
                return Call(tok.lexeme, self.items(TokenKind.RPAREN, "')'"))
            return Name(tok.lexeme)
        raise ParseError(tok.offset, "expression")

    def items(self, close: TokenKind, what: str) -> Tuple[Expr, ...]:
        """A comma-separated list of expressions up to and including ``close``."""
        items: List[Expr] = []
        if self.peek().kind is not close:
            items.append(self.expression())
            while self.peek().kind is TokenKind.COMMA:
                self.advance()
                items.append(self.expression())
        self.expect(close, what)
        return tuple(items)


def parse(tokens: List[Token]) -> Expr:
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

# Value class: (JSON "type", text of the value, JSON fields of the value).
_OUTPUT = {
    GrossNumber: ("number", str, _field(str)),
    **dict.fromkeys(_SETS, ("set", str, _field(str))),
    Parity: ("parity", _enum_value, _field(_enum_value)),
    NumberClass: ("class", _enum_value, _field(_enum_value)),
    bool: ("bool", lambda b: "true" if b else "false", _field(bool)),
    RootCount: ("count", str, _field(str)),
    ParadoxReport: ("report", ParadoxReport.render_text, ParadoxReport.to_json),
    RamanujanAudit: ("audit", str, RamanujanAudit.to_json),
    tuple: ("intset", lambda xs: "{" + ",".join(str(x) for x in xs) + "}", _field(list)),
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

def _number(name: str, pos: int, v: Value) -> GrossNumber:
    if not isinstance(v, GrossNumber):
        raise EvalTypeError(name, pos, "expected a number")
    return v


def _int(name: str, pos: int, v: Value) -> int:
    n = _number(name, pos, v)
    try:
        r = n.as_rational()
    except ValueError:
        raise EvalTypeError(name, pos, "expected a finite integer") from None
    if r.denominator != 1:
        raise EvalTypeError(name, pos, "expected a finite integer")
    return int(r)


def _positive(name: str, pos: int, v: Value, what: str = "a positive integer") -> int:
    n = _int(name, pos, v)
    if n <= 0:
        raise EvalTypeError(name, pos, f"expected {what}")
    return n


def _degree(name: str, pos: int, v: Value) -> int:
    return _positive(name, pos, v, "a positive integer degree")


def _rational(name: str, pos: int, v: Value) -> Fraction:
    n = _number(name, pos, v)
    try:
        return n.as_rational()
    except ValueError:
        raise EvalTypeError(name, pos, "expected a finite rational") from None


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
    return v if isinstance(v, tuple) else (_int(name, pos, v),)


def _word(name: str, pos: int, state: LampState) -> LampState:
    """``lamp``'s bare on/off, already read by :func:`_eval_call`."""
    return state


def _check_arity(name: str, args, lo: int, hi: Optional[int]):
    if len(args) < lo or (hi is not None and len(args) > hi):
        want = str(lo) if hi == lo else (f"{lo}+" if hi is None else f"{lo}..{hi}")
        raise EvalTypeError(name, len(args), f"expected {want} argument(s), got {len(args)}")


# --- builtins --------------------------------------------------------------------

@dataclass(frozen=True)
class Builtin:
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
    "grandi": Builtin(1, 1, (_number,), lambda k: gnum(series.grandi(k).value)),
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
    rv = _number("^", 2, right)
    if rv.classify() in (NumberClass.FINITE_PURE, NumberClass.ZERO):
        exponent = rv.as_rational()
        base = _number("^", 1, left)
        if exponent.denominator == 1:
            return pow_int(base, int(exponent))
        return nth_root(pow_int(base, exponent.numerator), exponent.denominator)
    # Exponent involves G: the base must be a plain nonnegative rational.
    if not isinstance(left, GrossNumber) or left.classify() not in (
        NumberClass.FINITE_PURE,
        NumberClass.ZERO,
    ):
        raise EvalTypeError("^", 1, "a G-exponent needs a nonnegative rational base")
    base_q = left.as_rational()
    if base_q < 0:
        raise EvalTypeError("^", 1, "a G-exponent needs a nonnegative rational base")
    return exp_gross(base_q, rv)


# The arithmetic operators give a number, the comparisons a bool.
_OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "<": operator.lt,
    "<=": operator.le,
    "=": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
}


def eval_expr(expr: Expr) -> Value:
    if isinstance(expr, Literal):
        return gnum(expr.value)
    if isinstance(expr, Grossone):
        return GROSSONE
    if isinstance(expr, Name):
        raise UnknownIdentifier(f"unknown identifier '{expr.ident}'")
    if isinstance(expr, SetLit):
        return tuple(_int("{}", i + 1, eval_expr(e)) for i, e in enumerate(expr.items))
    if isinstance(expr, Unary):
        return -_number("-", 1, eval_expr(expr.operand))
    if isinstance(expr, Binary) and expr.op == "^":
        return _eval_power(eval_expr(expr.left), eval_expr(expr.right))
    if isinstance(expr, Binary):
        lv = _number(expr.op, 1, eval_expr(expr.left))
        rv = _number(expr.op, 2, eval_expr(expr.right))
        op = _OPERATORS.get(expr.op)
        if op is None:
            raise UnknownIdentifier(f"unknown operator '{expr.op}'")
        return op(lv, rv)
    if isinstance(expr, Call):
        return _eval_call(expr)
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

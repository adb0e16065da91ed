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


def _byte_offset(text: str, index: int) -> int:
    return len(text[:index].encode("utf-8"))


def tokenize(text: str) -> List[Token]:
    """Maximal-munch lexing; integers are arbitrary precision."""
    tokens: List[Token] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        start = _byte_offset(text, i)
        if c == GROSSONE_GLYPH:
            tokens.append(Token(TokenKind.G, "G", start))
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(Token(TokenKind.INT, text[i:j], start))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = TokenKind.G if word == "G" else TokenKind.IDENT
            tokens.append(Token(kind, word, start))
            i = j
            continue
        if c in "<>":
            if i + 1 < n and text[i + 1] == "=":
                tokens.append(Token(TokenKind.CMP, c + "=", start))
                i += 2
            else:
                tokens.append(Token(TokenKind.CMP, c, start))
                i += 1
            continue
        if c == "=":
            tokens.append(Token(TokenKind.CMP, "=", start))
            i += 1
            continue
        if c in _SINGLE:
            tokens.append(Token(_SINGLE[c], c, start))
            i += 1
            continue
        raise LexError(start, c)
    tokens.append(Token(TokenKind.END, "", _byte_offset(text, n)))
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
class Compare:
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


Expr = Union[Literal, Grossone, Name, Unary, Binary, Compare, Call, SetLit]


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
            return Compare(op, left, right)
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
            items: List[Expr] = []
            if self.peek().kind is not TokenKind.RBRACE:
                items.append(self.expression())
                while self.peek().kind is TokenKind.COMMA:
                    self.advance()
                    items.append(self.expression())
            self.expect(TokenKind.RBRACE, "'}'")
            return SetLit(tuple(items))
        if tok.kind is TokenKind.IDENT:
            self.advance()
            if self.peek().kind is TokenKind.LPAREN:
                self.advance()
                args: List[Expr] = []
                if self.peek().kind is not TokenKind.RPAREN:
                    args.append(self.expression())
                    while self.peek().kind is TokenKind.COMMA:
                        self.advance()
                        args.append(self.expression())
                self.expect(TokenKind.RPAREN, "')'")
                return Call(tok.lexeme, tuple(args))
            return Name(tok.lexeme)
        raise ParseError(tok.offset, "expression")


def parse(tokens: List[Token]) -> Expr:
    return Parser(tokens).parse()


# --- values -----------------------------------------------------------------

@dataclass(frozen=True)
class NumberV:
    value: GrossNumber


@dataclass(frozen=True)
class SetV:
    value: Union[GrossAP, AdjustedSet, EmptySet]


@dataclass(frozen=True)
class ParityV:
    value: Parity


@dataclass(frozen=True)
class BoolV:
    value: bool


@dataclass(frozen=True)
class ClassV:
    value: NumberClass


@dataclass(frozen=True)
class RootV:
    value: RootCount


@dataclass(frozen=True)
class ReportV:
    value: ParadoxReport


@dataclass(frozen=True)
class AuditV:
    value: RamanujanAudit


@dataclass(frozen=True)
class IntSetV:
    value: Tuple[int, ...]


Value = Union[NumberV, SetV, ParityV, BoolV, ClassV, RootV, ReportV, AuditV, IntSetV]


def _field(render: Callable) -> Callable:
    return lambda payload: {"value": render(payload)}


_enum_value = operator.attrgetter("value")

# Wrapper class: (JSON "type", text of the payload, JSON fields of the payload).
_OUTPUT = {
    NumberV: ("number", str, _field(str)),
    SetV: ("set", str, _field(str)),
    ParityV: ("parity", _enum_value, _field(_enum_value)),
    ClassV: ("class", _enum_value, _field(_enum_value)),
    BoolV: ("bool", lambda b: "true" if b else "false", _field(bool)),
    RootV: ("count", str, _field(str)),
    ReportV: ("report", ParadoxReport.render_text, ParadoxReport.to_json),
    AuditV: ("audit", str, RamanujanAudit.to_json),
    IntSetV: ("intset", lambda xs: "{" + ",".join(str(x) for x in xs) + "}", _field(list)),
}


def _output(v: Value) -> tuple:
    try:
        return _OUTPUT[type(v)]
    except KeyError:
        raise TypeError(f"not a value: {v!r}") from None


def print_value(v: Value) -> str:
    return _output(v)[1](v.value)


def value_json(v: Value) -> dict:
    kind, _, fields = _output(v)
    return {"type": kind, **fields(v.value)}


# --- argument coercion ---------------------------------------------------------
#
# A coercer takes the builtin's name, the 1-based argument position and the
# argument's value, and returns what the library function takes or raises
# EvalTypeError naming the position.

def _number(name: str, pos: int, v: Value) -> GrossNumber:
    if not isinstance(v, NumberV):
        raise EvalTypeError(name, pos, "expected a number")
    return v.value


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
    if not isinstance(v, SetV):
        raise EvalTypeError(name, pos, "expected a set")
    return v.value


def _ap(name: str, pos: int, v: Value) -> GrossAP:
    s = _set(name, pos, v)
    if not isinstance(s, GrossAP):
        raise EvalTypeError(name, pos, "expected an arithmetic progression")
    return s


def _ints(name: str, pos: int, v: Value) -> Tuple[int, ...]:
    """A ``{...}`` literal's elements, or one finite integer."""
    return v.value if isinstance(v, IntSetV) else (_int(name, pos, v),)


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
    the module each time, so a rebinding of that function is honoured;
    ``wrap`` turns the result into a value.
    """

    least: int
    most: Optional[int]
    coercers: Tuple[Callable, ...]
    call: Callable
    wrap: Callable[[object], Value]


# The one place a builtin is defined: evaluation and the CLI's paradox
# subcommand both go through this table.
BUILTINS = {
    "ap": Builtin(2, 2, (_int, _int), lambda k, n: sets.ap_nat(k, n), SetV),
    "nat": Builtin(0, 0, (), lambda: sets.naturals(), SetV),
    "evens": Builtin(0, 0, (), lambda: sets.evens(), SetV),
    "odds": Builtin(0, 0, (), lambda: sets.odds(), SetV),
    "ints": Builtin(0, 0, (), lambda: sets.integers_set(), SetV),
    "card": Builtin(1, 1, (_set,), lambda s: sets.cardinality(s), NumberV),
    "last": Builtin(1, 1, (_ap,), lambda s: sets.last_element(s), NumberV),
    "at": Builtin(2, 2, (_ap, _number), lambda s, i: sets.element_at(s, i), NumberV),
    "member": Builtin(2, 2, (_set, _number), lambda s, x: sets.member(s, x), BoolV),
    "intersect": Builtin(2, 2, (_ap, _ap), lambda a, b: sets.intersect(a, b), SetV),
    "scale": Builtin(2, 2, (_ap, _int), lambda s, m: sets.scale(s, m), SetV),
    "addf": Builtin(2, None, (_set, _ints), lambda s, *xs: sets.add_finite(s, chain(*xs)), SetV),
    "remf": Builtin(2, None, (_set, _ints), lambda s, *xs: sets.remove_finite(s, chain(*xs)), SetV),
    "couples": Builtin(2, 2, (_set, _set), lambda a, b: sets.couples_count(a, b), NumberV),
    "squares": Builtin(0, 0, (), lambda: sets.squares_count(), RootV),
    "tri": Builtin(1, 1, (_number,), lambda n: series.triangular(n), NumberV),
    "geo": Builtin(2, 2, (_rational, _number), lambda q, k: series.geometric(q, k), NumberV),
    "x2": Builtin(1, 1, (_number,), lambda k: series.powers_of_two_sum(k), NumberV),
    "grandi": Builtin(1, 1, (_number,), lambda k: gnum(series.grandi(k).value), NumberV),
    "grandirr": Builtin(1, 1, (_number,), lambda k: series.grandi_rearranged(k), NumberV),
    "ramanujan": Builtin(0, 1, (_number,), lambda *n: series.ramanujan_audit(*n), AuditV),
    "tsum": Builtin(1, 1, (_number,), lambda k: series.infinitesimal_sum(k), NumberV),
    "parity": Builtin(1, 1, (_number,), lambda n: n.parity(), ParityV),
    "class": Builtin(1, 1, (_number,), lambda n: n.classify(), ClassV),
    "evalat": Builtin(2, 2, (_number, _positive), lambda n, t: gnum(n.eval_at(t)), NumberV),
    "root": Builtin(2, 2, (_number, _degree), lambda n, d: nth_root(n, d), NumberV),
    "hotel": Builtin(0, 1, (_number,), lambda *m: paradoxes.hilbert_accommodate(*m), ReportV),
    "lamp": Builtin(1, 2, (_word, _number), lambda s, *k: paradoxes.thomson_lamp(s, *k), ReportV),
    "torricelli": Builtin(0, 1, (_number,), lambda *h: paradoxes.torricelli(*h), ReportV),
    "galileo": Builtin(0, 0, (), lambda: paradoxes.galileo_report(), ReportV),
    "multiplication": Builtin(0, 0, (), lambda: paradoxes.multiplication_report(), ReportV),
}


# --- evaluation ----------------------------------------------------------------

def _eval_power(left: Value, right: Value) -> Value:
    rv = _number("^", 2, right)
    if rv.classify() in (NumberClass.FINITE_PURE, NumberClass.ZERO):
        exponent = rv.as_rational()
        base = _number("^", 1, left)
        if exponent.denominator == 1:
            return NumberV(pow_int(base, int(exponent)))
        return NumberV(nth_root(pow_int(base, exponent.numerator), exponent.denominator))
    # Exponent involves G: the base must be a plain nonnegative rational.
    if not isinstance(left, NumberV) or left.value.classify() not in (
        NumberClass.FINITE_PURE,
        NumberClass.ZERO,
    ):
        raise EvalTypeError("^", 1, "a G-exponent needs a nonnegative rational base")
    base_q = left.value.as_rational()
    if base_q < 0:
        raise EvalTypeError("^", 1, "a G-exponent needs a nonnegative rational base")
    return NumberV(exp_gross(base_q, rv))


# Operator: (the function of both operands, the wrapper of its result).
_OPERATORS = {
    "+": (operator.add, NumberV),
    "-": (operator.sub, NumberV),
    "*": (operator.mul, NumberV),
    "/": (operator.truediv, NumberV),
    "<": (operator.lt, BoolV),
    "<=": (operator.le, BoolV),
    "=": (operator.eq, BoolV),
    ">=": (operator.ge, BoolV),
    ">": (operator.gt, BoolV),
}


def eval_expr(expr: Expr) -> Value:
    if isinstance(expr, Literal):
        return NumberV(gnum(expr.value))
    if isinstance(expr, Grossone):
        return NumberV(GROSSONE)
    if isinstance(expr, Name):
        raise UnknownIdentifier(f"unknown identifier '{expr.ident}'")
    if isinstance(expr, SetLit):
        return IntSetV(tuple(_int("{}", i + 1, eval_expr(e)) for i, e in enumerate(expr.items)))
    if isinstance(expr, Unary):
        v = eval_expr(expr.operand)
        return NumberV(-_number("-", 1, v))
    if isinstance(expr, Binary) and expr.op == "^":
        return _eval_power(eval_expr(expr.left), eval_expr(expr.right))
    if isinstance(expr, (Binary, Compare)):
        lv = _number(expr.op, 1, eval_expr(expr.left))
        rv = _number(expr.op, 2, eval_expr(expr.right))
        op, wrap = _OPERATORS.get(expr.op, (None, None))
        if op is None:
            raise UnknownIdentifier(f"unknown operator '{expr.op}'")
        return wrap(op(lv, rv))
    if isinstance(expr, Call):
        return _eval_call(expr)
    raise TypeError(f"not an expression: {expr!r}")


def _eval_call(call: Call) -> Value:
    """Evaluate the arguments, look the name up, check the arity, coerce the
    arguments left to right, call, wrap."""
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
    return spec.wrap(spec.call(*coerced))


def evaluate(text: str) -> Value:
    """Tokenize, parse and evaluate one expression."""
    return eval_expr(parse(tokenize(text)))

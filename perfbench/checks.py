"""Expected outcomes derived from corpus specs, and the comparisons against them.

An expectation is a tuple whose first item names its kind: ``num`` (residue
at G := T), ``bool``, ``int``, ``frac``, ``word``, ``text``, ``report``,
``audit``, ``set`` or ``err`` (GrossoneError class name or None for any,
and the CLI exit code).  Every check returns None when the output is right
and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import operator
import re
from fractions import Fraction

from . import oracle
from .oracle import T, OracleError, residue, residue_of

CMP = {
    "<": operator.lt, "<=": operator.le, "=": operator.eq, ">=": operator.ge, ">": operator.gt,
    "lt": operator.lt, "le": operator.le, "eq": operator.eq, "ge": operator.ge, "gt": operator.gt,
}
ANY_ERROR = "GrossoneError"


def eval_tree(t) -> dict:
    kind = t[0]
    if kind == "int":
        return oracle.const(t[1])
    if kind == "frac":
        return oracle.const(Fraction(t[1], t[2]))
    if kind == "Gp":
        return oracle.num([(1, 1, t[1])])
    if kind == "exp":
        return oracle.num([(1, Fraction(t[1], t[2]), 0)])
    if kind == "neg":
        return oracle.neg(eval_tree(t[1]))
    if kind == "^":
        return oracle.power(eval_tree(t[1]), t[2])
    x, y = eval_tree(t[1]), eval_tree(t[2])
    if kind == "+":
        return oracle.add(x, y)
    if kind == "-":
        return oracle.sub(x, y)
    if kind == "*":
        return oracle.mul(x, y)
    return oracle.div_monomial(x, y)


def _num(value) -> tuple:
    return ("num", residue_of(value))


def _err(cls=None, code=3) -> tuple:
    return ("err", cls, code)


def _intersection_stats(k1: int, n1: int, k2: int, n2: int):
    """First element, second element and count of the intersection at T."""
    if n2 > n1:
        k1, n1, k2, n2 = k2, n2, k1, n1
    first = second = None
    count = 0
    for x in oracle.ap_range(k1, n1):
        if (x - k2) % n2 == 0:
            count += 1
            if first is None:
                first = x
            elif second is None:
                second = x
    return first, second, count


def _card(k: int, n: int) -> int:
    return len(oracle.ap_range(k, n))


def _adjusted(op: str, k: int, n: int, xs: list) -> tuple:
    members = oracle.ap_range(k, n)
    count = len(members)
    for x in sorted(set(xs)):
        if op == "addf":
            if x in members:
                return _err("ElementAlreadyPresent")
            count += 1
        else:
            if x not in members:
                return _err("ElementNotPresent")
            count -= 1
    return _num(count)


def _geo(qn: int, qd: int, k: int) -> int:
    q = Fraction(qn, qd)
    mag = abs(q)
    qk = pow(mag.numerator, k, oracle.P) * pow(mag.denominator, -k, oracle.P)
    if q < 0 and k % 2:
        qk = -qk
    return residue_of(q) * (qk - 1) * pow(residue_of(q - 1), -1, oracle.P) % oracle.P


def expected(spec) -> tuple:
    """The outcome a correct program produces for an expression-language spec."""
    kind = spec[0]
    args = spec[1:]
    if kind == "num":
        return ("num", residue(oracle.from_spec(args[0])))
    if kind == "tree":
        t = args[0]
        if t[0] == "cmp":
            return ("bool", CMP[t[1]](oracle.compare(eval_tree(t[2]), eval_tree(t[3])), 0))
        return ("num", residue(eval_tree(t)))
    if kind == "card_ap":
        return _num(_card(*args))
    if kind in ("inter_card", "inter_set"):
        first, second, count = _intersection_stats(*args)
        if kind == "inter_card":
            return _num(count)
        return ("set", first, None if second is None else second - first, count)
    if kind == "couples":
        k1, n1, k2, n2 = args
        return _num(_card(k1, n1) * _card(k2, n2))
    if kind == "member":
        k, n, x = args
        return ("bool", x in oracle.ap_range(k, n))
    if kind == "last":
        return _num(oracle.ap_range(*args)[-1])
    if kind == "at":
        k, n, i = args
        return _num(oracle.ap_range(k, n)[i - 1])
    if kind in ("addf", "remf"):
        return _adjusted(kind, *args)
    if kind == "card_named":
        r = {"nat": range(1, T + 1), "ints": range(-T, T + 1),
             "evens": range(2, T + 1, 2), "odds": range(1, T + 1, 2)}[args[0]]
        return _num(len(r))
    if kind == "scale_card":
        k, n, m = args
        return _err() if m <= 0 else _num(_card(k, n))
    if kind == "scale_member":
        m, x = args
        return _err() if m <= 0 else ("bool", x in range(m, m * T + 1, m))
    if kind == "text":
        return ("text", args[0])
    if kind in ("tri", "geo", "x2", "grandi", "grandirr", "tsum", "parity", "lamp"):
        a, d = args[-2:]
        k = oracle.linear_at(a, d)
        if kind == "tri":
            return _num(k * (k + 1) // 2)
        if kind == "geo":
            return ("num", _geo(args[0], args[1], k))
        if kind == "tsum":
            return _num(Fraction(k, T * T))
        if kind == "parity":
            return ("word", "even" if k % 2 == 0 else "odd")
        if k <= 0:
            return _err()
        if kind == "x2":
            return ("num", (pow(2, k, oracle.P) - 1) % oracle.P)
        if kind == "grandi":
            return _num(k % 2)
        if kind == "grandirr":
            return _num(0) if k % 2 == 0 else _err("OddLength")
        return ("report", "thomson")
    if kind == "ramanujan":
        n = oracle.linear_at(*args)
        if n % 2:
            return _err("OddLength")
        return ("audit", residue_of(-3 * n * (n + 1) // 2))
    if kind == "class":
        return ("word", oracle.classify(eval_tree(args[0])))
    if kind == "evalat":
        return _num(oracle.exact_at(eval_tree(args[0]), args[1]))
    if kind == "report":
        return ("report", args[0])
    if kind == "hotel":
        an, ad, d = args
        alpha = Fraction(an, ad)
        positive = alpha > 0 or d > 0
        fits = alpha < 1 or d <= 0
        return ("report", "hilbert") if positive and fits else _err("TooManyNewcomers")
    if kind == "err":
        return _err(args[0], args[1])
    raise ValueError(f"unknown spec {kind!r}")


def expected_kernel(op) -> tuple:
    """The outcome of a kernel operation, from its operands alone."""
    kind = op[0]
    if kind == "eval_at":
        return ("frac", oracle.exact_at(oracle.from_spec(op[1]), op[2]))
    if kind == "pow":
        return ("num", pow(residue(oracle.from_spec(op[1])), op[2], oracle.P))
    a, b = oracle.from_spec(op[1]), oracle.from_spec(op[2])
    if kind == "div":
        if not b:
            return _err("DivisionByZero")
        if op[3] is not None:
            return ("num", residue(oracle.from_spec(op[3])))
        if len(b) == 1:
            return ("num", residue(oracle.div_monomial(a, b)))
        return _err("NotExactlyDivisible")
    if kind == "add":
        return ("num", residue(oracle.add(a, b)))
    if kind == "sub":
        return ("num", residue(oracle.sub(a, b)))
    if kind == "mul":
        return ("num", residue(oracle.mul(a, b)))
    if kind == "compare":
        return ("int", oracle.compare(a, b))
    return ("bool", CMP[kind](oracle.compare(a, b), 0))


# -- comparisons ---------------------------------------------------------------------

def short(text: str, limit: int = 60) -> str:
    text = str(text)
    return text if len(text) <= limit else text[:limit] + "..."


def check_number(text: str, want: int):
    try:
        got = residue(oracle.parse(text))
    except OracleError as exc:
        return str(exc)
    return None if got == want else f"wrong value {short(text)}"


_AP = re.compile(r"AP\(first=(.+), step=(\d+), count=(.+)\)")


def check_set(text: str, want: tuple):
    _, first, step, count = want
    if text == "Empty":
        return None if count == 0 else "Empty, expected a nonempty set"
    m = _AP.fullmatch(text)
    if not m:
        return f"not a progression: {short(text)}"
    try:
        got_first = oracle.exact_at(oracle.parse(m[1]), T)
        got_count = oracle.exact_at(oracle.parse(m[3]), T)
    except OracleError as exc:
        return str(exc)
    if (got_first, got_count) != (first, count) or (step is not None and int(m[2]) != step):
        return f"wrong set {short(text)}"
    return None


def check_report(obj: dict, name: str):
    if obj.get("name") != name:
        return f"report {obj.get('name')!r}, expected {name!r}"
    if obj.get("resolved") is not True or not all(c.get("ok") for c in obj.get("claims", [])):
        return f"{name} report not resolved"
    return None


def check_json(want: tuple, obj: dict):
    """Compare one ``value_json`` object."""
    kind = want[0]
    typ = obj.get("type")
    if kind == "err":
        return f"returned a {typ}, expected {want[1] or ANY_ERROR}"
    if kind == "num":
        return check_number(obj["value"], want[1]) if typ == "number" else f"type {typ}, expected number"
    if kind == "bool":
        return None if obj == {"type": "bool", "value": want[1]} else f"wrong bool {obj.get('value')}"
    if kind == "word":
        ok = typ in ("parity", "class") and obj["value"] == want[1]
        return None if ok else f"{obj.get('value')!r}, expected {want[1]!r}"
    if kind == "text":
        return None if obj.get("value") == want[1] else f"{obj.get('value')!r}, expected {want[1]!r}"
    if kind == "report":
        return check_report(obj, want[1]) if typ == "report" else f"type {typ}, expected report"
    if kind == "audit":
        if typ != "audit" or obj.get("consistent") is not True:
            return "audit not consistent"
        return check_number(obj["lhs"], want[1]) or check_number(obj["rhs"], want[1])
    if kind == "set":
        return check_set(obj["value"], want) if typ == "set" else f"type {typ}, expected set"
    raise ValueError(f"no JSON check for {kind!r}")


def exit_code_of(exc, errors) -> int:
    """The CLI exit code a GrossoneError maps to."""
    return 2 if isinstance(exc, (errors.LexError, errors.ParseError)) else 3


def check_exception(want: tuple, exc: BaseException, errors):
    name = type(exc).__name__
    if want[0] != "err":
        return f"raised {name}: {short(exc)}"
    if not isinstance(exc, errors.GrossoneError):
        return f"raised {name} outside GrossoneError: {short(exc)}"
    if want[1] is not None and name != want[1]:
        return f"raised {name}, expected {want[1]}"
    code = exit_code_of(exc, errors)
    return None if code == want[2] else f"{name} maps to exit {code}, expected {want[2]}"


def check_kernel(want: tuple, result, fmt):
    """Compare a kernel result; ``fmt`` renders a number canonically."""
    kind = want[0]
    if kind == "err":
        return f"returned a value, expected {want[1]}"
    if kind == "num":
        return check_number(fmt(result), want[1])
    if kind == "frac":
        return None if isinstance(result, Fraction) and result == want[1] else f"wrong value {result}"
    if kind == "int":
        return None if result == want[1] and type(result) is int else f"wrong order {result!r}"
    return None if result is want[1] else f"wrong order {result!r}"


def check_cli(want: tuple, code: int, out: str, err: str):
    """Compare one ``--json --eval`` process: exit code first, then its output."""
    tail = (err.strip().splitlines() or [""])[-1]
    if want[0] == "err":
        if code != want[2]:
            return f"exit {code}, expected {want[2]}: {short(tail)}"
        return None if not out else "printed a value for an error"
    if code != 0:
        return f"exit {code}: {short(tail)}"
    try:
        obj = json.loads(out)
    except ValueError:
        return f"not JSON: {short(out)}"
    return check_json(want, obj)

"""Seeded inputs for the workloads, as plain JSON-able data.

Nothing here imports grossone.  Every entry carries a *spec* from which
:mod:`perfbench.checks` derives the expected outcome independently.  Each
corpus is a sequence of rounds (kernels) or blocks (language lines) with a
fixed composition; the seed picks values inside that composition, and the
sizes that drive cost (exponents, term counts, chain lengths, the shape of
each arithmetic tree) are fixed, so two seeds do nearly the same work.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from . import oracle

# The base pool of tests/conftest.py:random_number.
BASE_POOL = [(1, 1), (1, 1), (1, 1), (1, 2), (2, 3), (3, 2), (2, 1), (5, 2), (3, 1)]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _grid(lo: int, hi: int, count: int) -> list:
    """``count`` integers evenly spaced from lo to hi: sizes that drive cost
    are the same for every seed."""
    if count == 1:
        return [lo]
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


# -- kernel operands ---------------------------------------------------------------

def random_number(rng: random.Random, max_terms: int = 5, coeff_bound: int = 10**6) -> dict:
    """The test-suite family: up to five terms, pool bases, G-powers -6..6."""
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        c = 0
        while c == 0:
            c = rng.randint(-coeff_bound, coeff_bound)
        b = rng.choice(BASE_POOL)
        terms.append((c, Fraction(*b), rng.randint(-6, 6)))
    return oracle.num(terms)


def _monomial(rng: random.Random) -> dict:
    c = 0
    while c == 0:
        c = rng.randint(-10**6, 10**6)
    return oracle.num([(c, Fraction(*rng.choice(BASE_POOL)), rng.randint(-6, 6))])


WIDE_BASES = [Fraction(1), Fraction(2), Fraction(1, 2)]


def wide_number(rng: random.Random, n: int, gpow_span: int = 30) -> dict:
    """``n`` distinct terms over bases {1, 2, 1/2} and G-powers in +-gpow_span."""
    keys = rng.sample([(b, p) for b in WIDE_BASES for p in range(-gpow_span, gpow_span + 1)], n)
    terms = []
    for b, p in keys:
        c = 0
        while c == 0:
            c = rng.randint(-99, 99)
        terms.append((Fraction(c, rng.randint(1, 3)), b, p))
    return oracle.num(terms)


POW_COEFFS = {2: (1, Fraction(2, 3)), 3: (1, 2, Fraction(1, 3))}


def _pow_base(rng: random.Random, nterms: int, exponential: bool) -> dict:
    """Adjacent G-powers, so the k-th power has at most (nterms-1)*k + 1
    terms, and fixed coefficient sizes with seeded signs, so its cost
    depends on k alone; the exponential factor only on a 2-term base, where
    it adds no terms."""
    low = rng.randint(-3, 4 - nterms)
    terms = []
    for i, c in enumerate(POW_COEFFS[nterms]):
        b = Fraction(rng.choice([2, Fraction(1, 2), Fraction(3, 2)])) if exponential and i == 0 else 1
        terms.append((c * rng.choice([-1, 1]), b, low + i))
    return oracle.num(terms)


S = oracle.to_spec

SMALL_ROUND = ("add", "sub", "mul", "lt", None, "div_exact", "div_inexact", "eval_at")
ORDER_ROTATION = ("le", "gt", "ge", "eq", "compare")


def kernel_small(seed: int, rounds: int = 450) -> list:
    """Each round: + - * < , one of <= > >= == compare, exact and inexact
    div_exact, eval_at.  Operands come from :func:`random_number`."""
    rng = _rng("kernel_small", seed)
    ops = []
    for r in range(rounds):
        for kind in SMALL_ROUND:
            kind = kind or ORDER_ROTATION[r % len(ORDER_ROTATION)]
            if kind == "div_exact":
                q, b = random_number(rng), random_number(rng)
                ops.append(["div", S(oracle.mul(q, b)), S(b), S(q)])
            elif kind == "div_inexact":
                q, b = random_number(rng), random_number(rng)
                a = oracle.add(oracle.mul(q, b), _monomial(rng))
                ops.append(["div", S(a), S(b), None])
            elif kind == "eval_at":
                ops.append(["eval_at", S(random_number(rng)), rng.randint(1, 64)])
            else:
                ops.append([kind, S(random_number(rng)), S(random_number(rng))])
    return ops


def _ordering(rng: random.Random, kind: str, n: int, where: str) -> list:
    """A wide pair that differs by one in the leading or in the last coefficient."""
    a = wide_number(rng, n)
    b = dict(a)
    key = max(a) if where == "lead" else min(a)
    b[key] += rng.choice([-1, 1])
    return [kind, S(a), S(oracle.num((c, *k) for k, c in b.items()))]


def kernel_wide(seed: int, rounds: int = 12) -> list:
    """Each round: a 2-term base to a power in 16..128 and a 3-term base to a
    power in 16..64, so that both reach 129 terms; a product and four exact
    quotients of 20-100-term numbers; and three orderings of wide pairs, one
    decided by the leading term and two only by the last.  The orderings and
    quotients hold the median, the powers and products the tail.  A pass
    over the corpus takes about two seconds, so a run times each entry many
    times."""
    rng = _rng("kernel_wide", seed)
    k2 = _grid(16, 128, rounds)
    k3 = _grid(16, 64, rounds)
    n = _grid(20, 100, rounds)
    nq = _grid(8, 30, rounds)
    ops = []
    for r in range(rounds):
        back = rounds - 1 - r
        ops.append(["pow", S(_pow_base(rng, 2, r % 3 == 0)), k2[back]])
        ops.append(["pow", S(_pow_base(rng, 3, False)), k3[r]])
        ops.append(["mul", S(wide_number(rng, n[r])), S(wide_number(rng, n[back]))])
        for i in range(4):
            q = wide_number(rng, nq[(r + 3 * i) % rounds])
            b = wide_number(rng, 2 + (r + i) % 5)
            ops.append(["div", S(oracle.mul(q, b)), S(b), S(q)])
        ops.append(_ordering(rng, "lt", n[r], "lead"))
        ops.append(_ordering(rng, "compare", n[back], "last"))
        ops.append(_ordering(rng, "ge", n[(r + rounds // 2) % rounds], "last"))
    return ops


# -- expression-language lines ----------------------------------------------------

def _linear_text(a: int, d: int) -> str:
    """``a*G + d`` as the language writes it."""
    if a == 0:
        return str(d)
    head = "G" if a == 1 else f"{a}*G"
    if d == 0:
        return head
    return f"{head}{'+' if d > 0 else '-'}{abs(d)}"


def _linear(rng: random.Random, amax: int = 3, dlo: int = -2, dhi: int = 9):
    return rng.randint(0, amax), rng.randint(dlo, dhi)


def _tree(rng: random.Random, shape: random.Random, depth: int):
    """A random arithmetic tree; divisors are nonzero monomials, powers 1..3.
    ``shape`` decides the structure and the kind of each leaf, ``rng`` the
    values, so a slot seeded with the same shape costs about the same."""
    if depth == 0 or shape.random() < 0.3:
        return _leaf(rng, shape)
    op = shape.choice(["+", "-", "*", "*", "/", "^", "neg"])
    if op == "/":
        return ["/", _tree(rng, shape, depth - 1), _monomial_leaf(rng, shape)]
    if op == "^":
        return ["^", _tree(rng, shape, min(depth - 1, 1)), shape.randint(1, 3)]
    if op == "neg":
        return ["neg", _tree(rng, shape, depth - 1)]
    return [op, _tree(rng, shape, depth - 1), _tree(rng, shape, depth - 1)]


def _leaf(rng: random.Random, shape: random.Random):
    roll = shape.random()
    if roll < 0.35:
        return ["int", rng.randint(0, 12)]
    if roll < 0.5:
        return ["frac", rng.randint(1, 9), rng.randint(2, 9)]
    if roll < 0.9:
        return ["Gp", rng.randint(-3, 3)]
    return ["exp", *rng.choice([(2, 1), (1, 2), (3, 2)])]


def _monomial_leaf(rng: random.Random, shape: random.Random):
    roll = shape.random()
    if roll < 0.4:
        return ["int", rng.randint(1, 12)]
    if roll < 0.6:
        return ["frac", rng.randint(1, 9), rng.randint(2, 9)]
    return ["Gp", rng.randint(-3, 3)]


def _shape(slot) -> random.Random:
    """The structure source of a slot: the same for every seed."""
    return random.Random(f"shape:{slot}")


def tree_text(t, top: bool = True) -> str:
    kind = t[0]
    if kind == "int":
        return str(t[1])
    if kind == "frac":
        return f"({t[1]}/{t[2]})"
    if kind == "Gp":
        return "G" if t[1] == 1 else f"G^{t[1]}"
    if kind == "exp":
        return f"{t[1]}^G" if t[2] == 1 else f"({t[1]}/{t[2]})^G"
    if kind == "neg":
        return f"-({tree_text(t[1])})"
    if kind == "^":
        return f"({tree_text(t[1])})^{t[2]}"
    if kind == "cmp":
        return f"{tree_text(t[2])} {t[1]} {tree_text(t[3])}"
    text = f"{tree_text(t[1], False)} {kind} {tree_text(t[2], False)}"
    return text if top else f"({text})"


def arith_line(rng: random.Random, comparison: bool, slot):
    shape = _shape(slot)
    if comparison:
        t = ["cmp", rng.choice(["<", "<=", "=", ">=", ">"]), _tree(rng, shape, 2), _tree(rng, shape, 2)]
    else:
        t = _tree(rng, shape, 3)
    return tree_text(t), ["tree", t]


def chain_line(rng: random.Random, length: int):
    """A flat left-associative sum of ``length`` small terms."""
    terms, parts = [], []
    for i in range(length):
        c, p = rng.randint(1, 9), rng.randint(-2, 2)
        s = "+" if i == 0 else rng.choice("+-")
        if p == 0:
            text = str(c)
        else:
            g = "G" if p == 1 else f"G^{p}"
            text = g if c == 1 else f"{c}*{g}"
        parts.append(text if i == 0 else f" {s} {text}")
        terms.append([c if s == "+" else -c, 1, 1, 1, p])
    return "".join(parts), ["num", terms]


def _ap(rng: random.Random):
    n = rng.randint(1, 12)
    return rng.randint(1, n), n


SET_TEMPLATES = (
    "card_ap", "inter_card", "inter_set", "member", "last", "at", "adjust", "couples", "misc",
)


def set_line(rng: random.Random, template: str, variant: int):
    k, n = _ap(rng)
    if template == "card_ap":
        return f"card(ap({k},{n}))", ["card_ap", k, n]
    if template in ("inter_card", "inter_set", "couples"):
        k2, n2 = _ap(rng)
        pair = f"ap({k},{n}), ap({k2},{n2})"
        text = {
            "inter_card": f"card(intersect({pair}))",
            "inter_set": f"intersect({pair})",
            "couples": f"couples({pair})",
        }[template]
        return text, [template, k, n, k2, n2]
    if template == "member":
        x = rng.randint(-3, 60)
        return f"member(ap({k},{n}), {x})", ["member", k, n, x]
    if template == "last":
        return f"last(ap({k},{n}))", ["last", k, n]
    if template == "at":
        i = rng.randint(1, 40)
        return f"at(ap({k},{n}), {i})", ["at", k, n, i]
    if template == "adjust":
        op = "addf" if variant % 2 == 0 else "remf"
        xs = [rng.randint(-5, 40) for _ in range(rng.randint(1, 3))]
        body = ",".join(str(x) for x in xs)
        return f"card({op}(ap({k},{n}), {{{body}}}))", [op, k, n, xs]
    # misc
    m = rng.randint(0, 4)
    choice = variant % 4
    if choice == 0:
        name = rng.choice(["nat", "ints", "evens", "odds"])
        return f"card({name}())", ["card_named", name]
    if choice == 1:
        return f"card(scale(ap({k},{n}), {m}))", ["scale_card", k, n, m]
    if choice == 2:
        x = rng.randint(-3, 40)
        return f"member(scale(nat(), {m}), {x})", ["scale_member", m, x]
    return "squares()", ["text", "floor(G^(1/2))"]


SERIES_TEMPLATES = ("tri", "geo", "x2", "grandi", "tsum", "misc")
GEO_RATIOS = [(1, 2), (2, 1), (3, 1), (2, 3), (-1, 2), (-2, 1)]


def series_line(rng: random.Random, template: str, variant: int, slot):
    a, d = _linear(rng)
    k = _linear_text(a, d)
    if template == "tri":
        return f"tri({k})", ["tri", a, d]
    if template == "geo":
        qn, qd = rng.choice(GEO_RATIOS)
        q = str(qn) if qd == 1 else f"{qn}/{qd}"
        return f"geo({q}, {k})", ["geo", qn, qd, a, d]
    if template == "x2":
        a, d = _linear(rng, 3, -1, 9)
        return f"x2({_linear_text(a, d)})", ["x2", a, d]
    if template == "grandi":
        name = "grandi" if variant % 2 == 0 else "grandirr"
        a, d = _linear(rng, 2, -1, 9)
        return f"{name}({_linear_text(a, d)})", [name, a, d]
    if template == "tsum":
        if variant % 2 == 0:
            return f"tsum({k})", ["tsum", a, d]
        if variant % 4 == 1:
            return "ramanujan()", ["ramanujan", 1, 0]
        a, d = _linear(rng, 2, -2, 6)
        return f"ramanujan({_linear_text(a, d)})", ["ramanujan", a, d]
    choice = variant % 3
    if choice == 0:
        return f"parity({k})", ["parity", a, d]
    t = _tree(rng, _shape(slot), 2)
    if choice == 1:
        return f"class({tree_text(t)})", ["class", t]
    s = rng.randint(1, 30)
    return f"evalat({tree_text(t)}, {s})", ["evalat", t, s]


PARADOXES = ("galileo", "multiplication", "hotel", "lamp", "torricelli")
TORRICELLI_WIDTHS = ["G^-1", "2*G^-1", "(1/2)*G^-1", "G^-2", "3*G^-2"]


def _hotel_m(rng: random.Random):
    shape = rng.randint(0, 2)
    d = rng.randint(-1, 20)
    if shape == 0:
        return str(d), [0, 1, d]
    if shape == 1:
        d = -d
        return _linear_text(1, d), [1, 1, d]
    return (f"G/2+{d}" if d >= 0 else f"G/2-{-d}"), [1, 2, d]


def paradox_line(rng: random.Random, name: str):
    if name in ("galileo", "multiplication"):
        return f"{name}()", ["report", name]
    if name == "hotel":
        text, m = _hotel_m(rng)
        return f"hotel({text})", ["hotel", *m]
    if name == "lamp":
        state = rng.choice(["on", "off"])
        a, d = _linear(rng, 2, -1, 9)
        return f"lamp({state}, {_linear_text(a, d)})", ["lamp", a, d]
    return f"torricelli({rng.choice(TORRICELLI_WIDTHS)})", ["report", "torricelli"]


# Edge arguments: documented errors with their class and CLI exit code, then
# the known defects of ROADMAP item 4, which should end in some GrossoneError
# with exit code 3 but currently raise a bare ValueError.
EDGE_LINES = [
    ("ap(0,3)", "ResidueOutOfRange", 3),
    ("(G+1)/(G-1)", "NotExactlyDivisible", 3),
    ("grandirr(3)", "OddLength", 3),
    ("hotel(2*G)", "TooManyNewcomers", 3),
    ("torricelli(G)", "NotInfinitesimalWidth", 3),
    ("card(1)", "EvalTypeError", 3),
    ("frob(1)", "UnknownIdentifier", 3),
    ("tri(G,", "ParseError", 2),
    ("3 $ 4", "LexError", 2),
    ("1/0", "DivisionByZero", 3),
    ("geo(1, G)", "UnitRatio", 3),
    ("parity(1/2)", "NotAGrossInteger", 3),
    ("root(2*G, 2)", "CoefficientNotPerfectPower", 3),
    ("0^0", "ZeroToZero", 3),
    ("intersect(ints(), nat())", "GrossFirstUnsupported", 3),
    ("at(nat(), G+1)", "IndexOutOfRange", 3),
    ("remf(evens(), {3})", "ElementNotPresent", 3),
    ("grandi(0)", None, 3),
    ("lamp(on, 0)", None, 3),
    ("scale(nat(), 0)", None, 3),
]

# Chain lengths: four strata well below the recursion limit, short enough
# that a pass over the corpus takes about a second, and a long family at 1000
# operands or more, which hits the RecursionError of ROADMAP item 4.
CHAIN_STRATA = [(40, 119), (120, 199), (200, 279), (280, 360)]
LONG_CHAIN = (1000, 1300)

BLOCK = (
    ["arith"] * 10 + ["compare"] * 2 + ["chain"] * 4 + ["sets"] * 9
    + ["series"] * 6 + ["paradox"] * 5 + ["edge"] * 2
)


def script_batch(seed: int, blocks: int = 10) -> list:
    """Blocks of 38 lines: 12 arithmetic (2 comparisons), 4 chains, 9 set,
    6 series, 5 paradox and 2 edge lines; every fifth block adds one chain of
    1000+ operands.  Entries are ``[family, line, spec]``."""
    rng = _rng("script_batch", seed)
    lengths = [_grid(lo, hi, blocks) for lo, hi in CHAIN_STRATA]
    long_lengths = _grid(*LONG_CHAIN, max(1, blocks // 5))
    edges = list(EDGE_LINES)
    rng.shuffle(edges)
    out = []
    for b in range(blocks):
        block = []
        counters = {"chain": 0, "sets": 0, "series": 0, "paradox": 0}
        for family in BLOCK:
            slot = (b, len(block))
            if family in ("arith", "compare"):
                text, spec = arith_line(rng, family == "compare", slot)
                family = "arith"
            elif family == "chain":
                i = counters["chain"]
                text, spec = chain_line(rng, lengths[i][b])
            elif family == "sets":
                i = counters["sets"]
                text, spec = set_line(rng, SET_TEMPLATES[i], b)
            elif family == "series":
                i = counters["series"]
                text, spec = series_line(rng, SERIES_TEMPLATES[i], b, slot)
            elif family == "paradox":
                i = counters["paradox"]
                text, spec = paradox_line(rng, PARADOXES[i])
            else:
                text, cls, code = edges[(2 * b + len(block) % 2) % len(edges)]
                spec = ["err", cls, code]
            if family in counters:
                counters[family] += 1
            block.append([family, text, spec])
        if b % 5 == 4:
            text, spec = chain_line(rng, long_lengths[b // 5])
            block.append(["chain_long", text, spec])
        rng.shuffle(block)
        out.extend(block)
    return out


GENERATORS = {
    "kernel_small": kernel_small,
    "kernel_wide": kernel_wide,
    "script_batch": script_batch,
}


def generate(workload: str, seed: int, size: int | None = None) -> list:
    """The corpus of ``workload`` for ``seed``; ``size`` overrides the number
    of rounds or blocks."""
    gen = GENERATORS[workload]
    return gen(seed) if size is None else gen(seed, size)


def dumps(corpus: list) -> bytes:
    """The canonical byte form of a corpus."""
    return json.dumps(corpus, sort_keys=True, separators=(",", ":")).encode()

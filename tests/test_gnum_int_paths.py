"""The kernel's int paths against the plain Fraction formulas they replace.

``eval_at``, ``div_exact``, ``+``, ``-``, ``compare``, ``*`` and ``normalize``
compute on the int numerators and denominators of coefficients, bases and
G-powers.  The reference functions below do the same work with ``Fraction``
arithmetic and comparisons, as the kernel once did; every result must agree
with them in value and in the type of each field.  The kernel shares the
bases and G-powers it builds; results must not depend on it, so operands are
also rebuilt with fresh ``Fraction`` fields and checked again.  The bounds on
products and on powers of sums and the trailing-term refusal of long
division are pinned at their edges; ``tests/test_gnum.py::TestEvalAt`` pins
the bound on powers.
"""

import random
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest

import grossone.gnum as gnum_module
from grossone import G, eval_at, term
from grossone.errors import (
    FractionalGrossPower, GrossoneError, NotExactlyDivisible, TooLarge, TooManyTerms,
)
from grossone.gnum import (
    KEY_BITS, MAX_PRODUCT_TERMS, GrossNumber, GrossTerm, compare, div_exact, exp_gross,
    normalize, nth_root, pow_int,
)

from conftest import SRC, random_number, typed


# -- the Fraction formulas -------------------------------------------------------

def canonical(x):
    """An int when integral, else the Fraction, as every term field must be."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def ref_eval_at(x: GrossNumber, t: int) -> Fraction:
    total = Fraction(0)
    for c, b, p in x.terms:
        total += Fraction(c) * Fraction(b) ** t * Fraction(t) ** p
    return total


def ref_mul(x: GrossNumber, y: GrossNumber) -> list:
    """The sorted canonical terms of the pairwise products, merged in a dict."""
    merged: dict = {}
    for ca, ba, pa in x.terms:
        for cb, bb, pb in y.terms:
            key = (Fraction(ba) * bb, Fraction(pa) + pb)
            merged[key] = merged.get(key, 0) + Fraction(ca) * cb
    return [(canonical(c), canonical(b), canonical(p))
            for (b, p), c in sorted(merged.items(), reverse=True) if c]


def ref_add(x: GrossNumber, y: GrossNumber, sign: int = 1) -> list:
    """The sorted canonical terms of ``x + sign*y``, merged in a dict."""
    merged: dict = {}
    for terms, k in ((x.terms, 1), (y.terms, sign)):
        for c, b, p in terms:
            key = (Fraction(b), Fraction(p))
            merged[key] = merged.get(key, 0) + k * Fraction(c)
    return [(canonical(c), canonical(b), canonical(p))
            for (b, p), c in sorted(merged.items(), reverse=True) if c]


def ref_compare(x: GrossNumber, y: GrossNumber) -> int:
    """The sign of the lead coefficient of ``x - y``."""
    difference = ref_add(x, y, -1)
    return 0 if not difference else 1 if difference[0][0] > 0 else -1


def ref_divide_term(s, t) -> tuple:
    return (canonical(Fraction(s[0]) / t[0]), canonical(Fraction(s[1]) / t[1]),
            canonical(Fraction(s[2]) - t[2]))


def ref_div_exact(a: GrossNumber, b: GrossNumber):
    """Graded long division with the quotient-term box and no trailing-term
    check: ``(quotient terms, None)``, or ``(None, merges before the box
    refused)`` for an inexact division."""
    x, y = a.terms, b.terms
    if len(y) == 1 or not x:
        return [ref_divide_term(s, y[0]) for s in x], None
    base_lo, base_hi = Fraction(x[-1][1]) / y[-1][1], Fraction(x[0][1]) / y[0][1]
    pow_lo = min(s[2] for s in x) - min(s[2] for s in y)
    pow_hi = max(s[2] for s in x) - max(s[2] for s in y)
    quotient, rest = [], a
    while rest.terms:
        t = ref_divide_term(rest.terms[0], y[0])
        if not (base_lo <= t[1] <= base_hi and pow_lo <= t[2] <= pow_hi):
            return None, len(quotient)
        quotient.append(t)
        rest = rest - normalize([t]) * b
    return quotient, None


def ref_normalize(raw) -> list:
    """The sorted canonical terms of the triples ``raw``, merged in a dict."""
    merged: dict = {}
    for c, b, p in raw:
        key = (Fraction(b), Fraction(p))
        merged[key] = merged.get(key, 0) + Fraction(c)
    return [(canonical(c), canonical(b), canonical(p))
            for (b, p), c in sorted(merged.items(), reverse=True) if c]


def assert_canonical(x: GrossNumber):
    for t in x.terms:
        for f in t:
            assert type(f) is int or (type(f) is Fraction and f.denominator != 1), t
    keys = [(t.base, t.gpow) for t in x.terms]
    assert keys == sorted(set(keys), reverse=True)


# -- operands ---------------------------------------------------------------------

def negative_lead(x: GrossNumber) -> GrossNumber:
    return -x if x.terms and x.terms[0].coeff > 0 else x


FAMILIES = {
    "random_number": lambda rng: random_number(rng),
    "fractional coefficients": lambda rng: random_number(rng, coeff_den_bound=12),
    "fractional G-powers": lambda rng: random_number(rng, fractional_gpow=True, coeff_den_bound=3),
    "negative lead": lambda rng: negative_lead(random_number(rng, coeff_den_bound=5)),
    "fractional fields": lambda rng: random_number(rng, fractional_gpow=True, coeff_den_bound=6),
}


def pairs(family: str, count: int = 150):
    rng = random.Random(f"int-paths {family}")
    draw = FAMILIES[family]
    return [(draw(rng), draw(rng)) for _ in range(count)]


@pytest.mark.parametrize("family", FAMILIES)
class TestAgainstFractionFormulas:
    def test_eval_at(self, family):
        for x, _ in pairs(family):
            if any(type(t.gpow) is not int for t in x.terms):
                with pytest.raises(FractionalGrossPower):
                    eval_at(x, 2)
                continue
            for t in (1, 2, 7, 60, 1000):
                v = eval_at(x, t)
                assert type(v) is Fraction and v == ref_eval_at(x, t)

    def test_product(self, family):
        for x, y in pairs(family):
            product = x * y
            assert_canonical(product)
            assert typed(product.terms) == typed(ref_mul(x, y))

    def test_sum_and_difference(self, family):
        for x, y in pairs(family):
            for got, sign in ((x + y, 1), (x - y, -1)):
                assert_canonical(got)
                assert typed(got.terms) == typed(ref_add(x, y, sign))

    def test_order(self, family):
        for x, y in pairs(family):
            # A near pair too: the same terms but one, so the walk goes deep.
            near = y if not x.terms else x + normalize([x.terms[-1]]) * Fraction(1, 7)
            for a, b in ((x, y), (y, x), (x, x), (x, near), (near, x)):
                want = ref_compare(a, b)
                assert compare(a, b) == want
                assert (a < b) is (want < 0) and (a == b) is (want == 0)

    def test_exact_division(self, family):
        for q, b in pairs(family):
            if not b.terms:
                continue
            a = q * b
            quotient = div_exact(a, b)
            assert_canonical(quotient)
            assert quotient == q
            want, _ = ref_div_exact(a, b)
            assert typed(quotient.terms) == typed(want)

    def test_single_term_divisor(self, family):
        rng = random.Random(f"single-term divisor {family}")
        for a, _ in pairs(family):
            d = FAMILIES[family](rng)
            if not d.terms:
                continue
            d = GrossNumber(d.terms[:1])
            quotient = div_exact(a, d)
            assert_canonical(quotient)
            want, _ = ref_div_exact(a, d)
            assert typed(quotient.terms) == typed(want)

    def test_inexact_division_is_refused_as_before(self, family):
        rng = random.Random(f"inexact {family}")
        refused = 0
        for q, b in pairs(family):
            if len(b.terms) < 2:
                continue
            a = q * b + normalize([term(rng.choice([-3, 1, 2]), 1, rng.randint(-9, 9))])
            want, _ = ref_div_exact(a, b)
            if want is not None:
                assert typed(div_exact(a, b).terms) == typed(want)
                continue
            refused += 1
            with pytest.raises(NotExactlyDivisible) as info:
                div_exact(a, b)
            assert info.value.args == (a, b)
        assert refused > 50


# -- order, sums and products: single terms and pinned pairs ---------------------

def one(c=1, base=1, gpow=0) -> GrossNumber:
    return GrossNumber((term(c, base, gpow),))


def fresh(x: GrossNumber) -> GrossNumber:
    """``x`` rebuilt with a new object for every Fraction field, so that it
    shares no field with any value the kernel built."""
    return GrossNumber(tuple(GrossTerm(*(f if type(f) is int else Fraction(f.numerator, f.denominator)
                                         for f in t)) for t in x.terms))


def check_against_formulas(a: GrossNumber, b: GrossNumber):
    for x, y in ((a, b), (b, a)):
        want = ref_compare(x, y)
        assert compare(x, y) == want
        assert (x < y) is (want < 0) and (x == y) is (want == 0)
        assert typed((x + y).terms) == typed(ref_add(x, y))
        assert typed((x - y).terms) == typed(ref_add(x, y, -1))
        assert typed((x * y).terms) == typed(ref_mul(x, y))


def test_single_terms_against_the_formulas():
    rng = random.Random("int-paths single terms")
    for _ in range(300):
        a, b = (random_number(rng, max_terms=1, fractional_gpow=True, coeff_den_bound=6)
                for _ in range(2))
        check_against_formulas(a, b)


PINNED = {
    # Bases that differ only as Fractions.
    "(3/2)^G, (5/2)^G": (one(base=Fraction(3, 2)), one(base=Fraction(5, 2)), -1),
    # An int base against a Fraction base, above and below 1.
    "2^G, (3/2)^G": (one(base=2), one(base=Fraction(3, 2)), 1),
    "(1/2)^G, 1": (one(base=Fraction(1, 2)), one(), -1),
    "(1/2)^G*G^9, -G^-9": (one(base=Fraction(1, 2), gpow=9), one(-1, gpow=-9), 1),
    # G-powers that differ only as Fractions, and Fraction coefficients.
    "G^(1/2), G^(1/3)": (one(gpow=Fraction(1, 2)), one(gpow=Fraction(1, 3)), 1),
    "-G^(-2/3), -G^(-1/2)": (one(-1, gpow=Fraction(-2, 3)), one(-1, gpow=Fraction(-1, 2)), 1),
    "(1/3)*(3/2)^G, (1/2)*(3/2)^G": (one(Fraction(1, 3), Fraction(3, 2)),
                                     one(Fraction(1, 2), Fraction(3, 2)), -1),
    # Equal Fraction fields held in distinct objects.
    "equal (3/2)^G*G^(1/2)": (fresh(one(Fraction(5, 6), Fraction(3, 2), Fraction(1, 2))),
                              fresh(one(Fraction(5, 6), Fraction(3, 2), Fraction(1, 2))), 0),
    "sums sharing (3/2)^G*G": (normalize([term(1, Fraction(3, 2), 1), term(Fraction(1, 2))]),
                               normalize([term(1, Fraction(3, 2), 1), term(Fraction(1, 3))]), 1),
    "sums sharing 1/2": (normalize([term(1, Fraction(2, 3), 1), term(Fraction(1, 2))]),
                         normalize([term(2, Fraction(2, 3), 1), term(Fraction(1, 2))]), -1),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_pairs(name):
    a, b, order = PINNED[name]
    assert compare(a, b) == order
    check_against_formulas(a, b)


@pytest.mark.parametrize("integral_keys", [True, False], ids=["int keys", "Fraction keys"])
def test_normalize_orders_keys_as_the_fractions_do(integral_keys):
    # normalize sorts keys over the common denominators of their bases and
    # G-powers, all 1 for int keys.  Coefficients and repeated keys are
    # drawn alike for both kinds of key.
    rng = random.Random(f"normalize order {integral_keys}")
    fields = [1, 2, 3, -1, 0, 5] if integral_keys else [1, 2, Fraction(1, 2), Fraction(3, 2), -1, Fraction(-2, 3)]
    for _ in range(300):
        raw = []
        for _ in range(rng.randint(0, 9)):
            c = rng.choice([1, -2, 7, Fraction(1, 3), Fraction(-5, 2)])
            b = abs(rng.choice(fields)) or 1
            raw.append((c, Fraction(b) if rng.random() < 0.3 else b, rng.choice(fields)))
        if not integral_keys and raw:
            raw.append((1, Fraction(2, 3), Fraction(1, 4)))
        got = normalize(raw)
        assert typed(got.terms) == typed(ref_normalize(raw)), raw
        assert_canonical(got)


def test_equal_fields_in_distinct_objects_merge():
    a, b, _ = PINNED["equal (3/2)^G*G^(1/2)"]
    assert a.terms[0].base is not b.terms[0].base and a.terms[0].gpow is not b.terms[0].gpow
    assert (a + b).terms == ((Fraction(5, 3), Fraction(3, 2), Fraction(1, 2)),)
    assert (a - b).terms == () and a == b and compare(a, b) == 0
    assert str(a * b) == "(25/36)*(9/4)^G*G"


def fraction_calls(callers: set, run) -> set:
    """The ``(caller, Fraction function)`` pairs called from the kernel
    functions named in ``callers`` while ``run()`` runs."""
    called = set()
    kernel = gnum_module.__file__
    fractions_module = sys.modules[Fraction.__module__].__file__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions_module:
            caller = frame.f_back.f_code
            if caller.co_filename == kernel and caller.co_name in callers:
                called.add((caller.co_name, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return called


def profiled_operands(seed: str) -> list:
    rng = random.Random(seed)
    operands = [random_number(rng, fractional_gpow=True, coeff_den_bound=6) for _ in range(60)]
    return operands + [a for a, b, _ in PINNED.values()] + [b for a, b, _ in PINNED.values()]


def test_no_fraction_comparison_or_arithmetic_in_the_merge_the_order_and_products():
    """Only the numerator and denominator properties of a Fraction run from
    these functions; a Fraction is built only for a stored field."""
    operands = profiled_operands("int-paths profile")

    def run():
        for x, y in zip(operands, operands[1:]):
            x + y, x - y, x * y, compare(x, y), x < y, x == y
            if y:
                t = GrossNumber(y[:1])
                x * t, x / t

    called = fraction_calls({"_add", "compare", "__mul__", "<genexpr>", "_times", "_plus", "normalize",
                             "_scale"}, run)
    # A difference negates each term it copies from the subtrahend, which
    # builds that stored field; it compares and multiplies nothing.
    assert {name for _, name in called} <= {"numerator", "denominator", "__neg__"}, called
    assert ("normalize", "numerator") in called


def test_no_fraction_method_but_numerator_and_denominator_in_format_and_sign():
    """Strings and signs read each field's numerator and denominator; no
    Fraction is compared, negated or built on the output path."""
    operands = profiled_operands("int-paths format profile")
    operands += [-x for x in operands]
    called = fraction_calls({"format_number", "_term_str", "_coeff_str", "sign"},
                            lambda: [(str(x), x.sign()) for x in operands])
    assert {name for _, name in called} == {"numerator", "denominator"}, called
    assert ("_term_str", "numerator") in called and ("sign", "numerator") in called


# -- shared bases and G-powers -----------------------------------------------------

def outcomes(x: GrossNumber, y: GrossNumber) -> list:
    """The typed terms and strings of x+y, x-y, x*y and (x*y)/y, and the order."""
    values = [x + y, x - y, x * y] + ([div_exact(x * y, y)] if y.terms else [])
    return [(typed(v.terms), str(v)) for v in values] + [compare(x, y)]


def test_results_do_not_depend_on_shared_fields():
    rng = random.Random("int-paths fresh fields")
    operands = [(a, b) for a, b, _ in PINNED.values()]
    operands += [tuple(random_number(rng, fractional_gpow=True, coeff_den_bound=6) for _ in range(2))
                 for _ in range(100)]
    for a, b in operands:
        x, y = fresh(a), fresh(b)
        assert all(f is not g for s, t in zip(a.terms, x.terms) for f, g in zip(s, t) if type(f) is Fraction)
        check_against_formulas(x, y)
        assert outcomes(x, y) == outcomes(a, b)


def test_equal_keys_built_by_the_kernel_are_one_object(monkeypatch):
    monkeypatch.setattr(gnum_module, "_KEYS", {})
    half, three_halves = one(base=Fraction(1, 2)), one(base=Fraction(3, 2))
    base = term(1, Fraction(9, 4)).base
    bases = [
        term(5, Fraction(9, 4), 2).base,
        (three_halves * three_halves).terms[0].base,
        (three_halves * (three_halves + G)).terms[0].base,
        (one(base=Fraction(27, 8)) / three_halves).terms[0].base,
        div_exact(one(base=base) * (three_halves + half), three_halves + half).terms[0].base,
        pow_int(three_halves, 2).terms[0].base,
        exp_gross(Fraction(3, 2), 2 * G).terms[0].base,
        exp_gross(Fraction(9, 4), G).terms[0].base,
    ]
    assert all(b is base for b in bases), bases
    root = one(gpow=Fraction(1, 4))
    gpow = term(1, 1, Fraction(1, 2)).gpow
    gpows = [
        (root * root).terms[0].gpow,
        (root * (root + 1)).terms[0].gpow,
        (one(gpow=Fraction(3, 4)) / root).terms[0].gpow,
        pow_int(root, 2).terms[0].gpow,
        nth_root(G, 2).terms[0].gpow,
    ]
    assert all(p is gpow for p in gpows), gpows


def test_the_key_cache_is_bounded(monkeypatch):
    keys = {}
    monkeypatch.setattr(gnum_module, "_KEYS", keys)
    for n in range(1, 3 * gnum_module.KEYS_MAX):
        x = one(base=Fraction(2 * n + 1, 2)) * one(base=Fraction(1, 3))
        assert x.terms[0].base == Fraction(2 * n + 1, 6)
        assert 0 < len(keys) <= gnum_module.KEYS_MAX
    keys.clear()
    wide = Fraction(10**5000, 3)
    for x in (one(base=wide), exp_gross(wide, G), one(base=wide) * one(base=Fraction(1, 2)),
              one(gpow=wide) * one(gpow=Fraction(1, 2))):
        assert x.terms[0].key in ((wide, 0), (wide / 2, 0), (1, wide + Fraction(1, 2)))
    assert all(abs(n).bit_length() <= KEY_BITS and d.bit_length() <= KEY_BITS for n, d in keys)


def test_the_key_cache_stays_bounded_across_threads(monkeypatch):
    keys = {}
    monkeypatch.setattr(gnum_module, "_KEYS", keys)
    monkeypatch.setattr(gnum_module, "KEYS_MAX", 16)
    errors = []

    def build(offset):
        try:
            for n in range(offset, offset + 4000):
                b = Fraction(2 * n + 1, 2)
                assert (one(base=b) * one(base=Fraction(1, 3))).terms[0].base == b / 3
                assert len(keys) <= 16
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(10000 * i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


# -- long division: the trailing-term refusal -------------------------------------

def count_merges(monkeypatch) -> list:
    """Count the + merges of div_exact's steps, one per step."""
    calls = []
    add = GrossNumber.__add__
    monkeypatch.setattr(GrossNumber, "__add__", lambda a, b: calls.append(1) or add(a, b))
    return calls


def test_the_trailing_term_check_refuses_before_the_box(monkeypatch):
    a = G - G**-2 - gnum_module.exp_gross(Fraction(1, 2), G) * G
    b = 1 - G
    assert str(a) == "G - G^-2 - (1/2)^G*G" and str(b) == "-G + 1"
    # The box alone lets 6 steps run; after the 4th, rest's lowest term is
    # no longer a's, and that alone proves the division inexact.
    assert ref_div_exact(a, b) == (None, 6)
    merges = count_merges(monkeypatch)
    with pytest.raises(NotExactlyDivisible):
        div_exact(a, b)
    assert len(merges) == 4


def test_the_trailing_term_check_never_refuses_an_exact_division(monkeypatch):
    q, b = G**4 - 3 * G + Fraction(1, 2) * G**-3, G + 1
    merges = count_merges(monkeypatch)
    assert div_exact(q * b, b) == q
    assert len(merges) == len(q.terms)


# -- bounds -------------------------------------------------------------------------

def wide(n: int) -> GrossNumber:
    return normalize([term(1, 1, p) for p in range(n)])


class TestProductBound:
    def test_a_product_past_the_bound_builds_no_term(self, monkeypatch):
        x, y = wide(257), wide(256)
        assert len(x.terms) * len(y.terms) > MAX_PRODUCT_TERMS
        monkeypatch.setattr(gnum_module, "normalize", lambda raw: pytest.fail("a term was built"))
        with pytest.raises(TooManyTerms) as info:
            x * y
        assert isinstance(info.value, GrossoneError)
        assert str(info.value) == "a product would need more than 65536 term products"

    def test_the_bound_itself_is_admitted(self, monkeypatch):
        monkeypatch.setattr(gnum_module, "MAX_PRODUCT_TERMS", 12)
        # (1 + G + G^2) * (1 + G + G^2 + G^3): 12 term products.
        assert wide(3) * wide(4) == normalize([term(min(p + 1, 3, 6 - p), 1, p) for p in range(6)])
        with pytest.raises(TooManyTerms):
            wide(7) * wide(2)

    def test_a_product_of_single_terms_is_never_refused(self, monkeypatch):
        monkeypatch.setattr(gnum_module, "MAX_PRODUCT_TERMS", 0)
        assert (G * (2 * G)).terms == ((2, 1, 2),)
        # A one-term side builds only as many terms as the other side has.
        shifted = normalize([term(1, 1, p + 1) for p in range(13)])
        assert wide(13) * G == shifted and G * wide(13) == shifted

    @pytest.mark.parametrize("line, message", [
        ("tri(" * 98 + "G" + ")" * 98, "a product would need more than 65536 term products"),
        ("(G+1)^100000", "a product would need more than 65536 term products"),
        ("(10^5000*G + 1)^1000", "a power would need more than 1048576 bits"),
    ], ids=["tri nested 98 deep", "(G+1)^100000", "(10^5000*G + 1)^1000"])
    def test_the_cli_ends_with_exit_3_at_once(self, line, message):
        start = time.monotonic()
        p = subprocess.run([sys.executable, "-m", "grossone.cli", "--eval", line],
                           env={"PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=60)
        assert time.monotonic() - start < 20
        assert (p.returncode, p.stdout) == (3, "")
        assert p.stderr == f"error: {message}\n"


class TestPowerOfSumBound:
    """pow_int of a sum refuses at once when the first or last term of the
    power, that term of the base to the k-th power, would pass
    MAX_POWER_BITS; then it refuses a product of its squaring loop when the
    bits of the two factors' largest fields, plus those of the smaller term
    count, pass MAX_POWER_BITS."""

    def test_the_bound_itself_is_admitted(self, monkeypatch):
        # (G+1)^2: the square needs 1 + 1 + bit_length(2) = 4 bits, and the
        # product of 1 with it 1 + 2 (the coefficient 2) + bit_length(1) = 4.
        monkeypatch.setattr(gnum_module, "MAX_POWER_BITS", 4)
        assert str(pow_int(G + 1, 2)) == "G^2 + 2*G + 1"
        monkeypatch.setattr(gnum_module, "MAX_POWER_BITS", 3)
        with pytest.raises(TooLarge):
            pow_int(G + 1, 2)

    def test_a_refused_power_builds_no_product_past_the_bound(self, monkeypatch):
        products = []
        mul = GrossNumber.__mul__
        monkeypatch.setattr(GrossNumber, "__mul__", lambda a, b: products.append(
            gnum_module._field_bits(a) + gnum_module._field_bits(b)) or mul(a, b))
        monkeypatch.setattr(gnum_module, "MAX_POWER_BITS", 1 << 14)
        # The end terms of this power are G^2000 and 1; only a middle
        # coefficient is large.
        with pytest.raises(TooLarge) as info:
            pow_int(G**2 + 10**200 * G + 1, 1000)
        assert str(info.value) == "a power would need more than 16384 bits"
        # The squares reach 2^4 * 665 bits; the next one is refused.
        assert len(products) == 5 and max(products) <= 1 << 14
        # Here the end term 10^200000*G^1000 is refused before any product.
        products.clear()
        with pytest.raises(TooLarge):
            pow_int(10**200 * G + 1, 1000)
        assert products == []

    @pytest.mark.parametrize("base", [1024 * G + 1, G + 1024, exp_gross(1024, G) + 1],
                             ids=["first coefficient", "last coefficient", "first base"])
    def test_the_end_terms_are_checked_before_the_first_product(self, monkeypatch, base):
        # The cube's end term holds 1024^3, which needs 30 bits by the bound.
        checked = []
        check = gnum_module._check_product
        monkeypatch.setattr(gnum_module, "_check_product", lambda x, y: checked.append(1) or check(x, y))
        monkeypatch.setattr(gnum_module, "MAX_POWER_BITS", 29)
        with pytest.raises(TooLarge):
            pow_int(base, 3)
        assert checked == []
        monkeypatch.setattr(gnum_module, "MAX_POWER_BITS", 64)
        assert pow_int(base, 3) == base * base * base and checked

    def test_a_sum_of_fractions_counts_its_denominators(self, monkeypatch):
        x = Fraction(1, 2**600) * G + 1
        monkeypatch.setattr(gnum_module, "MAX_POWER_BITS", 2400)
        pow_int(x, 2)  # the square needs 601 + 601 + 2 bits
        with pytest.raises(TooLarge):
            pow_int(x, 4)

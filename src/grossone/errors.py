"""Exception hierarchy shared by every grossone module.

All library errors derive from :class:`GrossoneError` so callers (the CLI in
particular) can map failures to exit codes without enumerating each subtype.
"""

import sys


class GrossoneError(Exception):
    """Base class for all errors raised by this package.

    An error keeps the values it names as ``args``.  Only ``str()`` renders
    them into ``message``, ints through :func:`format_int`, and a value it was
    built without as ``?``; past the digit limit it gives the
    :class:`TooManyDigits` line, so it never raises."""

    message = "{}"

    def __init__(self, *args, message=None):
        super().__init__(*args)
        if message is not None:
            self.message = message

    def __str__(self) -> str:
        try:
            values = [format_int(a) if type(a) is int else a for a in self.args]
            return self.message.format(*values, *["?"] * self.message.count("{"))
        except TooManyDigits as unprintable:
            return str(unprintable)


# --- arithmetic -----------------------------------------------------------

class DivisionByZero(GrossoneError, ZeroDivisionError):
    pass


class NotPositive(GrossoneError, ValueError):
    """A count, step, scale factor, root degree, point substituted for G or
    exponential base that must be positive is not (``exp_gross`` admits 0)."""


class NotRational(GrossoneError, ValueError):
    message = "{} is not a finite pure rational"


class NotExactlyDivisible(GrossoneError):
    """Long division left a nonzero remainder; no approximate series is produced."""

    message = "({}) is not exactly divisible by ({})"
    dividend = property(lambda self: self.args[0])
    divisor = property(lambda self: self.args[1])


class NegativePowerOfSum(GrossoneError):
    message = "({})^{}: negative powers need a single term"


class ZeroToZero(GrossoneError):
    pass


class ExponentNotLinearInGrossone(GrossoneError):
    message = "exponent {} is not of the form a*G + d"


class NotAGrossInteger(GrossoneError):
    message = "{} is not a gross-integer"


class FractionalGrossPower(GrossoneError):
    """eval_at requires every G-exponent to be an integer."""

    message = "G^({}) cannot be evaluated"


class NotAMonomial(GrossoneError):
    message = "nth_root needs a single term, got {}"


class CoefficientNotPerfectPower(GrossoneError):
    message = "{} is not a perfect {}{} power"


class BaseRootUnsupported(GrossoneError):
    """Roots of exponential factors B^G with B != 1 are not representable."""

    message = "cannot take a root of the factor {}"


class TooManyDigits(GrossoneError):
    """A number has an integer with more decimal digits than Python converts
    to a string (``sys.get_int_max_str_digits()``), so it cannot be printed."""

    @property
    def message(self) -> str:
        return f"cannot print a number with more than {sys.get_int_max_str_digits()} digits"


def format_int(n: int) -> str:
    """``str(n)``, or :class:`TooManyDigits` past the interpreter's
    int-to-string digit limit.  Sets, int sets and messages print ints with it."""
    try:
        return str(n)
    except ValueError:
        raise TooManyDigits() from None


class TooLarge(GrossoneError):
    """A power of a rational, or a coefficient of a power of a sum, would need
    more bits than ``gnum.MAX_POWER_BITS`` (2**20), so it is refused before it
    is built."""

    message = "a power would need more than {} bits"


class TooManyTerms(GrossoneError):
    """A product of sums would build more pairwise term products than
    ``gnum.MAX_PRODUCT_TERMS`` (2**16), so it is refused before any is built."""

    message = "a product would need more than {} term products"


# --- sets -----------------------------------------------------------------

class ResidueOutOfRange(GrossoneError):
    message = "need 1 <= k <= n, got k={}, n={}"


class IndexOutOfRange(GrossoneError):
    message = "index {} outside 1..{}"


class GrossFirstUnsupported(GrossoneError):
    """Operation requires a progression whose first element is a finite integer."""


class ElementAlreadyPresent(GrossoneError):
    message = "{} is already in the set"


class ElementNotPresent(GrossoneError):
    message = "{} is not in the set"


# --- series ----------------------------------------------------------------

class UnitRatio(GrossoneError):
    """Geometric ratio 1 has no closed form here; use an arithmetic sum."""


class OddLength(GrossoneError):
    message = "{} is odd; the block rearrangement needs an even length"


# --- paradox scenarios ------------------------------------------------------

class TooManyNewcomers(GrossoneError):
    message = "{} newcomers cannot fit in G rooms"


class NotInfinitesimalWidth(GrossoneError):
    message = "width {} must be a single positive infinitesimal term"


class CountNotGrossInteger(GrossoneError):
    message = "1/h = {} is not a gross-integer"


# --- expression language ----------------------------------------------------

class LexError(GrossoneError):
    message = "unexpected character {1!r} at offset {0}"
    offset = property(lambda self: self.args[0])
    char = property(lambda self: self.args[1])


class ParseError(GrossoneError):
    message = "expected {1} at offset {0}"
    offset = property(lambda self: self.args[0])
    expected = property(lambda self: self.args[1])


class EvalTypeError(GrossoneError):
    message = "{}: argument {}: {}"
    builtin = property(lambda self: self.args[0])
    position = property(lambda self: self.args[1])


class UnknownIdentifier(GrossoneError):
    pass

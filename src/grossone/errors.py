"""Exception hierarchy shared by every grossone module.

All library errors derive from :class:`GrossoneError` so callers (the CLI in
particular) can map failures to exit codes without enumerating each subtype.
"""

import sys


class GrossoneError(Exception):
    """Base class for all errors raised by this package."""


# --- arithmetic -----------------------------------------------------------

class DivisionByZero(GrossoneError, ZeroDivisionError):
    pass


class NotPositive(GrossoneError, ValueError):
    """A count, step, scale factor, root degree, point substituted for G or
    exponential base that must be positive is not (``exp_gross`` admits 0)."""


class NotExactlyDivisible(GrossoneError):
    """Long division left a nonzero remainder; no approximate series is produced.

    Keeps both numbers as ``dividend`` and ``divisor``; the message is
    rendered from them only when it is asked for."""

    def __init__(self, dividend, divisor):
        super().__init__(dividend, divisor)
        self.dividend = dividend
        self.divisor = divisor

    def __str__(self) -> str:
        return f"({self.dividend}) is not exactly divisible by ({self.divisor})"


class NegativePowerOfSum(GrossoneError):
    """Negative integer powers are defined only for single-term numbers."""


class ZeroToZero(GrossoneError):
    pass


class ExponentNotLinearInGrossone(GrossoneError):
    """Exponent must have the shape a*G + d with integer a and d."""


class NotAGrossInteger(GrossoneError):
    pass


class FractionalGrossPower(GrossoneError):
    """eval_at requires every G-exponent to be an integer."""


class NotAMonomial(GrossoneError):
    pass


class CoefficientNotPerfectPower(GrossoneError):
    pass


class BaseRootUnsupported(GrossoneError):
    """Roots of exponential factors B^G with B != 1 are not representable."""


class TooManyDigits(GrossoneError):
    """A number has an integer with more decimal digits than Python converts
    to a string (``sys.get_int_max_str_digits()``), so it cannot be printed."""

    def __init__(self):
        limit = sys.get_int_max_str_digits()
        super().__init__(f"cannot print a number with more than {limit} digits")


class TooLarge(GrossoneError):
    """A power of a rational would need more bits than ``gnum.MAX_POWER_BITS``
    (2**20), so it is refused before it is built."""


# --- sets -----------------------------------------------------------------

class ResidueOutOfRange(GrossoneError):
    pass


class IndexOutOfRange(GrossoneError):
    pass


class GrossFirstUnsupported(GrossoneError):
    """Operation requires a progression whose first element is a finite integer."""


class ElementAlreadyPresent(GrossoneError):
    pass


class ElementNotPresent(GrossoneError):
    pass


# --- series ----------------------------------------------------------------

class UnitRatio(GrossoneError):
    """Geometric ratio 1 has no closed form here; use an arithmetic sum."""


class OddLength(GrossoneError):
    pass


# --- paradox scenarios ------------------------------------------------------

class TooManyNewcomers(GrossoneError):
    pass


class NotInfinitesimalWidth(GrossoneError):
    pass


class CountNotGrossInteger(GrossoneError):
    pass


# --- expression language ----------------------------------------------------

class LexError(GrossoneError):
    def __init__(self, offset: int, char: str):
        self.offset = offset
        self.char = char
        super().__init__(f"unexpected character {char!r} at offset {offset}")


class ParseError(GrossoneError):
    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"expected {expected} at offset {offset}")


class EvalTypeError(GrossoneError):
    def __init__(self, builtin: str, position: int, message: str):
        self.builtin = builtin
        self.position = position
        super().__init__(f"{builtin}: argument {position}: {message}")


class UnknownIdentifier(GrossoneError):
    pass

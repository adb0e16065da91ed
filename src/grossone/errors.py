"""Exception hierarchy shared by every grossone module.

All library errors derive from :class:`GrossoneError` so callers (the CLI in
particular) can map failures to exit codes without enumerating each subtype.
"""


class GrossoneError(Exception):
    """Base class for all errors raised by this package."""


# --- arithmetic -----------------------------------------------------------

class DivisionByZero(GrossoneError, ZeroDivisionError):
    pass


class NotPositive(GrossoneError, ValueError):
    """A count of addends or switches, a scale factor or a progression's step
    or element count that must be positive is not."""


class NotExactlyDivisible(GrossoneError):
    """Long division left a nonzero remainder; no approximate series is produced."""


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

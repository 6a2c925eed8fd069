"""Exception types shared across the package."""


class BsError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BsError):
    """Raised on malformed expression input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExponentCapExceeded(BsError):
    """An integer grew past the configured bit cap during rewriting.

    at_least marks a refusal made from a size estimate before the integer was
    formed: bits is then a lower bound on its size, not the size itself.
    """

    def __init__(self, bits: int, cap: int, at_least: bool = False):
        need = f"at least {bits}" if at_least else f"{bits}"
        super().__init__(f"exponent needs {need} bits, cap is {cap}")
        self.bits = bits
        self.cap = cap


class WordSizeExceeded(BsError):
    """A free word or a Britton product would grow past the syllable limit."""


class DomainError(BsError):
    """Input violates a documented precondition (bad parameters, wrong subgroup, ...)."""


class VerificationError(BsError):
    """An internal cross-check failed; indicates a bug, not bad input."""

"""Exception types shared across the package."""


class BsError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(BsError):
    """Raised on malformed expression input; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ExponentCapExceeded(BsError):
    """An integer grew past the configured bit cap during rewriting."""

    def __init__(self, bits: int, cap: int):
        super().__init__(f"exponent needs {bits} bits, cap is {cap}")
        self.bits = bits
        self.cap = cap


class WordSizeExceeded(BsError):
    """A free word or a Britton product would grow past the syllable limit."""


class DomainError(BsError):
    """Input violates a documented precondition (bad parameters, wrong subgroup, ...)."""


class VerificationError(BsError):
    """An internal cross-check failed; indicates a bug, not bad input."""

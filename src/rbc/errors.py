"""Exception types shared across the package."""

from __future__ import annotations


class RbcError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRangeError(RbcError):
    """A gate's wire window does not fit inside the circuit width."""

    def __init__(self, gate_index: int, message: str = ""):
        self.gate_index = gate_index
        super().__init__(message or f"gate {gate_index} out of range")


class WidthMismatchError(RbcError):
    """Two objects that must share a width do not."""


class WidthTooLargeError(RbcError):
    """Truth-table enumeration refused: width exceeds the configured cap."""


class LengthMismatchError(RbcError):
    """A word vector has the wrong number of components."""


class NotComposableError(RbcError):
    """End-to-end step composition attempted on steps that do not meet."""


class NotDecreasingError(RbcError):
    """A step or rule whose replacement measure does not sit below its pattern."""


class InvalidRuleError(RbcError):
    """A rewrite rule whose two sides compute different boolean functions."""


class StaleMatchError(RbcError):
    """A match was applied to a diagram it no longer describes."""


class StepLimitExceeded(RbcError):
    """Normalization ran past its safety cap (indicates an implementation bug)."""


class StateLimitExceeded(RbcError):
    """Normal-form search visited more states than allowed."""


class ParseError(RbcError):
    """A circuit or rule file failed to parse; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")

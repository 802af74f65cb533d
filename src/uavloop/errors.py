"""Exception types shared across the package; the CLI maps them to exit codes."""

from __future__ import annotations


class PipelineError(Exception):
    """Base class for every error this package raises deliberately."""


class InputError(PipelineError):
    """An input file that is missing, unreadable or not UTF-8 text (CLI exit 2)."""


class ConfigError(PipelineError):
    """Bad configuration value or parameter combination (CLI exit 3)."""


class SizingError(ConfigError):
    """Dataset too small for the requested window/split geometry."""


class ParseError(PipelineError):
    """Malformed input text; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)

    def in_file(self, path) -> "ParseError":
        """This error, of the same class and line, with path in front of its message."""
        err = type(self)(f"{path}: {self}")
        err.line = self.line
        return err


class OrderingError(ParseError):
    """Record timestamps are not strictly increasing."""


class DimensionError(PipelineError):
    """Array shape or vector length mismatch."""


class NumericError(PipelineError):
    """Numeric failure at runtime (degenerate input, non-finite values)."""


class ImputationError(NumericError):
    """Missing cells the chosen imputation policy cannot fill."""


class DivergenceError(NumericError):
    """Training produced a non-finite loss."""

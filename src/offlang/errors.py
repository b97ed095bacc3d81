"""Exception types shared across the package.

Two broad families matter to callers: ParseError for malformed input files
(its message carries a 1-based line number when one is known, and the
file's path when the reader was given one) and ValidationError
for well-formed input that breaks a contract (duplicate ids, label hierarchy
violations, shortfalls, ...).  The CLI maps both to exit code 2.
"""


class OfflangError(Exception):
    """Base class for all package-specific errors."""


class ParseError(OfflangError):
    """Malformed input file."""

    def __init__(self, message: str, line: int | None = None, path=None):
        self.reason, self.line = message, line
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)


class ValidationError(OfflangError):
    """Well-formed input that violates a documented contract.

    `ids` optionally lists the offending record ids so callers can report
    every violation at once instead of failing on the first.
    """

    def __init__(self, message: str, ids: list[str] | None = None):
        self.ids = list(ids) if ids else []
        if self.ids:
            message = f"{message}: {', '.join(self.ids)}"
        super().__init__(message)


class ModelFormatError(OfflangError):
    """Model file is not in the expected binary format."""


class ModelVersionError(ModelFormatError):
    """Model file has an unknown magic or an unsupported format version."""


class ModelTruncatedError(ModelFormatError):
    """Model file ends before the declared payload is complete."""

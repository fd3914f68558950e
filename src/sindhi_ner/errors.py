"""Exception types shared across the package.

Every exception carries a short machine-readable ``code``.  The CLI prints
``error:<code>: <details>`` as the first stderr line and exits 1, so scripts
can branch on the code without parsing prose.  The one warning category
carries a code too, which the CLI prints as ``warning:<code>: <details>``.
"""

from __future__ import annotations


class NerError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "error"


class FileLineError(NerError):
    """Error tied to a specific line of a data file."""

    def __init__(self, path, lineno: int, message: str):
        self.path = str(path)
        self.lineno = lineno
        self.message = message
        super().__init__(f"{self.path}:{lineno}: {message}")


class MalformedLine(FileLineError):
    code = "malformed-line"


class UnknownCategory(FileLineError):
    code = "unknown-category"


class DuplicateEntry(FileLineError):
    code = "duplicate-entry"


class UnknownLabel(FileLineError):
    code = "unknown-label"


class ConfigError(NerError):
    code = "config"


class MissingDataFile(NerError):
    code = "missing-data-file"

    def __init__(self, path):
        self.path = str(path)
        super().__init__(f"required data file does not exist: {self.path}")


class UnknownFormat(NerError):
    code = "unknown-format"


class InvalidInput(NerError):
    code = "invalid-input"

    @classmethod
    def unencodable(cls, exc: UnicodeEncodeError) -> "InvalidInput":
        return cls(f"text holds {exc.object[exc.start:exc.end]!r}, which UTF-8 cannot encode")


class EmptyCorpus(NerError):
    code = "empty-corpus"


class LabelMismatch(NerError):
    code = "label-mismatch"


class TokenizationMismatch(NerError):
    code = "tokenization-mismatch"


class CorruptStore(NerError):
    code = "corrupt-store"

    def __init__(self, path, byte_offset: int, message: str = "unreadable record"):
        self.path = str(path)
        self.byte_offset = byte_offset
        super().__init__(f"{self.path}: {message} at byte offset {byte_offset}")


class TornRecordWarning(UserWarning):
    """A store dropped a torn final record on open."""

    code = "torn-record"

"""Exception types shared across the package.

Two families matter to callers: configuration problems (bad mode, bad
measure name, missing synonym table) and input problems (unreadable or
malformed files, unknown document ids). The CLI maps the first family to
exit code 64 and everything else to exit code 2.
"""


class SynsimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SynsimError):
    """Invalid configuration: unknown mode, measure, smoothing, or format."""


def check_choice(kind: str, value, allowed: tuple) -> None:
    """Raise ConfigError unless ``value`` is one of ``allowed``."""
    if value not in allowed:
        raise ConfigError(f"unknown {kind} {value!r}; expected one of {allowed}")


class LexiconFormatError(SynsimError):
    """A lexicon file breaks its line format at ``line_number``; ``args`` holds both."""

    def __init__(self, message, line_number):
        super().__init__(message, line_number)
        self.line_number = line_number

    def __str__(self):
        return f"line {self.line_number}: {self.args[0]}"


class CorpusError(SynsimError):
    """Problems assembling a corpus from input files."""


class EmptyCorpusError(CorpusError):
    """No documents were found where at least one is required."""


class DuplicateDocumentError(CorpusError):
    """Two input files map to the same document id."""


class UnknownDocumentError(CorpusError):
    """A requested document id is not present in the corpus."""


class ZeroDocumentFrequencyError(SynsimError):
    """A term has document frequency zero and smoothing is disabled; ``args`` holds the term."""

    def __init__(self, term):
        super().__init__(term)
        self.term = term

    def __str__(self):
        return (
            f"term {self.term!r} appears in no document; "
            "division by zero (enable plus_one_when_zero smoothing)"
        )

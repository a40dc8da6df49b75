"""Exception types shared across the package.

Every error that a pipeline stage can raise on bad input derives from
EprbLabError, so command-line code can map them onto exit codes in one
place.  Errors carry enough context (indices, line numbers, field names)
to point at the offending datum.
"""

from __future__ import annotations


class EprbLabError(Exception):
    """Base class for all package-specific errors."""


class ConfigMismatchError(EprbLabError):
    """Two stream files were given for the wrong islands: ``pair`` or
    ``sweep`` got a non-T file as ``--left`` or a non-L file as ``--right``."""


class ConfigParseError(EprbLabError):
    """A config document is malformed or violates a field invariant."""


class InvalidStreamError(EprbLabError):
    """An EventStream's columns failed validation when it was built.

    Carries the full violation list, ordered by (index, kind).
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations[:5])
        more = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"invalid event stream: {lines}{more}")


class EmptyCellError(EprbLabError):
    """A statistic was requested for a setting pair with zero tallied pairs."""


class TooLargeError(EprbLabError):
    """An enumeration request exceeds the exact-computation guard."""


class MalformedTupleError(EprbLabError):
    """A six-tuple handed to the time-topology validator has the wrong shape."""


class SettingCollisionError(EprbLabError):
    """Counterfactual augmentation was asked to reuse one of the pair's settings."""


class SupportViolationError(EprbLabError):
    """Equal-settings identification was requested for a distribution whose
    support includes domains where the two sides' hypothetical outcomes differ."""


class FormatError(EprbLabError):
    """An input file does not conform to its declared format.

    ``line`` is the 1-based line number when one is known.
    """

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        self.line = line
        self.path = path
        where = ""
        if path is not None:
            where += f"{path}"
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}" if where else message)


class InternalInvariantError(EprbLabError):
    """A result failed its own verification; indicates a bug, not bad input."""

"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise the
most specific class that applies rather than bare ValueError.
"""

from __future__ import annotations


class GmultError(Exception):
    """Base class for package errors."""


class BandOverflowError(GmultError):
    """A grid or stored symbol is too small for the requested computation."""


class UnderResolvedError(GmultError):
    """A mollifier support is not resolved by the requested grid or ladder."""


class ExceptionalValueError(GmultError):
    """A shift parameter sits on (or too close to) the exceptional set."""


class SymbolFormatError(GmultError):
    """Malformed input: a symbol file or expression, a group name, a
    ladder, a checker or frame-field spec, or a probe setting outside its
    domain."""

"""Exception hierarchy, and the one rule for integer arguments."""

from __future__ import annotations

import operator


class NoisySearchError(Exception):
    """Base class for package errors."""


class ContractViolationError(NoisySearchError):
    """An operation was called outside its documented contract."""


class ZeroLikelihoodError(ContractViolationError):
    """All posterior mass received zero likelihood (impossible with clamped noise)."""


class CapExceededError(NoisySearchError):
    """A variable-length episode hit the hard step cap (diagnostic guard)."""


def _int_in(name: str, value, lo: float, hi: float) -> int:
    """``value`` (the argument ``name``) as an int, or ValueError unless it
    is an integer in ``lo..hi`` by :func:`operator.index`, which refuses a
    float, even 5.0; a bool, which it reads as 0 or 1, is refused too."""
    try:
        if not isinstance(value, bool) and lo <= (i := operator.index(value)) <= hi:
            return i
    except TypeError:
        pass
    raise ValueError(f"{name} must be in {lo}..{hi}, got {value!r}")

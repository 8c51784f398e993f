"""Exception hierarchy."""

from __future__ import annotations


class NoisySearchError(Exception):
    """Base class for package errors."""


class ContractViolationError(NoisySearchError):
    """An operation was called outside its documented contract."""


class ZeroLikelihoodError(ContractViolationError):
    """All posterior mass received zero likelihood (impossible with clamped noise)."""


class CapExceededError(NoisySearchError):
    """A variable-length episode hit the hard step cap (diagnostic guard)."""

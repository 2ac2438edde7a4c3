"""Exception hierarchy shared by every module in the package."""

from __future__ import annotations


class PolycodeError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(PolycodeError):
    """Rejected input: malformed polynomial text, a parameter out of range, a criterion asked outside the j it covers."""


class CapExceeded(PolycodeError):
    """An enumeration would exceed its configured size cap; raised instead of running it."""


class InternalConsistencyError(PolycodeError):
    """Two independent computations of the same quantity disagreed; always a bug."""

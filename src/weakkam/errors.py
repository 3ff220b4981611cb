"""Error types shared across the toolkit.

Numerical refusals are deliberate: operations raise instead of returning
silently wrong values when a precondition (convexity class, level above
critical, nonempty source set, ...) is violated.  Each error carries enough
state to act as a certificate of the refusal.
"""

from __future__ import annotations


class WeakKamError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(WeakKamError):
    """Malformed or inconsistent run configuration."""


class SubcriticalLevelError(WeakKamError):
    """A level below the critical value was used where a supercritical one
    is required.  Carries the witness: either a point with empty sublevel
    or a negative cycle through the cost graph."""

    def __init__(self, message, empty_at=None, cycle=None, cycle_cost=None):
        super().__init__(message)
        self.empty_at = empty_at
        self.cycle = cycle
        self.cycle_cost = cycle_cost


class NotASubsolutionError(WeakKamError):
    """A function failed subsolution verification where one is required."""

    def __init__(self, message, worst_point=None, violation=None):
        super().__init__(message)
        self.worst_point = worst_point
        self.violation = violation


class EmptyAubryMaskError(WeakKamError):
    """The detected Aubry mask is empty; extensions from it are undefined.

    An empty mask at desk resolution usually means the level is off the
    critical one or the ladder is too short; callers must decide, so this
    is an error rather than a silent constant."""


class NotTonelliError(WeakKamError):
    """Flow integration or regularization asked of a model that does not
    satisfy the smoothness / uniform convexity / bounded derivative
    requirements."""

    def __init__(self, message, failed_conditions=()):
        super().__init__(message)
        self.failed_conditions = tuple(failed_conditions)


class LadderError(WeakKamError):
    """Requested time is not representable on the dyadic kernel ladder."""


class CertificateFailure(WeakKamError):
    """A requested certificate could not be established at the requested
    tolerance.  Carries the measured budget so the caller can see how far
    off the request was."""

    def __init__(self, message, budget=None):
        super().__init__(message)
        self.budget = budget or {}

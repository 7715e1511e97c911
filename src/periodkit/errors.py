"""Exception types shared across the package.

The CLI maps these onto its exit-code protocol: parse errors and an
oracle shape that ``oracle.require_shape`` refuses exit 2, a (p,p)-class
(no critical points) exits 3, a non-critical evaluation point exits 4.
"""

from __future__ import annotations


class PeriodKitError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(PeriodKitError):
    """Malformed input file or JSON payload."""


class PpClassError(PeriodKitError):
    """The Hodge data carries a (p,p)-class, so no critical point exists."""


class NotCriticalError(PeriodKitError):
    """The requested evaluation point lies outside the critical set."""

    def __init__(self, message: str, interval=None):
        super().__init__(message)
        self.interval = interval


class NotCriticalPairError(PeriodKitError):
    """The pair of representations admits no critical point at all."""


class AlgebraicityError(PeriodKitError):
    """Infinity-type exponents do not lie in Z + (n-1)/2."""


class UnknownRankError(PeriodKitError):
    """A period symbol's motive tag carries no rank but one is needed."""


class RuleNotApplicable(PeriodKitError):
    """No factor of the monomial matches the requested rewrite rule."""


class NonIntegerExponentError(PeriodKitError):
    """A 2*pi*i exponent failed to be an integer (internal consistency guard)."""


class SizeLimitError(PeriodKitError):
    """The pair's shape is outside the bound of ``oracle.require_shape``."""

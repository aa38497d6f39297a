"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class OracleCapError(ValueError):
    """The brute-force oracle was asked for more work than its cap allows.

    Callers hitting this should switch to one of the recurrence engines;
    the oracle exists only to cross-check them at small sizes.
    """


class IntegralityError(ArithmeticError):
    """A sum that must be an exact integer came out fractional.

    This is never expected: it signals an implementation bug, not bad input.
    """


class CertificationError(ArithmeticError):
    """A certificate that holds by construction failed to verify.

    Raised, never asserted, so the check also runs under ``python -O``.
    Like IntegralityError it signals an implementation bug, not bad input.
    """

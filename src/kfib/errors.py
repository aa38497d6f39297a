"""Exception types shared across the package, and its two argument checks.

``check_int`` makes every refusal of an argument that is not an int, is a
bool or lies below its range, and ``check_bits`` every refusal of a request whose
largest number, as its route estimates it, would pass ``MAX_BITS``, which
nothing else reads.  Call them through this module (``from . import
errors``, then ``errors.check_bits(...)``): ``perfbench/tracer.py`` wraps
each function a layer imports by name from another kfib module and has no
``errors`` layer, and a call through the module keeps the check's time in
its caller.  The refusals left in their modules are ``core._check_n``
(islice stops at ``sys.maxsize``), ``kfib_ordinary`` at n = 2k-1,
``asymptotic_series`` at n = 1, ``adaptive_partial`` with tol <= 0,
``run_suites`` with an unknown suite or erratum with n_max < 2,
``cli._tol``'s range, and ``core.count_compositions`` past its cap
(``OracleCapError``).
"""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class OracleCapError(DomainError):
    """The brute-force oracle was asked for more work than its cap allows.

    Callers hitting this should switch to one of the recurrence engines;
    the oracle exists only to cross-check them at small sizes.  It is a
    DomainError, which the CLI maps to exit 3, but the CLI cannot reach it:
    ``verify`` asks the oracle only for n <= 12 < ``core.ORACLE_CAP``.
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


#: the most bits one request may hold in its largest number or structure,
#: 2**33 bits (1 GiB)
MAX_BITS = 2**33


def check_int(value: int, name: str, least: int | None = None) -> int:
    """value itself if it is an int (not a bool) of at least ``least``; else DomainError."""
    if type(value) is not int or least is not None and value < least:
        bound = "" if least is None else f" >= {least}"
        raise DomainError(f"{name} must be an integer{bound}, got {value!r}")
    return value


def check_k(k: int) -> int:
    """k itself if it is a sequence order, an int >= 2 (not a bool); else DomainError."""
    return check_int(k, "sequence order k", 2)


def check_bits(bits: int, what: str) -> None:
    """DomainError if ``what``, estimated at ``bits`` bits, would pass MAX_BITS."""
    if bits > MAX_BITS:
        raise DomainError(f"{what} needs {bits} bits, past the cap of {MAX_BITS} bits")

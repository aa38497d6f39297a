"""Finite binomial sums that evaluate to k-step Fibonacci numbers.

Each routine accumulates its sum exactly in dyadic arithmetic and converts
to an integer only at the very end, so the claim "this truncated series is
an integer" is itself executed on every call rather than assumed.

Two of the formulas use only ordinary binomial coefficients (nonnegative
entries); a deliberately misranged variant of one of them is kept as a
regression artifact because a published version of the formula used that
wrong summation range.
"""

from __future__ import annotations

from .binomial import binom
from .core import check_k
from .dyadic import Dyadic
from .errors import DomainError


def _require_n_at_least(n: int, lo: int) -> None:
    if type(n) is not int or n < lo:
        raise DomainError(f"n must be an integer >= {lo}, got {n!r}")


def kfib_binomial_shifted(k: int, n: int) -> int:
    """F[n+k-2] as a dyadic binomial sum truncated at floor((n-1)/(k+1)).

    This is the index under which the sum satisfies the order-(k+1)
    recurrence u[n+k+1] = 2*u[n+k] - u[n] and the closed initial values
    2**(n-2) for 2 <= n <= k+1 and 2**k - 1 at n = k+2.
    """
    check_k(k)
    _require_n_at_least(n, 2)
    total = Dyadic(0)
    for el in range(0, (n - 1) // (k + 1) + 1):
        top = (k + 1) * el - n
        coeff = binom(top, el) - binom(top, el - 1)
        total = total + Dyadic(coeff, (k + 1) * el + 2 - n)
    return total.as_integer()


def kfib_binomial(k: int, n: int) -> int:
    """F[n] as the same binomial sum, re-indexed to land on F[n] directly.

    Requires n >= k (the first index at which the sum closes to an
    integer under this shift).
    """
    check_k(k)
    if type(n) is not int or n < k:
        raise DomainError(f"n must be an integer >= k={k}, got {n!r}")
    total = Dyadic(0)
    for el in range(0, (n - k + 1) // (k + 1) + 1):
        top = (k + 1) * el - n + k - 2
        coeff = binom(top, el) - binom(top, el - 1)
        total = total + Dyadic(coeff, (k + 1) * el + k - n)
    return total.as_integer()


def fib_binomial(n: int) -> int:
    """The classical Fibonacci number F[n] as a sum over nonpositive
    powers of 8 (the k = 2 specialization)."""
    _require_n_at_least(n, 2)
    return kfib_binomial(2, n)


def _ordinary_sum(k: int, n: int) -> Dyadic:
    # the alternating ordinary-binomial sum, without the excluded-index gate
    total = Dyadic(1, k - n)  # 2**(n-k)
    for el in range(1, (n - k + 1) // (k + 1) + 1):
        coeff = binom(n - (el + 1) * k + 2, el) - binom(n - (el + 1) * k, el - 2)
        if el & 1:
            coeff = -coeff
        total = total + Dyadic(coeff, (k + 1) * el + k - n)
    return total


def kfib_ordinary(k: int, n: int) -> int:
    """F[n] as an alternating sum of ordinary binomial coefficients.

    The index n = 2k-1 is excluded: the identity this formula is derived
    through degenerates there, so the input is refused rather than
    silently remapped.
    """
    check_k(k)
    if type(n) is not int or n < k:
        raise DomainError(f"n must be an integer >= k={k}, got {n!r}")
    if n == 2 * k - 1:
        raise DomainError(
            f"n = 2k-1 = {n} is excluded from the ordinary-binomial formula; "
            "use another method for this index"
        )
    return _ordinary_sum(k, n).as_integer()


def kfib_ordinary_alt(k: int, n: int) -> int:
    """F[n] by the equivalent ordinary-binomial sum with no excluded index."""
    check_k(k)
    if type(n) is not int or n < k:
        raise DomainError(f"n must be an integer >= k={k}, got {n!r}")
    total = Dyadic(1, k - n)
    for el in range(1, (n - k + 1) // (k + 1) + 1):
        coeff = binom(n - (el + 1) * k + 1, el) + binom(n - (el + 1) * k, el - 1)
        if el & 1:
            coeff = -coeff
        total = total + Dyadic(coeff, (k + 1) * el + k - n)
    return total.as_integer()


def kfib_ordinary_erroneous(k: int, n: int) -> Dyadic:
    """The ordinary-binomial sum with its range misextended to floor((n-1)/(k+1)).

    Reproduces a known-wrong published variant of the formula.  The result
    is returned as an exact dyadic rational because it need not be an
    integer; it coincides with F[n] for every n only when k = 2.  Kept so
    the test suite can exhibit inputs where the extra terms matter.
    """
    check_k(k)
    if type(n) is not int or n < k:
        raise DomainError(f"n must be an integer >= k={k}, got {n!r}")
    total = Dyadic(1, k - n)
    for el in range(1, (n - 1) // (k + 1) + 1):
        coeff = binom(n - (el + 1) * k + 2, el) - binom(n - (el + 1) * k, el - 2)
        if el & 1:
            coeff = -coeff
        total = total + Dyadic(coeff, (k + 1) * el + k - n)
    return total

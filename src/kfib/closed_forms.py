"""Finite binomial sums that evaluate to k-step Fibonacci numbers.

Each sum is a truncated Lagrange-inversion series whose terms are
c_el * 2**(e0 - (k+1)*el) with integer coefficients c_el.  Throughout the
summed range every binomial top is negative, so each coefficient is one
entry of a ``binom_row`` row (consecutive entries differ by a rational
factor of el, so the row costs O(k) small products per entry) times a
small exact rational.  The sum is accumulated by Horner's rule as one
plain integer N = sum c_el << ((k+1)*(L-el)), L the last index, whose
value is N * 2**(e0 - (k+1)*L).  Where that exponent is negative the claim
"this truncated series is an integer" becomes "the low bits of N are
zero", and it is executed on every call rather than assumed.

Two of the formulas use only ordinary binomial coefficients (nonnegative
entries); a deliberately misranged variant of one of them is kept as a
regression artifact because a published version of the formula used that
wrong summation range.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain

from .binomial import binom, binom_row
from .errors import DomainError, IntegralityError, check_k

TYPE_CHECKING = False  # true for type checkers; importing typing costs start-up time
if TYPE_CHECKING:
    from .dyadic import Dyadic


def _shift_sum(coeffs: Iterable[int], k: int, e0: int) -> tuple[int, int]:
    """(N, e) with N * 2**e == sum over el of coeffs[el] * 2**(e0 - (k+1)*el)."""
    total, e = 0, e0 + k + 1
    for c in coeffs:
        total = (total << (k + 1)) + c
        e -= k + 1
    return total, e


def _exact_int(total: int, e: int) -> int:
    """total * 2**e, which must be an integer: the low -e bits of total are zero."""
    if e >= 0:
        return total << e
    if total & ((1 << -e) - 1):
        raise IntegralityError(
            f"a closed-form sum came out fractional: nonzero bits below 2**{e}")
    return total >> -e


def _reflected_sum(k: int, m0: int, e0: int) -> int:
    """Sum of (binom(top, el) - binom(top, el-1)) * 2**(e0 - (k+1)*el)
    over 0 <= el <= m0 // (k+1), top = (k+1)*el - m0 - 1.

    Every top is negative, and reflecting both coefficients gives
    (-1)**el * (C(m, el) + C(m-1, el-1)) = binom(top, el) * (m+el) / m
    with m = m0 - k*el >= el, m >= 1.
    """

    def coeffs() -> Iterator[int]:
        m = m0
        for el, b in zip(range(m0 // (k + 1) + 1), binom_row(k, -m0 - 1)):
            yield b * (m + el) // m
            m -= k

    return _exact_int(*_shift_sum(coeffs(), k, e0))


def kfib_binomial_shifted(k: int, n: int) -> int:
    """F[n+k-2] as a dyadic binomial sum truncated at floor((n-1)/(k+1)).

    This is the index under which the sum satisfies the order-(k+1)
    recurrence u[n+k+1] = 2*u[n+k] - u[n] and the closed initial values
    2**(n-2) for 2 <= n <= k+1 and 2**k - 1 at n = k+2.
    """
    check_k(k)
    if type(n) is not int or n < 2:
        raise DomainError(f"n must be an integer >= 2, got {n!r}")
    return _reflected_sum(k, n - 1, n - 2)


def kfib_binomial(k: int, n: int) -> int:
    """F[n] as the same binomial sum, re-indexed to land on F[n] directly.

    Requires n >= k (the first index at which the sum closes to an
    integer under this shift).
    """
    check_k(k)
    if type(n) is not int or n < k:
        raise DomainError(f"n must be an integer >= k={k}, got {n!r}")
    return _reflected_sum(k, n - k + 1, n - k)


def _ordinary_term(k: int, n: int, el: int) -> int:
    # the coefficient by its definition, for the misranged tail past the
    # correct limit, where the tops are no longer all negative
    coeff = binom(n - (el + 1) * k + 2, el) - binom(n - (el + 1) * k, el - 2)
    return -coeff if el & 1 else coeff


def _ordinary_sum(k: int, n: int, upper: int | None = None) -> tuple[int, int]:
    """(N, e) with N * 2**e the sum over 0 <= el <= upper of (-1)**el *
    (C(m+1, el) - C(m-1, el-2)) * 2**(n-k - (k+1)*el), m = n-k+1 - k*el: the
    alternating ordinary-binomial sum, without the excluded-index gate.

    ``upper`` defaults to the correct limit L = floor((n-k+1)/(k+1)).  Up to
    L, with m' = m+1 >= 2, each coefficient is
    binom(top, el) * (m'-el) * (m'+el-1) / (m' * (m'-1)),
    top = (k+1)*el - (n-k+3); past L it comes from the definition.
    """
    last = (n - k + 1) // (k + 1)
    if upper is None:
        upper = last

    def coeffs() -> Iterator[int]:
        m = n - k + 2
        for el, b in zip(range(min(upper, last) + 1), binom_row(k, k - n - 3)):
            yield b * ((m - el) * (m + el - 1)) // (m * (m - 1))
            m -= k

    tail = (_ordinary_term(k, n, el) for el in range(last + 1, upper + 1))
    return _shift_sum(chain(coeffs(), tail), k, n - k)


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
    return _exact_int(*_ordinary_sum(k, n))


def kfib_ordinary_alt(k: int, n: int) -> int:
    """F[n] by the equivalent ordinary-binomial sum with no excluded index.

    Its terms (-1)**el * (C(m, el) + C(m-1, el-1)) * 2**(n-k - (k+1)*el),
    m = n-k+1 - k*el, are those of ``kfib_binomial`` with the negative tops
    reflected, so both sum the same coefficients.
    """
    check_k(k)
    if type(n) is not int or n < k:
        raise DomainError(f"n must be an integer >= k={k}, got {n!r}")
    return _reflected_sum(k, n - k + 1, n - k)


def kfib_ordinary_erroneous(k: int, n: int) -> Dyadic:
    """The ordinary-binomial sum with its range misextended to floor((n-1)/(k+1)).

    Reproduces a known-wrong published variant of the formula.  The result
    is returned as an exact dyadic rational because it need not be an
    integer; it coincides with F[n] for every n only when k = 2.  Kept so
    the test suite can exhibit inputs where the extra terms matter.
    """
    from .dyadic import Dyadic  # the one value here that need not be an integer

    check_k(k)
    if type(n) is not int or n < k:
        raise DomainError(f"n must be an integer >= k={k}, got {n!r}")
    total, e = _ordinary_sum(k, n, (n - 1) // (k + 1))
    return Dyadic(total, -e)

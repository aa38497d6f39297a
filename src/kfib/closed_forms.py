"""Finite binomial sums that evaluate to k-step Fibonacci numbers.

Each sum is a truncated Lagrange-inversion series whose terms are
c_el * 2**(e0 - (k+1)*el) with integer coefficients c_el.  Throughout the
summed range every binomial top (k+1)*el - m0 - 1 is negative, so each
coefficient is (-1)**el * C(m0 - k*el, el), an ordinary binomial, times a
small exact rational.  ``_reflected_sum`` sums it in one loop: it walks
that row by its positive term ratio, by the factors that change (the rule
of ``kfib.binomial``), so each entry costs two ``perm`` products, one
multiplication and one exact division, and accumulates by Horner's rule
one plain integer N = sum c_el << ((k+1)*(L-el)), L the last index, whose
value is N * 2**(e0 - (k+1)*L).  Where that exponent is negative the claim
"this truncated series is an integer" becomes "the low bits of N are
zero", and it is executed on every call rather than assumed.

The four formulas are one sum.  ``kfib_binomial`` and
``kfib_binomial_shifted`` sum the coefficients binom(top, el) -
binom(top, el-1) on the row m0 = n-k+1 (resp. n-1); reflecting their
negative tops turns them into the ordinary (-1)**el * (C(m, el) +
C(m-1, el-1)) of ``kfib_ordinary_alt``; and Pascal's rule applied twice
turns ``kfib_ordinary``'s (-1)**el * (C(m+1, el) - C(m-1, el-2)) into
that same coefficient, over the same range and powers of two.  So every
form walks ``_reflected_sum`` once.  A deliberately misranged variant of
the ordinary formula is kept as a regression artifact, because a
published version of the formula used that wrong summation range: it is
the same sum with at most one term appended, the one place that imports
``binom``.  Every form checks k and then n >= k (n >= 2 for the shifted
sum) in ``_check_index``; ``kfib_ordinary`` then refuses n = 2k-1.
"""

from __future__ import annotations

from math import perm

from . import errors
from .errors import DomainError, IntegralityError

TYPE_CHECKING = False  # true for type checkers; importing typing costs start-up time
if TYPE_CHECKING:
    from fractions import Fraction


def _check_index(k: int, n: int, least: int) -> None:
    """check_k, then n an int >= least (not a bool) whose sum, of about n
    bits, stays within MAX_BITS; else DomainError."""
    errors.check_k(k)
    errors.check_bits(errors.check_int(n, "n", least), f"the closed-form sum at n={n}")


def _exact_int(total: int, e: int) -> int:
    """total * 2**e, which must be an integer: the low -e bits of total are zero."""
    if e >= 0:
        return total << e
    if total & ((1 << -e) - 1):
        raise IntegralityError(
            f"a closed-form sum came out fractional: nonzero bits below 2**{e}")
    return total >> -e


def _reflected_sum(k: int, m0: int, e0: int) -> tuple[int, int]:
    """(N, e) with N * 2**e the sum of (binom(top, el) - binom(top, el-1)) *
    2**(e0 - (k+1)*el) over 0 <= el <= L = m0 // (k+1), top = (k+1)*el - m0 - 1.

    Every top is negative, so binom(top, el) = (-1)**el * C(m, el) with
    m = m0 - k*el >= el, m >= 1, and reflecting both coefficients gives
    (-1)**el * (C(m, el) + C(m-1, el-1)) = binom(top, el) * (m+el) / m.
    One loop walks the row and sums it by Horner's rule, N = sum c_el <<
    ((k+1)*(L-el)): the next entry is C(m-k, el+1) = C(m, el) *
    perm(m-el, k+1) / ((el+1) * perm(m, k)), or, with the k - el shared
    factors cancelled below el = k, perm(m-k, el+1) / ((el+1) * perm(m, el)).
    Every factor is positive, and the sign alternates through the divisor,
    ~el = -(el+1).  The perms are nonzero before the last index because
    m >= el + k + 1 there, and no step is taken past L, where they may be 0.
    """
    last = m0 // (k + 1)
    shift = k + 1
    a, m, total = 1, m0, 0
    for el in range(last):
        total = (total << shift) + a * (m + el) // m
        if el < k:
            a = a * perm(m - k, el + 1) // (~el * perm(m, el))
        else:
            a = a * perm(m - el, shift) // (~el * perm(m, k))
        m -= k
    return (total << shift) + a * (m + last) // m, e0 - shift * last


def kfib_binomial_shifted(k: int, n: int) -> int:
    """F[n+k-2] as a dyadic binomial sum truncated at floor((n-1)/(k+1)).

    This is the index under which the sum satisfies the order-(k+1)
    recurrence u[n+k+1] = 2*u[n+k] - u[n] and the closed initial values
    2**(n-2) for 2 <= n <= k+1 and 2**k - 1 at n = k+2.
    """
    _check_index(k, n, 2)
    return _exact_int(*_reflected_sum(k, n - 1, n - 2))


def kfib_binomial(k: int, n: int) -> int:
    """F[n] as the same binomial sum, re-indexed to land on F[n] directly.

    Requires n >= k (the first index at which the sum closes to an
    integer under this shift).
    """
    _check_index(k, n, k)
    return _exact_int(*_reflected_sum(k, n - k + 1, n - k))


def kfib_ordinary(k: int, n: int) -> int:
    """F[n] as an alternating sum of ordinary binomial coefficients.

    Its terms are (-1)**el * (C(m+1, el) - C(m-1, el-2)) * 2**(n-k - (k+1)*el),
    m = n-k+1 - k*el, for 0 <= el <= floor((n-k+1)/(k+1)).  Pascal's rule
    applied twice, C(m+1, el) = C(m, el) + C(m-1, el-1) + C(m-1, el-2),
    makes each coefficient C(m, el) + C(m-1, el-1), that of
    ``kfib_ordinary_alt`` over the same range, so this is the same sum.

    The index n = 2k-1 is excluded: the identity this formula is derived
    through degenerates there, so the input is refused rather than
    silently remapped.
    """
    _check_index(k, n, k)
    if n == 2 * k - 1:
        raise DomainError(f"n = 2k-1 = {n} is excluded from the ordinary-binomial formula; "
                          "use another method for this index")
    return _exact_int(*_reflected_sum(k, n - k + 1, n - k))


def kfib_ordinary_alt(k: int, n: int) -> int:
    """F[n] by the equivalent ordinary-binomial sum with no excluded index.

    Its terms (-1)**el * (C(m, el) + C(m-1, el-1)) * 2**(n-k - (k+1)*el),
    m = n-k+1 - k*el, are those of ``kfib_binomial`` with the negative tops
    reflected, so both sum the same coefficients.
    """
    _check_index(k, n, k)
    return _exact_int(*_reflected_sum(k, n - k + 1, n - k))


def _erroneous_sum(k: int, n: int) -> tuple[int, int]:
    """(N, e) with N * 2**e the misranged sum of ``kfib_ordinary_erroneous``:
    ``kfib_ordinary``'s sum, then at most one more Horner step for the term
    past the correct limit, taken from the definition, where the tops are no
    longer all negative."""
    from .binomial import binom  # only the misranged variant reads one binom

    total, e = _reflected_sum(k, n - k + 1, n - k)
    for el in range((n - k + 1) // (k + 1) + 1, (n - 1) // (k + 1) + 1):
        # each tail term sits 2**(k+1) below the one before it
        coeff = binom(n - (el + 1) * k + 2, el) - binom(n - (el + 1) * k, el - 2)
        total = (total << (k + 1)) + (-coeff if el & 1 else coeff)
        e -= k + 1
    return total, e


def kfib_ordinary_erroneous(k: int, n: int) -> Fraction:
    """The ordinary-binomial sum with its range misextended to floor((n-1)/(k+1)).

    Reproduces a known-wrong published variant of the formula.  The result
    is a Fraction because it need not be an integer (65/16 at (5, 7)); it
    coincides with F[n] for every n only when k = 2.  Kept so the test
    suite can exhibit inputs where the extra terms matter.  Up to
    the correct limit L = floor((n-k+1)/(k+1)) it is ``kfib_ordinary``'s
    sum; past it, at most one term (floor((n-1)/(k+1)) - L <= 1), see
    ``_erroneous_sum``.
    """
    from fractions import Fraction  # the one value here that need not be an integer

    _check_index(k, n, k)
    total, e = _erroneous_sum(k, n)
    return Fraction(total << e) if e >= 0 else Fraction(total, 1 << -e)

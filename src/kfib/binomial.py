"""Generalized binomial coefficients over all integer pairs.

``binom(a, b)`` extends the ordinary binomial coefficient to arbitrary
integer arguments by the three-case definition::

    binom(a, b) = a * (a-1) * ... * (a-b+1) / b!   if b >= 0
                = binom(a, a - b)                  if b < 0 and a >= b
                = 0                                if a < b < 0

The result is always an exact integer: any product of b consecutive
integers is divisible by b!.

``binom_row(k, c)`` walks the Lagrange-inversion coefficients
``binom((k+1)*el + c, el)`` by exact term ratios through every regime, and
it is the one row walker: the series draw on it, and every closed form
reads its row at c = -m0 - 1, all tops negative, multiplying entry el by
(m + el) / m, m = m0 - k*el.  It steps by the factors that change: below
el = k the ratio's two ``perm`` products share k - el factors, so step el
multiplies min(el, k) + 1 factors and divides by min(el, k).
"""

from collections.abc import Iterator
from math import comb, perm


def binom(a: int, b: int) -> int:
    """Exact generalized binomial coefficient, total over all integer pairs."""
    if b < 0:
        if a < b:
            return 0
        b = a - b  # binom(a, b) = binom(a, a - b), and a - b >= 0
    if a >= 0:
        return comb(a, b)
    # a * (a-1) * ... * (a-b+1) = (-1)**b * |a| * (|a|+1) * ... * (|a|+b-1),
    # and that rising product over b! is the ordinary C(|a|+b-1, b)
    c = comb(b - a - 1, b)
    return -c if b & 1 else c


def binom_row(k: int, c: int) -> Iterator[int]:
    """binom((k+1)*el + c, el) for el = 0, 1, 2, ...

    With top = (k+1)*el + c, hi = top+k+1, low = top-el+1, m = min(el, k),
    binom(hi, el+1) * (el+1) * low ... (low+m-1) = binom(top, el) *
    (hi-m) ... hi for every integer top (el >= 0).  Where every factor is
    positive (low > 0), a step is one perm over another and an exact
    division; where every factor is negative (hi < 0), the same on the
    magnitudes, the m+1 signs over m folded into the divisor as
    ~el = -(el+1).  The steps between are the zero region 0 <= top < el
    and its two edges, where the next coefficient is binom(hi, el+1)
    itself, 0 across the region.  hi and low advance by k+1 and k a step,
    and m is taken by a comparison, cheaper than a ``min`` call on the
    short rows the closed forms read.
    """
    el, hi, low, val = 0, c + k + 1, c + 1, 1
    while True:
        yield val
        m = el if el < k else k
        if low > 0:
            val = val * perm(hi, m + 1) // ((el + 1) * perm(low + m - 1, m))
        elif hi < 0:
            val = val * perm(m - hi, m + 1) // (~el * perm(-low, m))
        else:
            val = binom(hi, el + 1)
        el += 1
        hi += k + 1
        low += k

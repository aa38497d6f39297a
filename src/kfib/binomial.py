"""Generalized binomial coefficients over all integer pairs.

``binom(a, b)`` extends the ordinary binomial coefficient to arbitrary
integer arguments by the three-case definition::

    binom(a, b) = a * (a-1) * ... * (a-b+1) / b!   if b >= 0
                = binom(a, a - b)                  if b < 0 and a >= b
                = 0                                if a < b < 0

The result is always an exact integer: any product of b consecutive
integers is divisible by b!.

``binom_row(k, c)`` walks the Lagrange-inversion coefficients
``binom((k+1)*el + c, el)`` by exact term ratios through every regime; the
series draw on it.  The closed forms sum only negative-top rows and walk
them by a positive ordinary-binomial ratio of their own.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import comb, perm, prod


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


def _run(low: int, count: int) -> int:
    """low * (low+1) * ... * (low+count-1), by math.perm where the factors share a sign."""
    if low > 0:
        return perm(low + count - 1, count)
    if low + count > 0:
        return prod(range(low, low + count))  # a factor is 0
    return -perm(-low, count) if count & 1 else perm(-low, count)


def binom_row(k: int, c: int) -> Iterator[int]:
    """binom((k+1)*el + c, el) for el = 0, 1, 2, ...

    With top = (k+1)*el + c and m = min(el, k), both sides of

        binom(top+k+1, el+1) * (el+1) * (top-el+1) ... (top-el+m)
            = binom(top, el) * (top+k+1-m) ... (top+k+1)

    are the products top-el+1 .. top-el+m and top+k+1-el .. top+k+1 over
    el!, for every integer top (el >= 0): negative tops, the zero region
    0 <= top < el and the ordinary regime alike.  So each coefficient
    follows from the previous one by two products of consecutive integers,
    ``math.perm`` where their factors share a sign, and one exact division
    wherever D = (top-el+1) ... (top-el+m) is nonzero.  D vanishes only
    where k*el + c = top - el lies in [-m, -1], at most one step of the
    row (a regime boundary); that coefficient comes from binom.
    """
    el, top, val = 0, c, 1
    while True:
        yield val
        low, m = top - el + 1, min(el, k)
        if low <= 0 < low + m:
            val = binom(top + k + 1, el + 1)
        else:
            val = val * _run(top + k + 1 - m, m + 1) // ((el + 1) * _run(low, m))
        el += 1
        top += k + 1

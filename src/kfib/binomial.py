"""Generalized binomial coefficients over all integer pairs.

``binom(a, b)`` extends the ordinary binomial coefficient to arbitrary
integer arguments by the three-case definition::

    binom(a, b) = a * (a-1) * ... * (a-b+1) / b!   if b >= 0
                = binom(a, a - b)                  if b < 0 and a >= b
                = 0                                if a < b < 0

The result is always an exact integer: any product of b consecutive
integers is divisible by b!.
"""

from __future__ import annotations

from math import comb, factorial, perm


def binom(a: int, b: int) -> int:
    """Exact generalized binomial coefficient, total over all integer pairs."""
    if b >= 0:
        if a >= 0:
            return comb(a, b)
        # a * (a-1) * ... * (a-b+1) = (-1)**b * |a| * (|a|+1) * ... * (|a|+b-1),
        # the falling product perm(|a|+b-1, b); exact, so floor division never
        # truncates here
        prod = perm(b - a - 1, b)
        return (-prod if b & 1 else prod) // factorial(b)
    if a >= b:
        # a - b >= 0, so this resolves in the first case; depth is one.
        return binom(a, a - b)
    return 0

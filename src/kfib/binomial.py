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
from math import comb, prod


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

    With top = (k+1)*el + c, both sides of

        binom(top+k+1, el+1) * (el+1) * (top-el+1) ... (top-el+k)
            = binom(top, el) * (top+1) ... (top+k+1)

    are the product of the consecutive integers top-el+1 .. top+k+1 over
    el! (el >= 0), for every integer top: negative tops, the zero region
    0 <= top < el and the ordinary regime alike.  So each coefficient
    follows from the previous one by O(k) small-integer products and one
    exact division whenever the cancelled product D = (top-el+1) ...
    (top-el+k) is nonzero.  D vanishes only where top - el = k*el + c lies
    in [-k, -1], which is at most one step of the row (a regime boundary);
    that coefficient comes from binom.
    """
    el, top = 0, c
    val = 1
    while True:
        yield val
        low = top - el + 1
        if low <= 0 < low + k:
            val = binom(top + k + 1, el + 1)
        else:
            val = val * prod(range(top + 1, top + k + 2)) // (
                (el + 1) * prod(range(low, low + k)))
        el += 1
        top += k + 1

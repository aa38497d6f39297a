"""Independent reference computations used only by the test suite.

Nothing here shares code paths with the package, and nothing imports it:
k-step Fibonacci numbers come from stepping a plain list, factorials are
computed by a local loop, the golden ratio comes from an integer square
root, and dominant roots come from sign-change bisection on the
degree-(k+1) polynomial or from mpmath's bracketing root finder at twice
the precision.
Each oracle returns exact rationals with explicit error intervals so
comparisons against certified package output stay rigorous; the mpmath
intervals are an allowance of 2**8 units in the last place of the working
precision rather than a proof.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import mpmath

#: units in the last place allowed for an mpmath reference
MP_SLACK_BITS = 8


def plain_factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def factorial_binom(a: int, b: int) -> int:
    """a! / (b! (a-b)!) for 0 <= b <= a, via the local factorial only."""
    assert 0 <= b <= a
    return plain_factorial(a) // (plain_factorial(b) * plain_factorial(a - b))


def phi_reference(digits: int = 60) -> tuple[Fraction, Fraction]:
    """(approx, err) for the golden ratio via isqrt(5 * 10**(2*digits)).

    The floor square root gives phi - 10**-digits/2 < approx <= phi.
    """
    scale = 10**digits
    root5 = isqrt(5 * scale * scale)
    approx = Fraction(scale + root5, 2 * scale)
    return approx, Fraction(1, 2 * scale)


def bisect_dominant_root(k: int, iters: int = 300) -> tuple[Fraction, Fraction]:
    """(approx, err) for the dominant root by exact-sign bisection.

    Bisects p(x) = x**(k+1) - 2*x**k + 1 on (2 - 2**(1-k), 2), where the
    dominant root is the only zero; polynomial signs are evaluated in
    exact rational arithmetic, so the bracket is rigorous.
    """

    def p(x: Fraction) -> Fraction:
        return x ** (k + 1) - 2 * x**k + 1

    lo = Fraction(2) - Fraction(1, 2 ** (k - 1))
    hi = Fraction(2)
    assert p(lo) < 0 < p(hi)
    for _ in range(iters):
        mid = (lo + hi) / 2
        v = p(mid)
        if v < 0:
            lo = mid
        elif v > 0:
            hi = mid
        else:
            return mid, Fraction(0)
    return (lo + hi) / 2, (hi - lo) / 2


def kfib_stepping(k: int, n: int, modulus: int = 0) -> int:
    """F[n] of the k-step sequence (k-1 zeros, then a one) by stepping a
    plain list of the last k terms, each reduced modulo ``modulus`` if it is
    nonzero."""
    window = [0] * (k - 1) + [1]  # F[0..k-1]
    if n < k:
        return window[n]
    for _ in range(n - k + 1):
        nxt = sum(window)
        window = window[1:] + [nxt % modulus if modulus else nxt]
    return window[-1]


def fib_pair(n: int) -> tuple[int, int]:
    """(F[n], F[n-1]) for the classical Fibonacci numbers, n >= 1."""
    a, b = 0, 1  # F[0], F[1]
    for _ in range(n - 1):
        a, b = b, a + b
    return b, a


def _mp_fraction(x) -> Fraction:
    man, exp = x.man_exp
    return Fraction(int(man)) * Fraction(2) ** int(exp)


def _mp_root(k: int):
    """rho_k at mpmath's current precision: the Anderson-Bjorck bracketing
    solver on (2 - 2**(1-k), 2), where the root is the only zero."""
    lo, hi = 2 - mpmath.mpf(2) ** (1 - k), mpmath.mpf(2)
    return mpmath.findroot(lambda x: x ** (k + 1) - 2 * x**k + 1, (lo, hi),
                           solver="anderson")


def mpmath_dominant_root(k: int, bits: int) -> tuple[Fraction, Fraction]:
    """(approx, err) for rho_k from mpmath.findroot at 2*bits + 64 bits."""
    prec = 2 * bits + 64
    with mpmath.workprec(prec):
        root = _mp_root(k)
    return _mp_fraction(root), Fraction(1, 2 ** (prec - 1 - MP_SLACK_BITS))


def mpmath_asymptotic(k: int, n: int, bits: int, ratio: bool = False
                      ) -> tuple[Fraction, Fraction]:
    """(approx, err) for the dominant term at index n, or for F[n] over the
    dominant term at n-k+2 (``ratio``), in mpmath at 2*bits + 64 bits plus
    the bits that rho**n amplifies the root's error by.

    F[n] comes from a local order-k window sum of Python integers.
    """
    idx = n - k + 2 if ratio else n
    prec = 2 * bits + 64 + abs(idx).bit_length()
    with mpmath.workprec(prec):
        r = _mp_root(k)
        value = (r - 1) / ((k + 1) * r - 2 * k) * r ** (idx - 1)
        if ratio:
            window = [0] * (k - 1) + [1]
            for _ in range(n - k + 1):
                window = window[1:] + [sum(window)]
            value = (window[-1] if n >= k - 1 else 0) / value
        approx = _mp_fraction(value)
    rel = Fraction(abs(idx) + 2, 2 ** (prec - 1 - MP_SLACK_BITS))
    return approx, rel * max(1, abs(approx))


def mpmath_series_limit(which: str, k: int, x: int, bits: int) -> tuple[Fraction, Fraction]:
    """(approx, err) for the limit of the ``series --which`` sum at ``x`` (its
    n or a), in mpmath at 2*bits + 64 bits plus the bits that rho**x
    amplifies the root's error by: rho**x (thm1), 2**(x+1) rho**-x /
    ((k+1) rho - 2k) (thm2), or the dominant term at index x (thm3)."""
    if which == "thm3":
        return mpmath_asymptotic(k, x, bits)
    prec = 2 * bits + 64 + abs(x).bit_length()
    with mpmath.workprec(prec):
        r = _mp_root(k)
        if which == "thm1":
            value = r**x
        else:
            value = mpmath.mpf(2) ** (x + 1) * r ** (-x) / ((k + 1) * r - 2 * k)
        approx = _mp_fraction(value)
    rel = Fraction(abs(x) + 2, 2 ** (prec - 1 - MP_SLACK_BITS))
    return approx, rel * max(1, abs(approx))

"""Certified computation of the dominant characteristic root.

The k-step recurrence has characteristic polynomial x**k - x**(k-1) - ... - 1,
equivalently p(x) = x**(k+1) - 2*x**k + 1 after multiplying by (x - 1).  Its
unique root of modulus > 1, written rho_k, is real and satisfies
2 - 2**(1-k) < rho_k < 2; for k = 2 it is the golden ratio.  On that window
p is increasing and convex, and rho_k is its only zero there (the other
positive root is x = 1).

The root is found by Newton's method on p in fixed-point integers, the
precision doubling from step to step, and certified by an exact sign
change: p < 0 at the lower end of the returned bracket, p > 0 at the upper
end, both ends inside the window.  No iteration count or contraction
estimate enters the bound.

The dominant-term values evaluate in ball arithmetic (CertifiedReal) with
every operation rounded to one working precision, prec = bits + |index| +
3k + guard, enough for a power of rho_k to keep the 2**-bits target; a
result that still misses it raises CertificationError.  They take rho_k on
their own grid, 2**-(prec + k + 64), whose k term is needed: the digits of
rho_k = 2 - eps, eps near 2**-k, come in runs about k long, and with a fixed
guard alone its rounding to prec can cross one to another, sometimes looser ball.
"""

from fractions import Fraction

from . import errors
from .certified import CertifiedReal
from .errors import CertificationError

MIN_BITS = 8

#: guard bits of the working precision of the dominant-term values
_GUARD = 32

#: Newton steps allowed at the starting precision; from x = 2 the
#: iterates fall monotonically onto rho_k and need far fewer
_MAX_START_STEPS = 64


def _scaled_p(x: int, k: int, prec: int) -> int:
    """2**(prec*(k+1)) * p(x / 2**prec), exactly."""
    return x**k * (x - (2 << prec)) + (1 << (prec * (k + 1)))


def _newton_step(x: int, k: int, prec: int) -> int:
    """The Newton step p/p' at x / 2**prec, in units of 2**-prec, rounded."""
    num = _scaled_p(x, k, prec)
    den = x ** (k - 1) * ((k + 1) * x - (2 * k << prec))  # 2**(prec*k) * p'(x / 2**prec)
    return (2 * num + den) // (2 * den)


def _root_numerator(k: int, grid: int) -> int:
    """The integer a with rho_k strictly inside ((a-1) / 2**grid, (a+1) / 2**grid).

    Each Newton step roughly doubles the correct bits, so the precisions
    run from the top down by halving (plus guard bits covering the
    quadratic term's constant, about k/2) and each is entered with one
    step.  Raises CertificationError unless the sign change verifies.
    """
    guard = k.bit_length() + 4
    precs = [grid]
    while precs[-1] > 2 * guard + 32:
        precs.append(precs[-1] // 2 + guard)
    prec = precs.pop()
    x = 2 << prec
    for _ in range(_MAX_START_STEPS):
        step = _newton_step(x, k, prec)
        x -= step
        if abs(step) <= 1:
            break
    else:
        raise CertificationError(f"Newton iteration for rho_{k} did not settle")
    for nxt in reversed(precs):
        x <<= nxt - prec
        prec = nxt
        x -= _newton_step(x, k, prec)
    window_lo = (2 << grid) - (1 << (grid + 1 - k))  # 2 - 2**(1-k)
    if not (window_lo < x - 1 and x + 1 < 2 << grid
            and _scaled_p(x - 1, k, grid) < 0 < _scaled_p(x + 1, k, grid)):
        raise CertificationError(f"no sign change of p certifies rho_{k} at 2**-{grid}")
    return x


def _root(k: int, grid: int) -> CertifiedReal:
    """rho_k as the ball a / 2**grid with certified error 2**-grid."""
    errors.check_bits((k + 1) * grid, f"rho_{k} on the 2**-{grid} grid")  # p's numbers
    return CertifiedReal(Fraction(_root_numerator(k, grid), 1 << grid), Fraction(1, 1 << grid))


def rho(k: int, bits: int) -> CertifiedReal:
    """The dominant root rho_k with certified error 2**-(4*bits + k + 8)."""
    errors.check_k(k)
    # the k term keeps the grid far below the scale 2**-k of the gap itself
    return _root(k, 4 * errors.check_int(bits, "bits", MIN_BITS) + k + 8)


def epsilon(k: int, bits: int) -> CertifiedReal:
    """The gap eps_k = 2 - rho_k with certified error 2**-(4*bits + k + 8)."""
    return 2 - rho(k, bits)


def _dominant_term(k: int, idx: int, prec: int) -> CertifiedReal:
    """(rho-1) / ((k+1)*rho - 2k) * rho**(idx-1), every operation rounded to prec."""
    # its largest numbers measure 3.3-3.9 prec bits for k = 2..100
    errors.check_bits(4 * prec, f"the dominant term on the 2**-{prec} grid")
    r = _root(k, prec + k + 2 * _GUARD).rounded(prec)
    lead = ((r - 1) * ((k + 1) * r - 2 * k).reciprocal().rounded(prec)).rounded(prec)
    return (lead * r.power(idx - 1, prec)).rounded(prec)


def _working_precision(k: int, bits: int, idx: int) -> int:
    # |idx| covers the scale a power of rho moves the value by, either way;
    # the 3k term keeps err tight for large k (without it, err comes out up
    # to 2**37 larger at k >= 16).
    return bits + abs(idx) + 3 * k + _GUARD


def _certify(value: CertifiedReal, bits: int) -> CertifiedReal:
    """value, once its bound is at most 2**-bits relative to max(1, |value|)."""
    if value.err * (1 << bits) > max(Fraction(1), abs(value.approx)):
        raise CertificationError(f"working precision missed the 2**-{bits} target")
    return value


def asymptotic(k: int, n: int, bits: int) -> CertifiedReal:
    """The dominant-term value (rho-1)/((k+1)rho - 2k) * rho**(n-1).

    The bound is at most 2**-bits relative to max(1, |value|).  Note the
    index alignment: under this package's initial values the quantity
    approximates F[n+k-2], not F[n] (the two coincide at k = 2).  It is
    exactly the limit of the series evaluated by
    ``series.asymptotic_series``.
    """
    errors.check_k(k)
    errors.check_int(n, "n", 0)
    errors.check_int(bits, "bits", MIN_BITS)
    return _certify(_dominant_term(k, n, _working_precision(k, bits, n)), bits)


def asymptotic_ratio(k: int, n: int, bits: int) -> CertifiedReal:
    """F[n] divided by its matched dominant-term approximation.

    The denominator is the dominant term at index n-k+2, the alignment
    under which the ratio tends to 1 as n grows.  The bound is at most
    2**-bits relative to max(1, |ratio|).
    """
    from .core import kfib_order_k  # the one exact term here: rho loads no engine

    errors.check_k(k)
    errors.check_int(n, "n", 1)
    errors.check_int(bits, "bits", MIN_BITS)
    idx = n - k + 2
    prec = _working_precision(k, bits, idx)
    term = _dominant_term(k, idx, prec)
    # the reciprocal stays exact: on the 2**-prec grid a value as small as
    # 1/term would keep too few of its bits
    ratio = (kfib_order_k(k, n) * term.reciprocal()).rounded(prec)
    return _certify(ratio, bits)

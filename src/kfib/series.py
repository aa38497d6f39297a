"""Exact partial sums of the three binomial series, with certified tails.

All three series have consecutive-term magnitude ratios that approach
r_k = (k+1)**(k+1) / (k**k * 2**(k+1)) < 1, so beyond a stabilization
index a plain geometric majorant with ratio theta_k = (1 + r_k)/2 bounds
the tail.  Early terms can vanish, alternate in sign, or transiently grow
(the binomial tops only become ordinary once the summation index is large
enough), so the tail rule bridges any not-yet-stable terms explicitly by
absolute value and anchors the geometric bound on a window of observed
ratios, every one of which must sit under theta_k.

Partial sums are exact rationals throughout; the harmonic factors in the
root-power series leave the dyadic lattice, so plain Fraction is the
value type here.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import chain

from .binomial import binom_row as _binom_row
from .certified import CertifiedReal
from .core import check_k
from .errors import CertificationError, DomainError

#: consecutive observed ratios required under theta before the geometric
#: bound is trusted (rides out the transient hump past the sign region)
_RATIO_WINDOW = 3

_MAX_PROBE = 100_000


def term_ratio_limit(k: int) -> Fraction:
    """Limit r_k of consecutive-term magnitude ratios, (k+1)**(k+1) / (k**k * 2**(k+1))."""
    check_k(k)
    return Fraction((k + 1) ** (k + 1), k**k * 2 ** (k + 1))


def _theta(k: int) -> Fraction:
    return (1 + term_ratio_limit(k)) / 2


class SeriesPartialSum(namedtuple("SeriesPartialSum", "terms_used value tail_bound")):
    """Exact sum of the first ``terms_used`` terms plus a certified tail bound.

    ``terms_used`` is an int; ``value`` and ``tail_bound`` are Fractions.
    """

    __slots__ = ()


class _TailSeries:
    """A series with cached terms and the windowed geometric tail rule."""

    def __init__(self, terms: Iterator[Fraction], floor: int, k: int,
                 base: Fraction = Fraction(0)):
        self._source = terms
        self.floor = floor  # first index of the all-positive ordinary regime
        self.theta = _theta(k)
        self.base = base
        self._terms: list[Fraction] = []

    def term(self, el: int) -> Fraction:
        while len(self._terms) <= el:
            self._terms.append(next(self._source))
        return self._terms[el]

    def _gate(self, m: int) -> bool:
        # certifies |sum over el >= m| <= |t[m-1]| * theta / (1 - theta):
        # the window of _RATIO_WINDOW ratios ending at t[m-1] lies in the
        # ordinary regime, has no zero term, and every ratio is <= theta
        j0 = m - 1 - _RATIO_WINDOW
        if j0 < self.floor or j0 < 0:
            return False
        window = [self.term(j) for j in range(j0, m)]
        if any(t == 0 for t in window):
            return False
        return all(
            abs(window[i + 1]) <= self.theta * abs(window[i])
            for i in range(_RATIO_WINDOW)
        )

    def tail_bound(self, terms_used: int) -> Fraction:
        # the gate first passes at m = floor + _RATIO_WINDOW + 1 or later
        if self.floor + _RATIO_WINDOW + 1 > terms_used + _MAX_PROBE:
            raise DomainError(
                f"the tail bound needs terms up to index {self.floor + _RATIO_WINDOW}, "
                f"beyond the cap of {_MAX_PROBE} terms past the {terms_used} summed")
        m = terms_used
        bridge = Fraction(0)
        while not self._gate(m):
            bridge += abs(self.term(m))
            m += 1
            if m > terms_used + _MAX_PROBE:
                raise CertificationError(
                    f"term ratios stayed above theta for {_MAX_PROBE} terms "
                    "inside the ordinary regime")
        return bridge + abs(self.term(m - 1)) * self.theta / (1 - self.theta)

    def partial(self, terms_used: int) -> SeriesPartialSum:
        tail = self.tail_bound(terms_used)  # first: it can refuse before any summing
        value = self.base + sum(self.term(el) for el in range(terms_used))
        return SeriesPartialSum(terms_used, value, tail)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _times_pow2(num: int, den: int, e: int) -> Fraction:
    """num / den * 2**e in a single Fraction construction."""
    return Fraction(num << e, den) if e >= 0 else Fraction(num, den << -e)


def _rho_power_series(k: int, n: int) -> _TailSeries:
    # -n * 2**(n-k-1) * binom(k*(el+1) + el - n, el) / ((el+1) * 2**((k+1)*el))
    terms = (_times_pow2(-n * c, el + 1, n - k - 1 - (k + 1) * el)
             for el, c in enumerate(_binom_row(k, k - n)))
    return _TailSeries(terms, max(0, _ceil_div(n - k, k)), k, base=Fraction(2) ** n)


def _hermite_series(k: int, a: int) -> _TailSeries:
    terms = (Fraction(c, 1 << ((k + 1) * el)) for el, c in enumerate(_binom_row(k, a)))
    return _TailSeries(terms, max(0, _ceil_div(-a, k)), k)


def _asymptotic_series(k: int, n: int) -> _TailSeries:
    # (binom(top, el) - binom(top, el-1)) * 2**(n - 2 - (k+1)*el), top = (k+1)*el - n;
    # binom(top, el-1) is the row at c = k+1-n one place back, and 0 at el = 0
    # for every admitted n (n = 0 or n >= 2)
    lower = chain([0], _binom_row(k, k + 1 - n))
    terms = (_times_pow2(b - b1, 1, n - 2 - (k + 1) * el)
             for el, (b, b1) in enumerate(zip(_binom_row(k, -n), lower)))
    return _TailSeries(terms, max(0, _ceil_div(n, k - 1)), k)


def _check_terms(terms: int) -> int:
    if type(terms) is not int or terms < 0:
        raise DomainError(f"term count must be a nonnegative integer, got {terms!r}")
    return terms


def rho_power_partial(k: int, n: int, terms: int) -> SeriesPartialSum:
    """Partial sum for rho_k**n: 2**n minus a weighted binomial series.

    With zero terms the value is exactly 2**n.  The limit is rho_k**n;
    at n = 1 the k = 2 case is the classical golden-ratio series.
    """
    check_k(k)
    if type(n) is not int or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    _check_terms(terms)
    return _rho_power_series(k, n).partial(terms)


def hermite_sum_partial(k: int, a: int, terms: int) -> SeriesPartialSum:
    """Partial sum of sum_el binom((k+1)el + a, el) / 2**((k+1)el).

    The limit equals 2**(a+1) * rho_k**(-a) / ((k+1) rho_k - 2k) for every
    integer a.
    """
    check_k(k)
    if type(a) is not int:
        raise DomainError(f"a must be an integer, got {a!r}")
    _check_terms(terms)
    return _hermite_series(k, a).partial(terms)


def asymptotic_series_partial(k: int, n: int, terms: int) -> SeriesPartialSum:
    """Partial sum of the dominant-term series at index n (n != 1).

    The limit equals the dominant-term value computed by
    ``dominant_root.asymptotic``; truncating at floor((n-1)/(k+1)) + 1
    terms gives exactly the integer F[n+k-2].  The index n = 1 is refused:
    the first term of the series degenerates there and the identity's
    derivation relies on it.
    """
    check_k(k)
    if type(n) is not int or n < 0:
        raise DomainError(f"n must be a nonnegative integer, got {n!r}")
    if n == 1:
        raise DomainError("n = 1 is excluded from the dominant-term series")
    _check_terms(terms)
    return _asymptotic_series(k, n).partial(terms)


def adaptive_partial(partial: Callable[[int], SeriesPartialSum],
                     tol: Fraction, start: int = 4) -> SeriesPartialSum:
    """Double the term count from ``start`` until the tail bound is <= tol."""
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    terms = start
    while True:
        p = partial(terms)
        if p.tail_bound <= tol:
            return p
        terms *= 2


def rho_power_via_series(k: int, n: int, tol) -> CertifiedReal:
    """rho_k**n summed adaptively until the certified tail is <= tol."""
    tol = Fraction(tol)
    p = adaptive_partial(lambda terms: rho_power_partial(k, n, terms), tol)
    return CertifiedReal(p.value, p.tail_bound)

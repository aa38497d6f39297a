"""Exact partial sums of the three binomial series, with certified tails.

Each builder, ``rho_power_series``, ``hermite_series`` and
``asymptotic_series``, returns one series.  Its ``partial(terms)`` is the
exact sum of the first ``terms`` terms with a certified tail bound, and
``adaptive_partial(series.partial, tol)`` doubles the count until that
bound is at most tol.

All three series have consecutive-term magnitude ratios that approach
r_k = (k+1)**(k+1) / (k**k * 2**(k+1)) < 1, so from an anchor index on a
plain geometric majorant with ratio theta_k = (1 + r_k)/2 bounds the tail.
Early terms can vanish, alternate in sign, or transiently grow, so the
tail rule bridges the terms before the anchor by absolute value.  Each
builder states its term ratio as a product of linear quotients in el, and
the anchor is proved from those quotients before any term is built.

Sums stay exact but are kept in plain integers.  A series yields term el
as a triple (a, q, e) meaning a * 2**e / q, with q = el + 1 for the
root-power series (its harmonic factor leaves the dyadic lattice) and
q = 1 for the other two.  A sum is a triple (N, Q, E) meaning N / (Q * 2**E).
One primitive sums any run of terms, signed or by absolute value, by
binary splitting (B. Haible and T. Papanikolaou, "Fast multiprecision
evaluation of series of rational numbers", ANTS-III, 1998): the two
halves' sums merge with one shift, and with one lcm only where their
denominators differ, so the dyadic series need shifts and adds alone and
no gcd is taken.  A series keeps its prefix sum across ``partial`` calls,
so a longer request merges in the sum of just the new terms; requests
below the tail bridge's end share one bridge.  The one Fraction of a sum
is made when ``partial`` returns it (value and tail bound alike).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import chain
from math import lcm

from .binomial import binom_row as _binom_row
from .errors import DomainError, check_k

#: terms bridged past anchor + 1, where the geometric bound may first start;
#: as each later ratio is <= theta, bridging further never loosens the bound,
#: and three keep the tail bounds and term counts the CLI's outputs pin
_EXTRA_BRIDGE = 3

#: the most terms past those summed that a tail bound may bridge
_MAX_PROBE = 100_000

#: the term count ``adaptive_partial`` starts doubling from
_START_TERMS = 4


def term_ratio_limit(k: int) -> Fraction:
    """Limit r_k of consecutive-term magnitude ratios, (k+1)**(k+1) / (k**k * 2**(k+1))."""
    check_k(k)
    return Fraction((k + 1) ** (k + 1), k**k * 2 ** (k + 1))


class SeriesPartialSum(namedtuple("SeriesPartialSum", "terms_used value tail_bound")):
    """Exact sum of the first ``terms_used`` terms plus a certified tail bound.

    ``terms_used`` is an int; ``value`` and ``tail_bound`` are Fractions.
    """

    __slots__ = ()


_ZERO = (0, 1, 0)


def _merge(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
    """The sum of two exact sums (num, den, exp), each num / (den * 2**exp)."""
    n1, d1, e1 = x
    n2, d2, e2 = y
    if d1 != d2:
        d = lcm(d1, d2)
        n1, n2, d1 = n1 * (d // d1), n2 * (d // d2), d
    if e1 < e2:
        return (n1 << (e2 - e1)) + n2, d1, e2
    return n1 + (n2 << (e1 - e2)), d1, e1


def _split_sum(terms: list[tuple[int, int, int]], i: int, j: int,
               absolute: bool) -> tuple[int, int, int]:
    """Sum of the terms a * 2**e / q at indices i..j-1 (of |a| if ``absolute``),
    by binary splitting, as one (num, den, exp)."""
    if j - i == 1:
        a, q, e = terms[i]
        return (abs(a) if absolute else a), q, -e
    if j <= i:
        return _ZERO
    mid = (i + j) // 2
    return _merge(_split_sum(terms, i, mid, absolute), _split_sum(terms, mid, j, absolute))


def _value(x: tuple[int, int, int]) -> Fraction:
    num, den, exp = x
    return Fraction(num, den << exp) if exp >= 0 else Fraction(num << -exp, den)


def _product(xs: list[int]) -> int:
    """The product of xs by pairs: unlike a left fold, like sizes meet."""
    while len(xs) > 1:
        xs = [x * y for x, y in zip(xs[::2], xs[1::2])] + xs[len(xs) & ~1:]
    return xs[0]


def _anchor(ratio: list[tuple[int, int, int, int]], tn: int, td: int) -> int:
    """The least M from which every term ratio is at most theta = tn/td.

    ``ratio`` states |t[el+1] / t[el]| as quotients (a1 el + b1) / (a2 el + b2),
    a1, a2 > 0.  From the least el >= 0 where every a el + b is positive, each
    quotient is positive and monotone: over a run of indices it is at most its
    value at one end, or its limit a1/a2 on an endless run.  A run whose
    product of those maxima exceeds theta is halved, right half first, down
    to single indices, where the product is the ratio itself.
    """

    def passes(lo: int, hi: int | None) -> bool:
        # every ratio at lo..hi (hi None: the run is endless) is <= theta
        nums, dens = [], []
        for a1, b1, a2, b2 in ratio:
            x = hi if a1 * b2 > a2 * b1 else lo  # the end where it is largest
            nums.append(a1 if x is None else a1 * x + b1)
            dens.append(a2 if x is None else a2 * x + b2)
        return _product(nums) * td <= _product(dens) * tn

    # ceil((1 - b) / a) is the least el with a el + b >= 1
    floor = max(0, *[(a1 - b1) // a1 for a1, b1, _, _ in ratio],
                *[(a2 - b2) // a2 for _, _, a2, b2 in ratio])
    runs = [(floor, None)]  # runs still to check, the rightmost on top
    while runs:
        lo, hi = runs.pop()
        if not passes(lo, hi):
            if lo == hi:
                return lo + 1  # lo is the last index whose ratio exceeds theta
            mid = 2 * lo + 1 if hi is None else (lo + hi + 1) // 2
            runs += [(lo, mid - 1), (mid, hi)]
    return floor


class _TailSeries:
    """A series with cached terms, a running prefix sum and a proved tail rule."""

    def __init__(self, terms: Iterator[tuple[int, int, int]], k: int,
                 ratio: list[tuple[int, int, int, int]], base: int = 0):
        self._source = terms
        d = k**k << (k + 1)  # theta = (1 + r_k)/2 with r_k = (k+1)**(k+1) / d
        self._theta = d + (k + 1) ** (k + 1), 2 * d
        self.anchor = _anchor(ratio, *self._theta)  # ratios from here on are <= theta
        self._end = self.anchor + 1 + _EXTRA_BRIDGE  # where each bridge ends
        self.base = base
        self._terms: list[tuple[int, int, int]] = []
        self._total = (base, 1, 0)  # the sum of the first self._summed terms
        self._summed = 0
        self._bridge = (self._end, _ZERO)  # (start, sum of |t| over start..end-1)

    def _triple(self, el: int) -> tuple[int, int, int]:
        terms = self._terms
        while len(terms) <= el:
            terms.append(next(self._source))
        return terms[el]

    def _sum(self, i: int, j: int, absolute: bool = False) -> tuple[int, int, int]:
        if j > i:
            self._triple(j - 1)
        return _split_sum(self._terms, i, j, absolute)

    def term(self, el: int) -> Fraction:
        """Term ``el`` as an exact Fraction."""
        a, q, e = self._triple(el)
        return _value((a, q, -e))

    def tail_bound(self, terms_used: int) -> Fraction:
        # as g - 1 >= anchor, |sum over el >= g| <= |t[g-1]| theta / (1 - theta);
        # the terms from terms_used up to g are bridged by absolute value
        g = max(terms_used, self._end)
        if g > terms_used + _MAX_PROBE:
            raise DomainError(f"the tail bound needs terms up to index {g - 1}, beyond "
                              f"the cap of {_MAX_PROBE} terms past the {terms_used} summed")
        bridge = _ZERO
        if terms_used < self._end:
            # every request below the end bridges to it: move the start
            start, bridge = self._bridge
            num, den, exp = self._sum(*sorted((start, terms_used)), absolute=True)
            bridge = _merge(bridge, (num if terms_used < start else -num, den, exp))
            self._bridge = terms_used, bridge
        a, q, e = self._triple(g - 1)
        tn, td = self._theta
        return _value(_merge(bridge, (abs(a) * tn, q * (td - tn), -e)))

    def partial(self, terms_used: int) -> SeriesPartialSum:
        if type(terms_used) is not int or terms_used < 0:
            raise DomainError(f"term count must be a nonnegative integer, got {terms_used!r}")
        tail = self.tail_bound(terms_used)  # first: it can refuse before any summing
        if terms_used < self._summed:
            self._total, self._summed = (self.base, 1, 0), 0
        self._total = _merge(self._total, self._sum(self._summed, terms_used))
        self._summed = terms_used
        return SeriesPartialSum(terms_used, _value(self._total), tail)


def _row_ratio(k: int, c: int) -> list[tuple[int, int, int, int]]:
    """binom_row(k, c)'s step ratio over 2**(k+1), as k+1 linear quotients."""
    return [(k + 1, c + i, k, c + i) for i in range(1, k + 1)] + [
        (k + 1, c + k + 1, 2 << k, 2 << k)]


def rho_power_series(k: int, n: int) -> _TailSeries:
    """The series of rho_k**n: 2**n minus a weighted binomial series (n >= 1).

    Term el is -n * 2**(n-k-1) * binom(k*(el+1) + el - n, el) / ((el+1) *
    2**((k+1)*el)).  With zero terms the value is exactly 2**n.  The limit
    is rho_k**n; at n = 1 the k = 2 case is the classical golden-ratio
    series.
    """
    check_k(k)
    if type(n) is not int or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    terms = ((-n * c, el + 1, n - k - 1 - (k + 1) * el)
             for el, c in enumerate(_binom_row(k, k - n)))
    # the ratio is the row's times (el+1)/(el+2)
    return _TailSeries(terms, k, _row_ratio(k, k - n) + [(1, 1, 1, 2)], base=1 << n)


def hermite_series(k: int, a: int) -> _TailSeries:
    """The series sum_el binom((k+1)el + a, el) / 2**((k+1)el), a any integer.

    The limit equals 2**(a+1) * rho_k**(-a) / ((k+1) rho_k - 2k).
    """
    check_k(k)
    if type(a) is not int:
        raise DomainError(f"a must be an integer, got {a!r}")
    terms = ((c, 1, -(k + 1) * el) for el, c in enumerate(_binom_row(k, a)))
    return _TailSeries(terms, k, _row_ratio(k, a))


def asymptotic_series(k: int, n: int) -> _TailSeries:
    """The dominant-term series at index n (n >= 0, n != 1).

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
    # (binom(top, el) - binom(top, el-1)) * 2**(n - 2 - (k+1)*el), top = (k+1)*el - n;
    # binom(top, el-1) is the row at c = k+1-n one place back, and 0 at el = 0
    # for every admitted n (n = 0 or n >= 2)
    lower = chain([0], _binom_row(k, k + 1 - n))
    terms = ((b - b1, 1, n - 2 - (k + 1) * el)
             for el, (b, b1) in enumerate(zip(_binom_row(k, -n), lower)))
    # term el is the row's times g(el) = ((k-1) el - n + 1) / (k el - n + 1),
    # so the ratio is the row's times g(el+1) / g(el)
    return _TailSeries(terms, k, _row_ratio(k, -n) + [(k - 1, k - n, k - 1, 1 - n),
                                                       (k, 1 - n, k, k + 1 - n)])


def adaptive_partial(partial: Callable[[int], SeriesPartialSum],
                     tol: Fraction) -> SeriesPartialSum:
    """Double the term count from ``_START_TERMS`` until the tail bound is <= tol.

    Pass one series' bound ``partial`` (``hermite_series(k, a).partial``):
    each doubling then extends that series' running sum instead of summing
    again from term 0.
    """
    if tol <= 0:
        raise DomainError(f"tolerance must be positive, got {tol!r}")
    terms = _START_TERMS
    while True:
        p = partial(terms)
        if p.tail_bound <= tol:
            return p
        terms *= 2

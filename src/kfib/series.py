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

Sums stay exact in plain integers: term el is an integer a_el times
2**(e0 - (k+1)*el).  For the power series of rho_k**n, a_el is -n *
binom(T, el) / (el+1) with T = (k+1)*el + k - n, an exact division: the
quotient is binom(T+1, el+1) - (k+1)*binom(T, el), the coefficient of
z**(el+1) in the generalized binomial series B_{k+1}(z)**(-n) (Graham,
Knuth and Patashnik, Concrete Mathematics, eq. 5.60), and each division is
checked all the same.  A run of terms, signed or by absolute value, sums by
Horner's rule, N = (N << (k+1)) + a, in blocks of fixed length, into one
integer over a power of two; two sums merge with one shift.  A series keeps
its prefix sum across ``partial`` calls, so a longer request merges in the
sum of just the new terms; requests below the tail bridge's end share one
bridge.  The one Fraction of a sum is made when ``partial`` returns it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import chain

from . import errors
from .binomial import binom_row as _binom_row
from .errors import DomainError, IntegralityError

#: terms bridged past anchor + 1, where the geometric bound may first start;
#: as each later ratio is <= theta, bridging further never loosens the bound,
#: and three keep the tail bounds and term counts the CLI's outputs pin
_EXTRA_BRIDGE = 3

#: terms summed by Horner's rule between two shifts of the long running sum
_BLOCK = 64

#: the term count ``adaptive_partial`` starts doubling from
_START_TERMS = 4


#: bits the anchor holds per term-ratio quotient: a tuple of four ints and
#: its two factors in ``_anchor``'s products, about 240 bytes in CPython
_QUOTIENT_BITS = 2048


def _check_order(k: int) -> None:
    """check_k, then DomainError where the anchor's k+1 quotients would pass
    MAX_BITS.  Theta's (k+1)**(k+1), of (k+1)*bit_length(k+1) bits, is
    smaller at every k below 2**2048, and past the cap from there on anyway."""
    errors.check_bits((errors.check_k(k) + 1) * _QUOTIENT_BITS, f"the tail anchor at k={k}")


def term_ratio_limit(k: int) -> Fraction:
    """Limit r_k of consecutive-term magnitude ratios, (k+1)**(k+1) / (k**k * 2**(k+1))."""
    _check_order(k)
    return Fraction((k + 1) ** (k + 1), k**k * 2 ** (k + 1))


class SeriesPartialSum(namedtuple("SeriesPartialSum", "terms_used value tail_bound")):
    """Exact sum of the first ``terms_used`` terms plus a certified tail bound.

    ``terms_used`` is an int; ``value`` and ``tail_bound`` are Fractions.
    """

    __slots__ = ()


def _horner(terms: list[int], shift: int) -> int:
    """The sum of terms[el] << shift*(len(terms)-1-el), by Horner's rule in blocks."""
    total = 0
    for b in range(0, len(terms), _BLOCK):
        block, run = terms[b:b + _BLOCK], 0
        for a in block:
            run = (run << shift) + a
        total = (total << shift * len(block)) + run
    return total


def _fraction(num: int, exp: int, den: int = 1) -> Fraction:
    """num * 2**exp / den as a Fraction."""
    return Fraction(num << exp, den) if exp >= 0 else Fraction(num, den << -exp)


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
    """A series with cached terms, a running prefix sum and a proved tail rule.

    Term el is terms[el] * 2**(e0 - (k+1)*el), the sum starts at base * 2**(e0+k+1),
    and a sum of the terms before index j is an int N worth N * 2**self._exp(j).
    """

    def __init__(self, terms: Iterator[int], k: int, e0: int,
                 ratio: list[tuple[int, int, int, int]], base: int = 0):
        self._source = terms
        self._shift, self._e0 = k + 1, e0
        d = k**k << (k + 1)  # theta = (1 + r_k)/2 with r_k = (k+1)**(k+1) / d
        self._theta = d + (k + 1) ** (k + 1), 2 * d
        self.anchor = _anchor(ratio, *self._theta)  # ratios from here on are <= theta
        self._end = self.anchor + 1 + _EXTRA_BRIDGE  # where each bridge ends
        self.base = base
        self._terms: list[int] = []
        self._total = base  # the sum of the first self._summed terms
        self._summed = 0
        self._bridge = (self._end, 0)  # (start, sum of |t| over start..end-1)

    def _exp(self, j: int) -> int:
        return self._e0 - self._shift * (j - 1)

    def _coeff(self, el: int) -> int:
        bits = self._shift * (el + 1) * (el + 2) // 2  # term el holds about (k+1)*el bits
        errors.check_bits(bits, f"the term cache up to index {el}")
        terms = self._terms
        while len(terms) <= el:
            terms.append(next(self._source))
        return terms[el]

    def term(self, el: int) -> Fraction:
        """Term ``el`` as an exact Fraction."""
        errors.check_int(el, "term index", 0)
        return _fraction(self._coeff(el), self._exp(el + 1))

    def tail_bound(self, terms_used: int) -> Fraction:
        # as g - 1 >= anchor, |sum over el >= g| <= |t[g-1]| theta / (1 - theta);
        # the terms from terms_used up to g are bridged by absolute value
        g = max(terms_used, self._end)
        last = abs(self._coeff(g - 1))  # refuses past MAX_BITS, else builds every term up to g - 1
        bridge = 0
        if terms_used < self._end:
            # every request below the end bridges to it (g is the end): move the start
            start, bridge = self._bridge
            i, j = sorted((start, terms_used))
            moved = _horner(list(map(abs, self._terms[i:j])), self._shift) << self._shift * (g - j)
            bridge += moved if terms_used < start else -moved
            self._bridge = terms_used, bridge
        tn, td = self._theta
        return _fraction(bridge * (td - tn) + last * tn, self._exp(g), td - tn)

    def partial(self, terms_used: int) -> SeriesPartialSum:
        errors.check_int(terms_used, "term count", 0)
        tail = self.tail_bound(terms_used)  # first: it can refuse; else it builds the terms
        if terms_used < self._summed:
            self._total, self._summed = self.base, 0
        new = self._terms[self._summed:terms_used]
        self._total = (self._total << self._shift * len(new)) + _horner(new, self._shift)
        self._summed = terms_used
        return SeriesPartialSum(terms_used, _fraction(self._total, self._exp(terms_used)), tail)


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
    _check_order(k)
    errors.check_int(n, "n", 1)

    def terms():  # -n * binom(...) / (el+1), each division checked exact
        for el, c in enumerate(_binom_row(k, k - n), 1):
            a, r = divmod(-n * c, el)
            if r:
                raise IntegralityError(f"rho_{k}**{n} series term {-n * c} / {el} is fractional")
            yield a

    # the ratio is the row's times (el+1)/(el+2); 2**n is the sum's start
    return _TailSeries(terms(), k, n - k - 1, _row_ratio(k, k - n) + [(1, 1, 1, 2)], base=1)


def hermite_series(k: int, a: int) -> _TailSeries:
    """The series sum_el binom((k+1)el + a, el) / 2**((k+1)el), a any integer.

    The limit equals 2**(a+1) * rho_k**(-a) / ((k+1) rho_k - 2k).
    """
    _check_order(k)
    errors.check_int(a, "a")
    return _TailSeries(_binom_row(k, a), k, 0, _row_ratio(k, a))


def asymptotic_series(k: int, n: int) -> _TailSeries:
    """The dominant-term series at index n (n >= 0, n != 1).

    The limit equals the dominant-term value computed by
    ``dominant_root.asymptotic``; truncating at floor((n-1)/(k+1)) + 1
    terms gives exactly the integer F[n+k-2].  The index n = 1 is refused:
    the first term of the series degenerates there and the identity's
    derivation relies on it.
    """
    _check_order(k)
    if errors.check_int(n, "n", 0) == 1:
        raise DomainError("n = 1 is excluded from the dominant-term series")
    # (binom(top, el) - binom(top, el-1)) * 2**(n - 2 - (k+1)*el), top = (k+1)*el - n;
    # binom(top, el-1) is the row at c = k+1-n one place back, and 0 at el = 0
    # for every admitted n (n = 0 or n >= 2)
    lower = chain([0], _binom_row(k, k + 1 - n))
    terms = (b - b1 for b, b1 in zip(_binom_row(k, -n), lower))
    # term el is the row's times g(el) = ((k-1) el - n + 1) / (k el - n + 1),
    # so the ratio is the row's times g(el+1) / g(el)
    return _TailSeries(terms, k, n - 2, _row_ratio(k, -n) + [(k - 1, k - n, k - 1, 1 - n),
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

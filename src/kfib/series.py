"""Exact partial sums of the three binomial series, with certified tails.

All three series have consecutive-term magnitude ratios that approach
r_k = (k+1)**(k+1) / (k**k * 2**(k+1)) < 1, so beyond a stabilization
index a plain geometric majorant with ratio theta_k = (1 + r_k)/2 bounds
the tail.  Early terms can vanish, alternate in sign, or transiently grow
(the binomial tops only become ordinary once the summation index is large
enough), so the tail rule bridges any not-yet-stable terms explicitly by
absolute value and anchors the geometric bound on a window of observed
ratios, every one of which must sit under theta_k.

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
so a longer request merges in the sum of just the new terms.  It also
keeps the tail bridge: every request below a gate point reaches that same
point, so a later one drops the terms it now sums from the bridge instead
of bridging again.  The ratio gate compares terms by integer
cross-multiplication, and the one Fraction of a sum is made when
``partial`` returns it (value and tail bound alike).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator
from fractions import Fraction
from itertools import chain
from math import lcm

from .binomial import binom_row as _binom_row
from .core import check_k
from .errors import CertificationError, DomainError

TYPE_CHECKING = False  # true for type checkers; importing typing costs start-up time
if TYPE_CHECKING:
    from .certified import CertifiedReal

#: consecutive observed ratios required under theta before the geometric
#: bound is trusted (rides out the transient hump past the sign region)
_RATIO_WINDOW = 3

_MAX_PROBE = 100_000


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


class _TailSeries:
    """A series with cached terms, a running prefix sum and the windowed
    geometric tail rule."""

    def __init__(self, terms: Iterator[tuple[int, int, int]], floor: int, k: int,
                 base: int = 0):
        self._source = terms
        self.floor = floor  # first index of the all-positive ordinary regime
        theta = (1 + term_ratio_limit(k)) / 2
        self._theta = theta.numerator, theta.denominator
        self.base = base
        self._terms: list[tuple[int, int, int]] = []
        self._total = (base, 1, 0)  # the sum of the first self._summed terms
        self._summed = 0
        # (start, gate, sum of |t| over start..gate-1): the gate passes at
        # ``gate`` and at no point from ``start`` up to it; no request lies
        # in the empty [1, 0] this starts with
        self._bridge = (1, 0, _ZERO)

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

    def _good(self, j: int) -> bool:
        # t[j] and t[j+1] lie in the ordinary regime, neither is zero, and
        # |t[j+1]| <= theta |t[j]|, by integer cross-multiplication
        if j < self.floor or j < 0:
            return False
        a0, q0, e0 = self._triple(j)
        a1, q1, e1 = self._triple(j + 1)
        if a0 == 0 or a1 == 0:
            return False
        tn, td = self._theta
        lhs, rhs = abs(a1) * td * q0, abs(a0) * tn * q1
        if e1 >= e0:
            lhs <<= e1 - e0
        else:
            rhs <<= e0 - e1
        return lhs <= rhs

    def _gate(self, terms_used: int) -> int:
        # the first m >= terms_used where the _RATIO_WINDOW ratios ending at
        # t[m-1] are all good; ``run`` counts the good ratios ending there
        m = terms_used
        run = 0
        while run < _RATIO_WINDOW and self._good(m - 2 - run):
            run += 1
        while run < _RATIO_WINDOW:
            m += 1
            if m > terms_used + _MAX_PROBE:
                raise CertificationError(
                    f"term ratios stayed above theta for {_MAX_PROBE} terms "
                    "inside the ordinary regime")
            run = run + 1 if self._good(m - 2) else 0
        return m

    def tail_bound(self, terms_used: int) -> Fraction:
        # the gate first passes at m = floor + _RATIO_WINDOW + 1 or later
        if self.floor + _RATIO_WINDOW + 1 > terms_used + _MAX_PROBE:
            raise DomainError(
                f"the tail bound needs terms up to index {self.floor + _RATIO_WINDOW}, "
                f"beyond the cap of {_MAX_PROBE} terms past the {terms_used} summed")
        # the gate at m certifies |sum over el >= m| <= |t[m-1]| theta / (1 - theta);
        # the terms from terms_used up to m are bridged by absolute value
        start, m, bridge = self._bridge
        if start <= terms_used <= m:
            # every request from start up to the gate reaches the same gate:
            # drop the terms this one sums instead of bridging again
            num, den, exp = self._sum(start, terms_used, absolute=True)
            bridge = _merge(bridge, (-num, den, exp))
        else:
            m = self._gate(terms_used)
            bridge = self._sum(terms_used, m, absolute=True)
        self._bridge = terms_used, m, bridge
        # the geometric majorant |t[m-1]| * theta / (1 - theta)
        a, q, e = self._triple(m - 1)
        tn, td = self._theta
        return _value(_merge(bridge, (abs(a) * tn, q * (td - tn), -e)))

    def partial(self, terms_used: int) -> SeriesPartialSum:
        _check_terms(terms_used)
        tail = self.tail_bound(terms_used)  # first: it can refuse before any summing
        if terms_used < self._summed:
            self._total, self._summed = (self.base, 1, 0), 0
        self._total = _merge(self._total, self._sum(self._summed, terms_used))
        self._summed = terms_used
        return SeriesPartialSum(terms_used, _value(self._total), tail)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def rho_power_series(k: int, n: int) -> _TailSeries:
    """The series of ``rho_power_partial`` for repeated ``partial(terms)`` calls."""
    check_k(k)
    if type(n) is not int or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    # -n * 2**(n-k-1) * binom(k*(el+1) + el - n, el) / ((el+1) * 2**((k+1)*el))
    terms = ((-n * c, el + 1, n - k - 1 - (k + 1) * el)
             for el, c in enumerate(_binom_row(k, k - n)))
    return _TailSeries(terms, max(0, _ceil_div(n - k, k)), k, base=1 << n)


def hermite_series(k: int, a: int) -> _TailSeries:
    """The series of ``hermite_sum_partial`` for repeated ``partial(terms)`` calls."""
    check_k(k)
    if type(a) is not int:
        raise DomainError(f"a must be an integer, got {a!r}")
    terms = ((c, 1, -(k + 1) * el) for el, c in enumerate(_binom_row(k, a)))
    return _TailSeries(terms, max(0, _ceil_div(-a, k)), k)


def asymptotic_series(k: int, n: int) -> _TailSeries:
    """The series of ``asymptotic_series_partial`` for repeated ``partial(terms)`` calls."""
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
    return rho_power_series(k, n).partial(terms)


def hermite_sum_partial(k: int, a: int, terms: int) -> SeriesPartialSum:
    """Partial sum of sum_el binom((k+1)el + a, el) / 2**((k+1)el).

    The limit equals 2**(a+1) * rho_k**(-a) / ((k+1) rho_k - 2k) for every
    integer a.
    """
    return hermite_series(k, a).partial(terms)


def asymptotic_series_partial(k: int, n: int, terms: int) -> SeriesPartialSum:
    """Partial sum of the dominant-term series at index n (n != 1).

    The limit equals the dominant-term value computed by
    ``dominant_root.asymptotic``; truncating at floor((n-1)/(k+1)) + 1
    terms gives exactly the integer F[n+k-2].  The index n = 1 is refused:
    the first term of the series degenerates there and the identity's
    derivation relies on it.
    """
    return asymptotic_series(k, n).partial(terms)


def adaptive_partial(partial: Callable[[int], SeriesPartialSum],
                     tol: Fraction, start: int = 4) -> SeriesPartialSum:
    """Double the term count from ``start`` until the tail bound is <= tol.

    Pass one series' bound ``partial`` (``hermite_series(k, a).partial``):
    each doubling then extends that series' running sum instead of summing
    again from term 0.
    """
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
    from .certified import CertifiedReal  # the one use of the ball type here

    p = adaptive_partial(rho_power_series(k, n).partial, Fraction(tol))
    return CertifiedReal(p.value, p.tail_bound)

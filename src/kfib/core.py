"""Reference engines for k-step Fibonacci numbers.

The sequence starts with k-1 zeros followed by a one; every later term is
the sum of its k predecessors.  Two engines compute it, one by the
order-k rule and one by the order-(k+1) two-term recurrence
F[n+k+1] = 2*F[n+k] - F[n] it implies, and they differ only in the
polynomial they power.  Each computes x**(n//2) modulo its own
characteristic polynomial by binary powering (C. M. Fiduccia, SIAM J.
Comput. 14, 1985), squaring by Karatsuba's split once the coefficients
are large, O(k**1.6 M(n) log n) bit operations, and takes F[n] from it
with k (or k+1) big products in place of a last squaring, where
``_powers`` finds that cheaper than stepping: for n >= 256 and
256*n >= k**5.  Otherwise both take term n of ``_order_k_terms``, which
keeps the order-k rule's running sum and so steps the order-(k+1)
recurrence, O(n**2) bit operations: below the cut the two engines are one
stepping.  Its window starts at F[k-1]: the terms before it are zero
seeds, which need no slot and add nothing to a sum, so it holds at most
min(n-k+2, k+1) values however large k is, and drops a stored term only
once it holds more than k.  The zero seeds come at any k; an index from
sys.maxsize on, where ``islice`` stops, is refused, and so is one whose
window or polynomial would pass ``errors.MAX_BITS``.  ``kfib_table`` takes
the same stepping.  A brute-force composition counter provides an oracle
that shares nothing with either recurrence.
"""

import sys
from collections import deque
from collections.abc import Iterator
from itertools import islice, repeat
from operator import add

from . import errors
from .errors import DomainError, OracleCapError

ORACLE_CAP = 25


def _check_n(n: int, least: int = 0) -> int:
    if type(n) is not int or not least <= n < sys.maxsize:  # islice's indices end there
        raise DomainError(f"index n must be an integer in [{least}, sys.maxsize), got {n!r}")
    return n


def _check_size(k: int, n: int) -> None:
    """DomainError where the live numbers of F[n]'s route would pass
    MAX_BITS: powering holds about k+1 coefficients of ~n bits, stepping a
    window of min(n-k+2, k+1) terms of at most n bits (none at a zero seed)."""
    terms = k + 1 if _powers(k, n) else max(0, min(n - k + 2, k + 1))
    errors.check_bits(terms * n, f"F[{n}] at order {k}")


def _powers(k: int, n: int) -> bool:
    """Whether the engines power at (k, n): ``n >= 256 and 256*n >= k**5``.

    Powering takes about log2(n) squarings of numbers of up to n bits, each
    k(k+1)/2 products, or about k**1.6 once ``_square`` splits past
    2048-bit coefficients, where stepping takes n additions of them.  No
    single power of k follows the measured crossover: it sits near 15 k**2
    for k 8..24 and grows faster than k**3 past k = 32.  The rule is a fit,
    256 its constant, to timings of both routes, each ending in its
    d-product last step, for k in 2..24 and n from 64 up to four times its
    threshold, checked at k = 28..64 (``powering_rule`` in BENCH_14.json
    and BENCH_16.json).  Below n = 256 the interpreter's cost per
    operation decides instead, and powering saves microseconds at best.
    """
    return n >= 256 and 256 * n >= k**5


#: coefficient size from which ``_square`` splits: below about 2048 bits a
#: product costs little more than the interpreter's work around it
_SPLIT_BITS = 2048


def _square(poly: list[int]) -> list[int]:
    """The 2m-1 coefficients of the square of the m-term polynomial ``poly``.

    From 4 terms and ``_SPLIT_BITS`` up (read from the top coefficient) it
    splits poly = lo + x**h * hi at h = m // 2 and takes Karatsuba's three
    half-size squares (A. Karatsuba and Yu. Ofman, 1962):
    poly**2 = lo**2 + x**h * ((lo + hi)**2 - lo**2 - hi**2) + x**(2h) * hi**2.
    Below that, each cross product once, doubled.
    """
    m = len(poly)
    if m < 4 or poly[-1].bit_length() < _SPLIT_BITS:
        sq = [0] * (2 * m - 1)
        for i, a in enumerate(poly):
            sq[2 * i] += a * a
            a2 = a << 1
            for j in range(i + 1, m):
                sq[i + j] += a2 * poly[j]
        return sq
    h = m // 2
    lo, hi = poly[:h], poly[h:]  # hi has h or h+1 terms
    low, high = _square(lo), _square(hi)
    mid = _square([*map(add, lo, hi), *hi[h:]])
    sq = [*low, 0, *high]
    for i, c in enumerate(mid):  # mid has as many terms as high
        sq[h + i] += c - high[i]
    for i, c in enumerate(low):
        sq[h + i] -= c
    return sq


def _power_mod(taps: list[int], n: int) -> list[int]:
    """Coefficients c[0..d-1] of x**n modulo x**d - sum(taps[i] * x**i).

    Left-to-right binary powering, with d = len(taps): each bit squares the
    polynomial (``_square``), multiplies it by x on a set bit (a shift), and
    folds every coefficient of degree >= d back down, from the top, by
    x**t = x**(t-d) * sum(taps[i] * x**i).  For a sequence obeying
    F[m+d] = sum(taps[i] * F[m+i]), F[n] = sum(c[i] * F[i]).
    """
    d = len(taps)
    nonzero = [(i, t) for i, t in enumerate(taps) if t]
    poly = [1]
    for bit in bin(n)[2:]:
        sq = _square(poly)
        if bit == "1":
            sq.insert(0, 0)
        for top in range(len(sq) - 1, d - 1, -1):
            c = sq.pop()
            for i, t in nonzero:
                sq[top - d + i] += t * c
        poly = sq
    return poly + [0] * (d - len(poly))


def _power_term(taps: list[int], seeds: list[int], n: int) -> int:
    """s[n] for s[t+d] = sum(taps[i] * s[t+i]) from the d seeds s[0..d-1].

    With n = 2m + b and c = x**m modulo the polynomial of ``_power_mod``,
    x**n = sum(c[i] * x**(m+b+i)) and s[m+b+i] = sum(c[j] * s[i+j+b]), so
    s[n] = sum over i of c[i] * sum over j of c[j] * s[i+j+b], with s run
    on to index 2d-1.  That last step takes d products of big numbers, and
    d**2 of a big one by a small seed, where one more squaring would take
    d*(d+1)/2 big products.  Only ``+`` and ``*`` touch the values.
    """
    d = len(taps)
    s = list(seeds)
    while len(s) < 2 * d:
        s.append(sum(t * v for t, v in zip(taps, s[-d:])))
    c = _power_mod(taps, n >> 1)
    b = n & 1
    return sum(ci * sum(cj * s[i + j + b] for j, cj in enumerate(c))
               for i, ci in enumerate(c))


def _order_k_terms(k: int) -> Iterator[int]:
    """F[0], F[1], ... by the order-(k+1) recurrence, in running-sum form.

    Both engines step with it.  ``total``, the next term, is the sum of the
    last k terms by the order-k rule, and each step doubles it and takes off
    the term that leaves the window: F[m+k+1] = 2*F[m+k] - F[m].  The
    window holds the terms from F[k-1] on: a term older than F[k-1] is a
    zero seed, so it neither needs a slot nor changes the sum when it
    leaves.  A stored term leaves once the window, the new term appended,
    holds k+1.
    """
    # with more than sys.maxsize zero seeds, every index islice reaches is one
    yield from (repeat(0, k - 1) if k <= sys.maxsize else repeat(0))
    yield 1
    window = deque([1])  # F[k-1..m], at most k of them
    total = 1  # their sum, F[m+1]
    while True:
        yield total
        window.append(total)
        total += total
        if len(window) > k:
            total -= window.popleft()


def kfib_order_k(k: int, n: int) -> int:
    """F[n] via the order-k rule F[m+k] = F[m] + ... + F[m+k-1].

    Where ``_powers`` says so, powers x**(n//2) modulo x**k - x**(k-1) -
    ... - 1 and ends in ``_power_term`` from the seeds F[0..k-1], zero but
    for F[k-1] = 1; otherwise takes term n of the stepping.
    """
    errors.check_k(k)
    _check_n(n)
    _check_size(k, n)
    if _powers(k, n):
        return _power_term([1] * k, [0] * (k - 1) + [1], n)
    return next(islice(_order_k_terms(k), n, None))


def kfib_order_k1(k: int, n: int) -> int:
    """F[n] via the order-(k+1) recurrence F[m+k+1] = 2*F[m+k] - F[m].

    Seeded with F[0..k]: all zero except F[k-1] = F[k] = 1 (the value of
    F[k] follows from one step of the order-k rule).  Where ``_powers``
    says so, powers x**(n//2) modulo x**(k+1) - 2*x**k + 1 and ends in
    ``_power_term`` from those seeds; otherwise takes term n of
    ``_order_k_terms``, which steps this recurrence.
    """
    errors.check_k(k)
    _check_n(n)
    _check_size(k, n)
    if _powers(k, n):
        return _power_term([-1] + [0] * (k - 1) + [2], [0] * (k - 1) + [1, 1], n)
    return next(islice(_order_k_terms(k), n, None))


def kfib_table(k: int, n_max: int) -> tuple[int, ...]:
    """The tuple F[0..n_max], the first n_max + 1 terms of the order-k stepping."""
    errors.check_k(k)
    _check_n(n_max)
    errors.check_bits(n_max * (n_max + 1) // 2, f"the table F[0..{n_max}]")  # F[j] < 2**j
    return tuple(islice(_order_k_terms(k), n_max + 1))


def count_compositions(k: int, n: int) -> int:
    """Number of ways to write n as an ordered sum of parts from {1..k}.

    Counted by walking the full tree of leading-part choices, one visit
    per composition; deliberately no recurrence or memoization, so the
    result is independent of the Fibonacci engines it cross-checks
    (the count equals F[n+k-1]).  n past ORACLE_CAP is refused with
    OracleCapError.
    """
    errors.check_k(k)
    _check_n(n, 1)
    if n > ORACLE_CAP:
        raise OracleCapError(f"oracle cap: n={n} exceeds the enumeration cap {ORACLE_CAP}; "
                             "use a recurrence engine for inputs this large")

    def walk(remaining: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for part in range(1, min(k, remaining) + 1):
            total += walk(remaining - part)
        return total

    return walk(n)

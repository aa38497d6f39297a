"""Reference engines for k-step Fibonacci numbers.

The sequence starts with k-1 zeros followed by a one; every later term is
the sum of its k predecessors.  Two independent engines compute it: the
order-k rule, and the order-(k+1) two-term recurrence
F[n+k+1] = 2*F[n+k] - F[n] it implies.  Each engine computes x**n modulo
its own characteristic polynomial by binary powering (C. M. Fiduccia, SIAM
J. Comput. 14, 1985), O(k**2 M(n) log n) bit operations, where ``_powers``
finds that cheaper than stepping: for n >= 256 and 64*n >= k**5.  Otherwise
it steps a window of the last k (or k+1) terms, O(n**2) bit operations.
``kfib_table`` always steps.  A brute-force composition counter provides an
oracle that shares nothing with either recurrence.
"""

from __future__ import annotations

from collections import deque

from .errors import DomainError, OracleCapError

ORACLE_CAP = 25


def check_k(k: int) -> int:
    if type(k) is not int or k < 2:
        raise DomainError(f"sequence order k must be an integer >= 2, got {k!r}")
    return k


def _check_n(n: int) -> int:
    if type(n) is not int or n < 0:
        raise DomainError(f"index n must be a nonnegative integer, got {n!r}")
    return n


def _powers(k: int, n: int) -> bool:
    """Whether the engines power at (k, n): ``n >= 256 and 64*n >= k**5``.

    Powering costs about k**2 products of numbers of up to n bits, where
    stepping costs n additions of them, so with Karatsuba's
    M(n) ~ n**1.585 the crossover n grows like k**(2 / (2 - log2(3))), or
    about k**4.8.  The constant 64 is fitted to timings of both routes for
    k in 2..24 and n in 2**4..2**16.  Below n = 256 the interpreter's cost
    per operation decides instead, and powering saves microseconds at best.
    """
    return n >= 256 and 64 * n >= k**5


def _power_mod(taps: list[int], n: int) -> list[int]:
    """Coefficients c[0..d-1] of x**n modulo x**d - sum(taps[i] * x**i).

    Left-to-right binary powering, with d = len(taps): each bit squares the
    polynomial (each cross product once, doubled), multiplies it by x on a
    set bit (a shift), and folds every coefficient of degree >= d back down,
    from the top, by x**t = x**(t-d) * sum(taps[i] * x**i).  For a sequence
    obeying F[m+d] = sum(taps[i] * F[m+i]), F[n] = sum(c[i] * F[i]).
    """
    d = len(taps)
    nonzero = [(i, t) for i, t in enumerate(taps) if t]
    poly = [1]
    for bit in bin(n)[2:]:
        m = len(poly)
        sq = [0] * (2 * m - 1)
        for i, a in enumerate(poly):
            sq[2 * i] += a * a
            a2 = a << 1
            for j in range(i + 1, m):
                sq[i + j] += a2 * poly[j]
        if bit == "1":
            sq.insert(0, 0)
        for top in range(len(sq) - 1, d - 1, -1):
            c = sq.pop()
            for i, t in nonzero:
                sq[top - d + i] += t * c
        poly = sq
    return poly + [0] * (d - len(poly))


def kfib_order_k(k: int, n: int) -> int:
    """F[n] via the order-k rule F[m+k] = F[m] + ... + F[m+k-1].

    Powers x**n modulo x**k - x**(k-1) - ... - 1, whose coefficient of
    x**(k-1) is F[n] (the seeds F[0..k-1] are zero but for F[k-1] = 1),
    where ``_powers`` says so; otherwise slides a k-term window sum.
    """
    check_k(k)
    _check_n(n)
    if n < k - 1:
        return 0
    if n == k - 1:
        return 1
    if _powers(k, n):
        return _power_mod([1] * k, n)[k - 1]
    window = deque([0] * (k - 1) + [1], maxlen=k)
    total = 1  # sum of the current window
    for _ in range(n - k + 1):
        nxt = total
        total += nxt - window[0]
        window.append(nxt)
    return window[-1]


def kfib_order_k1(k: int, n: int) -> int:
    """F[n] via the order-(k+1) recurrence F[m+k+1] = 2*F[m+k] - F[m].

    Seeded with F[0..k]: all zero except F[k-1] = F[k] = 1 (the value of
    F[k] follows from one step of the order-k rule).  Where ``_powers``
    says so, powers x**n modulo x**(k+1) - 2*x**k + 1 and dots it with the
    seeds; otherwise steps a (k+1)-slot window, so memory stays O(k)
    values rather than O(n).
    """
    check_k(k)
    _check_n(n)
    if n <= k:
        return int(n >= k - 1)
    if _powers(k, n):
        c = _power_mod([-1] + [0] * (k - 1) + [2], n)
        return c[k - 1] + c[k]
    window = deque([0] * (k - 1) + [1, 1], maxlen=k + 1)  # F[m..m+k]
    for _ in range(n - k):
        window.append(2 * window[-1] - window[0])
    return window[-1]


def kfib_table(k: int, n_max: int) -> tuple[int, ...]:
    """The tuple F[0..n_max], in one pass of the order-k rule."""
    check_k(k)
    _check_n(n_max)
    values = [0] * min(k - 1, n_max + 1)
    if len(values) <= n_max:
        values.append(1)
    while len(values) <= n_max:
        values.append(sum(values[-k:]))
    return tuple(values)


def count_compositions(k: int, n: int, cap: int = ORACLE_CAP) -> int:
    """Number of ways to write n as an ordered sum of parts from {1..k}.

    Counted by walking the full tree of leading-part choices, one visit
    per composition; deliberately no recurrence or memoization, so the
    result is independent of the Fibonacci engines it cross-checks
    (the count equals F[n+k-1]).
    """
    check_k(k)
    if type(n) is not int or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if n > cap:
        raise OracleCapError(
            f"oracle cap: n={n} exceeds the enumeration cap {cap}; "
            "use a recurrence engine for inputs this large"
        )

    def walk(remaining: int) -> int:
        if remaining == 0:
            return 1
        total = 0
        for part in range(1, min(k, remaining) + 1):
            total += walk(remaining - part)
        return total

    return walk(n)

"""Reference engines for k-step Fibonacci numbers.

The sequence starts with k-1 zeros followed by a one; every later term is
the sum of its k predecessors.  Two independent engines compute it: the
order-k sliding-window sum, and the order-(k+1) two-term recurrence
F[n+k+1] = 2*F[n+k] - F[n] it implies.  A brute-force composition counter
provides an oracle that shares nothing with either recurrence.
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


def kfib_order_k(k: int, n: int) -> int:
    """F[n] via the order-k sliding-window recurrence."""
    check_k(k)
    _check_n(n)
    if n < k - 1:
        return 0
    if n == k - 1:
        return 1
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
    F[k] follows from one step of the order-k rule).  Only the k+1 values
    a step reads are kept, so memory stays O(k) values rather than O(n).
    """
    check_k(k)
    _check_n(n)
    window = deque([0] * (k - 1) + [1, 1], maxlen=k + 1)  # F[m..m+k]
    if n <= k:
        return window[n]
    for _ in range(n - k):
        window.append(2 * window[-1] - window[0])
    return window[-1]


def kfib_table(k: int, n_max: int) -> tuple[int, ...]:
    """The tuple F[0..n_max], in one pass of the order-k rule."""
    check_k(k)
    _check_n(n_max)
    values = [0] * (k - 1) + [1]
    del values[n_max + 1:]
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

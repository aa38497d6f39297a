import random
import sys
import tracemalloc
from bisect import bisect_left
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import kfib_stepping

import kfib
from kfib import core
from kfib.core import (
    ORACLE_CAP,
    count_compositions,
    kfib_order_k,
    kfib_order_k1,
    kfib_table,
)
from kfib.errors import DomainError, OracleCapError

# unrolled by hand from 0, 0, 1
TRIBONACCI = [0, 0, 1, 1, 2, 4, 7, 13, 24, 44, 81]


def test_order_k_known_values():
    assert kfib_order_k(3, 2) == 1
    assert kfib_order_k(3, 5) == 4  # 2**(n-k) on the doubling segment
    assert kfib_order_k(3, 6) == 7  # 2**k - 1 at n = 2k
    assert kfib_order_k(3, 9) == 44
    assert kfib_order_k(2, 10) == 55


def test_order_k1_known_values():
    assert kfib_order_k1(2, 10) == 55
    assert kfib_order_k1(4, 7) == 8
    assert kfib_order_k1(5, 10) == 31


def test_table_known_values():
    assert kfib_table(2, 5) == (0, 1, 1, 2, 3, 5)
    assert kfib_table(3, 2) == (0, 0, 1)
    assert kfib_table(2, 0) == (0,)
    assert kfib_table(3, 10) == tuple(TRIBONACCI)


def test_table_matches_pointwise_engine():
    for k in (2, 3, 5):
        table = kfib_table(k, 60)
        for n in range(61):
            assert table[n] == kfib_order_k(k, n)


def test_table_windows_satisfy_recurrence():
    # every window of k+1 consecutive entries must close under the sum rule
    for k in range(2, 7):
        table = kfib_table(k, 120)
        for n in range(len(table) - k):
            assert table[n + k] == sum(table[n : n + k]), (k, n)


def test_engines_agree():
    for k in range(2, 9):
        table = kfib_table(k, 400)
        for n in range(401):
            assert kfib_order_k1(k, n) == table[n], (k, n)


def test_engines_match_stepping_oracle():
    for k in range(2, 31):
        for n in range(401):
            expected = kfib_stepping(k, n)
            assert kfib_order_k(k, n) == expected, (k, n)
            assert kfib_order_k1(k, n) == expected, (k, n)


@pytest.mark.parametrize("route", [True, False], ids=["power", "step"])
def test_each_route_matches_oracle(monkeypatch, route):
    # forced, so that neither route loses coverage wherever the rule moves
    monkeypatch.setattr(core, "_powers", lambda k, n: route)
    for k in range(2, 13):
        for n in range(301):
            expected = kfib_stepping(k, n)
            assert kfib_order_k(k, n) == expected, (k, n)
            assert kfib_order_k1(k, n) == expected, (k, n)


def test_order_k1_terms_match_stepping_oracle():
    for k in range(2, 13):
        assert list(islice(core._order_k1_terms(k), 300)) == [
            kfib_stepping(k, n) for n in range(300)], k


def test_square_matches_schoolbook_product(monkeypatch):
    # signed coefficients below the split size, past it (Karatsuba's
    # split), and of mixed sizes under a large top coefficient
    rng = random.Random(16)
    big = core._SPLIT_BITS + 200
    square, calls = core._square, []
    monkeypatch.setattr(core, "_square", lambda poly: calls.append(len(poly)) or square(poly))
    for m in range(1, 21):
        mixed = [rng.choice((1, 200, big)) for _ in range(m - 1)] + [big]
        for sizes in ([200] * m, [big] * m, mixed):
            poly = [rng.randrange(-2**bits, 2**bits) for bits in sizes]
            want = [0] * (2 * m - 1)
            for i, a in enumerate(poly):
                for j, b in enumerate(poly):
                    want[i + j] += a * b
            calls.clear()
            assert core._square(poly) == want, (m, sizes)
            # one call where it does not split, three more per split
            assert len(calls) == 1 if m < 4 or sizes[-1] == 200 else len(calls) >= 4


def test_rule_routes_only_large_n_to_powering(monkeypatch):
    calls = []
    power_mod = core._power_mod
    monkeypatch.setattr(core, "_power_mod",
                        lambda taps, n: calls.append((len(taps), n)) or power_mod(taps, n))
    kfib_order_k(3, 4096)
    kfib_order_k1(3, 4096)
    # each route powers to n // 2 and takes F[n] from that in one last step
    assert calls == [(3, 2048), (4, 2048)]
    for k, n in ((3, 100), (40, 4096), (100, 10**4)):
        kfib_order_k(k, n)
        kfib_order_k1(k, n)
    assert len(calls) == 2


def _first_powered_n(k: int) -> int:
    """The least n at which ``_powers(k, n)`` holds (it is monotone in n)."""
    lo, hi = 0, 1
    while not core._powers(k, hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if core._powers(k, mid) else (mid, hi)
    return hi


def test_powering_from_finds_the_rule_boundary():
    # verify finds the first powered n < stop by bisecting over _powers, which
    # needs it False below that n and True from it on
    for k in range(2, 31):
        n0 = _first_powered_n(k)
        assert not any(core._powers(k, n) for n in range(max(0, n0 - 50), n0)), k
        assert all(core._powers(k, n) for n in range(n0, n0 + 50)), k
        for stop, cut in ((n0 + 10, n0), (n0, n0), (n0 - 1, n0 - 1)):
            assert bisect_left(range(stop), True, key=lambda n: core._powers(k, n)) == cut, k


MERSENNE_61 = 2**61 - 1


@pytest.mark.parametrize("k", range(3, 25))
def test_engines_at_the_rule_boundary(k):
    n0 = _first_powered_n(k)
    assert not core._powers(k, n0 - 1)
    for n in (n0 - 1, n0):
        expected = kfib_stepping(k, n, MERSENNE_61)
        assert kfib_order_k(k, n) % MERSENNE_61 == expected, (k, n)
        assert kfib_order_k1(k, n) % MERSENNE_61 == expected, (k, n)


def test_millionth_tribonacci_number():
    expected = kfib_stepping(3, 10**6, MERSENNE_61)
    assert kfib_order_k(3, 10**6) % MERSENNE_61 == expected
    assert kfib_order_k1(3, 10**6) % MERSENNE_61 == expected


def test_engines_agree_at_benchmark_sizes():
    for k in (3, 8):
        for n in range(65536, 65540):
            assert kfib_order_k(k, n) == kfib_order_k1(k, n), (k, n)


@pytest.mark.parametrize("fn", [kfib_order_k, kfib_order_k1, kfib_table])
def test_large_k_small_n_allocates_little(fn):
    # the seeds F[0..5] are all zero at k = 10**7; no k-slot window is built
    tracemalloc.start()
    try:
        value = fn(10**7, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == ((0,) * 6 if fn is kfib_table else 0)
    assert peak < 2**20, peak


def test_doubling_segment():
    for k in range(2, 11):
        for n in range(k, 2 * k):
            assert kfib_order_k(k, n) == 2 ** (n - k)
        assert kfib_order_k(k, 2 * k) == 2**k - 1


def test_compositions_known_values():
    assert count_compositions(2, 4) == 5  # 1111 112 121 211 22
    assert count_compositions(3, 3) == 4  # 111 12 21 3
    assert count_compositions(2, 1) == 1


def test_compositions_match_engine():
    for k in range(2, 6):
        table = kfib_table(k, 20 + k)
        for n in range(1, 15):
            assert count_compositions(k, n) == table[n + k - 1], (k, n)


def test_composition_cap():
    with pytest.raises(OracleCapError):
        count_compositions(2, 26)
    assert count_compositions(2, ORACLE_CAP) == kfib_order_k(2, ORACLE_CAP + 1)


@pytest.mark.parametrize("bad_k", [1, 0, -3])
def test_k_validation(bad_k):
    with pytest.raises(DomainError):
        kfib_order_k(bad_k, 5)
    with pytest.raises(DomainError):
        kfib_table(bad_k, 5)


def test_n_validation():
    with pytest.raises(DomainError):
        kfib_order_k(2, -1)
    with pytest.raises(DomainError):
        count_compositions(2, 0)


def test_zero_seeds_at_any_order():
    # the first k-1 terms are zeros however large k is, past sys.maxsize too
    for k in (10**20, sys.maxsize + 2):
        assert kfib_order_k(k, 3) == kfib_order_k1(k, 3) == 0
        assert kfib_table(k, 3) == (0, 0, 0, 0)


@pytest.mark.parametrize("fn", [kfib_order_k, kfib_order_k1, kfib_table])
def test_index_from_sys_maxsize_is_refused(monkeypatch, fn):
    # islice stops counting at sys.maxsize: such an index is a domain
    # error before any step, whichever route it would take (the powering
    # route is stubbed, so a missing check fails here instead of powering)
    monkeypatch.setattr(core, "_power_term", lambda *args: pytest.fail("powered"))
    for k, n in ((10**20, 10**20), (10**20, sys.maxsize), (2, sys.maxsize)):
        with pytest.raises(DomainError, match="sys.maxsize"):
            fn(k, n)
    assert fn(2, 5) in (5, (0, 1, 1, 2, 3, 5))


@given(st.integers(2, 7), st.integers(0, 120))
@settings(max_examples=80)
def test_engines_agree_property(k, n):
    assert kfib_order_k(k, n) == kfib_order_k1(k, n)


def test_bool_arguments_rejected_by_every_entry_point():
    # bool is an int subclass, but True/False are no order, index or size
    valid = [
        (kfib.kfib_order_k, 3, 9), (kfib.kfib_order_k1, 3, 9), (kfib.kfib_table, 3, 9),
        (kfib.count_compositions, 3, 5),
        (kfib.kfib_binomial, 3, 9), (kfib.kfib_binomial_shifted, 3, 9),
        (kfib.kfib_ordinary, 3, 9), (kfib.kfib_ordinary_alt, 3, 9),
        (kfib.kfib_ordinary_erroneous, 3, 9), (kfib.term_ratio_limit, 3), (kfib.epsilon, 3, 16), (kfib.rho, 3, 16),
        (kfib.asymptotic, 3, 9, 16), (kfib.asymptotic_ratio, 3, 9, 16),
        (lambda k, n, t: kfib.rho_power_series(k, n).partial(t), 3, 2, 4),
        (lambda k, a, t: kfib.hermite_series(k, a).partial(t), 3, -1, 4),
        (lambda k, n, t: kfib.asymptotic_series(k, n).partial(t), 3, 9, 4),
        (lambda k, n, tol: kfib.adaptive_partial(kfib.rho_power_series(k, n).partial, tol),
         3, 2, Fraction(1, 10**6)),
    ]
    for fn, *args in valid:
        ints = [i for i, x in enumerate(args) if type(x) is int]
        fn(*args)  # the unaltered call is accepted
        for i in ints:
            for flag in (True, False):
                bad = args[:i] + [flag] + args[i + 1:]
                with pytest.raises(DomainError):
                    fn(*bad)


@pytest.mark.parametrize("fn", [kfib_order_k, kfib_order_k1])
def test_stepping_window_is_small_for_huge_k(monkeypatch, fn):
    # a window holds only the terms from F[k-1] on: two here, not k zeros
    monkeypatch.setattr(core, "_powers", lambda k, n: False)
    k = 5 * 10**6
    tracemalloc.start()
    try:
        value = fn(k, k + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == 2
    assert peak < 2**20, peak


def test_stepping_while_the_window_fills(monkeypatch):
    # n from k-2 to 2k+3: the windows fill at F[2k-2] and F[2k-1]
    monkeypatch.setattr(core, "_powers", lambda k, n: False)
    for k in range(2, 41):
        table = kfib_table(k, 2 * k + 3)
        for n in range(k - 2, 2 * k + 4):
            expected = kfib_stepping(k, n)
            assert kfib_order_k(k, n) == expected, (k, n)
            assert kfib_order_k1(k, n) == expected, (k, n)
            assert table[n] == expected, (k, n)

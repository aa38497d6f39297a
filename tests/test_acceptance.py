"""Acceptance criteria, one test per criterion.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL
line per criterion.  Every tolerance is pinned here; nothing is deferred
to later calibration.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from kfib.binomial import binom
from kfib.closed_forms import (
    kfib_binomial,
    kfib_binomial_shifted,
    kfib_ordinary,
    kfib_ordinary_alt,
    kfib_ordinary_erroneous,
)
from kfib.core import count_compositions, kfib_order_k1, kfib_table
from kfib.dominant_root import asymptotic, asymptotic_ratio, rho
from kfib.series import adaptive_partial, asymptotic_series, hermite_series, rho_power_series

from oracles import phi_reference


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {desc}")
        raise
    print(f"[criterion {num:2d}] PASS  {desc}")


def test_c01_five_way_engine_agreement():
    with criterion(1, "five-way engine agreement, 2<=k<=8, k<=n<=300, under 60s"):
        started = time.perf_counter()
        for k in range(2, 9):
            table = kfib_table(k, 300)
            for n in range(k, 301):
                f = table[n]
                assert kfib_order_k1(k, n) == f, (k, n)
                assert kfib_binomial(k, n) == f, (k, n)
                assert kfib_ordinary_alt(k, n) == f, (k, n)
                if n != 2 * k - 1:
                    assert kfib_ordinary(k, n) == f, (k, n)
        elapsed = time.perf_counter() - started
        assert elapsed < 60, f"sweep took {elapsed:.1f}s"


def test_c02_initial_segment_closed_forms():
    with criterion(2, "2**(n-k) segment and 2**k - 1 value, 2<=k<=12"):
        for k in range(2, 13):
            table = kfib_table(k, 2 * k)
            for n in range(k, 2 * k):
                assert table[n] == 2 ** (n - k), (k, n)
            assert table[2 * k] == 2**k - 1, k


def test_c03_composition_oracle():
    with criterion(3, "composition count equals F[n+k-1], 2<=k<=5, 1<=n<=22"):
        for k in range(2, 6):
            table = kfib_table(k, 22 + k)
            for n in range(1, 23):
                assert count_compositions(k, n) == table[n + k - 1], (k, n)


def test_c04_binomial_identities_exhaustive():
    with criterion(4, "Pascal and reflection identities exhaustive on [-50,50]^2"):
        for a in range(-50, 51):
            for b in range(-50, 51):
                if (a, b) != (0, 0):
                    assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b), (a, b)
                exponent = b - 1 if b <= a < 0 else b
                assert binom(a, b) == (-1) ** (exponent % 2) * binom(b - a - 1, b), (a, b)


def test_c05_truncated_sum_properties():
    with criterion(5, "truncated sum: recurrence, initial values, equals F[n+k-2]"):
        for k in range(2, 7):
            table = kfib_table(k, 200 + k)
            sums = {n: kfib_binomial_shifted(k, n) for n in range(2, 201)}
            for n in range(2, 201):
                assert sums[n] == table[n + k - 2], (k, n)
            for n in range(2, 200 - k):
                assert sums[n + k + 1] == 2 * sums[n + k] - sums[n], (k, n)
            for n in range(2, k + 2):
                assert sums[n] == 2 ** (n - 2), (k, n)
            assert sums[k + 2] == 2**k - 1, k


def test_c06_dominant_root_certification():
    with criterion(6, "root window, fixed-point residual, 50-digit golden ratio"):
        for k in range(2, 17):
            r = rho(k, 64)
            assert Fraction(2) - Fraction(1, 2 ** (k - 1)) < r.lo, k
            assert r.hi < 2, k
            eps = 2 - r.approx
            residual = abs(eps - 1 / (2 - eps) ** k)
            assert residual <= 2 * r.err, k
        phi, _ = phi_reference(60)
        assert abs(rho(2, 200).approx - phi) <= Fraction(1, 10**50)


def test_c07_power_series():
    with criterion(7, "power series at n=1 vs certified root; sound monotone "
                      "golden-ratio partial sums"):
        for k in (2, 3, 4, 5):
            via_series = adaptive_partial(rho_power_series(k, 1).partial, Fraction(1, 10**12))
            direct = rho(k, 128)
            assert (abs(via_series.value - direct.approx)
                    <= via_series.tail_bound + direct.err), k
        phi, phi_err = phi_reference(60)
        prev = None
        for terms in range(1, 41):
            p = rho_power_series(2, 1).partial(terms)
            if prev is not None:
                assert p.value < prev, terms
            assert p.value >= phi - phi_err, terms
            assert abs(p.value - phi) <= p.tail_bound + phi_err, terms
            prev = p.value


def test_c08_ratio_sum_identity():
    with criterion(8, "binomial ratio sums match the closed form to 1e-10"):
        for k in (2, 3, 4, 5):
            r = rho(k, 64)
            denom = (k + 1) * r - 2 * k
            for a in range(-3, 4):
                lhs = adaptive_partial(hermite_series(k, a).partial, Fraction(1, 10**11))
                rhs = (Fraction(2) ** (a + 1)) * r ** (-a) / denom
                combined = lhs.tail_bound + rhs.err
                assert combined <= Fraction(1, 10**10), (k, a)
                assert abs(lhs.value - rhs.approx) <= combined, (k, a)


def test_c09_dominant_term_series():
    with criterion(9, "dominant-term series: matches certified value; truncation "
                      "reproduces the exact integer sum"):
        for k in (2, 3):
            for n in (0, 2, 5, 10, 20):
                tol = Fraction(max(1, 2**n), 10**10)
                lhs = adaptive_partial(asymptotic_series(k, n).partial, tol)
                rhs = asymptotic(k, n, 64)
                assert abs(lhs.value - rhs.approx) <= lhs.tail_bound + rhs.err, (k, n)
            for n in range(2, 101):
                cut = (n - 1) // (k + 1) + 1
                assert (asymptotic_series(k, n).partial(cut).value
                        == kfib_binomial_shifted(k, n)), (k, n)


def test_c10_asymptotic_equivalence():
    with criterion(10, "fib/approximation ratio within 1e-8 at n=100, shrinking "
                       "as n doubles"):
        for k in (2, 3, 4, 5):
            deviations = [abs(asymptotic_ratio(k, n, 96).approx - 1)
                          for n in (25, 50, 100)]
            assert deviations[2] <= Fraction(1, 10**8), (k, deviations[2])
            assert deviations[0] > deviations[1] > deviations[2], k


def test_c11_erratum_regression():
    with criterion(11, "misranged sum: 4 + 1/16 at (5,7); full agreement at k=2"):
        erroneous = kfib_ordinary_erroneous(5, 7)
        assert erroneous == Fraction(65, 16) and type(erroneous) is Fraction  # 4 + 1/16
        assert kfib_ordinary(5, 7) == 4
        assert kfib_ordinary_erroneous(5, 7) != kfib_ordinary(5, 7)
        table = kfib_table(2, 300)
        for n in range(2, 301):
            assert kfib_ordinary_erroneous(2, n) == table[n], n

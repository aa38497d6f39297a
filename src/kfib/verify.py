"""Cross-engine verification sweeps.

Each sweep compares independent routes to the same quantity cell by cell
and collects the outcome in a VerifyReport.  A cell records what was
expected, what was computed, and whether they matched; the erratum suite
additionally reports divergences of the deliberately misranged formula as
informative (passing) cells, since divergence there is the expected
behavior.
"""

from __future__ import annotations

from collections import namedtuple

from .binomial import binom
from .closed_forms import (
    kfib_binomial,
    kfib_binomial_shifted,
    kfib_ordinary,
    kfib_ordinary_alt,
    kfib_ordinary_erroneous,
)
from .core import count_compositions, kfib_order_k1, kfib_table
from .errors import DomainError

SUITES = ("engines", "identities", "series", "erratum")

#: window of the exhaustive binomial-identity sweeps
BINOM_WINDOW = 50


class VerifyCell(namedtuple("VerifyCell", "check k n ok expected actual")):
    """One check at the ints (k, n): ``ok`` if it passed, both sides as strings."""

    __slots__ = ()


class VerifyReport(namedtuple("VerifyReport", "suite cells failures")):
    """A suite's name, its cells (a tuple of VerifyCell) and how many failed."""

    __slots__ = ()


def _report(suite: str, cells: list[VerifyCell]) -> VerifyReport:
    return VerifyReport(suite, tuple(cells), sum(not c.ok for c in cells))


def verify_engines(k_max: int = 6, n_max: int = 200) -> VerifyReport:
    cells: list[VerifyCell] = []
    for k in range(2, k_max + 1):
        table = kfib_table(k, max(n_max, 2 * k))
        for n in range(0, n_max + 1):
            expected = table[n]
            actual = kfib_order_k1(k, n)
            cells.append(VerifyCell("engine-agreement", k, n, actual == expected,
                                    str(expected), str(actual)))
        for n in range(k, 2 * k + 1):
            expected = 2 ** (n - k) if n < 2 * k else 2**k - 1
            actual = table[n]
            cells.append(VerifyCell("initial-segment", k, n, actual == expected,
                                    str(expected), str(actual)))
    for k in range(2, min(5, k_max) + 1):
        table = kfib_table(k, 12 + k)
        for n in range(1, 13):
            expected = count_compositions(k, n)
            actual = table[n + k - 1]
            cells.append(VerifyCell("composition-oracle", k, n, actual == expected,
                                    str(expected), str(actual)))
    return _report("engines", cells)


def verify_identities(k_max: int = 6, n_max: int = 200) -> VerifyReport:
    cells: list[VerifyCell] = []
    w = BINOM_WINDOW
    for a in range(-w, w + 1):
        for b in range(-w, w + 1):
            if (a, b) != (0, 0):
                expected = binom(a - 1, b - 1) + binom(a - 1, b)
                actual = binom(a, b)
                cells.append(VerifyCell("pascal", a, b, actual == expected,
                                        str(expected), str(actual)))
            exponent = b - 1 if b <= a < 0 else b
            expected = (-1) ** (exponent % 2) * binom(b - a - 1, b)
            actual = binom(a, b)
            cells.append(VerifyCell("reflection", a, b, actual == expected,
                                    str(expected), str(actual)))
    for k in range(2, k_max + 1):
        table = kfib_table(k, n_max + k)
        sums = {n: kfib_binomial_shifted(k, n) for n in range(2, n_max + 1)}
        for n in range(2, n_max + 1):
            cells.append(VerifyCell("shifted-sum", k, n, sums[n] == table[n + k - 2],
                                    str(table[n + k - 2]), str(sums[n])))
        for n in range(2, n_max - k):
            expected = 2 * sums[n + k] - sums[n]
            actual = sums[n + k + 1]
            cells.append(VerifyCell("sum-recurrence", k, n, actual == expected,
                                    str(expected), str(actual)))
        for n in range(2, k + 3):
            expected = 2 ** (n - 2) if n <= k + 1 else 2**k - 1
            if n <= n_max:
                cells.append(VerifyCell("sum-initial", k, n, sums[n] == expected,
                                        str(expected), str(sums[n])))
        for n in range(k, n_max + 1):
            f = table[n]
            v = kfib_binomial(k, n)
            cells.append(VerifyCell("binomial-form", k, n, v == f, str(f), str(v)))
            if n != 2 * k - 1:
                v = kfib_ordinary(k, n)
                cells.append(VerifyCell("ordinary-form", k, n, v == f, str(f), str(v)))
            v = kfib_ordinary_alt(k, n)
            cells.append(VerifyCell("ordinary-alt-form", k, n, v == f, str(f), str(v)))
    return _report("identities", cells)


def verify_series(k_max: int = 6, n_max: int = 200) -> VerifyReport:
    # the root, the series and Fraction load here only: no other suite needs them
    from fractions import Fraction

    from .dominant_root import asymptotic, rho
    from .series import (
        adaptive_partial,
        asymptotic_series,
        asymptotic_series_partial,
        hermite_series,
        rho_power_partial,
        rho_power_via_series,
    )

    cells: list[VerifyCell] = []
    for k in (2, 3):
        for n in (1, 5, 10):
            v = rho_power_partial(k, n, 0).value
            cells.append(VerifyCell("power-sum-base", k, n, v == 2**n,
                                    str(2**n), str(v)))
    for k in range(2, min(5, k_max) + 1):
        via_series = rho_power_via_series(k, 1, Fraction(1, 10**12))
        reference = rho(k, 128)
        ok = via_series.agrees_with(reference)
        cells.append(VerifyCell("power-sum-vs-root", k, 1, ok,
                                f"{float(reference.approx):.15f}",
                                f"{float(via_series.approx):.15f}"))
    for k in range(2, min(5, k_max) + 1):
        r = rho(k, 64)
        for a in range(-3, 4):
            lhs = adaptive_partial(hermite_series(k, a).partial, Fraction(1, 10**11))
            rhs = (Fraction(2) ** (a + 1)) * r ** (-a) / ((k + 1) * r - 2 * k)
            gap = abs(lhs.value - rhs.approx)
            ok = gap <= lhs.tail_bound + rhs.err
            cells.append(VerifyCell("ratio-sum-identity", k, a, ok,
                                    f"{float(rhs.approx):.15f}",
                                    f"{float(lhs.value):.15f}"))
    for k in (2, 3):
        for n in (0, 2, 5, 10, 20):
            tol = Fraction(max(1, 2**n), 10**10)
            lhs = adaptive_partial(asymptotic_series(k, n).partial, tol)
            rhs = asymptotic(k, n, 50)
            ok = abs(lhs.value - rhs.approx) <= lhs.tail_bound + rhs.err
            cells.append(VerifyCell("asymptotic-series", k, n, ok,
                                    f"{float(rhs.approx):.12f}",
                                    f"{float(lhs.value):.12f}"))
        for n in range(2, min(n_max, 40) + 1):
            cut = (n - 1) // (k + 1) + 1
            v = asymptotic_series_partial(k, n, cut).value
            expected = kfib_binomial_shifted(k, n)
            cells.append(VerifyCell("truncation-integer", k, n, v == expected,
                                    str(expected), str(v)))
    return _report("series", cells)


def verify_erratum(k_max: int = 6, n_max: int = 200) -> VerifyReport:
    cells: list[VerifyCell] = []
    table2 = kfib_table(2, max(n_max, 2))
    for n in range(2, n_max + 1):
        v = kfib_ordinary_erroneous(2, n)
        ok = v == table2[n]
        cells.append(VerifyCell("k2-agreement", 2, n, ok, str(table2[n]), v.decimal()))
    found = 0
    for k in range(3, k_max + 1):
        table = kfib_table(k, max(n_max, k))
        for n in range(k, n_max + 1):
            v = kfib_ordinary_erroneous(k, n)
            if v != table[n]:
                found += 1
                cells.append(VerifyCell("divergence", k, n, True,
                                        str(table[n]), v.decimal()))
    if k_max >= 5 and n_max >= 7:
        # the canonical witness: at (k, n) = (5, 7) the misranged sum picks
        # up an extra 1/16 while the correct range is empty
        cells.append(VerifyCell("divergence-exists", 0, 0, found > 0,
                                ">=1 divergence for some k >= 3", str(found)))
    return _report("erratum", cells)


def run_suites(names, k_max: int = 6, n_max: int = 200) -> list[VerifyReport]:
    """Run the named suites over k = 2..k_max and n up to n_max.

    A range in which a suite would check nothing is refused with
    DomainError before any suite runs.
    """
    if type(k_max) is not int or k_max < 2:
        raise DomainError(f"k_max must be an integer >= 2, got {k_max!r}")
    if type(n_max) is not int or n_max < 0:
        raise DomainError(f"n_max must be a nonnegative integer, got {n_max!r}")
    if "erratum" in names and n_max < 2:
        raise DomainError(f"the erratum suite needs n_max >= 2, got {n_max}")
    runners = {
        "engines": verify_engines,
        "identities": verify_identities,
        "series": verify_series,
        "erratum": verify_erratum,
    }
    return [runners[name](k_max, n_max) for name in names]

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


def _cell(check: str, k: int, n: int, expected, actual, ok: bool | None = None) -> VerifyCell:
    """A cell with both sides as strings; ``ok`` defaults to ``actual == expected``."""
    return VerifyCell(check, k, n, actual == expected if ok is None else ok,
                      str(expected), str(actual))


def verify_engines(k_max: int = 6, n_max: int = 200) -> VerifyReport:
    cells: list[VerifyCell] = []
    for k in range(2, k_max + 1):
        table = kfib_table(k, max(n_max, 2 * k))
        for n in range(0, n_max + 1):
            expected = table[n]
            actual = kfib_order_k1(k, n)
            cells.append(_cell("engine-agreement", k, n, expected, actual))
        for n in range(k, 2 * k + 1):
            expected = 2 ** (n - k) if n < 2 * k else 2**k - 1
            actual = table[n]
            cells.append(_cell("initial-segment", k, n, expected, actual))
    for k in range(2, min(5, k_max) + 1):
        table = kfib_table(k, 12 + k)
        for n in range(1, 13):
            expected = count_compositions(k, n)
            actual = table[n + k - 1]
            cells.append(_cell("composition-oracle", k, n, expected, actual))
    return _report("engines", cells)


def verify_identities(k_max: int = 6, n_max: int = 200) -> VerifyReport:
    cells: list[VerifyCell] = []
    w = BINOM_WINDOW
    for a in range(-w, w + 1):
        for b in range(-w, w + 1):
            if (a, b) != (0, 0):
                expected = binom(a - 1, b - 1) + binom(a - 1, b)
                actual = binom(a, b)
                cells.append(_cell("pascal", a, b, expected, actual))
            exponent = b - 1 if b <= a < 0 else b
            expected = (-1) ** (exponent % 2) * binom(b - a - 1, b)
            actual = binom(a, b)
            cells.append(_cell("reflection", a, b, expected, actual))
    for k in range(2, k_max + 1):
        table = kfib_table(k, n_max + k)
        sums = {n: kfib_binomial_shifted(k, n) for n in range(2, n_max + 1)}
        for n in range(2, n_max + 1):
            cells.append(_cell("shifted-sum", k, n, table[n + k - 2], sums[n]))
        for n in range(2, n_max - k):
            expected = 2 * sums[n + k] - sums[n]
            actual = sums[n + k + 1]
            cells.append(_cell("sum-recurrence", k, n, expected, actual))
        for n in range(2, k + 3):
            expected = 2 ** (n - 2) if n <= k + 1 else 2**k - 1
            if n <= n_max:
                cells.append(_cell("sum-initial", k, n, expected, sums[n]))
        for n in range(k, n_max + 1):
            f = table[n]
            cells.append(_cell("binomial-form", k, n, f, kfib_binomial(k, n)))
            if n != 2 * k - 1:
                cells.append(_cell("ordinary-form", k, n, f, kfib_ordinary(k, n)))
            cells.append(_cell("ordinary-alt-form", k, n, f, kfib_ordinary_alt(k, n)))
    return _report("identities", cells)


def verify_series(k_max: int = 6, n_max: int = 200) -> VerifyReport:
    # the root, the series, the renderer and Fraction load here only: no
    # other suite needs them
    from fractions import Fraction

    from .dominant_root import asymptotic, rho
    from .render import fixed
    from .series import adaptive_partial, asymptotic_series, hermite_series, rho_power_series

    def sum_vs_ball(check, k, n, p, ball, places):
        """A partial sum p against a certified ball: ok where the two
        enclosures meet, both shown exactly rounded to ``places``."""
        ok = abs(p.value - ball.approx) <= p.tail_bound + ball.err
        x, y = ball.approx, p.value
        return _cell(check, k, n, fixed(x.numerator, x.denominator, places),
                     fixed(y.numerator, y.denominator, places), ok)

    cells: list[VerifyCell] = []
    for k in (2, 3):
        for n in (1, 5, 10):
            cells.append(_cell("power-sum-base", k, n, 2**n,
                               rho_power_series(k, n).partial(0).value))
    for k in range(2, min(5, k_max) + 1):
        lhs = adaptive_partial(rho_power_series(k, 1).partial, Fraction(1, 10**12))
        cells.append(sum_vs_ball("power-sum-vs-root", k, 1, lhs, rho(k, 128), 15))
    for k in range(2, min(5, k_max) + 1):
        r = rho(k, 64)
        for a in range(-3, 4):
            lhs = adaptive_partial(hermite_series(k, a).partial, Fraction(1, 10**11))
            rhs = (Fraction(2) ** (a + 1)) * r ** (-a) / ((k + 1) * r - 2 * k)
            cells.append(sum_vs_ball("ratio-sum-identity", k, a, lhs, rhs, 15))
    for k in (2, 3):
        for n in (0, 2, 5, 10, 20):
            tol = Fraction(max(1, 2**n), 10**10)
            lhs = adaptive_partial(asymptotic_series(k, n).partial, tol)
            cells.append(sum_vs_ball("asymptotic-series", k, n, lhs, asymptotic(k, n, 50), 12))
        for n in range(2, min(n_max, 40) + 1):
            cut = (n - 1) // (k + 1) + 1
            cells.append(_cell("truncation-integer", k, n, kfib_binomial_shifted(k, n),
                               asymptotic_series(k, n).partial(cut).value))
    return _report("series", cells)


def verify_erratum(k_max: int = 6, n_max: int = 200) -> VerifyReport:
    cells: list[VerifyCell] = []
    table2 = kfib_table(2, max(n_max, 2))
    for n in range(2, n_max + 1):
        v = kfib_ordinary_erroneous(2, n)
        cells.append(_cell("k2-agreement", 2, n, table2[n], v.decimal(), v == table2[n]))
    found = 0
    for k in range(3, k_max + 1):
        table = kfib_table(k, max(n_max, k))
        for n in range(k, n_max + 1):
            v = kfib_ordinary_erroneous(k, n)
            if v != table[n]:
                found += 1
                cells.append(_cell("divergence", k, n, table[n], v.decimal(), True))
    if k_max >= 5 and n_max >= 7:
        # the canonical witness: at (k, n) = (5, 7) the misranged sum picks
        # up an extra 1/16 while the correct range is empty
        cells.append(_cell("divergence-exists", 0, 0, ">=1 divergence for some k >= 3",
                           found, found > 0))
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
    return [SWEEPS[name](k_max, n_max) for name in names]


#: suite name -> the sweep that checks it
SWEEPS = {"engines": verify_engines, "identities": verify_identities,
          "series": verify_series, "erratum": verify_erratum}
SUITES = tuple(SWEEPS)

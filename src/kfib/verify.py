"""Cross-engine verification sweeps.

Each sweep compares independent routes to the same quantity cell by cell
and collects the outcome in a VerifyReport.  A cell records what was
expected, what was computed, and whether they matched; the erratum suite
additionally reports divergences of the deliberately misranged formula as
informative (passing) cells, since divergence there is the expected
behavior.

The identities suite computes each closed-form sum once.
``kfib_binomial(k, n)``, ``kfib_ordinary(k, n)`` and
``kfib_ordinary_alt(k, n)`` return the same sum as
``kfib_binomial_shifted(k, n-k+2)`` (the four forms are one reflected
sum; see ``closed_forms``), so the ``shifted-sum``,
``binomial-form``, ``ordinary-form`` and ``ordinary-alt-form`` cells at
those indices share one value (tests check the four entry points agree),
and the ``pascal`` and ``reflection`` cells read each binom(a, b) of the
window from one table.  Its cells are built a column at a time.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, repeat
from operator import add, attrgetter, countOf, eq, mul

from .binomial import binom
from .closed_forms import kfib_binomial_shifted, kfib_ordinary_erroneous
from .core import count_compositions, kfib_order_k1, kfib_table
from .errors import DomainError

#: window of the exhaustive binomial-identity sweeps
BINOM_WINDOW = 50


class VerifyCell(namedtuple("VerifyCell", "check k n ok expected actual")):
    """One check at the ints (k, n): ``ok`` if it passed, and both sides as
    the values compared, not as strings: an int or a Fraction, or a string
    where a side is already a decimal (``render.fixed``, ``Dyadic.decimal``)
    or text.  Whatever prints a cell applies ``str`` to it."""

    __slots__ = ()


class VerifyReport(namedtuple("VerifyReport", "suite cells failures")):
    """A suite's name, its cells (a tuple of VerifyCell) and how many failed."""

    __slots__ = ()


def _report(suite: str, cells: list[VerifyCell]) -> VerifyReport:
    return VerifyReport(suite, tuple(cells), countOf(map(attrgetter("ok"), cells), False))


def _cell(check: str, k: int, n: int, expected, actual, ok: bool | None = None) -> VerifyCell:
    """A cell holding both sides; ``ok`` defaults to ``actual == expected``."""
    return VerifyCell(check, k, n, actual == expected if ok is None else ok, expected, actual)


def _column(check: str, k: int, ns, expected, actual) -> list[VerifyCell]:
    """One check's cells at k from parallel columns ``ns``, ``expected`` and
    ``actual`` (sequences), as long as the shortest; each is ok where
    ``actual == expected``."""
    return list(map(VerifyCell._make, zip(repeat(check), repeat(k), ns, map(eq, actual, expected),
                                          expected, actual)))


def verify_engines(k_max: int = 6, n_max: int = 200) -> VerifyReport:
    cells: list[VerifyCell] = []
    for k in range(2, k_max + 1):
        table = kfib_table(k, n_max)
        for n in range(0, n_max + 1):
            expected = table[n]
            actual = kfib_order_k1(k, n)
            cells.append(_cell("engine-agreement", k, n, expected, actual))
        for n in range(k, min(2 * k, n_max) + 1):
            expected = 2 ** (n - k) if n < 2 * k else 2**k - 1
            actual = table[n]
            cells.append(_cell("initial-segment", k, n, expected, actual))
    last = min(12, n_max)
    for k in range(2, min(5, k_max) + 1):
        table = kfib_table(k, last + k - 1)
        for n in range(1, last + 1):
            expected = count_compositions(k, n)
            actual = table[n + k - 1]
            cells.append(_cell("composition-oracle", k, n, expected, actual))
    return _report("engines", cells)


def verify_identities(k_max: int = 6, n_max: int = 200) -> VerifyReport:
    cells: list[VerifyCell] = []
    w = BINOM_WINDOW
    # binom over [-w-1, w]**2, every pair the Pascal cells read; row a
    # holds b = -w-1..w, so row[1:] is the window's b = -w..w
    rows = {a: [binom(a, b) for b in range(-w - 1, w + 1)] for a in range(-w - 1, w + 1)}
    bs = range(-w, w + 1)
    # reflection: binom(a, b) = (-1)**e * binom(b-a-1, b), e = b-1 where
    # b <= a < 0 and e = b elsewhere
    signs = [-1 if b & 1 else 1 for b in bs]
    for a in range(-w, w + 1):
        actual, up = rows[a][1:], rows[a - 1]
        pascal = list(map(add, up, up[1:]))
        sign = signs if a >= 0 else [-s for s in signs[:a + w + 1]] + signs[a + w + 1:]
        reflected = list(map(mul, sign, map(binom, range(-w - a - 1, w - a), bs)))
        # per (a, b) a pascal cell, then a reflection cell
        window = list(chain.from_iterable(zip(_column("pascal", a, bs, pascal, actual),
                                              _column("reflection", a, bs, reflected, actual))))
        if a == 0:
            del window[2 * w]  # no pascal cell at (0, 0)
        cells += window
    for k in range(2, k_max + 1):
        table = kfib_table(k, n_max + k)
        # sums[n] = kfib_binomial_shifted(k, n) for n >= 2
        sums = [0, 0, *map(kfib_binomial_shifted, repeat(k), range(2, n_max + 1))]
        cells += _column("shifted-sum", k, range(2, n_max + 1), table[k:], sums[2:])
        cells += _column("sum-recurrence", k, range(2, n_max - k),
                         [2 * u - v for u, v in zip(sums[k + 2:], sums[2:])], sums[k + 3:])
        initial = [2 ** (n - 2) for n in range(2, k + 2)] + [2**k - 1]
        cells += _column("sum-initial", k, range(2, min(k + 2, n_max) + 1), initial, sums[2:])
        # kfib_binomial(k, n), kfib_ordinary(k, n) and kfib_ordinary_alt(k, n)
        # all return sums[n-k+2] by construction
        ns, f, shared = range(k, n_max + 1), table[k:n_max + 1], sums[2:]
        forms = list(chain.from_iterable(zip(*(
            _column(check, k, ns, f, shared)
            for check in ("binomial-form", "ordinary-form", "ordinary-alt-form")))))
        if 2 * k - 1 <= n_max:
            del forms[3 * (k - 1) + 1]  # no ordinary-form cell at n = 2k-1
        cells += forms
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

    def upto(ns):
        """The n in ns within the range; the ratio-sum identity's n column
        is its exponent a in -3..3, not an index, so it is not cut."""
        return [n for n in ns if n <= n_max]

    small_k = range(2, min(3, k_max) + 1)
    cells: list[VerifyCell] = []
    for k in small_k:
        for n in upto((1, 5, 10)):
            cells.append(_cell("power-sum-base", k, n, 2**n,
                               rho_power_series(k, n).partial(0).value))
    for k in range(2, min(5, k_max) + 1):
        for n in upto((1,)):
            lhs = adaptive_partial(rho_power_series(k, n).partial, Fraction(1, 10**12))
            cells.append(sum_vs_ball("power-sum-vs-root", k, n, lhs, rho(k, 128), 15))
    for k in range(2, min(5, k_max) + 1):
        r = rho(k, 64)
        for a in range(-3, 4):
            lhs = adaptive_partial(hermite_series(k, a).partial, Fraction(1, 10**11))
            rhs = (Fraction(2) ** (a + 1)) * r ** (-a) / ((k + 1) * r - 2 * k)
            cells.append(sum_vs_ball("ratio-sum-identity", k, a, lhs, rhs, 15))
    for k in small_k:
        for n in upto((0, 2, 5, 10, 20)):
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

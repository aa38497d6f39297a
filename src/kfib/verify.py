"""Cross-engine verification sweeps.

Each sweep compares independent routes to the same quantity cell by cell
and collects the outcome in a VerifyReport.  A cell records what was
expected, what was computed, and whether they matched; the erratum suite
additionally reports divergences of the deliberately misranged formula as
informative (passing) cells, since divergence there is the expected
behavior.

A report keeps its cells as columns (``Cells``): a sweep appends blocks,
each one k, an n column, and per check its expected, actual and ok
columns.  A ``VerifyCell`` is built only when something iterates the
cells, so a text report, which prints the counts and then the failing
and divergence cells, walks only the columns that hold one.

The identities suite computes each closed-form sum once.
``kfib_binomial(k, n)``, ``kfib_ordinary(k, n)`` and
``kfib_ordinary_alt(k, n)`` return the same sum as
``kfib_binomial_shifted(k, n-k+2)`` (the four forms are one reflected
sum; see ``closed_forms``), so the ``shifted-sum``,
``binomial-form``, ``ordinary-form`` and ``ordinary-alt-form`` cells at
those indices share one value (tests check the four entry points agree),
and the ``pascal`` and ``reflection`` cells read each binom(a, b) of the
window from one table.  The engines suite steps each k's order-(k+1)
recurrence once, and calls ``kfib_order_k1`` only where it powers.  The
erratum suite compares the misranged sum's exact (N, e) pair with the
table by a shift, and renders a decimal only for a cell that is read.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from itertools import chain, islice, repeat, starmap
from operator import add, countOf, eq, mul

from .binomial import binom
from .closed_forms import _erroneous_sum, kfib_binomial_shifted
from .core import _order_k1_terms, _powering_from, count_compositions, kfib_order_k1, kfib_table
from .errors import DomainError

#: window of the exhaustive binomial-identity sweeps
BINOM_WINDOW = 50


class VerifyCell(namedtuple("VerifyCell", "check k n ok expected actual")):
    """One check at the ints (k, n): ``ok`` if it passed, and both sides as
    the values compared, not as strings: an int or a Fraction, or a string
    where a side is already a decimal (``render.fixed``) or text.  Whatever
    prints a cell applies ``str`` to it."""

    __slots__ = ()


class VerifyReport(namedtuple("VerifyReport", "suite cells failures")):
    """A suite's name, its cells (a sized iterable of VerifyCell; a sweep
    gives a ``Cells``) and how many failed."""

    __slots__ = ()


class Cells:
    """A sweep's cells, kept as blocks of columns.

    A block is one k, an n column, and per check a column tuple (check,
    expected, actual, oks) of sequences as long as the n column.  Its cells
    run n by n and, at each n, check by check, less the (n index, check
    index) pairs it skips.  Iterating builds the VerifyCells in that order;
    ``len`` and ``failures`` are counted from the columns.
    """

    __slots__ = ("blocks", "size", "failures")

    def __init__(self):
        self.blocks: list[tuple] = []
        self.size = 0
        self.failures = 0

    def add(self, k: int, ns, *columns: tuple, skip: tuple = ()) -> None:
        """Append a block: k, the n column, the column tuples, and the cells skipped."""
        if ns:
            self.blocks.append((k, ns, columns, skip))
            self.size += len(ns) * len(columns) - len(skip)
            for column in columns:
                self.failures += countOf(column[3], False)
            for i, j in skip:
                self.failures -= not columns[j][3][i]

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        for k, ns, columns, skip in self.blocks:
            rows = list(chain.from_iterable(zip(*(
                zip(repeat(check), repeat(k), ns, oks, expected, actual)
                for check, expected, actual, oks in columns))))
            for i, j in sorted(skip, reverse=True):
                del rows[i * len(columns) + j]
            yield from map(VerifyCell._make, rows)

    def select(self, checks=()):
        """The cells that failed or whose check is in ``checks``, in order,
        read from only the columns that hold one."""
        for k, ns, columns, skip in self.blocks:
            picked = [(j, column) for j, column in enumerate(columns)
                      if column[0] in checks or False in column[3]]
            if not picked:
                continue
            for i, n in enumerate(ns):
                for j, (check, expected, actual, oks) in picked:
                    if (not oks[i] or check in checks) and (i, j) not in skip:
                        yield VerifyCell(check, k, n, oks[i], expected[i], actual[i])


def _check(check: str, expected, actual, oks=None) -> tuple:
    """A column tuple; ``oks`` defaults to where ``actual == expected``,
    found by one compare of the two columns where they agree throughout."""
    if oks is None:
        oks = [True] * len(actual) if actual == expected else list(map(eq, actual, expected))
    return check, expected, actual, oks


def _report(suite: str, cells: Cells) -> VerifyReport:
    return VerifyReport(suite, cells, cells.failures)


def verify_engines(k_max: int = 6, n_max: int = 200) -> VerifyReport:
    cells = Cells()
    for k in range(2, k_max + 1):
        table = kfib_table(k, n_max)
        # one pass of the order-(k+1) stepping up to where the engine
        # powers, then the engine itself
        cut = _powering_from(k, n_max + 1)
        actual = (*islice(_order_k1_terms(k), cut),
                  *map(kfib_order_k1, repeat(k), range(cut, n_max + 1)))
        cells.add(k, range(n_max + 1), _check("engine-agreement", table, actual))
        ns = range(k, min(2 * k, n_max) + 1)
        cells.add(k, ns, _check("initial-segment",
                                [2 ** (n - k) if n < 2 * k else 2**k - 1 for n in ns],
                                table[k:ns.stop]))
    last = min(12, n_max)
    for k in range(2, min(5, k_max) + 1):
        table = kfib_table(k, last + k - 1)
        ns = range(1, last + 1)
        cells.add(k, ns, _check("composition-oracle",
                                [count_compositions(k, n) for n in ns], table[k:]))
    return _report("engines", cells)


def verify_identities(k_max: int = 6, n_max: int = 200) -> VerifyReport:
    cells = Cells()
    w = BINOM_WINDOW
    # binom over [-w-1, w]**2, every pair the Pascal cells read; row a
    # holds b = -w-1..w, so row[1:] is the window's b = -w..w
    rows = {a: list(map(binom, repeat(a), range(-w - 1, w + 1))) for a in range(-w - 1, w + 1)}
    bs = range(-w, w + 1)
    # reflection: binom(a, b) = (-1)**e * binom(b-a-1, b), e = b-1 where
    # b <= a < 0 and e = b elsewhere
    signs = [-1 if b & 1 else 1 for b in bs]
    flipped = [-s for s in signs]
    for a in bs:
        actual, up = rows[a][1:], rows[a - 1]
        sign = signs if a >= 0 else flipped[:a + w + 1] + signs[a + w + 1:]
        reflected = list(map(mul, sign, map(binom, range(-w - a - 1, w - a), bs)))
        # per (a, b) a pascal cell, then a reflection cell; none for pascal at (0, 0)
        cells.add(a, bs, _check("pascal", list(map(add, up, up[1:])), actual),
                  _check("reflection", reflected, actual), skip=((w, 0),) if a == 0 else ())
    for k in range(2, k_max + 1):
        table = kfib_table(k, n_max + k)
        # sums[n] = kfib_binomial_shifted(k, n) for n >= 2
        sums = (0, 0, *map(kfib_binomial_shifted, repeat(k), range(2, n_max + 1)))
        cells.add(k, range(2, n_max + 1), _check("shifted-sum", table[k:n_max + k - 1], sums[2:]))
        recurred = [2 * u - v for u, v in zip(sums[k + 2:n_max], sums[2:])]
        cells.add(k, range(2, n_max - k), _check("sum-recurrence", recurred, sums[k + 3:]))
        ns = range(2, min(k + 2, n_max) + 1)
        initial = [2 ** (n - 2) for n in range(2, k + 2)] + [2**k - 1]
        cells.add(k, ns, _check("sum-initial", initial[:len(ns)], sums[2:ns.stop]))
        # kfib_binomial(k, n), kfib_ordinary(k, n) and kfib_ordinary_alt(k, n)
        # all return sums[n-k+2] by construction: one column pair for three
        # checks, and no ordinary-form cell at n = 2k-1
        ns = range(k, n_max + 1)
        form = _check("binomial-form", table[k:n_max + 1], sums[2:len(ns) + 2])
        cells.add(k, ns, form, ("ordinary-form", *form[1:]), ("ordinary-alt-form", *form[1:]),
                  skip=((k - 1, 1),) if 2 * k - 1 <= n_max else ())
    return _report("identities", cells)


def verify_series(k_max: int = 6, n_max: int = 200) -> VerifyReport:
    # the root, the series and Fraction load here only: no other suite
    # needs them (the erratum suite loads the renderer where it prints)
    from fractions import Fraction

    from .dominant_root import asymptotic, rho
    from .render import fixed
    from .series import adaptive_partial, asymptotic_series, hermite_series, rho_power_series

    cells = Cells()

    def cell(check, k, n, expected, actual, ok=None):
        """A one-cell block; ``ok`` defaults to ``actual == expected``."""
        cells.add(k, (n,), _check(check, (expected,), (actual,), None if ok is None else (ok,)))

    def sum_vs_ball(check, k, n, p, ball, places):
        """A partial sum p against a certified ball: ok where the two
        enclosures meet, both shown exactly rounded to ``places``."""
        ok = abs(p.value - ball.approx) <= p.tail_bound + ball.err
        x, y = ball.approx, p.value
        cell(check, k, n, fixed(x.numerator, x.denominator, places),
             fixed(y.numerator, y.denominator, places), ok)

    def upto(ns):
        """The n in ns within the range; the ratio-sum identity's n column
        is its exponent a in -3..3, not an index, so it is not cut."""
        return [n for n in ns if n <= n_max]

    small_k = range(2, min(3, k_max) + 1)
    for k in small_k:
        for n in upto((1, 5, 10)):
            cell("power-sum-base", k, n, 2**n, rho_power_series(k, n).partial(0).value)
    for k in range(2, min(5, k_max) + 1):
        for n in upto((1,)):
            lhs = adaptive_partial(rho_power_series(k, n).partial, Fraction(1, 10**12))
            sum_vs_ball("power-sum-vs-root", k, n, lhs, rho(k, 128), 15)
    for k in range(2, min(5, k_max) + 1):
        r = rho(k, 64)
        for a in range(-3, 4):
            lhs = adaptive_partial(hermite_series(k, a).partial, Fraction(1, 10**11))
            rhs = (Fraction(2) ** (a + 1)) * r ** (-a) / ((k + 1) * r - 2 * k)
            sum_vs_ball("ratio-sum-identity", k, a, lhs, rhs, 15)
    for k in small_k:
        for n in upto((0, 2, 5, 10, 20)):
            tol = Fraction(max(1, 2**n), 10**10)
            lhs = adaptive_partial(asymptotic_series(k, n).partial, tol)
            sum_vs_ball("asymptotic-series", k, n, lhs, asymptotic(k, n, 50), 12)
        for n in range(2, min(n_max, 40) + 1):
            cut = (n - 1) // (k + 1) + 1
            cell("truncation-integer", k, n, kfib_binomial_shifted(k, n),
                 asymptotic_series(k, n).partial(cut).value)
    return _report("series", cells)


def _equals(pair: tuple[int, int], value: int) -> bool:
    """Whether N * 2**e, given as the pair (N, e), equals the int ``value``."""
    total, e = pair
    return total << e == value if e >= 0 else total == value << -e


def _decimal(total: int, e: int) -> str:
    """total * 2**e as its exact finite decimal: ``render.fixed`` at as many
    places as its numerator, once odd, needs."""
    if e >= 0 or not total:
        return str(total << max(e, 0))
    from .render import fixed  # only where a cell is read

    zeros = min((total & -total).bit_length() - 1, -e)
    return fixed(total >> zeros, 1 << (-e - zeros), -e - zeros)


class _Decimals:
    """A column of dyadic rationals kept as (N, e) pairs and read as
    ``_decimal`` strings, each rendered only when read."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: list[tuple[int, int]]):
        self.pairs = pairs

    def __getitem__(self, i: int) -> str:
        return _decimal(*self.pairs[i])

    def __iter__(self):
        return starmap(_decimal, self.pairs)


def verify_erratum(k_max: int = 6, n_max: int = 200) -> VerifyReport:
    cells = Cells()
    ns = range(2, n_max + 1)
    sums = list(map(_erroneous_sum, repeat(2), ns))
    table2 = kfib_table(2, max(n_max, 2))[2:]
    cells.add(2, ns, _check("k2-agreement", table2, _Decimals(sums),
                            list(map(_equals, sums, table2))))
    found = 0
    for k in range(3, k_max + 1):
        table = kfib_table(k, max(n_max, k))
        ns, sums = [], []
        for n in range(k, n_max + 1):
            pair = _erroneous_sum(k, n)
            if not _equals(pair, table[n]):
                ns.append(n)
                sums.append(pair)
        cells.add(k, ns, _check("divergence", [table[n] for n in ns], _Decimals(sums),
                                [True] * len(ns)))
        found += len(ns)
    if k_max >= 5 and n_max >= 7:
        # the canonical witness: at (k, n) = (5, 7) the misranged sum picks
        # up an extra 1/16 while the correct range is empty
        cells.add(0, (0,), _check("divergence-exists", (">=1 divergence for some k >= 3",),
                                  (found,), (found > 0,)))
    return _report("erratum", cells)


def run_suites(names, k_max: int = 6, n_max: int = 200) -> list[VerifyReport]:
    """Run the named suites over k = 2..k_max and n up to n_max.

    An unknown suite name, or a range in which a suite would check nothing,
    is refused with DomainError before any suite runs.
    """
    unknown = [name for name in names if name not in SWEEPS]
    if unknown:
        raise DomainError(f"unknown suite {unknown[0]!r}; the suites are {', '.join(SUITES)}")
    if type(k_max) is not int or k_max < 2:
        raise DomainError(f"k_max must be an integer >= 2, got {k_max!r}")
    if type(n_max) is not int or not 0 <= n_max < sys.maxsize - k_max:
        # the identities suite tabulates F[0..n_max+k_max], at most sys.maxsize terms
        raise DomainError(f"n_max must be an integer in [0, sys.maxsize - k_max), got {n_max!r}")
    if "erratum" in names and n_max < 2:
        raise DomainError(f"the erratum suite needs n_max >= 2, got {n_max}")
    return [SWEEPS[name](k_max, n_max) for name in names]


#: suite name -> the sweep that checks it
SWEEPS = {"engines": verify_engines, "identities": verify_identities,
          "series": verify_series, "erratum": verify_erratum}
SUITES = tuple(SWEEPS)

"""Cross-engine verification sweeps.

Each sweep compares independent routes to the same quantity cell by cell
and collects the outcome in a VerifyReport.  A cell records what was
expected, what was computed, and whether they matched; the erratum suite
additionally reports divergences of the deliberately misranged formula as
informative (passing) cells, since divergence there is the expected
behavior.

A report keeps its cells as columns (``Cells``), one per independent
comparison: a check at one k, its n column, and its ok, expected and
actual columns.  A ``VerifyCell`` is built only when something iterates
the cells, so a text report, which prints the counts and then the failing
and divergence cells, walks only the columns that hold one.

The identities suite computes each closed-form sum once, as
``kfib_binomial_shifted(k, n)``, and checks it against the table
(``shifted-sum``), its order-(k+1) recurrence and its initial values.
``kfib_binomial``, ``kfib_ordinary`` and ``kfib_ordinary_alt`` return the
same sum at n+k-2 (the four forms are one reflected sum; see
``closed_forms``), so they add no independent comparison here; tests check
that the four entry points agree.  The ``pascal`` and ``reflection`` cells
read each binom(a, b) of the window from one table.  Below the powering
cut both recurrence engines take the one stepping ``kfib_table`` holds
(see ``core``), so the engines suite compares ``kfib_order_k1`` with the
table only where it powers; it also checks the table's first 2k+1 terms,
zero seeds included, and the composition oracle.  The erratum suite
compares the misranged sum's exact (N, e) pair with the table by a shift,
and renders each sum's decimal from that pair.
"""

from collections import namedtuple
from itertools import repeat, starmap
from operator import countOf, eq, mul

from . import errors
from .binomial import binom
from .closed_forms import _erroneous_sum, kfib_binomial_shifted
from .core import _powers, count_compositions, kfib_order_k1, kfib_table
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
    """A sweep's cells, kept as columns.

    A column is one check at one k: the tuple (check, k, ns, oks, expected,
    actual), its last four sequences of one length.  Its cells run n by n,
    and the columns in the order added.  Iterating builds the VerifyCells in
    that order; ``len`` and ``failures`` are counted from the columns.
    """

    __slots__ = ("columns", "size", "failures")

    def __init__(self):
        self.columns: list[tuple] = []
        self.size = 0
        self.failures = 0

    def add(self, check: str, k: int, ns, expected, actual, oks=None) -> None:
        """Append a column, unless ``ns`` is empty; ``oks`` defaults to where
        ``actual == expected``, found by one compare of the two columns where
        they agree throughout."""
        if ns:
            if oks is None:
                oks = [True] * len(ns) if actual == expected else list(map(eq, actual, expected))
            self.columns.append((check, k, ns, oks, expected, actual))
            self.size += len(ns)
            self.failures += countOf(oks, False)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        for check, k, *sides in self.columns:
            yield from map(VerifyCell._make, zip(repeat(check), repeat(k), *sides))

    def select(self, checks=()):
        """The cells that failed or whose check is in ``checks``, in order,
        read from only the columns that hold one."""
        for check, k, ns, oks, expected, actual in self.columns:
            if check in checks or False in oks:
                for n, ok, e, a in zip(ns, oks, expected, actual):
                    if not ok or check in checks:
                        yield VerifyCell(check, k, n, ok, e, a)


def _report(suite: str, cells: Cells) -> VerifyReport:
    return VerifyReport(suite, cells, cells.failures)


def verify_engines(k_max: int = 6, n_max: int = 200) -> VerifyReport:
    cells = Cells()
    for k in range(2, k_max + 1):
        table = kfib_table(k, n_max)
        # below the powering cut both engines take the stepping the table
        # holds, so the order-(k+1) engine is compared only where it powers
        ns = [n for n in range(n_max + 1) if _powers(k, n)]
        cells.add("engine-agreement", k, ns, [table[n] for n in ns],
                  [kfib_order_k1(k, n) for n in ns])
        ns = range(min(2 * k, n_max) + 1)
        initial = [0] * (k - 1) + [1] + [2**j for j in range(k)] + [2**k - 1]
        cells.add("initial-segment", k, ns, initial[:len(ns)], table[:ns.stop])
    last = min(12, n_max)
    for k in range(2, min(5, k_max) + 1):
        table = kfib_table(k, last + k - 1)
        ns = range(1, last + 1)
        cells.add("composition-oracle", k, ns, [count_compositions(k, n) for n in ns], table[k:])
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
        row, up = rows[a], rows[a - 1]
        # Pascal's rule holds on the window but at (0, 0): binom(-1, 0) + binom(-1, -1) = 2
        ps = bs if a else [b for b in bs if b]
        cells.add("pascal", a, ps, [up[b + w] + up[b + w + 1] for b in ps],
                  [row[b + w + 1] for b in ps])
        sign = signs if a >= 0 else flipped[:a + w + 1] + signs[a + w + 1:]
        reflected = list(map(mul, sign, map(binom, range(-w - a - 1, w - a), bs)))
        cells.add("reflection", a, bs, reflected, row[1:])
    for k in range(2, k_max + 1):
        table = kfib_table(k, n_max + k)
        # sums[n] = kfib_binomial_shifted(k, n) for n >= 2
        sums = (0, 0, *map(kfib_binomial_shifted, repeat(k), range(2, n_max + 1)))
        cells.add("shifted-sum", k, range(2, n_max + 1), table[k:n_max + k - 1], sums[2:])
        recurred = [2 * u - v for u, v in zip(sums[k + 2:n_max], sums[2:])]
        cells.add("sum-recurrence", k, range(2, n_max - k), recurred, sums[k + 3:])
        ns = range(2, min(k + 2, n_max) + 1)
        initial = [2 ** (n - 2) for n in range(2, k + 2)] + [2**k - 1]
        cells.add("sum-initial", k, ns, initial[:len(ns)], sums[2:ns.stop])
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
        """A one-cell column; ``ok`` defaults to ``actual == expected``."""
        cells.add(check, k, (n,), (expected,), (actual,), None if ok is None else (ok,))

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
    from .render import fixed  # only the erratum suite renders

    zeros = min((total & -total).bit_length() - 1, -e)
    return fixed(total >> zeros, 1 << (-e - zeros), -e - zeros)


def verify_erratum(k_max: int = 6, n_max: int = 200) -> VerifyReport:
    cells = Cells()
    ns = range(2, n_max + 1)
    sums = list(map(_erroneous_sum, repeat(2), ns))
    table2 = kfib_table(2, max(n_max, 2))[2:]
    cells.add("k2-agreement", 2, ns, table2, list(starmap(_decimal, sums)),
              list(map(_equals, sums, table2)))
    found = 0
    for k in range(3, k_max + 1):
        table = kfib_table(k, max(n_max, k))
        ns, sums = [], []
        for n in range(k, n_max + 1):
            pair = _erroneous_sum(k, n)
            if not _equals(pair, table[n]):
                ns.append(n)
                sums.append(pair)
        cells.add("divergence", k, ns, [table[n] for n in ns], list(starmap(_decimal, sums)),
                  [True] * len(ns))
        found += len(ns)
    if k_max >= 5 and n_max >= 7:
        # the canonical witness: at (k, n) = (5, 7) the misranged sum picks
        # up an extra 1/16 while the correct range is empty
        cells.add("divergence-exists", 0, (0,), (">=1 divergence for some k >= 3",), (found,),
                  (found > 0,))
    return _report("erratum", cells)


def run_suites(names, k_max: int = 6, n_max: int = 200) -> list[VerifyReport]:
    """Run the named suites over k = 2..k_max and n up to n_max.

    An unknown suite name, a range in which a suite would check nothing,
    or one whose tables would pass the size cap MAX_BITS, is refused with
    DomainError before any suite runs.
    """
    unknown = [name for name in names if name not in SWEEPS]
    if unknown:
        raise DomainError(f"unknown suite {unknown[0]!r}; the suites are {', '.join(SUITES)}")
    # identities tabulates F[0..m], m = n_max + k_max, in fewer than m(m+1)/2
    # bits, and its sums and the erratum suite's are as large
    m = errors.check_int(k_max, "k_max", 2) + errors.check_int(n_max, "n_max", 0)
    errors.check_bits(m * (m + 1) // 2, f"the table F[0..{m}] (m = n_max + k_max)")
    if "erratum" in names and n_max < 2:
        raise DomainError(f"the erratum suite needs n_max >= 2, got {n_max}")
    return [SWEEPS[name](k_max, n_max) for name in names]


#: suite name -> the sweep that checks it
SWEEPS = {"engines": verify_engines, "identities": verify_identities,
          "series": verify_series, "erratum": verify_erratum}
SUITES = tuple(SWEEPS)

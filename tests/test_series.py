from fractions import Fraction

import pytest

from kfib import series as series_module
from kfib.binomial import binom
from kfib.closed_forms import kfib_binomial_shifted
from kfib.dominant_root import asymptotic, rho
from kfib.errors import MAX_BITS, DomainError, IntegralityError
from kfib.series import (
    _binom_row,
    adaptive_partial,
    asymptotic_series,
    hermite_series,
    rho_power_series,
    term_ratio_limit,
)

from oracles import bisect_dominant_root, fib_pair, phi_reference

# exact 128-bit-grade references for the series limits
ROOTS = {k: bisect_dominant_root(k, 450) for k in (2, 3, 4, 5)}


def _rho_ref(k):
    return ROOTS[k]


def test_ratio_limit_values():
    assert term_ratio_limit(2) == Fraction(27, 32)
    for k in range(2, 12):
        assert 0 < term_ratio_limit(k) < 1


def test_power_series_empty_sum_is_power_of_two():
    for k in (2, 3, 5, 8):
        for n in (1, 2, 7, 30):
            assert rho_power_series(k, n).partial(0).value == 2**n


def test_power_series_first_terms():
    p = rho_power_series(2, 1).partial(1)
    assert p.value == Fraction(7, 4)  # 2 - 1/4


def test_power_series_tail_soundness():
    for k in (2, 3, 4, 5):
        root, root_err = _rho_ref(k)
        for n in (1, 2, 5, 10):
            limit = root**n
            for terms in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55):
                p = rho_power_series(k, n).partial(terms)
                assert abs(p.value - limit) <= p.tail_bound + (n + 1) * root_err, (
                    k, n, terms,
                )


def test_golden_ratio_partial_sums_monotone_and_sound():
    phi, phi_err = phi_reference(60)
    prev = None
    for terms in range(1, 41):
        p = rho_power_series(2, 1).partial(terms)
        # all terms are negative: the partial sums decrease onto phi
        if prev is not None:
            assert p.value < prev
        assert p.value > phi - phi_err
        assert abs(p.value - phi) <= p.tail_bound + phi_err
        prev = p.value


def test_power_series_squared_golden_ratio():
    phi, phi_err = phi_reference(60)
    p = adaptive_partial(rho_power_series(2, 2).partial, Fraction(1, 10**9))
    assert abs(p.value - (phi + 1)) <= p.tail_bound + 3 * phi_err


def test_hermite_first_terms():
    p = hermite_series(2, 0).partial(4)
    assert p.value == 1 + Fraction(3, 8) + Fraction(15, 64) + Fraction(84, 512)
    assert hermite_series(3, -1).partial(1).value == binom(-1, 0) == 1


def test_hermite_limit_identity():
    for k in (2, 3, 4, 5):
        root, root_err = _rho_ref(k)
        denom = (k + 1) * root - 2 * k
        for a in range(-3, 4):
            limit = Fraction(2) ** (a + 1) * root ** (-a) / denom
            p = adaptive_partial(hermite_series(k, a).partial, Fraction(1, 10**11))
            assert abs(p.value - limit) <= p.tail_bound + Fraction(1, 10**20), (k, a)


def test_hermite_k2_known_limit():
    # limit for a = 0 is 2 / (3 phi - 4)
    p = adaptive_partial(hermite_series(2, 0).partial, Fraction(1, 10**10))
    assert abs(p.value - Fraction("2.34164079")) < Fraction(1, 10**7)


def test_asymptotic_series_n1_excluded():
    with pytest.raises(DomainError):
        asymptotic_series(2, 1).partial(5)


def test_asymptotic_series_first_term():
    p = asymptotic_series(2, 0).partial(1)
    assert p.value == Fraction(1, 4)


def test_asymptotic_series_limit_matches_dominant_term():
    for k in (2, 3):
        for n in (0, 2, 5, 10, 20):
            tol = Fraction(max(1, 2**n), 10**10)
            p = adaptive_partial(asymptotic_series(k, n).partial, tol)
            ref = asymptotic(k, n, 64)
            assert abs(p.value - ref.approx) <= p.tail_bound + ref.err, (k, n)


def test_asymptotic_series_truncation_is_exact_integer():
    for k in range(2, 7):
        for n in range(2, 101):
            cut = (n - 1) // (k + 1) + 1
            p = asymptotic_series(k, n).partial(cut)
            assert p.value == kfib_binomial_shifted(k, n), (k, n)


def test_term_ratios_approach_limit_and_stay_under_theta():
    # past each series' proved anchor (at most 36 here) every ratio sits
    # under theta = (1 + r)/2, and the ratios drift toward r
    for k in (2, 3, 4, 5):
        r = term_ratio_limit(k)
        theta = (1 + r) / 2
        for n in (0, 2, 5, 10, 25):
            series_fns = [lambda t: asymptotic_series(k, n).partial(t)]
            if n >= 1:
                series_fns.append(lambda t: rho_power_series(k, n).partial(t))
            for fn in series_fns:
                # recover terms by differencing successive partials
                partials = [fn(t).value for t in range(40, 91)]
                terms = [b - a for a, b in zip(partials, partials[1:])]
                ratios = [abs(t2) / abs(t1) for t1, t2 in zip(terms, terms[1:])]
                assert all(q <= theta for q in ratios), (k, n)
                assert abs(ratios[-1] - r) < Fraction(1, 10)


def test_adaptive_power_sum_agrees_with_root():
    for k in (2, 3, 4, 5):
        via_series = adaptive_partial(rho_power_series(k, 1).partial, Fraction(1, 10**12))
        direct = rho(k, 128)
        assert abs(via_series.value - direct.approx) <= via_series.tail_bound + direct.err, k


def test_adaptive_power_sum_k3_vs_bisection():
    root, root_err = _rho_ref(3)
    v = adaptive_partial(rho_power_series(3, 1).partial, Fraction(1, 10**10))
    assert abs(v.value - root) <= v.tail_bound + root_err


def test_phi_fifth_power_identity():
    # phi**n = F[n] phi + F[n-1]
    phi, phi_err = phi_reference(60)
    f5, f4 = fib_pair(5)
    v = adaptive_partial(rho_power_series(2, 5).partial, Fraction(1, 10**9))
    assert abs(v.value - (f5 * phi + f4)) <= v.tail_bound + 6 * phi_err


def test_domain_validation():
    with pytest.raises(DomainError):
        rho_power_series(2, 0).partial(4)  # n must be positive
    with pytest.raises(DomainError):
        rho_power_series(1, 1).partial(4)
    with pytest.raises(DomainError):
        hermite_series(2, 0).partial(-1)
    with pytest.raises(DomainError):
        adaptive_partial(rho_power_series(2, 1).partial, Fraction(0))
    # the anchor's k+1 quotients take 2048 bits each: from where that passes
    # the 2**33-bit cap, every builder refuses k before it builds a term or
    # a ratio
    k0 = 2**22
    series_module._check_order(k0 - 1)
    builders = (term_ratio_limit, lambda k: rho_power_series(k, 1),
                lambda k: hermite_series(k, 0), lambda k: asymptotic_series(k, 2))
    for k in (k0, 10**20):
        for build in builders:
            with pytest.raises(DomainError, match=f"cap of {MAX_BITS} bits"):
                build(k)


def _same(term: Fraction, num: int, den: int, e: int) -> bool:
    """term == num * 2**e / den, compared without building the right side."""
    if e >= 0:
        num <<= e
    else:
        den <<= -e
    return term.numerator * den == num * term.denominator


def test_binom_rows_match_binom():
    # every coefficient row the three series draw on for k = 2..6,
    # a in [-40, 40] (thm2: c = a) and n <= 60 (thm1: c = k - n; thm3:
    # c = -n and k + 1 - n): the exact-ratio recurrence of the ordinary
    # regime, and its hand-over from binom at the regime's start, agree
    # with binom term by term
    for k in range(2, 7):
        for c in range(-60, 41):
            row = _binom_row(k, c)
            for el in range(300):
                assert next(row) == binom((k + 1) * el + c, el), (k, c, el)
    # at large k the step products run over all-negative, mixed and
    # all-positive factors, and the negative tops reach the zero region
    for k in (40, 1000):
        for c in (-3 * k, -k - 1, -1, 0, k - 1):
            row = _binom_row(k, c)
            for el in range(40):
                assert next(row) == binom((k + 1) * el + c, el), (k, c, el)


def test_terms_match_binom_per_term_definition():
    for k in range(2, 7):
        step = k + 1
        for a in (-40, -13, -7, -1, 0, 1, 40):
            terms = hermite_series(k, a)
            for el in range(300):
                c = binom(step * el + a, el)
                assert _same(terms.term(el), c, 1, -step * el), (k, a, el)
        for n in (1, 2, 7, 30, 60):
            terms = rho_power_series(k, n)
            for el in range(300):
                c = binom(k * (el + 1) + el - n, el)
                # the term's coefficient n/(el+1) * c is an integer (a Raney number)
                top = k * (el + 1) + el - n
                assert n * c == (el + 1) * ((k + 1) * c - binom(top + 1, el + 1)), (k, n, el)
                e = n - k - 1 - step * el  # -n * 2**(n-k-1) * c / ((el+1) * 2**(step*el))
                assert _same(terms.term(el), -n * c, el + 1, e), (k, n, el)
        for n in (0, 2, 7, 30, 60):
            terms = asymptotic_series(k, n)
            for el in range(300):
                top = step * el - n
                c = binom(top, el) - binom(top, el - 1)
                assert _same(terms.term(el), c, 1, n - 2 - step * el), (k, n, el)


def test_power_series_checks_each_division(monkeypatch):
    # a row entry off by one leaves -n * c / (el+1) fractional: the series
    # raises, under python -O too, instead of summing a rounded term
    row = _binom_row

    def altered(k, c):
        for el, x in enumerate(row(k, c)):
            yield x + 1 if el == 3 else x

    monkeypatch.setattr(series_module, "_binom_row", altered)
    with pytest.raises(IntegralityError):
        rho_power_series(2, 1).partial(10)


def test_tail_cap_refused_before_bridging():
    # the terms up to each proved anchor would pass the size cap (a =
    # -250000: the ordinary regime starts at el = 125000; a = -190000 and
    # 300000: anchors near 240000 and 213000): the tail bound is refused
    # before any term is built, also where the anchor search halves a
    # thousand times
    cases = [(hermite_series(2, a), 4) for a in (-250000, -190000, 300000, -10**300, 10**300)]
    # so is a term count whose terms, of about (k+1)*el bits each, would:
    # at k = 2 the last one within the cap is 75673
    assert 3 * 75673 * 75674 // 2 <= MAX_BITS < 3 * 75674 * 75675 // 2
    cases += [(rho_power_series(k, 1), terms) for k, terms in ((2, 75674), (40, 30000),
                                                                (2, 10**20))]
    for series, terms in cases:
        with pytest.raises(DomainError, match=f"cap of {MAX_BITS} bits"):
            series.partial(terms)
        assert series._terms == [], terms


def test_term_refuses_a_negative_index_and_a_cache_past_the_cap():
    # a negative index would read the cache from its end: binom(21, 7) * 2**3,
    # no term of the series; a large one would build the cache unchecked
    cached = hermite_series(2, 0)
    cached.partial(8)
    fresh = hermite_series(2, 0)
    for series, el in ((cached, -1), (fresh, 10**6)):
        with pytest.raises(DomainError):
            series.term(el)
    assert len(cached._terms) == 8 and fresh._terms == []


# -- the integer sums against a Fraction oracle built from binom -----------


class _FractionOracle:
    """A series' partial sums and tail bounds, term by term in Fractions.

    The terms come from binom by each series' definition, and the tail rule
    is restated here: bridge |t[m]| until the three ratios ending at t[m-1]
    lie in the ordinary regime (index >= floor), involve no zero term and
    are all <= theta = (1 + r_k)/2, then add |t[m-1]| theta / (1 - theta).
    """

    def __init__(self, term, floor, k, base=0):
        self._term, self.floor, self.base = term, floor, base
        self.theta = (1 + Fraction((k + 1) ** (k + 1), k**k * 2 ** (k + 1))) / 2
        self._terms = []

    def term(self, el):
        while len(self._terms) <= el:
            self._terms.append(self._term(len(self._terms)))
        return self._terms[el]

    def _gate(self, m):
        j0 = m - 4
        if j0 < max(self.floor, 0):
            return False
        w = [self.term(j) for j in range(j0, m)]
        return all(w) and all(abs(b) <= self.theta * abs(a) for a, b in zip(w, w[1:]))

    def partial(self, terms):
        m, bridge = terms, Fraction(0)
        while not self._gate(m):
            bridge += abs(self.term(m))
            m += 1
        self.bridged = m - terms  # terms the last tail bound bridged
        tail = bridge + abs(self.term(m - 1)) * self.theta / (1 - self.theta)
        value = self.base + sum((self.term(el) for el in range(terms)), Fraction(0))
        return terms, value, tail


def _ceil(a, b):
    return -((-a) // b)


def _oracles(k):
    """(label, series, oracle) for each series at a few parameters."""
    step = k + 1
    for n in (1, 2, 7, 30):
        yield (f"thm1 k={k} n={n}", rho_power_series(k, n), _FractionOracle(
            lambda el, n=n: Fraction(-n * binom(k * (el + 1) + el - n, el),
                                     (el + 1) * 2 ** (step * el)) * Fraction(2) ** (n - k - 1),
            max(0, _ceil(n - k, k)), k, base=2**n))
    for a in (-40, -7, 0, 5):
        yield (f"thm2 k={k} a={a}", hermite_series(k, a), _FractionOracle(
            lambda el, a=a: Fraction(binom(step * el + a, el), 2 ** (step * el)),
            max(0, _ceil(-a, k)), k))
    for n in (0, 2, 7, 30):
        yield (f"thm3 k={k} n={n}", asymptotic_series(k, n), _FractionOracle(
            lambda el, n=n: (binom(step * el - n, el) - binom(step * el - n, el - 1))
            * Fraction(2) ** (n - 2 - step * el),
            max(0, _ceil(n, k - 1)), k))


@pytest.mark.parametrize("k", range(2, 7))
def test_integer_sums_match_fraction_oracle(k):
    # one series per parameter, asked for rising then falling term counts:
    # the falling requests restart its running sum from term 0, and the
    # counts below each series' floor make the tail bridge unstable terms
    counts = (0, 1, 3, 9, 17, 40, 75, 33, 12, 2, 0, 75, 76)
    bridged_below_floor = set()
    for label, series, oracle in _oracles(k):
        for t in counts:
            assert tuple(series.partial(t)) == oracle.partial(t), (label, t)
            if t < oracle.floor and oracle.bridged:
                bridged_below_floor.add(label[:4])
    assert bridged_below_floor == {"thm1", "thm2", "thm3"}


@pytest.mark.parametrize("k", range(2, 7))
def test_adaptive_over_one_series_matches_fresh_series(k):
    for label, series, oracle in _oracles(k):
        tol = Fraction(1, 10**20)
        fresh = {"thm1": rho_power_series, "thm2": hermite_series,
                 "thm3": asymptotic_series}[label[:4]]
        x = int(label.rpartition("=")[2])
        old = adaptive_partial(lambda t: fresh(k, x).partial(t), tol)
        p = adaptive_partial(series.partial, tol)
        assert p == old, label
        assert tuple(p) == oracle.partial(p.terms_used), label


def test_tail_bridged_once_per_series(monkeypatch):
    # at k=2, a=-4000 every doubling from 4 to 1024 terms lies below the gate
    # point anchor + 4 (~5,000): the bridge to it is summed once, and each
    # later request drops the terms it now sums instead of bridging again, so
    # Horner's rule runs over fewer than 2 * gate terms (bridging again at each
    # of the nine doublings would sum about 9 * gate)
    summed = {"terms": 0}
    horner = series_module._horner

    def counted_horner(terms, shift):
        summed["terms"] += len(terms)
        return horner(terms, shift)

    gate = hermite_series(2, -4000).anchor + 4
    monkeypatch.setattr(series_module, "_horner", counted_horner)
    series = hermite_series(2, -4000)
    p = adaptive_partial(series.partial, Fraction(1, 10**30))
    assert p.terms_used == 1024 < gate
    assert summed["terms"] <= 2 * gate, (summed, gate)
    monkeypatch.undo()
    for t in (4, 8, 64, 1024):
        assert series.partial(t) == hermite_series(2, -4000).partial(t), t
    assert p == hermite_series(2, -4000).partial(1024)


@pytest.mark.parametrize("k", range(2, 9))
def test_ratio_quotients_match_term_ratios(k, monkeypatch):
    # the linear quotients each builder hands to the anchor search multiply
    # to |t[el+1] / t[el]| from the ordinary regime's first index on, and
    # that index is the first where every quotient's linear forms are positive
    handed = []
    anchor = series_module._anchor

    def spy(ratio, tn, td):
        handed.append(ratio)
        return anchor(ratio, tn, td)

    monkeypatch.setattr(series_module, "_anchor", spy)
    cases = [(rho_power_series, n, max(0, _ceil(n - k, k))) for n in (1, 2, 7, 30)]
    cases += [(hermite_series, a, max(0, _ceil(-a, k))) for a in (-300, -40, -7, 0, 5)]
    cases += [(asymptotic_series, n, max(0, _ceil(n, k - 1))) for n in (0, 2, 7, 30)]
    for build, x, floor in cases:
        series = build(k, x)
        ratio = handed.pop()
        assert series.anchor >= floor
        forms = [f for q in ratio for f in (q[:2], q[2:])]
        assert all(a * floor + b > 0 for a, b in forms), (build, x)
        assert floor == 0 or min(a * (floor - 1) + b for a, b in forms) <= 0, (build, x)
        for el in range(floor, floor + 61):
            product = Fraction(1)
            for a1, b1, a2, b2 in ratio:
                product *= Fraction(a1 * el + b1, a2 * el + b2)
            assert product == abs(series.term(el + 1) / series.term(el)), (build, x, el)


def _limit_bracket(which, k, x, lo, hi):
    """Bounds on a series' limit for a dominant root r in [lo, hi]: at the
    parameters tested (a <= 0 for thm2) the limit is num(r) / den(r) with
    num and den positive and increasing in r there."""

    def num(r):
        if which == "thm1":
            return r**x
        if which == "thm2":
            return Fraction(2) ** (x + 1) * r ** (-x)
        return (r - 1) * r ** (x - 1)

    def den(r):
        return 1 if which == "thm1" else (k + 1) * r - 2 * k

    return num(lo) / den(hi), num(hi) / den(lo)


@pytest.mark.parametrize("k", (2, 3, 4, 5))
def test_tail_sound_where_bound_is_mostly_bridge(k):
    # thm2 at a = -30 and -300 bridges tens to hundreds of terms before its
    # anchor, so at 16 and 64 terms most of each bound is bridge
    root, err = bisect_dominant_root(k, 1200)
    cases = [("thm2", hermite_series, a) for a in (-30, -300)]
    cases += [("thm1", rho_power_series, n) for n in (30, 100)]
    cases += [("thm3", asymptotic_series, n) for n in (30, 100)]
    for which, build, x in cases:
        low, high = _limit_bracket(which, k, x, root - err, root + err)
        for p in [adaptive_partial(build(k, x).partial, Fraction(1, 10**12))] + [
                build(k, x).partial(t) for t in (16, 64, 400)]:
            assert low - p.tail_bound <= p.value <= high + p.tail_bound, (
                which, k, x, p.terms_used)

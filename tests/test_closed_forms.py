from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfib import binomial, closed_forms
from kfib.binomial import binom
from kfib.closed_forms import (
    _exact_int,
    _reflected_sum,
    kfib_binomial,
    kfib_binomial_shifted,
    kfib_ordinary,
    kfib_ordinary_alt,
    kfib_ordinary_erroneous,
)
from kfib.core import kfib_order_k, kfib_table
from kfib.errors import DomainError, IntegralityError

from oracles import factorial_binom


def test_shifted_sum_known_values():
    assert kfib_binomial_shifted(2, 3) == 2  # 2**(n-2) regime
    assert kfib_binomial_shifted(3, 5) == 7  # 2**k - 1 at n = k+2
    assert kfib_binomial_shifted(4, 5) == 8
    assert kfib_binomial_shifted(2, 4) == 3
    assert kfib_binomial_shifted(2, 10) == 55


def test_shifted_sum_matches_engine():
    for k in range(2, 7):
        table = kfib_table(k, 120 + k)
        for n in range(2, 120):
            assert kfib_binomial_shifted(k, n) == table[n + k - 2], (k, n)


def test_shifted_sum_order_k1_recurrence():
    for k in range(2, 7):
        vals = {n: kfib_binomial_shifted(k, n) for n in range(2, 80)}
        for n in range(2, 80 - k - 1):
            assert vals[n + k + 1] == 2 * vals[n + k] - vals[n], (k, n)


def test_shifted_sum_initial_values():
    for k in range(2, 13):
        for n in range(2, k + 2):
            assert kfib_binomial_shifted(k, n) == 2 ** (n - 2), (k, n)
        assert kfib_binomial_shifted(k, k + 2) == 2**k - 1, k


def test_binomial_form_known_values():
    assert kfib_binomial(3, 6) == 7
    assert kfib_binomial(2, 5) == 5  # hand evaluation: 8 * (1 - 3/8)
    assert kfib_binomial(4, 4) == 1


def test_fib_binomial_known_values():
    # the classical Fibonacci numbers, a sum over nonpositive powers of 8
    assert kfib_binomial(2, 2) == 1
    assert kfib_binomial(2, 4) == 3  # hand evaluation: 4 * (1 - 2/8)
    assert kfib_binomial(2, 10) == 55


def test_binomial_form_equals_shifted_sum():
    # verify's identities suite reads all four entry points from one sum
    for k in range(2, 7):
        for n in range(k, 201):
            shifted = kfib_binomial_shifted(k, n - k + 2)
            assert kfib_binomial(k, n) == shifted == kfib_ordinary_alt(k, n), (k, n)
            if n != 2 * k - 1:
                assert kfib_ordinary(k, n) == shifted, (k, n)


@cache
def _oracle_binom(a, b):
    # C(a, b) for a >= 0, zero outside 0 <= b <= a
    return factorial_binom(a, b) if 0 <= b <= a else 0


def test_ordinary_coefficient_is_the_reflected_one():
    # Pascal's rule twice: C(m+1, l) - C(m-1, l-2) == C(m, l) + C(m-1, l-1),
    # m = n-k+1 - k*l, over the correct range 0 <= l <= (n-k+1) // (k+1),
    # where m >= max(l, 1); so kfib_ordinary sums kfib_ordinary_alt's terms
    for k in range(2, 10):
        for n in range(k, 301):
            for el in range((n - k + 1) // (k + 1) + 1):
                m = n - k + 1 - k * el
                assert m >= max(el, 1), (k, n, el)
                ordinary = _oracle_binom(m + 1, el) - _oracle_binom(m - 1, el - 2)
                assert ordinary == _oracle_binom(m, el) + _oracle_binom(m - 1, el - 1), (k, n, el)


def test_ordinary_known_values():
    assert kfib_ordinary(5, 7) == 4  # empty sum, bare power of two
    assert kfib_ordinary(2, 10) == 55


def test_ordinary_alt_known_values():
    assert kfib_ordinary_alt(2, 3) == 2  # valid here though excluded above
    assert kfib_ordinary_alt(3, 9) == 44
    assert kfib_ordinary_alt(4, 4) == 1


def test_excluded_index_rejected():
    for k in range(2, 8):
        with pytest.raises(DomainError):
            kfib_ordinary(k, 2 * k - 1)


def test_excluded_index_would_be_value():
    # documents what the refused formula evaluates to at n = 2k-1: it is the
    # reflected sum on row n-k+1 = k, whose range is empty, so it degenerates
    # to 2**(k-1), which happens to equal F[2k-1]; the exclusion guards the
    # identity's derivation, not a numeric failure at this index
    for k in range(2, 9):
        n = 2 * k - 1
        would_be = _exact_int(*_reflected_sum(k, n - k + 1, n - k))
        assert would_be == 2 ** (k - 1)
        assert would_be == kfib_table(k, n)[n]


def test_domain_errors():
    with pytest.raises(DomainError):
        kfib_binomial(3, 2)  # n < k
    with pytest.raises(DomainError):
        kfib_ordinary(4, 3)
    with pytest.raises(DomainError):
        kfib_ordinary_alt(4, 2)
    with pytest.raises(DomainError):
        kfib_ordinary_erroneous(5, 4)
    with pytest.raises(DomainError):
        kfib_binomial(2, 1)
    with pytest.raises(DomainError):
        kfib_binomial_shifted(2, 1)


def test_four_way_agreement():
    for k in range(2, 7):
        table = kfib_table(k, 120)
        for n in range(k, 120):
            f = table[n]
            assert kfib_binomial(k, n) == f
            assert kfib_ordinary_alt(k, n) == f
            if n != 2 * k - 1:
                assert kfib_ordinary(k, n) == f


def test_ordinary_variants_equivalent():
    for k in range(2, 9):
        for n in range(k, 100):
            if n != 2 * k - 1:
                assert kfib_ordinary(k, n) == kfib_ordinary_alt(k, n), (k, n)


def test_erroneous_known_values():
    assert kfib_ordinary_erroneous(2, 10) == 55
    erroneous = kfib_ordinary_erroneous(5, 7)
    assert erroneous == Fraction(65, 16) and type(erroneous) is Fraction  # 4 + 1/16
    assert kfib_ordinary_erroneous(3, 9) == 44  # extra term vanishes here


def test_erroneous_diverges_for_some_higher_k():
    assert kfib_ordinary_erroneous(5, 7) != kfib_ordinary(5, 7)
    assert kfib_ordinary(5, 7) == 4


def test_erroneous_agrees_at_k2():
    table = kfib_table(2, 300)
    for n in range(2, 301):
        assert kfib_ordinary_erroneous(2, n) == table[n], n


FORMS = (kfib_binomial, kfib_ordinary, kfib_ordinary_alt)


def test_reflected_sum_matches_factorial_oracle():
    # sum over 0 <= el <= m0 // (k+1) of (-1)**el * (C(m, el) + C(m-1, el-1))
    # * 2**(e0 - (k+1)*el), m = m0 - k*el, against factorials by a local loop;
    # at k = 40, 100 and 1000 the rows below stop before el = k, except
    # k = 40, m0 = 45*41, whose row runs to L = 45 past it
    cases = [(k, m0) for k in range(2, 10) for m0 in range(1, 301)]
    cases += [(k, m0) for k in (40, 100, 1000)
              for m0 in (1, k, k + 1, 3 * k + 5, 7 * (k + 1) - 1, 12 * k)]
    cases += [(40, 45 * 41)]
    for k, m0 in cases:
        want = Fraction(0)
        for el in range(m0 // (k + 1) + 1):
            m = m0 - k * el
            c = factorial_binom(m, el) + (factorial_binom(m - 1, el - 1) if el else 0)
            want += (-c if el & 1 else c) * Fraction(2) ** (-(k + 1) * el)
        total, e = _reflected_sum(k, m0, 0)
        assert total * Fraction(2) ** e == want, (k, m0)


def test_reflected_sum_multiplies_only_the_factors_that_change(monkeypatch):
    # kfib_binomial(1000, 100999) reads binom_row's row at m0 = 100000 to
    # el = 99 < k; step el cancels the k - el factors its two perms share,
    # so it multiplies el+1 and el factors: sum(2*el + 1 for el < 99) = 9801
    # in all, where k+1 and k per step would be 198099
    factors = []
    original = binomial.perm

    def counted(n, r):
        factors.append(r)
        return original(n, r)

    monkeypatch.setattr(binomial, "perm", counted)
    assert kfib_binomial(1000, 100999) == kfib_order_k(1000, 100999)
    assert sum(factors) <= 9801


def _misranged_tail(k, n):
    # the terms the erroneous range adds past the correct limit, by definition
    extra = Fraction(0)
    for el in range((n - k + 1) // (k + 1) + 1, (n - 1) // (k + 1) + 1):
        coeff = binom(n - (el + 1) * k + 2, el) - binom(n - (el + 1) * k, el - 2)
        extra += (-1) ** el * coeff * Fraction(2) ** (n - k - (k + 1) * el)
    return extra


def _check_all_forms(k, n, f):
    assert kfib_binomial(k, n) == f, (k, n)
    assert kfib_ordinary_alt(k, n) == f, (k, n)
    if n != 2 * k - 1:
        assert kfib_ordinary(k, n) == f, (k, n)
    assert kfib_binomial_shifted(k, n - k + 2) == f, (k, n)
    assert kfib_ordinary_erroneous(k, n) == f + _misranged_tail(k, n), (k, n)


def test_every_closed_form_matches_order_k():
    for k in range(2, 13):
        for n in range(k, 601):
            _check_all_forms(k, n, kfib_order_k(k, n))


@given(st.integers(2, 40), st.integers(0, 5000))
@settings(max_examples=60, deadline=None)
def test_every_closed_form_matches_order_k_wide(k, n):
    n = max(n, k)
    _check_all_forms(k, n, kfib_order_k(k, n))


def test_corrupted_coefficient_raises(monkeypatch):
    # the last coefficient carries weight 2**-1 when (k+1) divides the
    # range's top, so adding one to it (one to N, the Horner sum whose
    # lowest digit it is) must trip the integrality check
    original = closed_forms._reflected_sum

    def corrupted(k, m0, e0):
        total, e = original(k, m0, e0)
        return total + 1, e

    monkeypatch.setattr(closed_forms, "_reflected_sum", corrupted)
    for k in (2, 3, 7):
        n = 5 * (k + 1) + k - 1  # (k+1) divides n-k+1
        for form in FORMS:
            with pytest.raises(IntegralityError):
                form(k, n)
        with pytest.raises(IntegralityError):
            kfib_binomial_shifted(k, n - k + 2)  # (k+1) divides n-1


def test_binom_calls_do_not_grow_with_n(monkeypatch):
    # each closed form draws its coefficients from one term-ratio row;
    # binom is left only for at most one misranged term of the erroneous
    # form (two calls), never one call per term
    calls = []
    original = binomial.binom

    def counted(a, b):
        calls.append((a, b))
        return original(a, b)

    # binom_row reads binom from its own module, the misranged tail from closed_forms
    monkeypatch.setattr(binomial, "binom", counted)
    monkeypatch.setattr(closed_forms, "binom", counted)
    forms = FORMS + (kfib_binomial_shifted, kfib_ordinary_erroneous)
    for k in range(2, 9):
        for n in (4096, 4099):
            for form in forms:
                calls.clear()
                form(k, n)
                assert len(calls) <= 2, (form.__name__, k, n, len(calls))
    calls.clear()
    kfib_ordinary_erroneous(5, 4099)  # one misranged term: the wrapper sees it
    assert len(calls) == 2

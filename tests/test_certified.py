from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfib.certified import CertifiedReal

fractions = st.fractions(
    min_value=Fraction(-100), max_value=Fraction(100), max_denominator=10**6
)
small_errs = st.fractions(
    min_value=Fraction(0), max_value=Fraction(1, 100), max_denominator=10**6
)


@st.composite
def certified_pairs(draw):
    """A certified value together with a true value it actually encloses."""
    true = draw(fractions)
    err = draw(small_errs)
    off = draw(st.fractions(min_value=-err, max_value=err, max_denominator=10**6))
    return CertifiedReal(true + off, err), true


def test_exact_constructor():
    x = CertifiedReal.exact(Fraction(3, 7))
    assert x.err == 0 and x.lo == x.hi == Fraction(3, 7)


def test_err_must_be_nonnegative():
    with pytest.raises(ValueError):
        CertifiedReal(Fraction(1), Fraction(-1, 2))


def test_reciprocal_rejects_zero_straddle():
    with pytest.raises(ZeroDivisionError):
        CertifiedReal(Fraction(1, 10), Fraction(1, 5)).reciprocal()


def test_agrees_with():
    a = CertifiedReal(Fraction(1), Fraction(1, 10))
    b = CertifiedReal(Fraction(11, 10), Fraction(1, 100))
    assert a.agrees_with(b)
    assert not a.agrees_with(CertifiedReal(Fraction(2), Fraction(1, 100)))


@given(certified_pairs(), certified_pairs())
@settings(max_examples=150)
def test_add_sub_mul_enclose_truth(pa, pb):
    (a, ta), (b, tb) = pa, pb
    assert (a + b).contains(ta + tb)
    assert (a - b).contains(ta - tb)
    assert (a * b).contains(ta * tb)


@given(certified_pairs())
@settings(max_examples=150)
def test_scalar_ops_enclose_truth(pa):
    a, ta = pa
    assert (3 * a - 1).contains(3 * ta - 1)
    assert (a + Fraction(1, 3)).contains(ta + Fraction(1, 3))


@given(certified_pairs(), st.integers(0, 12))
@settings(max_examples=150)
def test_pow_encloses_truth(pa, m):
    a, ta = pa
    assert (a**m).contains(ta**m)


@given(certified_pairs(), st.integers(1, 8))
@settings(max_examples=150)
def test_negative_pow_and_division_enclose_truth(pa, m):
    a, ta = pa
    if abs(a.approx) <= a.err or ta == 0:
        return
    assert (1 / a).contains(1 / ta)
    assert (a / a).contains(1)
    powered = a**m
    if abs(powered.approx) <= powered.err:
        # the propagated bound grew past the value; inversion must refuse
        with pytest.raises(ZeroDivisionError):
            a ** (-m)
    else:
        assert (a ** (-m)).contains(ta ** (-m))


@given(certified_pairs(), st.integers(0, 256))
@settings(max_examples=150)
def test_rounding_keeps_enclosure(pa, prec):
    a, ta = pa
    r = a.rounded(prec)
    assert r.contains(ta)
    assert (r.approx * 2**prec).denominator == 1
    # the radius is a short dyadic, at most twice the widened exact radius
    assert r.err.denominator & (r.err.denominator - 1) == 0
    assert r.err.numerator.bit_length() <= 31
    assert r.err <= 2 * (a.err + abs(a.approx - r.approx))


@given(certified_pairs(), st.integers(-6, 24), st.integers(0, 128))
@settings(max_examples=150)
def test_rounded_power_encloses_truth(pa, m, prec):
    a, ta = pa
    try:
        p = a.power(m, prec)
    except ZeroDivisionError:  # m < 0 and the power's ball reaches zero
        assert m < 0
        return
    assert p.contains(ta**m)
    assert m < 0 or p.approx.denominator <= 2**prec


def test_exact_power_is_unrounded():
    a = CertifiedReal(Fraction(7, 5), Fraction(1, 1000))
    p = a**5
    assert p.approx == Fraction(7, 5) ** 5
    assert p.err == (Fraction(7, 5) + Fraction(1, 1000)) ** 5 - Fraction(7, 5) ** 5

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


@pytest.mark.parametrize("op", [
    lambda ball: ball + 1.5, lambda ball: 2.0 / ball, lambda ball: ball - 0.5,
    lambda ball: ball * "x", lambda ball: (1, 2) + ball, lambda ball: ball + (1, 2)],
    ids=["ball+1.5", "2.0/ball", "ball-0.5", "ball*'x'", "(1,2)+ball", "ball+(1,2)"])
def test_an_inexact_operand_raises(op):
    # an operand is a ball, an int or a Fraction: a tuple is neither, so it
    # no longer concatenates onto the ball's two fields
    with pytest.raises(TypeError):
        op(CertifiedReal(Fraction(1, 3), Fraction(1, 10)))


def test_exact_operands_on_either_side_give_balls():
    a = CertifiedReal(Fraction(1, 3), Fraction(1, 10))
    b = CertifiedReal(Fraction(2), Fraction(1, 100))
    results = {"sum": sum([a, b]), "Fraction*": Fraction(2) * a, "2-": 2 - a, "1/": 1 / a}
    assert all(type(r) is CertifiedReal for r in results.values())
    assert results["sum"] == (Fraction(7, 3), Fraction(11, 100))
    assert results["2-"] == (Fraction(5, 3), Fraction(1, 10))


@given(certified_pairs(), certified_pairs())
@settings(max_examples=150)
def test_add_sub_mul_enclose_truth(pa, pb):
    (a, ta), (b, tb) = pa, pb
    for ball, truth in ((a + b, ta + tb), (a - b, ta - tb), (a * b, ta * tb)):
        assert ball.lo <= truth <= ball.hi


@given(certified_pairs())
@settings(max_examples=150)
def test_scalar_ops_enclose_truth(pa):
    a, ta = pa
    for ball, truth in ((3 * a - 1, 3 * ta - 1), (a + Fraction(1, 3), ta + Fraction(1, 3))):
        assert ball.lo <= truth <= ball.hi


@given(certified_pairs(), st.integers(0, 12))
@settings(max_examples=150)
def test_pow_encloses_truth(pa, m):
    a, ta = pa
    p = a**m
    assert p.lo <= ta**m <= p.hi


@given(certified_pairs(), st.integers(1, 8))
@settings(max_examples=150)
def test_negative_pow_and_division_enclose_truth(pa, m):
    a, ta = pa
    if abs(a.approx) <= a.err or ta == 0:
        return
    for ball, truth in ((1 / a, 1 / ta), (a / a, 1)):
        assert ball.lo <= truth <= ball.hi
    powered = a**m
    if abs(powered.approx) <= powered.err:
        # the propagated bound grew past the value; inversion must refuse
        with pytest.raises(ZeroDivisionError):
            a ** (-m)
    else:
        inverse = a ** (-m)
        assert inverse.lo <= ta ** (-m) <= inverse.hi


@given(certified_pairs(), st.integers(0, 256))
@settings(max_examples=150)
def test_rounding_keeps_enclosure(pa, prec):
    a, ta = pa
    r = a.rounded(prec)
    assert r.lo <= ta <= r.hi
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
    assert p.lo <= ta**m <= p.hi
    assert m < 0 or p.approx.denominator <= 2**prec


def test_exact_power_is_unrounded():
    a = CertifiedReal(Fraction(7, 5), Fraction(1, 1000))
    p = a**5
    assert p.approx == Fraction(7, 5) ** 5
    assert p.err == (Fraction(7, 5) + Fraction(1, 1000)) ** 5 - Fraction(7, 5) ** 5

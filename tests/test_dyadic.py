from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kfib.dyadic import Dyadic
from kfib.errors import IntegralityError

dyadics = st.builds(Dyadic, st.integers(-10**9, 10**9), st.integers(0, 40))


def value(d):
    return Fraction(d.num, 1 << d.exp)


def test_canonical_form():
    assert (Dyadic(4, 2).num, Dyadic(4, 2).exp) == (1, 0)
    assert (Dyadic(6, 1).num, Dyadic(6, 1).exp) == (3, 0)
    assert (Dyadic(0, 7).num, Dyadic(0, 7).exp) == (0, 0)
    assert (Dyadic(3, 0).num, Dyadic(3, 0).exp) == (3, 0)
    # negative exponent means scaling up
    assert (Dyadic(3, -2).num, Dyadic(3, -2).exp) == (12, 0)


def test_integer_conversion():
    assert Dyadic(12, 2).as_integer() == 3
    with pytest.raises(IntegralityError, match=r"^Dyadic\(3, 1\) is not an integer$"):
        Dyadic(3, 1).as_integer()


@given(dyadics)
def test_canonical_invariant(d):
    assert d.exp >= 0
    if d.num == 0:
        assert d.exp == 0
    elif d.exp > 0:
        assert d.num % 2 == 1


@given(dyadics, dyadics)
def test_arithmetic_matches_fractions(a, b):
    assert value(a + b) == value(a) + value(b)
    assert value(a - b) == value(a) - value(b)
    assert value(a * b) == value(a) * value(b)


@given(dyadics, st.integers(-30, 30))
def test_pow2_scaling(d, e):
    assert value(d.scale_pow2(e)) == value(d) * Fraction(2) ** e

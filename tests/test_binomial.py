from hypothesis import given, settings
from hypothesis import strategies as st

from kfib import binomial
from kfib.binomial import binom, binom_row

from oracles import factorial_binom, plain_factorial


def test_known_values():
    assert binom(5, 2) == 10
    assert binom(-2, -1) == 0  # a < b < 0
    assert binom(-1, 1) == -1
    assert binom(-2, -3) == -2  # rewrites to binom(-2, 1)
    assert binom(0, 0) == 1


def test_row_edges():
    for a in range(-40, 41):
        assert binom(a, 0) == 1
    for a in range(0, 40):
        for b in range(a + 1, 45):
            assert binom(a, b) == 0


def test_matches_factorial_formula():
    for a in range(0, 41):
        for b in range(0, a + 1):
            assert binom(a, b) == factorial_binom(a, b)


def test_pascal_identity_exhaustive():
    for a in range(-50, 51):
        for b in range(-50, 51):
            if (a, b) == (0, 0):
                continue
            assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b), (a, b)


def test_reflection_identity_exhaustive():
    for a in range(-50, 51):
        for b in range(-50, 51):
            if b <= a < 0:
                expected = (-1) ** ((b - 1) % 2) * binom(b - a - 1, b)
            else:
                expected = (-1) ** (b % 2) * binom(b - a - 1, b)
            assert binom(a, b) == expected, (a, b)


@given(st.integers(-400, 400), st.integers(-400, 400))
@settings(max_examples=200)
def test_pascal_identity_wide(a, b):
    if (a, b) != (0, 0):
        assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)


@given(st.integers(-200, 200), st.integers(0, 200))
@settings(max_examples=100)
def test_negative_top_is_signed_ordinary(a, b):
    # falling factorial over a negative top equals a signed ordinary
    # coefficient; binom computes it this way, so this only restates the
    # code, and test_negative_top_matches_falling_product is the oracle
    if a < 0:
        assert binom(a, b) == (-1) ** (b % 2) * binom(b - a - 1, b)


def test_negative_top_matches_falling_product():
    # the definition itself, a * (a-1) * ... * (a-b+1) / b!, by a local loop;
    # the large pairs reach the arguments where math.comb changes algorithm
    pairs = [(a, b) for a in range(-60, 0) for b in range(0, 70)]
    for a, b in pairs + [(-3000, 1000), (-5000, 2500), (-1, 4000), (-4000, 1)]:
        prod = 1
        for i in range(b):
            prod *= a - i
        assert binom(a, b) == prod // plain_factorial(b), (a, b)


def test_binom_row_matches_binom_in_every_regime():
    # top = (k+1)*el + c runs through the negative tops, the zero region
    # 0 <= top < el and the ordinary regime top >= el; the row must agree
    # with binom in all three and across both boundaries, also at large k,
    # where the steps below el = k multiply fewer than k factors
    cases = [(k, c) for k in range(2, 9) for c in range(-200, 61)]
    cases += [(50, c) for c in (-2800, -2550, -357, -354, 0)]
    cases += [(1000, c) for c in (-1001001, -7007, -7004, 0)]
    for k, c in cases:
        seen = set()
        row = binom_row(k, c)
        for el in range(max(0, -c) // k + min(2 * k, 20) + 4):
            top = (k + 1) * el + c
            seen.add("negative" if top < 0 else "zero" if top < el else "ordinary")
            assert next(row) == binom(top, el), (k, c, el)
        if c <= -(k + 1) * k:
            assert seen == {"negative", "zero", "ordinary"}, (k, c)


def test_binom_row_skips_perm_in_the_zero_region(monkeypatch):
    # top = 3*el - 3000 lies in the zero region 0 <= top < el for
    # el = 1000..1499; those coefficients come from binom, so 1600 terms
    # (1599 steps) call perm twice on at most the 1099 steps landing outside it
    calls = []
    original = binomial.perm

    def counted(n, r):
        calls.append((n, r))
        return original(n, r)

    monkeypatch.setattr(binomial, "perm", counted)
    row = binom_row(2, -3000)
    for el in range(1600):
        assert next(row) == binom(3 * el - 3000, el), el
    assert len(calls) <= 2 * (1599 - 500)

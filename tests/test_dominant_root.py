from fractions import Fraction

import pytest

from kfib import dominant_root
from kfib.core import kfib_order_k
from kfib.dominant_root import (
    asymptotic,
    asymptotic_ratio,
    epsilon,
    rho,
)
from kfib.errors import MAX_BITS, CertificationError, DomainError

from oracles import (
    bisect_dominant_root,
    mpmath_asymptotic,
    mpmath_dominant_root,
    phi_reference,
)


def test_epsilon_golden_ratio():
    phi, phi_err = phi_reference(60)
    e = epsilon(2, 64)
    assert e.err <= Fraction(1, 2**64)
    assert abs(e.approx - (2 - phi)) <= e.err + phi_err


def test_epsilon_k3_against_bisection():
    root, root_err = bisect_dominant_root(3)
    e = epsilon(3, 64)
    assert abs(e.approx - (2 - root)) <= e.err + root_err


def test_epsilon_window():
    e = epsilon(10, 32)
    assert 0 < e.approx - e.err and e.approx + e.err < Fraction(1, 2**9)


def test_epsilon_large_k_small_bits():
    # the rounding grid must stay below the 2**-k scale of the gap itself
    for k in (20, 40, 64):
        e = epsilon(k, 8)
        assert 0 < e.lo and e.hi < Fraction(1, 2 ** (k - 1)), k


def test_fixed_point_residual():
    for k in range(2, 17):
        e = epsilon(k, 64)
        residual = abs(e.approx - 1 / (2 - e.approx) ** k)
        assert residual <= 2 * e.err, k


def test_rho_against_oracles():
    phi, phi_err = phi_reference(60)
    r = rho(2, 128)
    assert abs(r.approx - phi) <= r.err + phi_err
    r3 = rho(3, 64)
    root3, err3 = bisect_dominant_root(3)
    assert abs(r3.approx - root3) <= r3.err + err3
    assert abs(r3.approx - Fraction("1.8392867552")) < Fraction(1, 10**9)
    r4 = rho(4, 32)
    assert Fraction("1.875") < r4.lo and r4.hi < 2


def test_rho_fifty_digit_agreement():
    phi, phi_err = phi_reference(60)
    r = rho(2, 200)
    assert abs(r.approx - phi) <= Fraction(1, 10**50)


def test_root_window_all_k():
    for k in range(2, 17):
        r = rho(k, 64)
        lower = Fraction(2) - Fraction(1, 2 ** (k - 1))
        assert lower < r.lo and r.hi < 2, k


def test_rho_against_bisection_sweep():
    for k in range(2, 9):
        root, root_err = bisect_dominant_root(k)
        r = rho(k, 64)
        assert abs(r.approx - root) <= r.err + root_err, k


def test_error_monotone_in_bits():
    for k in (2, 3, 7, 16):
        errs = [epsilon(k, bits).err for bits in (16, 32, 64, 128)]
        assert all(b <= a for a, b in zip(errs, errs[1:])), (k, errs)


def test_intervals_overlap_across_precision():
    for k in (2, 5, 12):
        coarse = rho(k, 16)
        fine = rho(k, 128)
        assert abs(coarse.approx - fine.approx) <= coarse.err + fine.err, k


def test_asymptotic_known_values():
    phi, phi_err = phi_reference(60)
    lam = (phi - 1) / (3 * phi - 4)
    a10 = asymptotic(2, 10, 40)
    truth = lam * phi**9
    assert a10.lo <= truth <= a10.hi or abs(a10.approx - truth) <= a10.err + 20 * phi_err
    assert abs(a10.approx - Fraction("55.0036")) < Fraction(1, 10**3)
    a0 = asymptotic(2, 0, 40)
    assert abs(a0.approx - Fraction("0.4472")) < Fraction(1, 10**4)


def test_asymptotic_tracks_shifted_fib():
    # the dominant term at series index n approximates F[n+k-2]
    a = asymptotic(3, 9, 40)
    assert abs(a.approx - kfib_order_k(3, 10)) < Fraction(1, 2)
    b = asymptotic(5, 26, 40)
    assert abs(b.approx - kfib_order_k(5, 29)) < Fraction(1, 2)


def test_asymptotic_err_target():
    for k, n, bits in [(2, 10, 40), (3, 9, 40), (2, 100, 64), (5, 40, 48)]:
        a = asymptotic(k, n, bits)
        assert a.err <= Fraction(1, 2**bits) * max(1, abs(a.approx))


def test_ratio_known_values():
    phi, _ = phi_reference(60)
    r = asymptotic_ratio(2, 1, 32)
    expected = (3 * phi - 4) / (phi - 1)
    assert abs(r.approx - expected) < Fraction(1, 10**6)
    assert abs(r.approx - Fraction("1.3820")) < Fraction(1, 10**4)


def test_ratio_tends_to_one():
    assert abs(asymptotic_ratio(2, 100, 64).approx - 1) <= Fraction(1, 10**8)
    assert abs(asymptotic_ratio(3, 50, 64).approx - 1) <= Fraction(1, 10**6)


def test_ratio_deviation_shrinks():
    for k in (2, 3, 4, 5):
        devs = [abs(asymptotic_ratio(k, n, 96).approx - 1) for n in (25, 50, 100)]
        assert devs[0] > devs[1] > devs[2], (k, devs)


def test_domain_validation(monkeypatch):
    with pytest.raises(DomainError):
        epsilon(1, 64)
    with pytest.raises(DomainError):
        epsilon(2, 4)  # bits below the floor
    with pytest.raises(DomainError):
        asymptotic(2, -1, 64)
    with pytest.raises(DomainError):
        asymptotic_ratio(2, 0, 64)
    # p's numbers at the grid 4*bits + k + 8 have (k+1)*grid bits: at k = 3
    # that is 16*bits + 44, which passes the 2**33-bit cap from bits = 2**29 - 2
    class Started(Exception):
        pass

    def start(k, grid):
        raise Started

    monkeypatch.setattr(dominant_root, "_root_numerator", start)
    with pytest.raises(Started):
        epsilon(3, 2**29 - 3)
    # the dominant term at prec = bits + |idx| + 3k + 32 estimates its own
    # numbers at 4*prec bits, which binds at k = 2 (the root on the grid
    # prec + k + 64 has 3*grid): asymptotic's prec is n + 102 there.  From
    # k = 3 on the root's (k+1)*grid binds: at k = 3, 4*(prec + 67) bits,
    # and asymptotic_ratio's prec is n + 104
    for call in (lambda: asymptotic(2, 2**31 - 102, 64),
                 lambda: asymptotic_ratio(3, 2**31 - 171, 64)):
        with pytest.raises(Started):
            call()
    with pytest.raises(DomainError, match=f"the dominant term on the 2\\*\\*-{2**31 + 1} grid"):
        asymptotic(2, 2**31 - 101, 64)
    with pytest.raises(DomainError, match=f"rho_3 on the 2\\*\\*-{2**31 + 1} grid"):
        asymptotic_ratio(3, 2**31 - 170, 64)
    for call in (lambda: epsilon(3, 2**29 - 2), lambda: rho(10**20, 64),
                 lambda: asymptotic(10**20, 5, 64), lambda: asymptotic(3, 2**60, 64),
                 lambda: asymptotic_ratio(10**20, 5, 64),
                 lambda: asymptotic_ratio(3, 2**60, 64)):
        with pytest.raises(DomainError, match=f"cap of {MAX_BITS} bits"):
            call()


SWEEP_K = (*range(2, 17), 20, 40, 64)
SWEEP_BITS = (8, 16, 64, 256, 1024)


def test_rho_and_epsilon_enclose_mpmath_root():
    for k in SWEEP_K:
        for bits in SWEEP_BITS:
            ref, ref_err = mpmath_dominant_root(k, bits)
            r, e = rho(k, bits), epsilon(k, bits)
            assert r.approx + e.approx == 2, (k, bits)
            assert r.err == e.err == Fraction(1, 2 ** (4 * bits + k + 8)), (k, bits)
            assert abs(r.approx - ref) <= r.err + ref_err, (k, bits)
            assert abs(e.approx - (2 - ref)) <= e.err + ref_err, (k, bits)


def test_asymptotic_and_ratio_enclose_mpmath():
    bits = 64
    for k in (2, 3, 4, 5):
        for n in (1, 25, 200, 1000):
            for fn, ratio in ((asymptotic, False), (asymptotic_ratio, True)):
                v = fn(k, n, bits)
                ref, ref_err = mpmath_asymptotic(k, n, bits, ratio)
                assert v.err <= Fraction(1, 2**bits) * max(1, abs(v.approx)), (k, n, ratio)
                assert abs(v.approx - ref) <= v.err + ref_err, (k, n, ratio)


def test_dominant_term_solves_once_below_twice_its_precision(monkeypatch):
    grids = []
    solve = dominant_root._root_numerator

    def recording(k, grid):
        grids.append(grid)
        return solve(k, grid)

    monkeypatch.setattr(dominant_root, "_root_numerator", recording)
    for fn, idx in ((asymptotic, 2000), (asymptotic_ratio, 2000 - 100 + 2)):
        grids.clear()
        fn(100, 2000, 64)
        prec = dominant_root._working_precision(100, 64, idx)
        assert len(grids) == 1 and grids[0] < 2 * prec, (fn.__name__, prec, grids)


def _term_from_rho(k, idx, prec):
    # the dominant term with the root taken from rho's finer grid, each line
    # as the module evaluates it
    r = rho(k, prec).rounded(prec)
    lead = ((r - 1) * ((k + 1) * r - 2 * k).reciprocal().rounded(prec)).rounded(prec)
    return (lead * r.power(idx - 1, prec)).rounded(prec)


def test_dominant_term_balls_match_rhos_grid():
    # the root on the grid prec + k + 64 rounds to prec exactly as rho's
    # grid 4*prec + k + 8 does, so no ball moves and no radius loosens
    for k in (2, 3, 5, 16, 100):
        for n in (1, 10, 25, 200):
            for bits in (8, 64):
                prec = dominant_root._working_precision(k, bits, n)
                assert asymptotic(k, n, bits) == _term_from_rho(k, n, prec), (k, n, bits)
                idx = n - k + 2
                prec = dominant_root._working_precision(k, bits, idx)
                ratio = (kfib_order_k(k, n) * _term_from_rho(k, idx, prec).reciprocal()).rounded(prec)
                assert asymptotic_ratio(k, n, bits) == ratio, (k, n, bits)


def test_failed_sign_change_raises(monkeypatch):
    # a Newton step that never moves leaves x = 2, outside the window
    monkeypatch.setattr(dominant_root, "_newton_step", lambda x, k, prec: 0)
    with pytest.raises(CertificationError):
        rho(3, 64)
    with pytest.raises(CertificationError):
        epsilon(3, 64)


def test_missed_target_raises(monkeypatch):
    # too few working bits for rho**199 to keep 64 bits: no retry, an error
    monkeypatch.setattr(dominant_root, "_working_precision", lambda k, bits, idx: 8)
    with pytest.raises(CertificationError):
        asymptotic(2, 200, 64)
    with pytest.raises(CertificationError):
        asymptotic_ratio(2, 200, 64)

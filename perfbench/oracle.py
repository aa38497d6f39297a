"""Independent reference values for checking kfib's CLI output.

Nothing here imports kfib.  Exact F[n] comes from binary powering of x
modulo the characteristic polynomial; rho_k and every analytic quantity
come from mpmath at twice the precision the output claims, plus guard
bits.  A printed value passes when |value - reference| <= error_bound
(plus the reference's own rounding slack, far below any bound).
"""

from __future__ import annotations

import json
import math
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import mpmath

GUARD_BITS = 64


def kfib_ref(k: int, n: int) -> int:
    """F[n] of the k-step sequence (k-1 zeros, then a one).

    x**n mod P(x), P(x) = x**k - x**(k-1) - ... - 1, equals
    sum_i c_i x**i, and F[n] = sum_i c_i F[i] = c_(k-1).
    """

    def mulmod(a, b):
        prod = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        # x**d = x**(d-k) * (x**(k-1) + ... + 1) for d >= k
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for j in range(d - k, d):
                    prod[j] += c
        return prod[:k]

    result = [1] + [0] * (k - 1)
    x = [0, 1] + [0] * (k - 2)
    for bit in bin(n)[2:]:
        result = mulmod(result, result)
        if bit == "1":
            result = mulmod(result, x)
    return result[k - 1]


@contextmanager
def unlimited_int_digits():
    """Lift the int/str digit limit for the checker only, then restore it."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _rho(k: int):
    """Root of x**(k+1) - 2x**k + 1 in (2 - 2**(1-k), 2) at the current precision."""
    lo, hi = 2 - mpmath.mpf(2) ** (1 - k), mpmath.mpf(2)
    r = mpmath.findroot(lambda x: x ** (k + 1) - 2 * x**k + 1, (lo, hi), solver="anderson")
    if not lo < r < hi:
        raise ArithmeticError(f"reference root for k={k} left its window: {r}")
    return r


def _dominant(k: int, idx: int):
    r = _rho(k)
    return (r - 1) / ((k + 1) * r - 2 * k) * r ** (idx - 1)


def _bits_for_tol(tol: str) -> int:
    return math.ceil(-math.log2(float(Fraction(tol)))) if Fraction(tol) < 1 else 1


@lru_cache(maxsize=None)
def analytic_ref(kind: str, k: int, x: int, prec_bits: int) -> Fraction:
    """The exact rational value of an mpmath reference at 2*prec_bits + guard."""
    with mpmath.workprec(2 * prec_bits + GUARD_BITS):
        if kind == "rho":
            v = _rho(k)
        elif kind == "ratio":  # F[x] over the dominant term at x-k+2
            v = kfib_ref(k, x) / _dominant(k, x - k + 2)
        elif kind == "thm1":  # rho**x
            v = _rho(k) ** x
        elif kind == "thm2":  # 2**(a+1) rho**(-a) / ((k+1) rho - 2k)
            r = _rho(k)
            v = mpmath.mpf(2) ** (x + 1) * r ** (-x) / ((k + 1) * r - 2 * k)
        elif kind == "thm3":
            v = _dominant(k, x)
        else:
            raise KeyError(kind)
        man, exp = v.man_exp
        return Fraction(int(man)) * Fraction(2) ** int(exp)


def _reference_spec(job: dict) -> tuple[str, int, int, int]:
    """(kind, k, argument, precision in bits) of the reference for a job."""
    kind, k = job["kind"], job["k"]
    if kind == "rho":
        return "rho", k, 0, job["bits"]
    if kind == "asymptotic":
        # rho**n amplifies the root's relative error by n
        return "ratio", k, job["n"], job["bits"] + job["n"].bit_length()
    x = job["a"] if job["which"] == "thm2" else job["n"]
    # the tolerance is absolute and the values grow at most like 2**|x|
    return job["which"], k, x, _bits_for_tol(job["tol"]) + abs(x) + 16


_SUITE_LINE = re.compile(r"^suite (\w+): (\d+) cells, (\d+) failures$", re.M)


def check_output(job: dict, stdout: str) -> tuple[bool, str, int]:
    """(ok, reason, verify cells) for the stdout of a job that exited 0."""
    if job["kind"] == "verify":
        suites = _SUITE_LINE.findall(stdout)
        cells = sum(int(c) for _, c, _ in suites)
        bad = [s for s, _, f in suites if int(f)]
        if len(suites) != len(job["suites"]) or bad or "TOTAL failures: 0" not in stdout:
            return False, f"verify suites failed or missing: {bad or suites}", cells
        return True, "", cells
    try:
        with unlimited_int_digits():
            (record,) = json.loads(stdout)
            value = Fraction(record["value"])
    except (ValueError, KeyError, TypeError) as exc:
        return False, f"unparsable output: {exc!r}", 0
    if job["kind"] == "fib":
        ok = record["exact"] and value == kfib_ref(job["k"], job["n"])
        return ok, "" if ok else "wrong F[n]", 0
    if "error_bound" not in record:
        return False, "approximate value without error_bound", 0
    spec = _reference_spec(job)
    ref, prec = analytic_ref(*spec), spec[3]
    slack = Fraction(max(1, abs(ref)), 2 ** (2 * prec + GUARD_BITS - 8))
    ok = abs(value - ref) <= Fraction(record["error_bound"]) + slack
    return ok, "" if ok else "value outside error_bound of the mpmath reference", 0

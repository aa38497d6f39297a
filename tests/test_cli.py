import argparse
import ast
import contextlib
import hashlib
import inspect
import io
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import count
from operator import eq
from pathlib import Path

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

import kfib
from kfib import binomial, cli, closed_forms, core, dominant_root, render, verify
from kfib.cli import run
from kfib.core import kfib_order_k
from kfib.errors import MAX_BITS
from kfib.verify import verify_erratum, verify_identities, verify_series


def run_capture(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fib_single_method(capsys):
    code, out, _ = run_capture(capsys, "fib", "--k", "3", "--n", "9")
    assert code == 0
    assert "-> 44 (exact)" in out


def all_routes(k: int, n: int) -> list[str]:
    """The independent routes of ``fib --method all`` at (k, n).  Below the
    powering cut (n >= 256 and 256n >= k**5) both recurrences are one
    stepping, so ``recurrence-k1`` runs only where it powers; the three
    closed forms other than the misranged one are one sum, which needs
    n >= k, so they run as ``binomial`` only."""
    routes = ["recurrence"]
    if n >= 256 and 256 * n >= k**5:
        routes.append("recurrence-k1")
    if n >= k:
        routes.append("binomial")
    return routes


def test_fib_all_methods(capsys):
    code, out, _ = run_capture(capsys, "fib", "--k", "3", "--n", "9", "--method", "all")
    assert code == 0
    assert out.splitlines() == [f"fib[{m}] k=3 n=9 -> 44 (exact)" for m in all_routes(3, 9)]


def test_fib_all_skips_excluded_index(capsys):
    # n = 2k-1 is excluded from --method ordinary alone; all runs no ordinary form
    code, out, _ = run_capture(capsys, "fib", "--k", "3", "--n", "5", "--method", "all")
    assert code == 0
    assert out.splitlines() == [f"fib[{m}] k=3 n=5 -> 4 (exact)" for m in all_routes(3, 5)]
    code, out, err = run_capture(capsys, "fib", "--k", "3", "--n", "5", "--method", "ordinary")
    assert code == 3 and out == "" and "n = 2k-1 = 5 is excluded" in err


def test_fib_all_reports_a_disagreement(capsys, monkeypatch):
    # the closed form made wrong through its module global in kfib.cli: every
    # record still prints, the disagreement goes to stderr, and the exit is 4
    cli._load("kfib_binomial")
    monkeypatch.setattr(cli, "kfib_binomial", lambda k, n: 45)
    code, out, err = run_capture(capsys, "fib", "--k", "3", "--n", "9", "--method", "all")
    assert code == 4
    assert out.splitlines() == [f"fib[{m}] k=3 n=9 -> {45 if m == 'binomial' else 44} (exact)"
                                for m in all_routes(3, 9)]
    assert err == "method disagreement: recurrence=44, binomial=45\n"


@pytest.mark.parametrize("k, n, records, steppings", [(30, 20000, 2, 1), (4, 300, 3, 0)])
def test_fib_all_steps_at_most_once(capsys, monkeypatch, k, n, records, steppings):
    # below the powering cut both recurrences are one stepping, run once;
    # where both engines power, neither steps
    calls = []
    terms = core._order_k_terms
    monkeypatch.setattr(core, "_order_k_terms", lambda k: calls.append(k) or terms(k))
    code, out, _ = run_capture(capsys, "--format", "json", "fib", "--k", str(k), "--n", str(n),
                               "--method", "all")
    assert code == 0 and len(calls) == steppings
    methods, values = zip(*((r["method"], r["value"]) for r in json.loads(out)))
    assert list(methods) == all_routes(k, n) and len(methods) == records
    assert len(set(values)) == 1


def test_fib_all_below_k_uses_recurrences_only(capsys):
    code, out, _ = run_capture(capsys, "fib", "--k", "5", "--n", "3", "--method", "all")
    assert code == 0
    assert out.splitlines() == ["fib[recurrence] k=5 n=3 -> 0 (exact)"]


def test_domain_error_exit_code(capsys):
    code, _, err = run_capture(capsys, "fib", "--k", "2", "--n", "3",
                               "--method", "ordinary")
    assert code == 3
    assert "domain error" in err
    code, _, _ = run_capture(capsys, "fib", "--k", "4", "--n", "2",
                             "--method", "binomial")
    assert code == 3
    code, _, _ = run_capture(capsys, "fib", "--k", "1", "--n", "2")
    assert code == 3


#: command lines the parser or a handler refuses
USAGE_ERRORS = [
    ("fib", "--k", "2"),  # missing required option
    ("nonsense",),  # unknown command
    (),  # no command
    ("fib", "--k", "2", "--n", "1", "--bogus", "3"),  # unknown option
    ("fib", "--k", "2", "--n", "1", "--quiet"),  # a global flag after the command
    ("fib", "--k", "2", "--n"),  # missing value
    ("fib", "--k", "--n", "1"),  # an option where the value belongs
    ("fib", "--k", "2", "--n", "x"),  # bad int
    ("fib", "--k", "2", "--n", "1e3"),
    ("fib", "--k", "2", "--n", "1", "--method", "fast"),  # bad choice
    ("--format", "xml", "fib", "--k", "2", "--n", "1"),
    ("--quiet=yes", "fib", "--k", "2", "--n", "1"),  # a value for a flag
    ("fib", "--k", "2", "--n", "1", "stray"),
    ("--form", "json", "fib", "--k", "2", "--n", "1"),  # no abbreviations
    ("verify", "--k", "3"),
    ("series", "--which", "thm1", "--k", "2"),  # the handler's own checks
    ("series", "--which", "thm2", "--k", "2"),
    ("series", "--which", "thm1", "--k", "2", "--n", "1", "--terms", "4", "--tol", "1e-9"),
    ("series", "--which", "thm1", "--k", "2", "--n", "1", "--tol", "zero"),
    ("series", "--which", "thm1", "--k", "2", "--n", "1", "--tol", "-1e-9"),
    ("series", "--which", "thm1", "--k", "2", "--n", "1", "--tol", "0e999999999"),
]


def test_usage_error_exit_code(capsys):
    for argv in USAGE_ERRORS:
        code, out, err = run_capture(capsys, *argv)
        assert code == 2 and out == "", argv
        usage, error = err.splitlines()
        assert usage.startswith("usage: kfib") and error.startswith("kfib: error: "), argv


def test_usage_error_shows_the_commands_usage(capsys):
    _, _, err = run_capture(capsys, "rho", "--bits", "64")
    assert err == ("usage: kfib rho [-h] --k K [--bits BITS] [--epsilon]\n"
                   "kfib: error: missing required options: --k\n")


@pytest.mark.parametrize("which, key, other", [
    ("thm1", ("--n", "1"), ("--a", "5")),
    ("thm2", ("--a", "-3"), ("--n", "7")),
    ("thm3", ("--n", "4"), ("--a", "2")),
])
def test_series_refuses_an_option_its_theorem_does_not_take(capsys, which, key, other):
    # thm1 and thm3 take --n, thm2 takes --a; the other one is not ignored
    code, out, err = run_capture(capsys, "series", "--which", which, "--k", "2", *key, *other,
                                 "--terms", "3")
    assert code == 2 and out == ""
    assert err == (f"{cli._usage('series')}\n"
                   f"kfib: error: {other[0]} is not an option of --which {which}\n")


def test_option_forms(capsys):
    # --opt=value, negative values, int() parsing and the last repeat winning
    code, out, _ = run_capture(capsys, "--quiet", "series", "--which=thm2", "--k", "9",
                               "--a", "-4", "--k=2", "--terms", " 0_5 ")
    assert code == 0
    assert out == run_capture(capsys, "--quiet", "series", "--which", "thm2", "--k", "2",
                              "--a=-4", "--terms", "5")[1]


def test_help_names_every_command_and_option(capsys):
    for argv in (("--help",), ("-h",), ("--format", "json", "-h")):
        code, out, err = run_capture(capsys, *argv)
        assert code == 0 and err == "" and out.startswith("usage: kfib [-h]")
        for command, table in cli.OPTIONS.items():
            assert command is None or f" {command}" in out
            assert all(f"--{name}" in out for name in table)
    for command, table in cli.OPTIONS.items():
        if command is not None:
            code, out, err = run_capture(capsys, command, "--help")
            assert code == 0 and err == "" and out.startswith(f"usage: kfib {command} [-h]")
            assert out.count("\n") == 1 and all(f"--{name}" in out for name in table)


def test_json_records_schema(capsys):
    code, out, _ = run_capture(capsys, "--format", "json", "fib", "--k", "2",
                               "--n", "10", "--method", "all")
    assert code == 0
    records = json.loads(out)
    assert [r["method"] for r in records] == all_routes(2, 10) == ["recurrence", "binomial"]
    for r in records:
        assert r["value"] == "55"
        assert isinstance(r["value"], str)
        assert r["exact"] is True
        assert "error_bound" not in r
        assert r["params"] == {"k": "2", "n": "10"}


def test_json_certified_schema(capsys):
    code, out, _ = run_capture(capsys, "--format", "json", "rho", "--k", "2",
                               "--bits", "64")
    assert code == 0
    (rec,) = json.loads(out)
    assert rec["exact"] is False
    assert rec["value"].startswith("1.6180339887498948482")
    bound = Fraction(rec["error_bound"].replace("e", "E"))
    assert 0 < bound < Fraction(1, 10**18)


def test_rho_epsilon_flag(capsys):
    code, out, _ = run_capture(capsys, "rho", "--k", "2", "--bits", "64", "--epsilon")
    assert code == 0
    assert "0.3819660112" in out


def test_series_partial_value(capsys):
    code, out, _ = run_capture(capsys, "--format", "json", "series", "--which", "thm1",
                               "--k", "2", "--n", "1", "--terms", "1")
    assert code == 0
    (rec,) = json.loads(out)
    assert rec["value"].startswith("1.75")
    assert rec["params"]["terms"] == "1"


def test_series_adaptive(capsys):
    code, out, _ = run_capture(capsys, "--format", "json", "series", "--which", "thm2",
                               "--k", "2", "--a", "0", "--tol", "1e-10")
    assert code == 0
    (rec,) = json.loads(out)
    assert rec["value"].startswith("2.3416407864998")
    code, out, _ = run_capture(capsys, "series", "--which", "thm3", "--k", "2",
                               "--n", "1")
    assert code == 3  # excluded index flows through as a domain error


def test_asymptotic_and_ratio(capsys):
    code, out, _ = run_capture(capsys, "--quiet", "asymptotic", "--k", "2",
                               "--n", "10", "--bits", "40")
    assert code == 0
    assert out.strip().startswith("55.0036")
    code, out, _ = run_capture(capsys, "--quiet", "asymptotic", "--k", "2", "--n", "100",
                               "--bits", "64", "--ratio")
    assert code == 0
    assert out.strip().startswith("0.9999999999")


@pytest.mark.parametrize("k,n", [(3, 1), (5, 1), (5, 2), (5, 3)])
def test_asymptotic_ratio_at_a_zero_seed_is_exact(capsys, k, n):
    # F[n] = 0 for 1 <= n < k-1, so the ratio is exactly 0 with err 0
    code, out, _ = run_capture(capsys, "--format", "json", "asymptotic", "--k", str(k),
                               "--n", str(n), "--ratio")
    assert code == 0
    assert json.loads(out) == [{
        "command": "asymptotic",
        "params": {"k": str(k), "n": str(n), "bits": "64", "quantity": "ratio"},
        "value": "0", "exact": True, "method": "dominant-root"}]


def test_csv_output(capsys):
    code, out, _ = run_capture(capsys, "--format", "csv", "fib", "--k", "2", "--n", "10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "command,method,params,value,exact,error_bound"
    assert lines[1] == "fib,recurrence,k=2;n=10,55,True,"


def test_determinism(capsys):
    argv = ["--format", "json", "verify", "--suite", "erratum", "--k-max", "5",
            "--n-max", "30"]
    first = run_capture(capsys, *argv)
    second = run_capture(capsys, *argv)
    assert first == second
    argv = ["asymptotic", "--k", "3", "--n", "9", "--bits", "40"]
    assert run_capture(capsys, *argv) == run_capture(capsys, *argv)


def test_verify_erratum_cli(capsys):
    code, out, _ = run_capture(capsys, "verify", "--suite", "erratum",
                               "--k-max", "5", "--n-max", "30")
    assert code == 0
    assert "divergence (expected): k=5 n=7 correct=4 misranged=4.0625" in out
    assert "TOTAL failures: 0" in out


def test_verify_erratum_json(capsys):
    code, out, _ = run_capture(capsys, "--format", "json", "verify", "--suite",
                               "erratum", "--k-max", "5", "--n-max", "30")
    assert code == 0
    (report,) = json.loads(out)
    assert report["suite"] == "erratum"
    assert report["failures"] == 0
    witness = [c for c in report["cells"]
               if c["check"] == "divergence" and c["k"] == "5" and c["n"] == "7"]
    assert witness and witness[0]["actual"] == "4.0625" and witness[0]["expected"] == "4"


def test_verify_engines_cli(capsys):
    code, out, _ = run_capture(capsys, "verify", "--suite", "engines",
                               "--k-max", "4", "--n-max", "60")
    assert code == 0
    assert "suite engines:" in out and "0 failures" in out


def test_verify_series_suite_direct():
    report = verify_series(4, 40)
    assert report.failures == 0
    checks = {c.check for c in report.cells}
    assert {"power-sum-base", "power-sum-vs-root", "ratio-sum-identity",
            "asymptotic-series", "truncation-integer", "dominant-rounding"} <= checks


def test_verify_series_stays_in_its_range(capsys):
    # no cell past --k-max or --n-max; the ratio-sum identity's n column is
    # its exponent a in -3..3, not an index, so only it may show n > 1
    code, out, _ = run_capture(capsys, "--format", "csv", "verify", "--suite", "series",
                               "--k-max", "2", "--n-max", "1")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows and all(k == "2" for _, _, k, *_ in rows)
    indexed = {(check, int(n)) for _, check, _, n, *_ in rows if check != "ratio-sum-identity"}
    assert indexed == {("power-sum-base", 1), ("power-sum-vs-root", 1),
                       ("asymptotic-series", 0), ("dominant-rounding", 0),
                       ("dominant-rounding", 1)}


def test_verify_engines_stays_in_its_range(capsys):
    # initial-segment runs n = 0..2k, composition-oracle n = 1..12 and the
    # power-* cells n = 2**j and 2**j + 1, each cut at --n-max;
    # engine-agreement starts at the powering cut, n = 256
    code, out, _ = run_capture(capsys, "--format", "csv", "verify", "--suite", "engines",
                               "--k-max", "3", "--n-max", "4")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows and all(int(n) <= 4 for _, _, _, n, *_ in rows)
    segment = {(int(k), int(n)) for _, check, k, n, *_ in rows if check == "initial-segment"}
    assert segment == {(k, n) for k in (2, 3) for n in range(5)}
    assert sum(check == "composition-oracle" for _, check, *_ in rows) == 2 * 4


def test_verify_engines_compares_only_where_the_engine_powers():
    # below the cut both engines are the table's stepping, so engine-agreement
    # starts where kfib_order_k1 powers; initial-segment checks F[0..2k]
    def ns(report, check, k):
        return [c.n for c in report.cells if (c.check, c.k) == (check, k)]

    assert ns(verify.verify_engines(3, 300), "engine-agreement", 3) == list(range(256, 301))
    assert ns(verify.verify_engines(10, 401), "engine-agreement", 10) == list(range(391, 402))
    segment = [c for c in verify.verify_engines(4, 20).cells
               if (c.check, c.k) == ("initial-segment", 4)]
    assert [(c.n, c.expected) for c in segment] == [
        (0, 0), (1, 0), (2, 0), (3, 1), (4, 1), (5, 2), (6, 4), (7, 8), (8, 15)]
    assert all(c.ok for c in segment)


def test_verify_series_strings_are_exactly_rounded():
    # the partial-sum-vs-ball cells show both sides as render.fixed of the
    # exact rational: through a float, 11 of the 84 strings at k <= 5 were
    # off in the last place (66012.001073266365 for ...359 below)
    from kfib.dominant_root import asymptotic, rho
    from kfib.series import adaptive_partial, asymptotic_series, hermite_series, rho_power_series

    def shown(x, places):
        return render.fixed(x.numerator, x.denominator, places)

    want = {}
    for k in range(2, 7):
        p = adaptive_partial(rho_power_series(k, 1).partial, Fraction(1, 10**12))
        want["power-sum-vs-root", k, 1] = shown(rho(k, 128).approx, 15), shown(p.value, 15)
        r = rho(k, 64)
        for a in range(-3, 4):
            p = adaptive_partial(hermite_series(k, a).partial, Fraction(1, 10**11))
            ball = (Fraction(2) ** (a + 1)) * r ** (-a) / ((k + 1) * r - 2 * k)
            want["ratio-sum-identity", k, a] = shown(ball.approx, 15), shown(p.value, 15)
    for k in range(2, 7):
        for n in (0, 2, 5, 10, 20):
            p = adaptive_partial(asymptotic_series(k, n).partial, Fraction(max(1, 2**n), 10**10))
            want["asymptotic-series", k, n] = (shown(asymptotic(k, n, 50).approx, 12),
                                               shown(p.value, 12))
    got = {(c.check, c.k, c.n): (c.expected, c.actual) for c in verify_series().cells
           if c.check in {"power-sum-vs-root", "ratio-sum-identity", "asymptotic-series"}}
    assert got == want and len(got) == 65
    assert got["asymptotic-series", 3, 20][1] == "66012.001073266359"


def test_verify_identities_sums_each_reflected_sum_once(monkeypatch):
    # each shifted sum is summed once, and the closed forms draw no
    # coefficient from binom
    calls, binoms = [], []
    reflected = closed_forms._reflected_sum
    monkeypatch.setattr(closed_forms, "_reflected_sum",
                        lambda k, m0, e0: calls.append((k, m0)) or reflected(k, m0, e0))
    # the closed forms import binom where they read it, from kfib.binomial
    monkeypatch.setattr(binomial, "binom", lambda a, b: binoms.append((a, b)))
    report = verify_identities(3, 30)
    assert report.failures == 0
    assert sorted(calls) == [(k, m0) for k in (2, 3) for m0 in range(1, 30)]
    assert binoms == []


def _counted_cells(monkeypatch) -> list:
    """Every VerifyCell that verify builds from now on, through either constructor."""
    built, cell = [], verify.VerifyCell

    class Counted:
        def __call__(self, *fields):
            built.append(fields)
            return cell(*fields)

        def _make(self, fields):
            built.append(fields)
            return cell._make(fields)

    monkeypatch.setattr(verify, "VerifyCell", Counted())
    return built


def test_text_verify_builds_no_cell_where_nothing_fails(monkeypatch, capsys):
    built = _counted_cells(monkeypatch)
    code, out, _ = run_capture(capsys, "--quiet", "verify", "--k-max", "4", "--n-max", "40")
    assert code == 0 and out.count(" 0 failures") == 4
    assert built == []
    # the erratum suite prints its divergences: a cell for each, and no other
    code, out, _ = run_capture(capsys, "verify", "--suite", "erratum", "--k-max", "5",
                               "--n-max", "30")
    assert code == 0 and len(built) == out.count("divergence (expected)") > 0


def test_one_wrong_sum_fails_exactly_its_cells(monkeypatch, capsys):
    # a wrong kfib_binomial_shifted(3, 30) at n-max 30 reaches two cells: its
    # shifted-sum cell, and the sum-recurrence cell at n = 26, whose actual
    # side is u[n+k+1] = u[30]; every later index that would read it lies
    # past the range
    shifted = verify.kfib_binomial_shifted
    monkeypatch.setattr(verify, "kfib_binomial_shifted",
                        lambda k, n: shifted(k, n) + ((k, n) == (3, 30)))
    f = kfib.kfib_table(3, 31)
    u = {n: f[n + 1] for n in range(2, 31)}  # u[n] = F[n+k-2]
    want = [("shifted-sum", 3, 30, u[30], u[30] + 1),
            ("sum-recurrence", 3, 26, 2 * u[29] - u[26], u[30] + 1)]
    argv = ("verify", "--suite", "identities", "--k-max", "3", "--n-max", "30")
    code, out, _ = run_capture(capsys, *argv)
    assert code == 4
    assert "suite identities: " in out and " 2 failures" in out
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        f"  FAIL {check} k={k} n={n}: expected {e}, got {a}" for check, k, n, e, a in want]
    code, out, _ = run_capture(capsys, "--format", "csv", *argv)
    assert code == 4
    assert [row for row in out.splitlines() if ",False," in row] == [
        f"identities,{check},{k},{n},False,{e},{a}" for check, k, n, e, a in want]


def test_cell_counts_match_the_cells(monkeypatch):
    # len and failures come from the columns, the cells from iterating
    # them: the two agree with every fourth comparison made to fail.  Only
    # a column whose two sides differ is compared cell by cell, so a wrong
    # binom(1, 1) makes the Pascal and reflection columns that read it
    # fail at every range, n-max 0 included.  The binom window is cut to 5,
    # and the series suite, whose cells change with n-max only where its
    # index lists end, runs at those n-max alone: both cost a root or a
    # window per call
    ticks = count()
    monkeypatch.setattr(verify, "eq", lambda a, b: eq(a, b) and next(ticks) % 4 != 0)
    equals = verify._equals
    monkeypatch.setattr(verify, "_equals", lambda p, v: equals(p, v) and next(ticks) % 4 != 0)
    binom = verify.binom
    monkeypatch.setattr(verify, "binom", lambda a, b: binom(a, b) + ((a, b) == (1, 1)))
    monkeypatch.setattr(verify, "BINOM_WINDOW", 5)
    for k_max in range(2, 7):
        for n_max in range(0, 61):
            for name, sweep in verify.SWEEPS.items():
                if name == "series" and n_max not in (0, 1, 2, 5, 10, 20, 39, 40, 41, 60):
                    continue
                report = sweep(k_max, n_max)
                cells = list(report.cells)
                assert len(report.cells) == len(cells), (name, k_max, n_max)
                assert report.failures == sum(not c.ok for c in cells), (name, k_max, n_max)
                if name == "identities":
                    assert report.failures > 0


def test_verify_engines_still_calls_the_powering_engine(monkeypatch):
    # below n = 256 the suite steps each k once; from there on the engine
    # powers (k <= 6), and each of those n is its own kfib_order_k1 call
    calls = []
    engine = verify.kfib_order_k1
    monkeypatch.setattr(verify, "kfib_order_k1",
                        lambda k, n: calls.append((k, n)) or engine(k, n))
    (report,) = verify.run_suites(["engines"], 6, 300)
    assert report.failures == 0
    assert calls == [(k, n) for k in range(2, 7) for n in range(256, 301)]
    # where the first powered n is not 256 (256 n >= k**5 there), on either
    # side of it: none below it, and one call per n from it on
    for k, n0, n_maxes in ((10, 391, (390, 391, 401)), (11, 630, (630,))):
        assert not core._powers(k, n0 - 1) and core._powers(k, n0)
        for n_max in n_maxes:
            calls.clear()
            assert verify.verify_engines(k, n_max).failures == 0
            assert [c for c in calls if c[0] == k] == [(k, n) for n in range(n0, n_max + 1)]


def test_a_karatsuba_fault_fails_verify_and_fib(monkeypatch, capsys):
    # with the split from 64 bits on, both engines power through Karatsuba's
    # branch of _square from n = 256; engine-agreement sets the powered
    # order-(k+1) engine against the order-k stepping, and fib --method all
    # against the closed forms, so a fault there fails both
    monkeypatch.setattr(core, "_SPLIT_BITS", 64)
    assert verify.verify_engines(4, 300).failures == 0
    square = core._square

    def faulty(poly):
        sq = square(poly)
        if len(poly) >= 4 and poly[-1].bit_length() >= core._SPLIT_BITS:
            sq[len(poly) - 1] += 1
        return sq

    monkeypatch.setattr(core, "_square", faulty)
    report = verify.verify_engines(4, 300)
    failed = [c for c in report.cells if not c.ok]
    assert report.failures == len(failed) > 0
    assert {(c.check, c.n >= 256) for c in failed} == {("engine-agreement", True)}
    code, _, err = run_capture(capsys, "fib", "--k", "4", "--n", "300", "--method", "all")
    assert code == 4 and err.startswith("method disagreement: ")


def _mutant(fn, old: str, new: str):
    """``fn`` compiled from its source with the one ``old`` in it read as
    ``new``, in its own module's globals."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1, old
    scope = {}
    exec(source.replace(old, new), vars(sys.modules[fn.__module__]), scope)
    return scope[fn.__name__]


def test_a_fold_fault_fails_the_default_verify(monkeypatch, capsys):
    # the default n-max stops below the powering cut, so only the power-*
    # cells reach _power_mod, and they fail where its fold is wrong
    monkeypatch.setattr(core, "_power_mod", _mutant(
        core._power_mod, "+= t * c", "+= t * c + (top == d and i == 0)"))
    failed = {c.check for c in verify.verify_engines().cells if not c.ok}
    assert failed == {"power-order-k", "power-order-k1"}
    assert run_capture(capsys, "--quiet", "verify")[0] == 4


def test_a_lead_fault_past_k5_fails_the_default_verify(monkeypatch, capsys):
    # the series suite runs every k up to --k-max, so a dominant term wrong
    # only from k = 6 on fails the default run's asymptotic-series and
    # dominant-rounding cells at k = 6
    monkeypatch.setattr(dominant_root, "_dominant_term", _mutant(
        dominant_root._dominant_term, "(k + 1) * r - 2 * k", "(k + 1) * r - 2 * k + (k >= 6)"))
    failed = [(c.check, c.k) for c in verify_series().cells if not c.ok]
    assert failed == [("asymptotic-series", 6)] * 5 + [("dominant-rounding", 6)] * 7
    assert run_capture(capsys, "--quiet", "verify")[0] == 4


@pytest.mark.parametrize("name, old, new, failed", [
    # an index one too low makes the term approximate F[n-1]: only
    # dominant-rounding compares it with F[n], and fails where the two differ
    ("_matched_index", "n - k + 2", "n - k + 1", {"dominant-rounding": 37}),
    ("_dominant_term", "(k + 1) * r - 2 * k", "(k + 1) * r - (2 * k - 1)",
     {"dominant-rounding": 37, "asymptotic-series": 25})], ids=["alignment", "lead"])
def test_a_dominant_term_fault_fails_the_default_verify(monkeypatch, capsys, name, old, new,
                                                        failed):
    monkeypatch.setattr(dominant_root, name, _mutant(getattr(dominant_root, name), old, new))
    assert Counter(c.check for c in verify_series().cells if not c.ok) == failed
    assert run_capture(capsys, "--quiet", "verify")[0] == 4


def test_the_dominant_term_rounds_to_each_term_it_is_matched_with():
    # the whole ball lies within 1/2 of F[n], so its nearest integer is F[n]
    cells = [c for c in verify_series(6, 200).cells if c.check == "dominant-rounding"]
    assert len(cells) == 56 and all(c.ok and c.actual == c.expected for c in cells)
    assert {c.n for c in cells if c.k == 6} == {0, 1, 2, 3, 5, 6, 7, 10, 20, 50, 100, 200}


def test_a_closed_form_fault_fails_the_erratum_suite(monkeypatch, capsys):
    # the misranged sum may differ from F[n] only where its range appends a
    # term; at (k, n) = (3, 62) it appends none, so a fault in the sum the
    # two ranges share there, at m0 = n - k + 1 = 60, fails its cell
    reflected = closed_forms._reflected_sum

    def faulty(k, m0, e0):
        total, e = reflected(k, m0, e0)
        return total + ((k, m0) == (3, 60)), e

    monkeypatch.setattr(closed_forms, "_reflected_sum", faulty)
    code, out, _ = run_capture(capsys, "verify", "--suite", "erratum")
    assert code == 4
    assert [line.split(":")[0] for line in out.splitlines() if "k=3 n=62" in line] == [
        "  FAIL divergence k=3 n=62"]
    assert "TOTAL failures: 1" in out


def test_verify_erratum_counts_divergences():
    report = verify_erratum(6, 60)
    assert report.failures == 0
    summary = [c for c in report.cells if c.check == "divergence-exists"]
    assert len(summary) == 1 and summary[0].ok
    assert int(summary[0].actual) >= 3


def test_fib_beyond_int_str_digit_limit(capsys):
    # CPython >= 3.11 limits int <-> str conversions to 4300 digits
    limited = hasattr(sys, "set_int_max_str_digits")
    limit = sys.get_int_max_str_digits() if limited else None
    code, out, err = run_capture(capsys, "--quiet", "fib", "--k", "3", "--n", "20000")
    assert code == 0 and err == ""
    assert len(out.strip()) > 4300
    if not limited:
        assert int(out) == kfib_order_k(3, 20000)
        return
    assert sys.get_int_max_str_digits() == limit  # lifted for the conversion only
    sys.set_int_max_str_digits(0)
    try:
        assert int(out) == kfib_order_k(3, 20000)
    finally:
        sys.set_int_max_str_digits(limit)


def test_series_tail_cap_exits_3_fast(capsys):
    # a tail anchor whose terms would pass the size cap is known before any
    # term is built
    for a in ("-250000", "-190000", "300000"):
        started = time.perf_counter()
        code, out, err = run_capture(capsys, "series", "--which", "thm2", "--k", "2",
                                     "--a", a)
        assert time.perf_counter() - started < 1, a
        assert code == 3 and out == "", a
        assert err.startswith("domain error:") and "cap" in err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_rho_method_label(capsys):
    code, out, _ = run_capture(capsys, "--format", "json", "rho", "--k", "3",
                               "--bits", "64")
    assert code == 0
    (rec,) = json.loads(out)
    assert rec["method"] == "newton"


def test_failed_certificate_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(dominant_root, "_newton_step", lambda x, k, prec: 0)
    code, out, err = run_capture(capsys, "rho", "--k", "3")
    assert code == 5 and out == ""
    assert err.startswith("internal error: CertificationError")


# -- start-up: each command loads only the layers it runs ------------------

#: the directory holding the kfib package, for child interpreters
SRC = str(Path(kfib.__file__).resolve().parents[1])

#: standard-library modules the probe watches besides the package's own
WATCHED = ("argparse", "gettext", "locale", "json", "dataclasses", "__future__", "fractions",
           "decimal")

#: prints [exit code, modules after ``import kfib.cli``, modules after the run]
#: by repr, so that the probe itself imports no watched module
IMPORT_PROBE = f"""
import sys
import kfib.cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("kfib") or m in {WATCHED!r})

imported = loaded()
code = kfib.cli.run(sys.argv[1:])
print(repr([code, imported, loaded()]))
"""

#: no command loads an argument parser, a JSON encoder, dataclasses or
#: __future__ (every annotation evaluates natively from Python 3.10)
NEVER = {"argparse", "gettext", "locale", "json", "dataclasses", "__future__"}
#: the rational types load only where a value needs one
RATIONALS = {"fractions", "decimal"}
#: the root, the balls, the series and their rendering
ANALYTIC = {"kfib.certified", "kfib.dominant_root", "kfib.series", "kfib.render"}

#: argv -> modules the command must not load, besides NEVER
NOT_LOADED = {
    ("fib", "--k", "3", "--n", "9"): {
        "kfib.closed_forms", "kfib.binomial", "kfib.dyadic", "kfib.verify", *ANALYTIC,
        *RATIONALS},
    # the closed forms take check_k from kfib.errors and load no engine
    **{("fib", "--k", "3", "--n", "9", "--method", method): {
        "kfib.dyadic", "kfib.verify", *ANALYTIC, *RATIONALS,
        *(["kfib.core"] if method in ("binomial", "ordinary", "ordinary-alt") else []),
        *(["kfib.binomial"] if method.startswith("recurrence") else [])}
       for method in (*cli.FIB_ENGINES, "all")},
    ("rho", "--k", "2", "--epsilon"): {"kfib.core", "kfib.series", "kfib.verify", "kfib.dyadic"},
    ("asymptotic", "--k", "3", "--n", "100", "--ratio"): {
        "kfib.series", "kfib.verify", "kfib.dyadic"},
    ("series", "--which", "thm1", "--k", "2", "--n", "1"): {
        "kfib.core", "kfib.certified", "kfib.dominant_root", "kfib.verify", "kfib.dyadic"},
    ("series", "--which", "thm2", "--k", "3", "--a", "-2", "--terms", "40"): {
        "kfib.core", "kfib.certified", "kfib.dominant_root", "kfib.verify", "kfib.dyadic"},
    ("verify", "--suite", "engines"): {"kfib.dyadic", *ANALYTIC, *RATIONALS},
    ("verify", "--suite", "identities"): {"kfib.dyadic", *ANALYTIC, *RATIONALS},
    # the erratum suite renders its divergences, exact from (N, e) pairs
    ("verify", "--suite", "erratum"): {
        "kfib.dyadic", *(ANALYTIC - {"kfib.render"}), *RATIONALS},
}


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=SRC)


def _modules_loaded(argv) -> tuple[int, list[str], list[str]]:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return tuple(ast.literal_eval(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv", sorted(NOT_LOADED), ids=" ".join)
def test_command_loads_only_its_layers(argv):
    code, imported, after = _modules_loaded(argv)
    assert code == 0
    assert imported == ["kfib", "kfib.cli", "kfib.errors"]
    assert not (NOT_LOADED[argv] | NEVER) & set(after)
    # the probe sees what a command loads
    if argv[0] == "rho":
        assert {"fractions", "kfib.dominant_root"} <= set(after)
    if argv[-1] == "erratum":
        assert "kfib.render" in after


def test_no_closed_form_loads_dyadic():
    # the misranged variant returns a Fraction, and loads fractions only itself
    probe = """
import sys
from kfib import closed_forms as cf
cf.kfib_binomial_shifted(5, 30), cf.kfib_binomial(5, 30), cf.kfib_ordinary(5, 30)
cf.kfib_ordinary_alt(5, 30)
before = "fractions" in sys.modules
value = cf.kfib_ordinary_erroneous(5, 7)
print(repr([before, type(value).__name__, "kfib.dyadic" in sys.modules]))
"""
    proc = subprocess.run([sys.executable, "-c", probe], env=_child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    assert ast.literal_eval(proc.stdout) == [False, "Fraction", False]


def test_handlers_call_the_module_globals(capsys, monkeypatch):
    # a library function, once loaded, is a global of kfib.cli; whatever
    # replaces that global (a test double, a tracing wrapper) must be what runs
    real = cli._load("kfib_order_k")
    calls = []
    monkeypatch.setattr(cli, "kfib_order_k", lambda k, n: calls.append((k, n)) or real(k, n))
    code, out, _ = run_capture(capsys, "fib", "--k", "3", "--n", "9")
    assert code == 0 and out.endswith("-> 44 (exact)\n")
    assert calls == [(3, 9)]


def test_cli_suites_match_verify():
    assert cli.SUITES == verify.SUITES


@pytest.mark.parametrize("argv", [
    ("--format", "json", "fib", "--k", "3", "--n", "40", "--method", "all"),
    ("rho", "--k", "5", "--bits", "96"),
    ("series", "--which", "thm3", "--k", "2", "--n", "10", "--tol", "1e-9"),
    ("--format", "csv", "asymptotic", "--k", "3", "--n", "100", "--ratio"),
    ("verify", "--suite", "erratum"),
], ids=" ".join)
def test_module_entry_point_matches_run(capsys, argv):
    code, out, _ = run_capture(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", "kfib.cli", *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, out)


def test_reader_closing_stdout_early_exits_141_quietly():
    # the identities csv (~1 MB) outruns the pipe buffer, so the writer is
    # still printing when the reader goes away after one line
    proc = subprocess.Popen([sys.executable, "-m", "kfib.cli", "--format", "csv", "verify",
                             "--suite", "identities"], env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"suite,check,k,n,pass,expected,actual\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == cli.EXIT_PIPE_CLOSED == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


# -- series output pinned at the benchmark's sizes -------------------------

_PHI_2048_TERMS = (
    "1.6180339887498948482045868343656381177203091798057628621354486227052604628189"
    "0244970720720418939113748475408807538689175212663386222353693179318006076672635540")

#: argv -> (value, error_bound, params.terms) as printed before the series
#: were summed in integers; the sums must stay exact, so these never move,
#: except that the thm1 rows from 1e-50 down now show the digits of their
#: tail bound, where a 60-digit cap once held them at 5.1e-61
SERIES_PINNED = {
    ("thm1", "--k", "2", "--n", "1", "--tol", "1e-25"): (
        "1.61803398874989484820458683436563811772031084", "3.7e-42", "512"),
    ("thm1", "--k", "2", "--n", "1", "--tol", "1e-50"): (
        "1.6180339887498948482045868343656381177203091798057628621354486227052604628189024595",
        "2.2e-80", "1024"),
    ("thm1", "--k", "2", "--n", "1", "--tol", "1e-100"): (_PHI_2048_TERMS, "2.2e-156", "2048"),
    ("thm1", "--k", "2", "--n", "1", "--tol", "1e-150"): (_PHI_2048_TERMS, "2.2e-156", "2048"),
    ("thm3", "--k", "3", "--n", "100", "--tol", "1e-12"): (
        "98079530178586034536500564.00000000000000350", "2.7e-15", "128"),
    ("thm2", "--k", "3", "--a", "-3", "--tol", "1e-12"): (
        "1.146202737709442211", "4.6e-16", "64"),
    ("thm2", "--k", "3", "--a", "-30", "--tol", "1e-12"): (
        "0.119395107962145051695", "1.1e-19", "64"),
    ("thm2", "--k", "3", "--a", "-300", "--tol", "1e-12"): (
        "0.0000000000179571513907342436488904636753779913931", "1.4e-47", "64"),
}


@pytest.mark.parametrize("argv", sorted(SERIES_PINNED), ids=" ".join)
def test_series_output_pinned(capsys, argv):
    code, out, _ = run_capture(capsys, "--format", "json", "series", "--which", *argv)
    assert code == 0
    (rec,) = json.loads(out)
    assert (rec["value"], rec["error_bound"], rec["params"]["terms"]) == SERIES_PINNED[argv]


@pytest.mark.parametrize("tol", ["1e-12", "1e-60", "1e-100", "1e-150"])
@pytest.mark.parametrize("argv", [("thm1", "--k", "2", "--n", "1"),
                                  ("thm2", "--k", "3", "--a", "-3"),
                                  ("thm3", "--k", "3", "--n", "100")], ids=" ".join)
def test_series_error_bound_follows_tol(capsys, argv, tol):
    # the printed bound is the tail bound plus the display's rounding, so a
    # small --tol shows in the output
    code, out, _ = run_capture(capsys, "--format", "json", "series", "--which", *argv,
                               "--tol", tol)
    assert code == 0
    (rec,) = json.loads(out)
    assert Fraction(rec["error_bound"]) <= 2 * Fraction(tol)


# -- rho and asymptotic --ratio output pinned at the benchmark's sizes ------

#: argv -> (error_bound, digits in value, sha256 of value, first 16 hex) as
#: printed before decimals were rendered in integers
CERTIFIED_PINNED = {
    ("rho", "--k", "2", "--bits", "64"): ("9.0e-81", 83, "9c7d7935302a4f10"),
    ("rho", "--k", "2", "--bits", "128"): ("7.8e-158", 160, "e7197e689adf7884"),
    ("rho", "--k", "2", "--bits", "256"): ("6.0e-312", 314, "b4afc2bed6909e27"),
    ("rho", "--k", "2", "--bits", "512"): ("5.1e-401", 402, "c53f0f145e877b73"),
    ("rho", "--k", "2", "--bits", "1024"): ("5.1e-401", 402, "c53f0f145e877b73"),
    ("rho", "--k", "2", "--bits", "2048"): ("5.1e-401", 402, "c53f0f145e877b73"),
    ("rho", "--k", "5", "--bits", "64"): ("1.6e-81", 83, "45f7682f9c972cbd"),
    ("rho", "--k", "5", "--bits", "128"): ("9.7e-159", 161, "f872e7ad69d0332e"),
    ("rho", "--k", "5", "--bits", "256"): ("7.3e-313", 315, "a1923929336c9997"),
    ("rho", "--k", "5", "--bits", "512"): ("5.1e-401", 402, "5c9427a211ecc8fd"),
    ("rho", "--k", "5", "--bits", "1024"): ("5.1e-401", 402, "5c9427a211ecc8fd"),
    ("rho", "--k", "5", "--bits", "2048"): ("5.1e-401", 402, "5c9427a211ecc8fd"),
    ("asymptotic", "--k", "3", "--n", "25", "--bits", "64", "--ratio"): (
        "2.1e-38", 40, "265b748feadc72f2"),
    ("asymptotic", "--k", "3", "--n", "50", "--bits", "64", "--ratio"): (
        "2.3e-46", 48, "be1256c03442df63"),
    ("asymptotic", "--k", "3", "--n", "100", "--bits", "64", "--ratio"): (
        "1.8e-60", 62, "715b4e69e7c2a428"),
    ("asymptotic", "--k", "3", "--n", "200", "--bits", "64", "--ratio"): (
        "2.2e-90", 92, "050ab3945765926f"),
}


@pytest.mark.parametrize("argv", sorted(CERTIFIED_PINNED), ids=" ".join)
def test_certified_output_pinned(capsys, argv):
    code, out, _ = run_capture(capsys, "--format", "json", *argv)
    assert code == 0
    (rec,) = json.loads(out)
    value = rec["value"]
    digest = hashlib.sha256(value.encode()).hexdigest()[:16]
    assert (rec["error_bound"], len(value), digest) == CERTIFIED_PINNED[argv]


# -- integer rendering against the Fraction loops it replaced --------------


def _fraction_decimal_round(x, digits):
    scaled = round(x * 10**digits)
    sign = "-" if scaled < 0 else ""
    body = str(abs(scaled))
    if digits == 0:
        return sign + body
    body = body.rjust(digits + 1, "0")
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


def _digits_for_loop(bound):
    d = 0
    while d < 400 and Fraction(1, 10**d) > bound:
        d += 1
    return d


def _bound_decimal_loop(x):
    if x == 0:
        return "0"
    e = 0
    while x < 1:
        x *= 10
        e -= 1
    while x >= 10:
        x /= 10
        e += 1
    mant_tenths = -((-x * 10) // 1)  # ceil
    if mant_tenths >= 100:
        mant_tenths = 10
        e += 1
    return f"{_fraction_decimal_round(Fraction(mant_tenths, 10), 1)}e{e:+03d}"


_POSITIVE = st.one_of(
    # arbitrary ratios, both below 1 and at or above 10
    st.builds(Fraction, st.integers(1, 10**60), st.integers(1, 10**60)),
    # exact powers of ten and their neighbours
    st.builds(lambda e, d: Fraction(10) ** e + Fraction(d, 10**450),
              st.integers(-420, 60), st.integers(-1, 1)).filter(lambda x: x > 0),
    # mantissas 9.91..9.99... that round up to 10.0
    st.builds(lambda e, t: Fraction(9901 + t, 1000) * Fraction(10) ** e,
              st.integers(-420, 60), st.integers(0, 98)),
    # around the 400-digit cap
    st.builds(lambda d, num: Fraction(num, 10**d), st.integers(395, 405),
              st.integers(1, 10**4)),
)


@given(_POSITIVE, st.integers(0, 60), st.booleans())
@settings(max_examples=400, deadline=None)
def test_integer_rendering_matches_fraction_loops(x, digits, negate):
    assert render.digits_for(x) == _digits_for_loop(x)
    assert render.bound_decimal(x.numerator, x.denominator) == _bound_decimal_loop(x)
    value = -x if negate else x
    assert render.approx(value, x, digits) == (
        _fraction_decimal_round(value, digits),
        _bound_decimal_loop(x + Fraction(1, 2 * 10**digits)))


def test_integer_rendering_edge_values():
    for x in (Fraction(1), Fraction(10), Fraction(1, 10), Fraction(10) ** -400,
              Fraction(10) ** -401, Fraction(99, 10), Fraction(991, 100),
              Fraction(9901, 1000), Fraction(1, 3), Fraction(10**500 + 1, 10**100)):
        assert render.digits_for(x) == _digits_for_loop(x), x
        assert render.bound_decimal(x.numerator, x.denominator) == _bound_decimal_loop(x), x
    assert render.bound_decimal(9901, 1000) == "1.0e+01"
    assert render.digits_for(Fraction(0)) == _digits_for_loop(Fraction(0)) == 400
    for n, m, digits in ((5, 2, 0), (7, 2, 0), (-5, 2, 0), (1, 8, 2), (3, 8, 2), (-3, 8, 2)):
        # exact ties round half to even, as Fraction's round() does
        assert render.fixed(n, m, digits) == _fraction_decimal_round(Fraction(n, m), digits)


# -- verify refuses ranges in which a suite would check nothing -------------


@pytest.mark.parametrize("argv", [
    ("--suite", "all", "--k-max", "1"),
    ("--suite", "erratum", "--k-max", "2", "--n-max", "0"),
    ("--k-max", "0", "--n-max", "-5"),
    ("--suite", "engines", "--n-max", "-1"),
], ids=" ".join)
def test_verify_refuses_empty_ranges(capsys, argv):
    code, out, err = run_capture(capsys, "verify", *argv)
    assert code == 3 and out == ""
    assert err.startswith("domain error:") and err.count("\n") == 1


def test_verify_smallest_ranges_check_something(capsys):
    for suite, n_max in (("engines", "0"), ("identities", "0"), ("erratum", "2")):
        code, out, _ = run_capture(capsys, "verify", "--suite", suite, "--k-max", "2",
                                   "--n-max", n_max)
        assert code == 0 and " 0 cells" not in out, suite


def test_run_suites_refuses_unknown_suite_before_any_runs(monkeypatch):
    ran = []
    monkeypatch.setitem(verify.SWEEPS, "engines", lambda k_max, n_max: ran.append(k_max))
    with pytest.raises(kfib.DomainError, match="'bogus'"):
        verify.run_suites(["engines", "bogus"])
    assert ran == []


def test_run_suites_refuses_an_unreachable_n_max_before_any_runs(monkeypatch):
    # the identities table runs to F[n_max+k_max], fewer than m(m+1)/2 bits
    # at m = n_max + k_max: the last m within the size cap is 131071
    ran = []
    for name in verify.SWEEPS:
        monkeypatch.setitem(verify.SWEEPS, name, lambda k_max, n_max: ran.append(n_max))
    m = 131071
    assert m * (m + 1) // 2 <= MAX_BITS < (m + 1) * (m + 2) // 2
    for k_max, n_max in ((6, 10**20), (6, sys.maxsize - 7), (6, m - 5), (10**20, 0)):
        with pytest.raises(kfib.DomainError, match=f"cap of {MAX_BITS} bits"):
            verify.run_suites(verify.SUITES, k_max, n_max)
    verify.run_suites(verify.SUITES, 6, m - 6)
    assert ran == [m - 6] * len(verify.SUITES)


_HUGE = str(10**20)

_K = "99999999999999999999"

#: argv -> exit code at an order or index past sys.maxsize: a zero seed
#: (n < k-1) is answered at any k, and an index n >= sys.maxsize, where
#: islice stops counting, is a domain error; so is an order, index or
#: precision at which the root's numbers, or the series' tail anchor, would
#: pass the 2**33-bit cap, and so is a verify n-max whose tables would
HUGE_ARGVS = {
    ("rho", "--k", _K): 3,
    ("rho", "--k", "3", "--bits", _K): 3,
    ("asymptotic", "--k", _K, "--n", "5"): 3,
    ("asymptotic", "--k", _K, "--n", "5", "--ratio"): 3,
    ("asymptotic", "--k", "3", "--n", _K): 3,
    ("asymptotic", "--k", "3", "--n", _K, "--ratio"): 3,
    ("series", "--which", "thm1", "--k", _K, "--n", "1"): 3,
    ("series", "--which", "thm2", "--k", _K, "--a", "1"): 3,
    ("series", "--which", "thm3", "--k", _K, "--n", "2", "--terms", "3"): 3,
    ("fib", "--k", _K, "--n", "3"): 0,
    ("fib", "--k", _K, "--n", "3", "--method", "recurrence-k1"): 0,
    ("fib", "--k", _K, "--n", "3", "--method", "all"): 0,
    ("fib", "--k", _HUGE, "--n", _HUGE): 3,
    ("fib", "--k", _HUGE, "--n", _HUGE, "--method", "recurrence-k1"): 3,
    ("fib", "--k", _HUGE, "--n", _HUGE, "--method", "all"): 3,
    ("verify", "--n-max", "99999999999999999999", "--suite", "engines"): 3,
    ("verify", "--n-max", "99999999999999999999", "--suite", "identities"): 3,
}


@pytest.mark.parametrize("argv", sorted(HUGE_ARGVS), ids=" ".join)
def test_huge_orders_and_indices_end_without_a_traceback(argv):
    proc = subprocess.run([sys.executable, "-m", "kfib.cli", *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == HUGE_ARGVS[argv]
    assert "Traceback" not in proc.stderr
    if proc.returncode == 0:
        assert proc.stderr == ""
        assert [line.split(" -> ")[1] for line in proc.stdout.splitlines()] == [
            "0 (exact)"]
    else:
        assert proc.stdout == ""
        assert proc.stderr.startswith("domain error:") and proc.stderr.count("\n") == 1


#: argv whose numbers would pass the 2**33-bit cap, though each fits in an
#: int: the root's (k+1)*grid bits, the dominant term's 4*prec bits, the
#: tail anchor's k+1 quotients, the series' cached terms of about (k+1)*el
#: bits each, a stepping window of k+1 terms of n bits, the powering
#: polynomial's k+1 coefficients, the closed form's n-bit sum, and a verify
#: range whose table F[0..m], m = n_max + k_max, may hold m(m+1)/2 bits
CAPPED_ARGVS = (
    "rho --k 100000000",
    "rho --k 1000000000",
    "asymptotic --k 2 --n 3000000000",
    "asymptotic --k 3 --n 3000000000 --ratio",
    "series --which thm2 --k 100000000 --a 1 --terms 3",
    "series --which thm2 --k 1000000000 --a 1 --terms 3",
    "series --which thm1 --k 2 --n 1 --terms 100000000000000000000",
    "fib --k 100000 --n 1000000",
    "fib --k 3 --n 1000000000000",
    "fib --k 3 --n 1000000000000 --method binomial",
    "verify --suite engines --k-max 2 --n-max 1000000",
    "verify --suite identities --k-max 2 --n-max 300000",
    "verify --suite erratum --k-max 2 --n-max 1000000",
)


@pytest.mark.parametrize("argv", CAPPED_ARGVS)
def test_requests_past_the_size_cap_exit_3_at_once(argv):
    # each is refused before it builds a number: under the child's 1 GiB
    # address-space limit, one that built them would end in a MemoryError
    # traceback or run on
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "kfib.cli", *argv.split()], env=_child_env(),
                          capture_output=True, text=True, timeout=30, preexec_fn=limit)
    assert time.perf_counter() - started < 1
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("domain error:") and proc.stderr.count("\n") == 1
    assert f"cap of {MAX_BITS} bits" in proc.stderr


def test_requests_below_the_size_cap_pass_it():
    # fib --k 3 --n 3000000 powers, and fib --k 100 --n 400000 --method
    # binomial sums, both well within 1 GiB; the checks alone run here
    core._check_size(3, 3_000_000)
    closed_forms._check_index(100, 400_000, 100)
    # the cap itself: MAX_BITS bits pass, one more does not
    closed_forms._check_index(2, MAX_BITS, 2)
    with pytest.raises(kfib.DomainError, match=f"cap of {MAX_BITS} bits"):
        closed_forms._check_index(2, MAX_BITS + 1, 2)
    # a table F[0..m] may hold m(m+1)/2 bits (F[j] < 2**j): past the cap from m = 131072
    for m in (131072, 10**9):
        with pytest.raises(kfib.DomainError, match=f"cap of {MAX_BITS} bits"):
            core.kfib_table(2, m)


# -- the option table against the argparse parser it replaced ---------------

FIB_METHODS = (*cli.FIB_ENGINES, "all")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the command line before the option table."""
    p = argparse.ArgumentParser(
        prog="kfib",
        description="Exact k-step Fibonacci numbers, binomial-sum identities, "
                    "and certified dominant-root computations.",
    )
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--quiet", action="store_true",
                   help="text format: print bare values / failures only")
    p.add_argument("--timing", action="store_true",
                   help="report elapsed time on stderr")
    sub = p.add_subparsers(dest="command", required=True)

    fib = sub.add_parser("fib", help="compute F[n] for the k-step sequence")
    fib.add_argument("--k", type=int, required=True)
    fib.add_argument("--n", type=int, required=True)
    fib.add_argument("--method", choices=FIB_METHODS, default="recurrence")

    root = sub.add_parser("rho", help="certified dominant root (or its gap to 2)")
    root.add_argument("--k", type=int, required=True)
    root.add_argument("--bits", type=int, default=64)
    root.add_argument("--epsilon", action="store_true",
                      help="print the gap 2 - rho instead of rho")

    ser = sub.add_parser("series", help="binomial-series partial sums with tail bounds")
    ser.add_argument("--which", choices=("thm1", "thm2", "thm3"), required=True)
    ser.add_argument("--k", type=int, required=True)
    ser.add_argument("--n", type=int)
    ser.add_argument("--a", type=int)
    ser.add_argument("--terms", type=int)
    ser.add_argument("--tol", type=str)

    asym = sub.add_parser("asymptotic", help="dominant-term value or F[n]/approximation ratio")
    asym.add_argument("--k", type=int, required=True)
    asym.add_argument("--n", type=int, required=True)
    asym.add_argument("--bits", type=int, default=64)
    asym.add_argument("--ratio", action="store_true")

    ver = sub.add_parser("verify", help="run cross-engine verification sweeps")
    ver.add_argument("--suite", choices=cli.SUITES + ("all",), default="all")
    ver.add_argument("--k-max", type=int, default=6)
    ver.add_argument("--n-max", type=int, default=200)
    return p


#: values that are not ints or choices: words, decimals, negative decimals,
#: '-' alone, tokens with spaces, underscores and non-ASCII digits
_ODD_VALUES = ("x", "", "1e-5", "-1e-5", "1.5", "-1.5", "-.5", "-1.", "-", "1 2", "-3 ",
               " 7", "1_000", "1__0", "\u0663", "-\u0663", "+4", "json", "thm2", "all")
_ALL_NAMES = sorted({name for table in cli.OPTIONS.values() for name in table} | {"bogus"})


@st.composite
def _option_tokens(draw, table):
    """Tokens for a run of options: the table's required ones and a few more,
    mostly with values of their kind, and now and then any name, an odd
    value, a missing value or a stray token."""
    required = [name for name, spec in table.items() if spec[2] is ...]
    extra = draw(st.lists(st.sampled_from(sorted(table) or _ALL_NAMES), max_size=3))
    tokens = []
    for name in draw(st.permutations(required + extra)):
        if draw(st.integers(0, 19)) == 0:
            name = draw(st.sampled_from(_ALL_NAMES))
        kind, choices, _ = table.get(name, (int, None, None))
        value = draw(st.sampled_from(_ODD_VALUES) if draw(st.integers(0, 9)) == 0
                     else st.sampled_from(choices) if choices
                     else st.integers(-500, 500).map(str))
        form = draw(st.integers(0, 19))
        if form == 0:
            tokens.append(value)  # a stray value
        elif form == 1 or kind is bool and form < 19:
            tokens.append(f"--{name}")
        elif form < 8:
            tokens.append(f"--{name}={value}")
        else:
            tokens += [f"--{name}", value]
    return tokens


def _abbreviates(tokens, table) -> bool:
    """Whether argparse could read one of the tokens as an abbreviated option."""
    names = [*table, "help"]
    for token in tokens:
        name = token[2:].partition("=")[0]
        if token.startswith("--") and name not in names and any(
                n.startswith(name) for n in names):
            return True
    return False


@given(st.data())
@settings(max_examples=600, deadline=None)
def test_option_table_parses_like_argparse(data):
    command = data.draw(st.sampled_from([*filter(None, cli.OPTIONS), "nonsense", None]))
    head = data.draw(_option_tokens(cli.OPTIONS[None]))
    tail = data.draw(_option_tokens(cli.OPTIONS.get(command, {})))
    assume(not _abbreviates(head, cli.OPTIONS[None]))
    assume(not _abbreviates(tail, cli.OPTIONS.get(command) or {}))
    argv = [*head, *([command] if command else []), *tail]
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            expected = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        assert exc.code == 2
        expected = None
    event("argparse accepts" if expected else "argparse refuses")
    try:
        command, opts = cli._parse(argv)
    except cli.UsageError:
        assert expected is None, argv
        return
    assert expected == {"command": command,
                        **{name.replace("-", "_"): v for name, v in opts.items()}}, argv


# -- the JSON writer against json.dumps --------------------------------------

_TEXT = st.one_of(
    st.text(max_size=12),
    st.text(st.characters(min_codepoint=0, max_codepoint=0x9F), max_size=12),
    st.sampled_from(["\x7f", "\x00\x1f", '"\\/', "\b\f\n\r\t", "\u2028\u00e9",
                     "\U0001F600", "\U0010FFFF", "\ud800", "\udfff\ud83d"]))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24)


@given(_JSON)
@example(["\x7f", "\U0001F600"])
@example({"\x00\x1f": ["\u00e9", "plain"], "": [[], {}, [{}]]})
@settings(max_examples=400, deadline=None)
def test_json_writer_matches_json_dumps(x):
    assert cli._json(x) == json.dumps(x, indent=2)


# -- stdout pinned across the rewrite of the parser and the writer ----------

#: argv -> sha256 of stdout as printed when argparse read the command line
#: and the json module wrote the records; re-pinned since: the thm1 series at
#: 4e-150 (no 60-digit cap), the series suite (strings exactly rounded), and
#: the identities suite and all suites (no binomial-form, ordinary-form or
#: ordinary-alt-form cells, and each a's Pascal cells before its reflection
#: cells), fib --method all (the closed forms are one sum, and
#: recurrence-k1 runs only where it powers), and the engines suite and all
#: suites (the power-order-k and power-order-k1 cells), and the series suite
#: and all suites (the dominant-rounding cells)
GOLDEN_STDOUT = {
    "fib --k 3 --n 9": "b76baf6af34cdba21310e1496213a587d3090039337427575190c8d754e3efba",
    "--format json fib --k 3 --n 9 --method all": "504c6ac9f4e162161e4bbf724a52496886e4dbf96d176cafaee88ee200eb3cab",
    "--format csv fib --k 3 --n 40 --method all": "61cafa7894c049aea2bfd8184b77bd1f5bc5c68cca20b16466e197e26aac72c5",
    "--quiet fib --k 2 --n 100": "e6918f3499d94558fbf906814e4bcb3ea1368494fae732edeb54745ac17e40b4",
    "--format json fib --k 8 --n 2000 --method binomial": "8234eff86a89054ea46f34cafd6900c0cb90dbc047ea17583f8dbe0247d96961",
    "fib --k 5 --n 3 --method all": "4e8ce4388f160bcdc3d0a7817bf29f82a7cdb73a3881453491393294848526d2",
    "--format csv fib --k 3 --n 5000 --method ordinary-alt": "a646359d5012e80c74a21f5c6c79935dbd4e2380a68bfb21c30d5a169b194001",
    "--format json fib --k 3 --n 20000 --method recurrence-k1": "b2f3fe990f6600fe52f9880ae95ee9e807db1def4f035daf55d17101dc1e20f5",
    "--timing --format=json fib --k=3 --n=9 --method=ordinary": "204d7337ebca776c940bd8110f9adc2c79793991c1903c4be9343a3256903cd2",
    "rho --k 2 --bits 64": "ca4bf1f9d6aacd35d55bfc1295283d4bc778269b53764edfd03e425a165de960",
    "--format json rho --k 5 --bits 256 --epsilon": "2a1165e658cfed55711980255d017e4f7eea90e2fa2ffa07adf9c5143361ff11",
    "--format csv rho --k 3 --bits 128": "a69792aa6bcea0b42381db4c9388e429a847469e5ad94f5ae549a4d594ea9d76",
    "--quiet rho --k 2 --bits 2048": "0949ba5ecf5c6da6ee5a8b8e9092412fb0f8e2b8fc35b3bd2035fed478ef8fcf",
    "series --which thm1 --k 2 --n 1 --tol 1e-12": "ef7fcf2f4fdc6124d94692541fce635d7ac6c3ab44be4c06c04c42f63d62f33e",
    "--format json series --which thm2 --k 3 --a -30 --tol 1e-12": "986a897cc96ace0b329e09df784678b9245f414d7ec09eea53680926dbd56ebd",
    "--format csv series --which thm3 --k 3 --n 100 --tol 1e-12": "1eba559697e7ce650162d201ede5e1f39f5530d4a0982f8b77de2e817aa7bdb4",
    "--format json series --which thm1 --k 2 --n 3 --terms 10": "b4ddf3ca23b8386f3e3613405968bbd810eaf78d2564d73c08c2d090ac785352",
    "--quiet series --which thm2 --k 2 --a -4 --terms 5": "86b07afd49d9f06461968d3fafc6b2df95cac46360cfb9cddae79696d18f3bd3",
    "--format json series --which thm1 --k 2 --n 1 --tol 4e-150": "d6355e97aa62198875dffc723cf556edb8e6153a11af9be113752c1857c388f1",
    "asymptotic --k 2 --n 10 --bits 40": "30ed77e03c42cbc3aaf2c509efe919b411f44291687306624b9c9b960e9dff88",
    "--format json asymptotic --k 3 --n 100 --bits 64 --ratio": "e3cf94bfc9824be2abddc85b6d8237721973af087a3456f68d950610849ac9d1",
    "--format csv asymptotic --k 4 --n 50 --bits 96": "3f50c4180092eeca4f0ad0ac3c27638c6617d2f1a670e11c16165f9344184c30",
    "--quiet asymptotic --k 3 --n 200 --ratio": "59458f5358f8d31996e74de30ff43d1e589c7dcbc182372d1944194c382a3108",
    "verify --suite erratum --k-max 5 --n-max 30": "611ef12c25c6bd228e5bc381886656e89ae7f0ce3a5d682d4c1abddcef0e9613",
    "--format json verify --suite erratum --k-max 5 --n-max 30": "88d95903929247ca87dd505229044ac8d452d033b69ac42f25774b040d491325",
    "--format csv verify --suite engines --k-max 4 --n-max 40": "ddd33a0c931b77a463ed348a653af6f0f325eea194ab988a251fc2a7268a79c8",
    "--quiet verify --suite erratum --k-max 6 --n-max 40": "9e80c134fe29f0ab85e637915c415a18b2cf6286d434c863fe280d40c314e72c",
    "--format json verify --suite identities --k-max 3 --n-max 30": "af8dc420edc4ce9ee1c747665619bd90f14f09facc48a827dcba84b50df89f63",
    "--format csv verify --suite identities --k-max 3 --n-max 30": "091314260134f573f55779b231d46ad506ded56e87f62d499122ac6ff780dcb5",
    "--format csv verify --suite identities --k-max 6 --n-max 60": "46b3016cd4c4e24c5cbd329665359e5ae814dfa44420f9c3ab3d6c889a569d22",
    "--format json verify --suite series --k-max 3 --n-max 10": "55a5971b639d28ad22be9a6bf3fe89a503ea95dafdf339caeb7ec810bd27af0d",
    "verify --k-max 3 --n-max 20": "f4f075a5349ea4f06f130169a308785014d1a0293cf9e0a315c3e71a2ca64874",
    "verify --suite engines": "fd46354fe953675b35514e455a604057d0bc4a3e793690dca82f8c344c314bc5",
    "verify --suite identities": "fac1574d4278242e3a6998557f015fa12b93bcdc6c8bb5d1ea80e11f538fc346",
    "verify --suite erratum": "8341b833c2cd19ee23346aea783d38f9ba3b00af241d9e649598e846179c569e",
    "--format csv verify --suite identities": "bcba560d8e5759094a869964b1b5800a06ba572839a06e025bad6ff9d45334f7",
    "--format json verify --suite identities": "52e2b81ea521847030c826c7442e5e08bdac9c8d892fb171d0462183a2fafda7",
    "--format csv verify --suite erratum": "a058301f3d3ee3cb5b571a04adfee159a53743e6b75ea9e85cd9e32e6fd64d22",
    "--format json verify --suite erratum": "ca44096dfae46a080660edd84707722d9b56148344f58ee05705fbdc87c58e6d",
    "--format csv verify --suite engines": "9fe5f1b923db21096c2daf65e1f7a519a520cee7bd3f4b8919575ee0f4ac6197",
    "--format json verify --suite engines": "8f4ed5126220c198b2adce9646c9ab930e7da02a6d3a63d73e0bd60bb32d7218",
    "--format csv verify --suite engines --n-max 300": "58074b28789d7fb37418e7ea50fa89a5a0e7420fafb644e74ab38a5cdcd5e402",
}


@pytest.mark.parametrize("line", sorted(GOLDEN_STDOUT))
def test_stdout_golden(capsys, line):
    code, out, _ = run_capture(capsys, *line.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[line]


# -- series --tol is bounded before it is built -----------------------------


@pytest.mark.parametrize("tol", ["1e999999999", "1E-999999999", "1e-3000", "1e-401",
                                 "0.9e-400", "1.1e400", "10000e397", "1" + "0" * 401])
def test_series_tol_out_of_range_exits_3_fast(capsys, tol):
    started = time.perf_counter()
    code, out, err = run_capture(capsys, "series", "--which", "thm1", "--k", "2", "--n", "1",
                                 "--tol", tol)
    assert time.perf_counter() - started < 1
    assert code == 3 and out == ""
    assert err.startswith("domain error: --tol must lie in") and err.count("\n") == 1


def test_tol_reads_what_fraction_reads():
    for text in ("1e-400", "1e400", "0.0001e-396", "1000e397", "4e-150", " 1_0E-1_0 ",
                 "+.5e-3", "1.e5", "1e\u0663", "3/7", "1e5 ", "1" + "0" * 400):
        assert cli._tol(text) == Fraction(text), text
    for text in ("1e 5", "1/3e5", "e5", "1e", ".e5", "inf", "nan", "1/0", "", "1e-5x"):
        with pytest.raises((ValueError, ZeroDivisionError)):
            Fraction(text)
        with pytest.raises(cli.UsageError):
            cli._tol(text)


def test_tol_is_echoed_without_its_surrounding_whitespace(capsys):
    # _tol reads " 1e-5\n" as 1e-5, so the record echoes it as that
    argv = ("series", "--which", "thm1", "--k", "2", "--n", "1", "--tol")
    code, plain, _ = run_capture(capsys, "--format", "csv", *argv, "1e-5")
    assert code == 0
    for tol in ("1e-5\n", " 1e-5\n", "\t1e-5 "):
        code, out, err = run_capture(capsys, "--format", "csv", *argv, tol)
        lines = out.splitlines()
        assert code == 0 and err == "" and out == plain, repr(tol)
        assert len(lines) == 2 and "tol=1e-5;terms=64" in lines[1]
        code, out, _ = run_capture(capsys, *argv, tol)
        assert code == 0 and " tol=1e-5 terms=64 " in out and out.count("\n") == 1


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="CPython < 3.11 has no int-to-str digit limit")
def test_integers_past_the_digit_limit_print_in_full(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        # F[3100] has 648 digits: verify prints it, and the limit comes back
        code, out, err = run_capture(capsys, "--format", "csv", "verify", "--suite", "engines",
                                     "--k-max", "2", "--n-max", "3100")
        assert code == 0 and err == "" and sys.get_int_max_str_digits() == 640
        assert max(len(line) for line in out.splitlines()) > 1290
        # an int option past the limit stays a usage error
        code, _, err = run_capture(capsys, "fib", "--k", "2", "--n", "1" * 700)
        assert code == 2 and "not an integer" in err
    finally:
        sys.set_int_max_str_digits(limit)

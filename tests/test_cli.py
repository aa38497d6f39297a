import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import kfib
from kfib import cli, dominant_root, verify
from kfib.cli import run
from kfib.core import kfib_order_k
from kfib.verify import verify_erratum, verify_series


def run_capture(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fib_single_method(capsys):
    code, out, _ = run_capture(capsys, "fib", "--k", "3", "--n", "9")
    assert code == 0
    assert "-> 44 (exact)" in out


def test_fib_all_methods(capsys):
    code, out, _ = run_capture(capsys, "fib", "--k", "3", "--n", "9", "--method", "all")
    assert code == 0
    assert out.count("-> 44 (exact)") == 5
    for m in ("recurrence", "recurrence-k1", "binomial", "ordinary", "ordinary-alt"):
        assert f"[{m}]" in out


def test_fib_all_skips_excluded_index(capsys):
    code, out, _ = run_capture(capsys, "fib", "--k", "3", "--n", "5", "--method", "all")
    assert code == 0
    assert "[ordinary]" not in out
    assert "[ordinary-alt]" in out


def test_fib_all_below_k_uses_recurrences_only(capsys):
    code, out, _ = run_capture(capsys, "fib", "--k", "5", "--n", "3", "--method", "all")
    assert code == 0
    assert out.count("-> 0 (exact)") == 2
    assert "[binomial]" not in out


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


def test_usage_error_exit_code(capsys):
    assert run_capture(capsys, "fib", "--k", "2")[0] == 2  # missing --n
    assert run_capture(capsys, "nonsense")[0] == 2
    assert run_capture(capsys, "series", "--which", "thm1", "--k", "2")[0] == 2
    assert run_capture(capsys, "series", "--which", "thm2", "--k", "2")[0] == 2
    assert run_capture(capsys, "series", "--which", "thm1", "--k", "2", "--n", "1",
                       "--terms", "4", "--tol", "1e-9")[0] == 2
    assert run_capture(capsys, "series", "--which", "thm1", "--k", "2", "--n", "1",
                       "--tol", "zero")[0] == 2


def test_json_records_schema(capsys):
    code, out, _ = run_capture(capsys, "--format", "json", "fib", "--k", "2",
                               "--n", "10", "--method", "all")
    assert code == 0
    records = json.loads(out)
    assert [r["method"] for r in records] == [
        "recurrence", "recurrence-k1", "binomial", "ordinary", "ordinary-alt",
    ]
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
            "asymptotic-series", "truncation-integer"} <= checks


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
    started = time.perf_counter()
    code, out, err = run_capture(capsys, "series", "--which", "thm2", "--k", "2",
                                 "--a", "-250000")
    assert time.perf_counter() - started < 1
    assert code == 3 and out == ""
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

#: prints [exit code, modules after ``import kfib.cli``, modules after the run]
IMPORT_PROBE = """
import json, sys
import kfib.cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("kfib") or m == "dataclasses")

imported = loaded()
code = kfib.cli.run(sys.argv[1:])
print(json.dumps([code, imported, loaded()]))
"""

#: argv -> kfib modules the command must not load
NOT_LOADED = {
    ("fib", "--k", "3", "--n", "9"): {
        "kfib.closed_forms", "kfib.binomial", "kfib.dyadic", "kfib.certified",
        "kfib.dominant_root", "kfib.series", "kfib.verify"},
    ("fib", "--k", "3", "--n", "9", "--method", "all"): {
        "kfib.certified", "kfib.dominant_root", "kfib.series", "kfib.verify"},
    ("rho", "--k", "2", "--epsilon"): {"kfib.series", "kfib.verify"},
    ("asymptotic", "--k", "3", "--n", "100", "--ratio"): {"kfib.series", "kfib.verify"},
    ("series", "--which", "thm1", "--k", "2", "--n", "1"): {
        "kfib.dominant_root", "kfib.verify"},
    ("series", "--which", "thm2", "--k", "3", "--a", "-2", "--terms", "40"): {
        "kfib.dominant_root", "kfib.verify"},
    ("verify", "--suite", "engines"): {
        "kfib.certified", "kfib.dominant_root", "kfib.series"},
    ("verify", "--suite", "identities"): {
        "kfib.certified", "kfib.dominant_root", "kfib.series"},
    ("verify", "--suite", "erratum"): {
        "kfib.certified", "kfib.dominant_root", "kfib.series"},
}


def _child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=SRC)


def _modules_loaded(argv) -> tuple[int, list[str], list[str]]:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, *argv], env=_child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("argv", sorted(NOT_LOADED), ids=" ".join)
def test_command_loads_only_its_layers(argv):
    code, imported, after = _modules_loaded(argv)
    assert code == 0
    assert imported == ["kfib", "kfib.cli", "kfib.errors"]
    assert not NOT_LOADED[argv] & set(after)
    assert "dataclasses" not in after


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


# -- series output pinned at the benchmark's sizes -------------------------

#: argv -> (value, error_bound, params.terms) as printed before the series
#: were summed in integers; the sums must stay exact, so these never move
SERIES_PINNED = {
    ("thm1", "--k", "2", "--n", "1", "--tol", "1e-25"): (
        "1.61803398874989484820458683436563811772031084", "3.7e-42", "512"),
    ("thm1", "--k", "2", "--n", "1", "--tol", "1e-50"): (
        "1.618033988749894848204586834365638117720309179805762862135449", "5.1e-61",
        "1024"),
    ("thm1", "--k", "2", "--n", "1", "--tol", "1e-100"): (
        "1.618033988749894848204586834365638117720309179805762862135449", "5.1e-61",
        "2048"),
    ("thm1", "--k", "2", "--n", "1", "--tol", "1e-150"): (
        "1.618033988749894848204586834365638117720309179805762862135449", "5.1e-61",
        "2048"),
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

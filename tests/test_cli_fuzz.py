"""Fuzz the command line, one child process per example.

Each example runs ``python -m kfib.cli`` on an argv of one command, under a
1 GiB address-space limit and a timeout, both set on the child alone.  The
argv hold sizes that finish well under a second, malformed tokens, and
10**20-sized values, which must be refused.  No run may end in a traceback;
its exit code is 0, 2 or 3, and a 3 prints one ``domain error:`` line.
JSON output parses, a ``fib`` value is the plain list stepping's, and a
``rho``, ``asymptotic`` or ``series`` value lies within its error bound of
an mpmath reference, plus the reference's own error.

Larger sizes, where one run takes seconds, belong to a time budget per
command (the ROADMAP's time-budget item), not to this test.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import kfib
from oracles import kfib_stepping, mpmath_asymptotic, mpmath_dominant_root, mpmath_series_limit

resource = pytest.importorskip("resource")

#: the directory holding the kfib package, for the child interpreters
SRC = str(Path(kfib.__file__).resolve().parents[1])

HUGE = 10**20

#: tokens that no option reads as its value, or that name no option
MALFORMED = ("x", "1e3", "", "--", "-", "=", "--k", "--k=", "1.5", "0x10", "--bogus", "nan",
             "--n=1=2", "--quiet")

#: --tol values the command refuses: out of range, or not a decimal number
BAD_TOLS = ("1e-999999", "1e401", "0", "-1e-3", "zero", "1e 5")


COMMANDS = ("fib", "rho", "asymptotic", "series", "verify")


@st.composite
def argvs(draw, command: str) -> list[str]:
    """A command line of ``command``, perhaps with one token spoiled."""

    def size(lo: int, hi: int, *bad: int) -> str:
        # an int in [lo, hi], or one value in eight refused: a 10**20-sized
        # one, or one of ``bad``
        refused = draw(st.sampled_from((False,) * 7 + (True,)))
        return str(draw(st.sampled_from((-HUGE, HUGE, *bad)) if refused else st.integers(lo, hi)))

    argv = ["--format", draw(st.sampled_from(("json", "json", "text", "csv"))), command]
    k = size(2, 40, 0, 1)  # the order, for every command but verify
    if command == "fib":
        argv += ["--k", k, "--n", size(0, 3000, -1), "--method",
                 draw(st.sampled_from(("recurrence", "recurrence-k1", "binomial", "ordinary",
                                       "ordinary-alt", "all")))]
    elif command == "rho":
        argv += ["--k", k, "--bits", size(8, 512, 0, 7)]
        argv += ["--epsilon"] * draw(st.booleans())
    elif command == "asymptotic":
        argv += ["--k", k, "--n", size(0, 3000, -1), "--bits", size(8, 512, 0, 7)]
        argv += ["--ratio"] * draw(st.booleans())
    elif command == "series":
        which = draw(st.sampled_from(("thm1", "thm2", "thm3")))
        argv += ["--which", which, "--k", k]
        argv += ["--a", size(-300, 300)] if which == "thm2" else ["--n", size(2, 3000, -1, 1)]
        bound = draw(st.integers(0, 5))  # none, --terms, or a --tol, one in six refused
        if bound == 1:
            argv += ["--terms", size(0, 200, -1)]
        elif bound == 5:
            argv += ["--tol", draw(st.sampled_from(BAD_TOLS))]
        elif bound > 1:
            mant, exp = draw(st.integers(1, 9)), draw(st.integers(0, 100))
            argv += ["--tol", f"{mant}e-{exp}"]
    else:
        suites = ("engines", "identities", "series", "erratum", "all")
        argv += ["--suite", draw(st.sampled_from(suites)), "--k-max", size(2, 4, 0, 1),
                 "--n-max", size(0, 40, -1)]
    spoil = draw(st.sampled_from((None,) * 8 + ("replace", "delete")))
    if spoil:
        i = draw(st.integers(2, len(argv) - 1))  # the command or one of its tokens
        if spoil == "replace":
            argv[i] = draw(st.sampled_from(MALFORMED))
        else:
            del argv[i]
    return argv


def _limit() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _log2(x: Fraction) -> int:
    """About log2|x| for a nonzero x, from its bit lengths."""
    return abs(x.numerator).bit_length() - x.denominator.bit_length()


def _reference(rec: dict) -> tuple[Fraction, Fraction]:
    """(approx, err) from mpmath for an approximate record, at a precision
    whose error lies well below the record's bound."""
    value, bound = Fraction(rec["value"]), Fraction(rec["error_bound"])
    need = max(0, _log2(value) if value else 0) - _log2(bound) + 16
    bits = max(8, (need - 55) // 2 + 1)  # the references work at 2*bits + 64
    p = {key: int(v) for key, v in rec["params"].items() if key not in ("quantity", "tol")}
    if rec["command"] == "rho":
        root, err = mpmath_dominant_root(p["k"], bits)
        return (2 - root if rec["params"]["quantity"] == "epsilon" else root), err
    if rec["command"] == "asymptotic":
        return mpmath_asymptotic(p["k"], p["n"], bits, rec["params"]["quantity"] == "ratio")
    which = rec["method"].partition("-")[0]
    return mpmath_series_limit(which, p["k"], p["a" if which == "thm2" else "n"], bits)


def _check_json(out: str) -> None:
    data = json.loads(out)
    for rec in data:
        if "suite" in rec:
            assert rec["failures"] == 0
        elif rec["command"] == "fib":
            k, n = int(rec["params"]["k"]), int(rec["params"]["n"])
            assert rec["exact"] is True
            assert rec["value"] == str(0 if n < k - 1 else kfib_stepping(k, n))
        elif rec["exact"]:
            # the one exact approximate-command value: asymptotic --ratio at a zero seed
            assert (rec["command"], rec["value"]) == ("asymptotic", "0")
        else:
            approx, err = _reference(rec)
            assert abs(Fraction(rec["value"]) - approx) <= Fraction(rec["error_bound"]) + err


@pytest.mark.parametrize("command", COMMANDS)
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_fuzz(command, data):
    argv = data.draw(argvs(command))
    proc = subprocess.run([sys.executable, "-m", "kfib.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True,
                          timeout=20, preexec_fn=_limit)
    event(f"{command} exit {proc.returncode}")
    assert "Traceback" not in proc.stderr
    assert proc.returncode in (0, 2, 3), proc.stderr
    if proc.returncode == 3:
        assert proc.stdout == ""
        assert proc.stderr.startswith("domain error:") and proc.stderr.count("\n") == 1
    elif proc.returncode == 2:
        assert proc.stdout == "" and "kfib: error:" in proc.stderr
    else:
        assert proc.stderr == ""
        if argv[:2] == ["--format", "json"]:
            _check_json(proc.stdout)

"""Command-line front end.

Subcommands expose every computation of the library with deterministic,
machine-readable output.  All numeric payloads are decimal strings (never
floats): exact results carry no error bound, approximate ones always do.
Exact integers print in full, however many digits they have; an
approximate value's digit count and upper-rounded bound come from a few
integer compares.  ``rho`` reports its root as method "newton": Newton
steps certified by an exact sign change of the characteristic polynomial.

A command imports only the layers it runs: importing this module loads
``kfib.errors`` and nothing else of the package, and each library function
a handler calls is imported on first use (``fib --method recurrence``
loads ``core`` alone, ``rho`` the root, ``series`` no ball type, and
``verify`` the root and the series only for its series suite).

Exit codes: 0 success, 2 usage error, 3 domain error (including a series
whose tail bound would need terms past the probe cap, and a verify range
with no cells), 4 verification failure, 5 a certificate that failed to
verify (an internal error).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import namedtuple
from fractions import Fraction
from importlib import import_module

from .errors import CertificationError, DomainError, IntegralityError, OracleCapError

TYPE_CHECKING = False  # true for type checkers; importing typing costs start-up time
if TYPE_CHECKING:
    from .certified import CertifiedReal
    from .series import SeriesPartialSum
    from .verify import VerifyReport


def _load(name: str):
    """The library function ``name``, imported on first use.

    The package resolves each public name from its home module.  The
    function is kept as a module global, where a top-level ``from .x
    import f`` would have put it, and every call reads it from there, so
    whatever replaces that global (a test double, a tracing wrapper) is
    what runs.
    """
    g = globals()
    if name not in g:
        g[name] = getattr(import_module(__package__), name)
    return g[name]


class OutputRecord(namedtuple("OutputRecord",
                              "command params value exact error_bound method")):
    """One result: ``params`` maps str to str, ``exact`` is a bool, and the
    other fields are strings; ``error_bound`` is None when exact."""

    __slots__ = ()


# -- decimal rendering ---------------------------------------------------


def _int_decimal(x: int) -> str:
    """str(x) with CPython's int-to-str digit limit lifted for this call only."""
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.11: no limit
        return str(x)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


def _fraction_decimal(x: Fraction, digits: int) -> str:
    scaled = round(x * 10**digits)
    sign = "-" if scaled < 0 else ""
    body = _int_decimal(abs(scaled))
    if digits == 0:
        return sign + body
    body = body.rjust(digits + 1, "0")
    return f"{sign}{body[:-digits]}.{body[-digits:]}"


def _scientific(x: Fraction) -> tuple[int, int, int]:
    """(e, n, m) with x = 10**e * n/m and 1 <= n/m < 10, for x > 0."""
    n, m = x.numerator, x.denominator
    e = (n.bit_length() - m.bit_length() - 1) * 30103 // 100000 - 1  # <= log10 x
    n, m = (n * 10**-e, m) if e < 0 else (n, m * 10**e)
    while n >= 10 * m:
        m *= 10
        e += 1
    return e, n, m


def _digits_for(bound: Fraction, cap: int = 400) -> int:
    return min(cap, max(0, -_scientific(bound)[0])) if bound > 0 else cap


def _bound_decimal(x: Fraction) -> str:
    """Upper-rounded scientific rendering with two significant digits."""
    e, n, m = _scientific(x)
    tenths = -(-10 * n // m)  # ceil, in 10..100
    if tenths == 100:
        tenths, e = 10, e + 1
    return f"{tenths // 10}.{tenths % 10}e{e:+03d}"


def _certified_record(command: str, params: dict[str, str], value: CertifiedReal,
                      method: str) -> OutputRecord:
    if value.err == 0 and value.approx.denominator == 1:
        return OutputRecord(command, params, _int_decimal(value.approx.numerator),
                            True, None, method)
    digits = _digits_for(value.err) if value.err else 60
    shown = _fraction_decimal(value.approx, digits)
    total = value.err + Fraction(1, 2 * 10**digits)
    return OutputRecord(command, params, shown, False, _bound_decimal(total), method)


def _partial_record(command: str, params: dict[str, str], p: SeriesPartialSum,
                    method: str) -> OutputRecord:
    digits = min(_digits_for(p.tail_bound) + 2, 60)
    shown = _fraction_decimal(p.value, digits)
    total = p.tail_bound + Fraction(1, 2 * 10**digits)
    params = dict(params, terms=str(p.terms_used))
    return OutputRecord(command, params, shown, False, _bound_decimal(total), method)


# -- output formatting ---------------------------------------------------


def _record_json(r: OutputRecord) -> dict:
    out = {
        "command": r.command,
        "params": r.params,
        "value": r.value,
        "exact": r.exact,
    }
    if not r.exact:
        out["error_bound"] = r.error_bound
    out["method"] = r.method
    return out


def _emit_records(records: list[OutputRecord], fmt: str, quiet: bool) -> None:
    if fmt == "json":
        print(json.dumps([_record_json(r) for r in records], indent=2))
    elif fmt == "csv":
        print("command,method,params,value,exact,error_bound")
        for r in records:
            params = ";".join(f"{k}={v}" for k, v in r.params.items())
            bound = r.error_bound or ""
            print(f"{r.command},{r.method},{params},{r.value},{r.exact},{bound}")
    else:
        for r in records:
            if quiet:
                print(r.value)
                continue
            params = " ".join(f"{k}={v}" for k, v in r.params.items())
            tail = "(exact)" if r.exact else f"± {r.error_bound}"
            print(f"{r.command}[{r.method}] {params} -> {r.value} {tail}")


def _emit_reports(reports: list[VerifyReport], fmt: str, quiet: bool) -> None:
    if fmt == "json":
        payload = [
            {
                "suite": rep.suite,
                "cells": [
                    {"check": c.check, "k": str(c.k), "n": str(c.n), "pass": c.ok,
                     "expected": c.expected, "actual": c.actual}
                    for c in rep.cells
                ],
                "failures": rep.failures,
            }
            for rep in reports
        ]
        print(json.dumps(payload, indent=2))
        return
    if fmt == "csv":
        print("suite,check,k,n,pass,expected,actual")
        for rep in reports:
            for c in rep.cells:
                print(f"{rep.suite},{c.check},{c.k},{c.n},{c.ok},{c.expected},{c.actual}")
        return
    total = 0
    for rep in reports:
        total += rep.failures
        print(f"suite {rep.suite}: {len(rep.cells)} cells, {rep.failures} failures")
        for c in rep.cells:
            if not c.ok:
                print(f"  FAIL {c.check} k={c.k} n={c.n}: "
                      f"expected {c.expected}, got {c.actual}")
            elif c.check == "divergence" and not quiet:
                print(f"  divergence (expected): k={c.k} n={c.n} "
                      f"correct={c.expected} misranged={c.actual}")
    print(f"TOTAL failures: {total}")


# -- argument parsing ----------------------------------------------------

#: fib --method -> the engine that computes it
FIB_ENGINES = {
    "recurrence": "kfib_order_k",
    "recurrence-k1": "kfib_order_k1",
    "binomial": "kfib_binomial",
    "ordinary": "kfib_ordinary",
    "ordinary-alt": "kfib_ordinary_alt",
}
FIB_METHODS = (*FIB_ENGINES, "all")
#: the suites of ``kfib.verify.SUITES``, named here so that building the
#: parser does not import the verify sweeps
SUITES = ("engines", "identities", "series", "erratum")


def build_parser() -> argparse.ArgumentParser:
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
    ver.add_argument("--suite", choices=SUITES + ("all",), default="all")
    ver.add_argument("--k-max", type=int, default=6)
    ver.add_argument("--n-max", type=int, default=200)
    return p


# -- subcommand handlers -------------------------------------------------


def _run_fib(args, parser) -> tuple[list[OutputRecord], int]:
    k, n = args.k, args.n

    def engine(method):
        return _load(FIB_ENGINES[method])

    params = {"k": str(k), "n": str(n)}
    if args.method != "all":
        value = engine(args.method)(k, n)
        return [OutputRecord("fib", params, _int_decimal(value), True, None,
                             args.method)], 0
    methods = ["recurrence", "recurrence-k1"]
    if n >= k:
        methods.append("binomial")
        if n != 2 * k - 1:
            methods.append("ordinary")
        methods.append("ordinary-alt")
    records = [OutputRecord("fib", params, _int_decimal(engine(m)(k, n)), True, None, m)
               for m in methods]
    values = {r.value for r in records}
    if len(values) > 1:
        print("method disagreement: " + ", ".join(f"{r.method}={r.value}" for r in records),
              file=sys.stderr)
        return records, 4
    return records, 0


def _run_rho(args, parser) -> tuple[list[OutputRecord], int]:
    quantity = "epsilon" if args.epsilon else "rho"
    params = {"k": str(args.k), "bits": str(args.bits), "quantity": quantity}
    value = _load(quantity)(args.k, args.bits)
    return [_certified_record("rho", params, value, "newton")], 0


def _run_series(args, parser) -> tuple[list[OutputRecord], int]:
    which = args.which
    if args.terms is not None and args.tol is not None:
        parser.error("--terms and --tol are mutually exclusive")
    if which in ("thm1", "thm3"):
        if args.n is None:
            parser.error(f"--n is required for --which {which}")
        param_val = args.n
        key = "n"
        builder = "rho_power_series" if which == "thm1" else "asymptotic_series"
    else:
        if args.a is None:
            parser.error("--a is required for --which thm2")
        param_val = args.a
        key = "a"
        builder = "hermite_series"
    params = {"k": str(args.k), key: str(param_val)}
    if args.terms is not None:
        p = _load(builder)(args.k, param_val).partial(args.terms)
        return [_partial_record("series", params, p, f"{which}-partial")], 0
    try:
        tol = Fraction(args.tol if args.tol is not None else "1e-12")
    except (ValueError, ZeroDivisionError):
        parser.error(f"--tol: not a decimal number: {args.tol!r}")
    if tol <= 0:
        parser.error("--tol must be positive")
    # one series for the whole run: each doubling extends its running sum
    series = _load(builder)(args.k, param_val)
    p = _load("adaptive_partial")(series.partial, tol)
    return [_partial_record("series", dict(params, tol=str(args.tol or "1e-12")),
                            p, f"{which}-adaptive")], 0


def _run_asymptotic(args, parser) -> tuple[list[OutputRecord], int]:
    quantity, name = ("ratio", "asymptotic_ratio") if args.ratio else ("value", "asymptotic")
    params = {"k": str(args.k), "n": str(args.n), "bits": str(args.bits),
              "quantity": quantity}
    value = _load(name)(args.k, args.n, args.bits)
    return [_certified_record("asymptotic", params, value, "dominant-root")], 0


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    started = time.perf_counter()
    try:
        if args.command == "verify":
            names = SUITES if args.suite == "all" else (args.suite,)
            reports = _load("run_suites")(names, args.k_max, args.n_max)
            _emit_reports(reports, args.format, args.quiet)
            code = 4 if any(rep.failures for rep in reports) else 0
        else:
            handler = {
                "fib": _run_fib,
                "rho": _run_rho,
                "series": _run_series,
                "asymptotic": _run_asymptotic,
            }[args.command]
            try:
                records, code = handler(args, parser)
            except SystemExit as exc:  # parser.error inside a handler
                return exc.code if isinstance(exc.code, int) else 2
            _emit_records(records, args.format, args.quiet)
    except (DomainError, OracleCapError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except (CertificationError, IntegralityError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    if args.timing:
        print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

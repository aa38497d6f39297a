"""Command-line front end.

Subcommands expose every computation of the library with deterministic,
machine-readable output.  All numeric payloads are decimal strings (never
floats): exact results carry no error bound, approximate ones always do
(rendered by ``kfib.render``), and exact integers print in full, however
many digits they have.  ``rho`` reports its root as method "newton":
Newton steps certified by an exact sign change of its polynomial.

A command imports only what it runs: importing this module loads
``kfib.errors`` and nothing else of the package, and no argument parser,
JSON encoder or rational type.  Each library function a handler calls is
imported on first use (``fib --method recurrence`` loads ``core`` alone).

The command line is read from one table, ``OPTIONS``.  Global flags come
before the command; an option is ``--name value`` or ``--name=value``
under its full name (no abbreviations), and its last repeat wins.
``-h``/``--help`` prints usage lines built from the table.  A malformed
command line prints a ``usage:`` line and ``kfib: error: ...`` on stderr.

Exit codes: 0 success, 2 usage error (including a series option its
theorem does not take), 3 domain error (including a ``--tol`` outside
[1e-400, 1e400], a recurrence index n >= sys.maxsize, a request whose
numbers would pass the size cap ``errors.MAX_BITS``, among them a series
whose terms and a verify range whose tables would, and a verify range
with no cells), 4 verification failure, 5 a certificate that failed to
verify (an internal error), and 141 (128 + SIGPIPE, what a shell reports
for a writer that SIGPIPE ends) when the reader closes stdout before the
output ends, as ``| head`` does.
"""

import os
import sys
import time
from collections import namedtuple
from importlib import import_module

from .errors import CertificationError, DomainError, IntegralityError

TYPE_CHECKING = False  # true for type checkers; importing typing costs start-up time
if TYPE_CHECKING:
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


# -- output formatting ---------------------------------------------------


def _approx_record(command: str, params: dict[str, str], x, err, method: str,
                   spare: int = 0) -> OutputRecord:
    """The rational x within err >= 0, shown to the digits err supports plus
    ``spare``, at most ``DIGITS_CAP`` after the point; an integer x with
    err == 0 (a zero seed of ``asymptotic --ratio``) is an exact record."""
    if err == 0 and x.denominator == 1:
        return OutputRecord(command, params, str(x.numerator), True, None, method)
    from .render import DIGITS_CAP, approx, digits_for  # approximate values only

    shown, bound = approx(x, err, min(digits_for(err) + spare, DIGITS_CAP))
    return OutputRecord(command, params, shown, False, bound, method)


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
            "\b": "\\b", "\f": "\\f"}


def _json_char(c: str) -> str:
    o = ord(c)
    if o > 0xFFFF:  # a surrogate pair
        o -= 0x10000
        return f"\\u{0xD800 | o >> 10:04x}\\u{0xDC00 | o & 0x3FF:04x}"
    return _ESCAPES.get(c) or (c if 32 <= o < 127 else f"\\u{o:04x}")


def _json(x, indent: str = "") -> str:
    """``json.dumps(x, indent=2)`` for str-keyed dicts, lists, str, int, bool and None."""
    if isinstance(x, str):
        if not (x.isascii() and x.isprintable()) or '"' in x or "\\" in x:
            x = "".join(map(_json_char, x))
        return f'"{x}"'
    if x is None or isinstance(x, bool):
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = indent + "  "
    if isinstance(x, dict):
        items, brackets = [f"{_json(k)}: {_json(v, inner)}" for k, v in x.items()], "{}"
    else:
        items, brackets = [_json(v, inner) for v in x], "[]"
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _emit_records(records: list[OutputRecord], fmt: str, quiet: bool) -> None:
    if fmt == "json":
        # the record's fields in order, error_bound only where not exact
        print(_json([{k: v for k, v in r._asdict().items()
                      if k != "error_bound" or not r.exact} for r in records]))
    elif fmt == "csv":
        print("command,method,params,value,exact,error_bound")
        for r in records:
            params = ";".join(f"{k}={v}" for k, v in r.params.items())
            bound = r.error_bound or ""
            print(f"{r.command},{r.method},{params},{r.value},{r.exact},{bound}")
    else:
        for r in records:
            params = " ".join(f"{k}={v}" for k, v in r.params.items())
            tail = "(exact)" if r.exact else f"± {r.error_bound}"
            print(r.value if quiet else f"{r.command}[{r.method}] {params} -> {r.value} {tail}")


def _emit_reports(reports: "list[VerifyReport]", fmt: str, quiet: bool) -> None:
    if fmt == "json":
        print(_json([{"suite": rep.suite,
                      "cells": [{"check": c.check, "k": str(c.k), "n": str(c.n), "pass": c.ok,
                                 "expected": str(c.expected), "actual": str(c.actual)}
                                for c in rep.cells],
                      "failures": rep.failures} for rep in reports]))
        return
    if fmt == "csv":
        print("suite,check,k,n,pass,expected,actual")
        for rep in reports:
            for c in rep.cells:
                print(f"{rep.suite},{c.check},{c.k},{c.n},{c.ok},{c.expected!s},{c.actual!s}")
        return
    for rep in reports:
        print(f"suite {rep.suite}: {len(rep.cells)} cells, {rep.failures} failures")
        # only the failing cells and, unless quiet, the divergences
        for c in rep.cells.select(() if quiet else ("divergence",)):
            if not c.ok:
                print(f"  FAIL {c.check} k={c.k} n={c.n}: "
                      f"expected {c.expected!s}, got {c.actual!s}")
            else:
                print(f"  divergence (expected): k={c.k} n={c.n} "
                      f"correct={c.expected!s} misranged={c.actual!s}")
    print(f"TOTAL failures: {sum(rep.failures for rep in reports)}")


# -- argument parsing ----------------------------------------------------

#: fib --method -> the engine that computes it
FIB_ENGINES = {"recurrence": "kfib_order_k", "recurrence-k1": "kfib_order_k1",
               "binomial": "kfib_binomial", "ordinary": "kfib_ordinary",
               "ordinary-alt": "kfib_ordinary_alt"}
#: the suites of ``kfib.verify.SUITES``, named here so that reading the
#: command line does not import the verify sweeps
SUITES = ("engines", "identities", "series", "erratum")

#: command (None: the global flags) -> option -> (type, choices, default);
#: a bool option is a flag, and the default ... marks a required option
OPTIONS = {
    None: {"format": (str, ("text", "json", "csv"), "text"), "quiet": (bool, None, False),
           "timing": (bool, None, False)},
    "fib": {"k": (int, None, ...), "n": (int, None, ...),
            "method": (str, (*FIB_ENGINES, "all"), "recurrence")},
    "rho": {"k": (int, None, ...), "bits": (int, None, 64), "epsilon": (bool, None, False)},
    "series": {"which": (str, ("thm1", "thm2", "thm3"), ...), "k": (int, None, ...),
               "n": (int, None, None), "a": (int, None, None), "terms": (int, None, None),
               "tol": (str, None, None)},
    "asymptotic": {"k": (int, None, ...), "n": (int, None, ...), "bits": (int, None, 64),
                   "ratio": (bool, None, False)},
    "verify": {"suite": (str, (*SUITES, "all"), "all"), "k-max": (int, None, 6),
               "n-max": (int, None, 200)},
}


class UsageError(Exception):
    """A malformed command line: ``UsageError(command or None, message)``."""


def _usage(command: str | None) -> str:
    words = ["usage: kfib" if command is None else f"usage: kfib {command}", "[-h]"]
    for name, (kind, choices, default) in OPTIONS[command].items():
        metavar = "{%s}" % ",".join(choices) if choices else name.replace("-", "_").upper()
        word = f"--{name}" if kind is bool else f"--{name} {metavar}"
        words.append(word if default is ... else f"[{word}]")
    if command is None:
        words.append("{%s} ..." % ",".join(filter(None, OPTIONS)))
    return " ".join(words)


def _is_value(token: str, table: dict) -> bool:
    """Whether argparse reads ``token`` as a value: not an option of ``table``
    (bare or with =value), and not starting with '-' unless it is '-', a
    negative number, or holds a space."""
    rest = token[1:]
    return not (token[:2] == "--" and token[2:].partition("=")[0] in table) and (
        token[:1] != "-" or not rest or " " in token
        or rest.replace(".", "", 1).isdecimal() and rest[-1] != ".")


def _parse(argv: list[str]) -> tuple[str | None, dict | None]:
    """(command, option name -> value) read from argv; the options are None
    where -h/--help asked for the usage of the command."""
    command, i = None, 0
    opts = {name: spec[2] for name, spec in OPTIONS[None].items()}
    while i < len(argv):
        token, i = argv[i], i + 1
        if token in ("-h", "--help"):
            return command, None
        if _is_value(token, OPTIONS[command]):
            if command is not None or token not in OPTIONS:
                raise UsageError(command, f"unrecognized argument or command: {token}")
            command = token
            opts.update((name, spec[2]) for name, spec in OPTIONS[command].items())
            continue
        name, eq, value = token[2:].partition("=")
        kind, choices, _ = OPTIONS[command].get(name if token[:2] == "--" else "", (None,) * 3)
        if kind is None:
            raise UsageError(command, f"unrecognized argument: {token}")
        if kind is bool:
            if eq:
                raise UsageError(command, f"--{name} takes no value")
            value = True
        elif not eq:
            if i == len(argv) or not _is_value(argv[i], OPTIONS[command]):
                raise UsageError(command, f"--{name} expects a value")
            value, i = argv[i], i + 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(command, f"--{name}: not an integer: {value!r}") from None
        if choices and value not in choices:
            raise UsageError(command, f"--{name}: {value!r} is not one of {', '.join(choices)}")
        opts[name] = value
    if command is None:
        raise UsageError(None, "a command is required")
    missing = [f"--{name}" for name in OPTIONS[command] if opts[name] is ...]
    if missing:
        raise UsageError(command, f"missing required options: {', '.join(missing)}")
    return command, opts


# -- subcommand handlers -------------------------------------------------


def _run_fib(opts: dict) -> tuple[list[OutputRecord], int]:
    k, n, method = opts["k"], opts["n"], opts["method"]
    methods = [method]
    if method == "all":
        from .core import _powers

        # each independent route once: below the powering cut both recurrences
        # come from one order-k stepping, and the closed forms need n >= k
        methods = ["recurrence"]
        if _powers(k, n):
            methods.append("recurrence-k1")
        if n >= k:
            methods.append("binomial")
    params = {"k": str(k), "n": str(n)}
    records = [OutputRecord("fib", params, str(_load(FIB_ENGINES[m])(k, n)), True, None, m)
               for m in methods]
    if len({r.value for r in records}) > 1:
        print("method disagreement: " + ", ".join(f"{r.method}={r.value}" for r in records),
              file=sys.stderr)
        return records, 4
    return records, 0


def _run_rho(opts: dict) -> tuple[list[OutputRecord], int]:
    quantity = "epsilon" if opts["epsilon"] else "rho"
    params = {"k": str(opts["k"]), "bits": str(opts["bits"]), "quantity": quantity}
    ball = _load(quantity)(opts["k"], opts["bits"])
    return [_approx_record("rho", params, ball.approx, ball.err, "newton")], 0


def _tol(text: str):
    """--tol as a Fraction, refused outside [10**-DIGITS_CAP, 10**DIGITS_CAP]
    from its decimal exponent before 10**exponent is built."""
    from fractions import Fraction  # the one use of Fraction here

    from .render import DIGITS_CAP

    mant, e, exp = text.replace("E", "e").partition("e")
    try:
        if exp[:1].isspace():  # int() would take what Fraction() refuses
            raise ValueError
        tol, shift = Fraction(mant + "e0" if e else mant), int(exp) if e else 0
    except (ValueError, ZeroDivisionError):
        raise UsageError("series", f"--tol: not a decimal number: {text!r}") from None
    if tol <= 0:
        raise UsageError("series", "--tol must be positive")
    # 10**-len(mant) <= tol < 10**len(mant) here, so a larger shift is out of range
    if abs(shift) <= DIGITS_CAP + len(mant):
        tol *= Fraction(10) ** shift
        if Fraction(1, 10**DIGITS_CAP) <= tol <= 10**DIGITS_CAP:
            return tol
    raise DomainError(f"--tol must lie in [1e-{DIGITS_CAP}, 1e{DIGITS_CAP}], got {text}")


def _run_series(opts: dict) -> tuple[list[OutputRecord], int]:
    which, k, terms, tol = opts["which"], opts["k"], opts["terms"], opts["tol"]
    if terms is not None and tol is not None:
        raise UsageError("series", "--terms and --tol are mutually exclusive")
    key, other = ("a", "n") if which == "thm2" else ("n", "a")
    if opts[key] is None:
        raise UsageError("series", f"--{key} is required for --which {which}")
    if opts[other] is not None:
        raise UsageError("series", f"--{other} is not an option of --which {which}")
    builder = {"thm1": "rho_power_series", "thm2": "hermite_series",
               "thm3": "asymptotic_series"}[which]
    params = {"k": str(k), key: str(opts[key])}
    if terms is not None:
        p, method = _load(builder)(k, opts[key]).partial(terms), f"{which}-partial"
    else:
        # Fraction and int skip surrounding whitespace; the record must not carry it
        params["tol"] = tol = "1e-12" if tol is None else tol.strip()
        bound = _tol(tol)
        # one series for the whole run: each doubling extends its running sum
        p = _load("adaptive_partial")(_load(builder)(k, opts[key]).partial, bound)
        method = f"{which}-adaptive"
    params["terms"] = str(p.terms_used)
    return [_approx_record("series", params, p.value, p.tail_bound, method, spare=2)], 0


def _run_asymptotic(opts: dict) -> tuple[list[OutputRecord], int]:
    quantity, name = ("ratio", "asymptotic_ratio") if opts["ratio"] else ("value", "asymptotic")
    params = {"k": str(opts["k"]), "n": str(opts["n"]), "bits": str(opts["bits"]),
              "quantity": quantity}
    ball = _load(name)(opts["k"], opts["n"], opts["bits"])
    return [_approx_record("asymptotic", params, ball.approx, ball.err, "dominant-root")], 0


def run(argv: list[str] | None = None) -> int:
    """Run one command line; the exit code.  Once argv is read (an int option
    of more digits than CPython's int-to-str limit stays a usage error), the
    limit is lifted so that integers print in full, and restored on return."""
    limit = 0
    try:
        command, opts = _parse(sys.argv[1:] if argv is None else argv)
        if opts is None:
            print("\n".join(map(_usage, [command] if command else OPTIONS)))
            return 0
        if hasattr(sys, "get_int_max_str_digits"):  # Python >= 3.11
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
        started = time.perf_counter()
        if command == "verify":
            names = SUITES if opts["suite"] == "all" else (opts["suite"],)
            reports = _load("run_suites")(names, opts["k-max"], opts["n-max"])
            _emit_reports(reports, opts["format"], opts["quiet"])
            code = 4 if any(rep.failures for rep in reports) else 0
        else:
            handler = {"fib": _run_fib, "rho": _run_rho, "series": _run_series,
                       "asymptotic": _run_asymptotic}[command]
            records, code = handler(opts)
            _emit_records(records, opts["format"], opts["quiet"])
        if opts["timing"]:
            print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
        return code
    except UsageError as exc:
        command, message = exc.args
        print(f"{_usage(command)}\nkfib: error: {message}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except (CertificationError, IntegralityError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


#: exit code when the reader closes stdout early: 128 + SIGPIPE
EXIT_PIPE_CLOSED = 141


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
    except BrokenPipeError:
        # stdout now points at devnull, so the flush at shutdown stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE_CLOSED
    sys.exit(code)


if __name__ == "__main__":
    main()

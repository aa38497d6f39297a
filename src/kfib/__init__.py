"""Exact k-step Fibonacci numbers, binomial-sum identities, and certified
dominant-root asymptotics.

Everything is computed in exact arithmetic (integers, dyadic rationals,
or rationals with explicit error bounds); no floating point enters any
result.

Importing the package loads none of its modules: each public name is
imported from its home module on first access (PEP 562), so ``kfib.rho``
loads the root and what it needs, and ``import kfib.cli`` loads only the
command line front end.
"""

from importlib import import_module

__version__ = "0.1.0"

#: home module -> the public names it defines
_EXPORTS = {
    "binomial": ("binom",),
    "certified": ("CertifiedReal",),
    "closed_forms": ("kfib_binomial", "kfib_binomial_shifted", "kfib_ordinary",
                     "kfib_ordinary_alt", "kfib_ordinary_erroneous"),
    "core": ("ORACLE_CAP", "count_compositions", "kfib_order_k", "kfib_order_k1",
             "kfib_table"),
    "dominant_root": ("asymptotic", "asymptotic_ratio", "epsilon", "rho"),
    "dyadic": ("Dyadic",),
    "errors": ("CertificationError", "DomainError", "IntegralityError", "OracleCapError"),
    "series": ("SeriesPartialSum", "adaptive_partial", "asymptotic_series",
               "hermite_series", "rho_power_series", "term_ratio_limit"),
    "verify": ("VerifyCell", "VerifyReport", "run_suites"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

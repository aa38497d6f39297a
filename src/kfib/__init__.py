"""Exact k-step Fibonacci numbers, binomial-sum identities, and certified
dominant-root asymptotics.

Everything is computed in exact arithmetic (integers, dyadic rationals,
or rationals with explicit error bounds); no floating point enters any
result.
"""

from .binomial import binom
from .certified import CertifiedReal
from .closed_forms import (
    fib_binomial,
    kfib_binomial,
    kfib_binomial_shifted,
    kfib_ordinary,
    kfib_ordinary_alt,
    kfib_ordinary_erroneous,
)
from .core import (
    ORACLE_CAP,
    FibTable,
    count_compositions,
    kfib_order_k,
    kfib_order_k1,
    kfib_table,
)
from .dominant_root import (
    asymptotic,
    asymptotic_ratio,
    contraction_factor,
    epsilon,
    rho,
)
from .dyadic import Dyadic
from .errors import CertificationError, DomainError, IntegralityError, OracleCapError
from .series import (
    SeriesPartialSum,
    adaptive_partial,
    asymptotic_series_partial,
    hermite_sum_partial,
    rho_power_partial,
    rho_power_via_series,
    term_ratio_limit,
)
from .verify import VerifyCell, VerifyReport, run_suites

__version__ = "0.1.0"

__all__ = [
    "binom",
    "CertifiedReal",
    "fib_binomial",
    "kfib_binomial",
    "kfib_binomial_shifted",
    "kfib_ordinary",
    "kfib_ordinary_alt",
    "kfib_ordinary_erroneous",
    "ORACLE_CAP",
    "FibTable",
    "count_compositions",
    "kfib_order_k",
    "kfib_order_k1",
    "kfib_table",
    "asymptotic",
    "asymptotic_ratio",
    "contraction_factor",
    "epsilon",
    "rho",
    "Dyadic",
    "CertificationError",
    "DomainError",
    "IntegralityError",
    "OracleCapError",
    "SeriesPartialSum",
    "adaptive_partial",
    "asymptotic_series_partial",
    "hermite_sum_partial",
    "rho_power_partial",
    "rho_power_via_series",
    "term_ratio_limit",
    "VerifyCell",
    "VerifyReport",
    "run_suites",
]

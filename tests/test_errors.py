"""Every public entry point refuses a bad argument, or a request past the
size cap, through ``errors.check_int`` or ``errors.check_bits``: one
DomainError in one of two wordings."""

import ast
import inspect
import re
from pathlib import Path

import pytest

from kfib import errors
from kfib.closed_forms import (
    kfib_binomial,
    kfib_binomial_shifted,
    kfib_ordinary,
    kfib_ordinary_alt,
    kfib_ordinary_erroneous,
)
from kfib.core import count_compositions, kfib_order_k, kfib_order_k1, kfib_table
from kfib.dominant_root import asymptotic, asymptotic_ratio, epsilon, rho
from kfib.errors import MAX_BITS, DomainError
from kfib.series import asymptotic_series, hermite_series, rho_power_series, term_ratio_limit
from kfib.verify import run_suites

SRC = Path(errors.__file__).parent

INT_FORM = re.compile(r".+ must be an integer( >= -?\d+)?, got \S+")
CAP_FORM = re.compile(rf"\S.* needs \d+ bits, past the cap of {MAX_BITS} bits")


def _partial(k, terms):
    return rho_power_series(k, 1).partial(terms)


def _suites(k_max, n_max):
    return run_suites(["engines"], k_max, n_max)


#: (entry point, valid arguments, position of the checked argument, its
#: least value, or None for any int).  The engines and the table check their
#: index in ``core._check_n``, whose upper bound is islice's, so their k is
#: the checked argument here.
INTS = [
    (kfib_order_k, (3, 10), 0, 2),
    (kfib_order_k1, (3, 10), 0, 2),
    (count_compositions, (3, 10), 0, 2),
    (kfib_table, (3, 10), 0, 2),
    (kfib_binomial_shifted, (3, 10), 1, 2),
    (kfib_binomial, (3, 10), 1, 3),
    (kfib_ordinary, (3, 10), 1, 3),
    (kfib_ordinary_alt, (3, 10), 1, 3),
    (kfib_ordinary_erroneous, (3, 10), 1, 3),
    (epsilon, (3, 16), 1, 8),
    (rho, (3, 16), 1, 8),
    (asymptotic, (3, 5, 16), 1, 0),
    (asymptotic, (3, 5, 16), 2, 8),
    (asymptotic_ratio, (3, 5, 16), 1, 1),
    (asymptotic_ratio, (3, 5, 16), 2, 8),
    (term_ratio_limit, (3,), 0, 2),
    (rho_power_series, (3, 2), 1, 1),
    (hermite_series, (3, 2), 1, None),
    (asymptotic_series, (3, 2), 1, 0),
    (_partial, (3, 4), 1, 0),
    (_suites, (3, 5), 0, 2),
    (_suites, (3, 5), 1, 0),
]

#: (entry point, arguments past the size cap), each refused before any work
CAPPED = [
    (kfib_order_k, (3, 10**12)),
    (kfib_order_k1, (100000, 1000000)),
    (kfib_table, (3, 2**17)),
    (kfib_binomial_shifted, (3, MAX_BITS + 1)),
    (kfib_binomial, (3, MAX_BITS + 1)),
    (kfib_ordinary, (3, MAX_BITS + 1)),
    (kfib_ordinary_alt, (3, MAX_BITS + 1)),
    (kfib_ordinary_erroneous, (3, MAX_BITS + 1)),
    (epsilon, (3, 2**31)),
    (rho, (10**8, 64)),
    (asymptotic, (3, 0, 2**31)),
    (asymptotic_ratio, (3, 5, 2**31)),
    (term_ratio_limit, (2**22,)),
    (rho_power_series, (2**22, 1)),
    (hermite_series, (2**22, 1)),
    (asymptotic_series, (2**22, 0)),
    (_partial, (2, 10**20)),
    (_suites, (2, 10**6)),
]


def _bad_values(least):
    yield True
    yield float(least if least is not None else 0)
    if least is not None:
        yield least - 1


@pytest.mark.parametrize("fn, args, pos, least", INTS,
                         ids=[f"{fn.__name__}-{pos}" for fn, _, pos, _ in INTS])
def test_a_bad_argument_is_refused_in_one_wording(fn, args, pos, least):
    fn(*args)  # the valid call goes through
    for bad in _bad_values(least):
        with pytest.raises(DomainError) as info:
            fn(*args[:pos], bad, *args[pos + 1:])
        assert INT_FORM.fullmatch(str(info.value)), (bad, str(info.value))


@pytest.mark.parametrize("fn, args", CAPPED, ids=[fn.__name__ for fn, _ in CAPPED])
def test_a_request_past_the_cap_is_refused_in_one_wording(fn, args):
    with pytest.raises(DomainError) as info:
        fn(*args)
    assert CAP_FORM.fullmatch(str(info.value)), str(info.value)


def test_the_checks_are_called_through_the_module():
    # a check imported by name would be wrapped by perfbench/tracer.py,
    # which has no errors layer for its span, and the cap is read in one place
    classes = {name for name, obj in vars(errors).items() if inspect.isclass(obj)}
    for path in SRC.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "errors":
                assert {a.name for a in node.names} <= classes, path.name
            assert not (isinstance(node, ast.Attribute) and node.attr == "MAX_BITS"), path.name
            assert not (isinstance(node, ast.Name) and node.id == "MAX_BITS"), path.name

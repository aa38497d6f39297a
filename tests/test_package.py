import ast
import importlib
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

import kfib
from kfib.certified import CertifiedReal
from kfib.cli import OutputRecord
from kfib.series import SeriesPartialSum
from kfib.verify import VerifyCell, VerifyReport


def test_every_public_name_resolves_to_its_home_object():
    for name in kfib.__all__:
        obj = getattr(kfib, name)
        home = "kfib.core" if name == "ORACLE_CAP" else obj.__module__
        assert home.startswith("kfib.")
        assert getattr(importlib.import_module(home), name) is obj


def test_dir_and_star_import_cover_all():
    assert set(kfib.__all__) <= set(dir(kfib))
    namespace = {}
    exec("from kfib import *", namespace)
    assert set(kfib.__all__) <= namespace.keys()


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        kfib.no_such_name
    assert not hasattr(kfib, "dataclass")


def test_certified_real_value_semantics():
    a = CertifiedReal(Fraction(1, 3), Fraction(1, 10))
    b = CertifiedReal(Fraction(1, 3), Fraction(1, 10))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != CertifiedReal(Fraction(1, 3), Fraction(1, 9))
    assert repr(a) == "CertifiedReal(approx=Fraction(1, 3), err=Fraction(1, 10))"
    assert pickle.loads(pickle.dumps(a)) == a
    with pytest.raises(AttributeError):
        a.approx = Fraction(0)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(ValueError):
        CertifiedReal(0, -1)
    c = CertifiedReal(3, 0)
    assert type(c.approx) is Fraction and type(c.err) is Fraction
    assert c == CertifiedReal.exact(3)


def test_records_keep_fields_and_positional_construction():
    p = SeriesPartialSum(4, Fraction(1, 2), Fraction(1, 8))
    assert (p.terms_used, p.value, p.tail_bound) == (4, Fraction(1, 2), Fraction(1, 8))
    cell = VerifyCell("pascal", 1, 2, True, "3", "3")
    assert (cell.check, cell.k, cell.n, cell.ok, cell.expected, cell.actual) == (
        "pascal", 1, 2, True, "3", "3")
    report = VerifyReport("identities", (cell,), 0)
    assert (report.suite, report.cells, report.failures) == ("identities", (cell,), 0)
    record = OutputRecord("fib", {"k": "2"}, "1", True, None, "recurrence")
    assert (record.command, record.params, record.value, record.exact,
            record.error_bound, record.method) == (
        "fib", {"k": "2"}, "1", True, None, "recurrence")
    for value in (p, cell, report, record):
        with pytest.raises(AttributeError):
            value.extra = 1
    with pytest.raises(AttributeError):
        p.value = Fraction(0)


def test_no_assert_statements_in_the_package():
    # invariants raise errors: ``python -O`` strips every assert statement
    sources = sorted(Path(kfib.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []

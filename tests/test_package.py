import ast
import importlib
import json
import operator
import pickle
import types
from fractions import Fraction
from pathlib import Path

import pytest

import kfib
from kfib import cli
from kfib.certified import CertifiedReal
from kfib.cli import OutputRecord
from kfib.series import SeriesPartialSum
from kfib.verify import VerifyCell, VerifyReport

ROOT = Path(__file__).resolve().parents[1]


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
    # a record of two fields, with ball arithmetic in place of the tuple's
    # + and *, and no order
    approx, err = a
    assert (approx, err) == (Fraction(1, 3), Fraction(1, 10)) and a == (approx, err)
    for op in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(a, c)
    for value in (a + b, 2 * a, a * 2, a - 1, sum([a, b])):
        assert type(value) is CertifiedReal
    assert 2 * a == a * 2 == a + b == sum([a, b]) == CertifiedReal(Fraction(2, 3), Fraction(1, 5))
    # a pickle of the earlier form, a call CertifiedReal(approx, err), still loads
    class Earlier:
        def __reduce__(self):
            return CertifiedReal, (Fraction(1, 3), Fraction(1, 10))

    assert pickle.loads(pickle.dumps(Earlier())) == a


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
    # invariants raise errors: ``python -O`` strips every assert statement;
    # the oracles' preconditions too, since tier-1 also runs under -O
    sources = sorted(Path(kfib.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    sources.append(ROOT / "tests" / "oracles.py")
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_but_its_own_reaches_dyadic():
    # nothing builds a Dyadic: no other module imports kfib.dyadic or names the
    # class, by an import, an attribute or a name string (``_EXPORTS``, ``cli._load``)
    names = {"dyadic", "Dyadic", ".dyadic", "kfib.dyadic"}
    fields = {ast.ImportFrom: "module", ast.alias: "name", ast.Name: "id",
              ast.Attribute: "attr", ast.Constant: "value"}
    sources = [path for path in sorted(Path(kfib.__file__).parent.glob("*.py"))
               if path.name != "dyadic.py"]
    assert len(sources) > 5
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if getattr(node, fields.get(type(node), ""), None) in names]
    assert found == []


def test_no_float_calls_in_the_package():
    # no floating point enters a value: every rounding and comparison is exact
    sources = sorted(Path(kfib.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "float"]
    assert found == []


def _load_tracer():
    # compiled from its text, so that no bytecode is written under perfbench/
    path = ROOT / "perfbench" / "tracer.py"
    module = types.ModuleType("perfbench_tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_benchmark_tracer_still_hooks_the_package():
    # the benchmark's tracer hooks names it finds in the package: a renamed
    # hook, or a function imported from a module outside its layers, would
    # break a traced run only when the benchmark is run
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        patched = set(tracer.names)
        assert tracer._patches
    finally:
        tracer.uninstall()
    assert {nm.partition(".")[0] for nm in patched} <= set(tracer_module.LAYERS)
    hooks = {f"{layer}.{cls}.{attr}" for (layer, cls), attrs in tracer_module.METHODS.items()
             for attr in attrs}
    hooks |= {f"{layer}.{name}" for layer, names in tracer_module.SAME_MODULE.items()
              for name in names}
    assert hooks <= patched
    for target in tracer_module.EXPONENTS.values():
        layer, _, name = target.partition(".")
        fn = getattr(importlib.import_module(f"kfib.{layer}"), name)
        assert fn.__module__ == f"kfib.{layer}", target


def test_benchmark_tracer_traces_a_run_of_each_command():
    # a traced pass as the benchmark makes one: every wrapped name must
    # still exist, every span's layer be one of the tracer's, and each job's
    # layer self times add up to its run, or ``metrics`` raises
    tracer_module = _load_tracer()
    argvs = (["fib", "--k", "3", "--n", "300"], ["rho", "--k", "3"],
             ["series", "--which", "thm2", "--k", "3", "--a", "-2"],
             ["asymptotic", "--k", "3", "--n", "40", "--ratio"],
             ["verify", "--suite", "engines", "--n-max", "30"])
    # an untraced pass first, as the benchmark makes one: it binds the names
    # cli loads on first use, so the traced pass calls them through the
    # hooks and uninstall finds every binding it made
    for argv in argvs:
        assert cli.run(argv) == 0
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        run = tracer.wrap(cli.run, "cli.run")
        codes = []
        for job_id, argv in enumerate(argvs):
            tracer.job_id = job_id
            codes.append(run(argv))
    finally:
        tracer.uninstall()
    assert codes == [0] * len(argvs)
    assert [name for name, value in vars(cli).items()
            if getattr(value, "__qualname__", "") == "Tracer.wrap.<locals>.traced"] == []
    metrics = tracer.metrics([{"id": i, "sweep": argv[0]} for i, argv in enumerate(argvs)])
    # the per-layer metrics the tracer reports, all but the three of run.py
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert names - {"cli.import_s", "verify.cells", "trace.overhead_s"} <= set(metrics)
    for name in ("core.calls", "certified.ops", "dominant_root.rho_calls",
                 "series.partial_calls", "cli.self_s"):
        assert metrics[name] > 0, name
    assert sorted(metrics["jobs"]) == list(range(len(argvs)))

"""Outside-in span tracer for kfib's layers.

The tracer edits nothing in kfib's source.  While installed it replaces,
from outside the package:

* every module-level function a kfib module imported from another kfib
  module (for example ``binom`` in ``closed_forms``, ``series`` and
  ``verify``; the engines in ``cli`` and ``verify``), plus the two
  functions their own module calls by global name and the trace needs:
  ``rho`` inside ``dominant_root`` and ``adaptive_partial`` inside
  ``series``;
* the arithmetic methods of ``CertifiedReal`` and ``Dyadic`` and the
  partial-sum method of the series, on their classes.

A span's layer is the module that defines the called function.  Spans are
kept in flat arrays (name, start, end, parent, job, size) until the run
ends.  A span's self time is its duration minus its children's, so within
a job the layers' self times add up to the job's root span exactly.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import math
import statistics
from array import array
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("cli", "core", "closed_forms", "binomial", "dyadic", "certified",
          "dominant_root", "series", "verify")

#: functions a module calls by its own global name
SAME_MODULE = {"dominant_root": ("rho",), "series": ("adaptive_partial",)}

#: argument validation, not a layer's work
SKIP = {"check_k"}

METHODS = {
    ("certified", "CertifiedReal"): (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
        "__rmul__", "reciprocal", "__truediv__", "__rtruediv__", "__pow__"),
    ("dyadic", "Dyadic"): (
        "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__abs__",
        "__mul__", "__rmul__", "scale_pow2", "as_integer"),
    ("series", "_TailSeries"): ("partial",),
}

#: layers whose calls take (k, n | bits | terms, ...): args[1] is the size
SIZED = {"core", "closed_forms", "dominant_root", "series"}

#: per-layer exponent metric -> the engine span a job calls directly
EXPONENTS = {
    "core.order_k.exponent": "core.kfib_order_k",
    "core.order_k1.exponent": "core.kfib_order_k1",
    "closed_forms.binomial.exponent": "closed_forms.kfib_binomial",
    "closed_forms.ordinary_alt.exponent": "closed_forms.kfib_ordinary_alt",
    "dominant_root.rho.exponent": "dominant_root.rho",
    "dominant_root.asymptotic_ratio.exponent": "dominant_root.asymptotic_ratio",
}


def _size(args) -> int:
    return args[1] if len(args) > 1 and type(args[1]) is int else 0


def _neg_top(args) -> int:
    return int(args[0] < 0 <= args[1])


def loglog_slope(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(s) for s, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


class Tracer:
    """Records one span per wrapped call while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("q")
        self.job = array("q")
        self.size = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.job_id = -1
        self.max_den_bits = 0
        self._patches: list[tuple[object, str, object]] = []
        self._certified = importlib.import_module("kfib.certified").CertifiedReal

    # -- recording ----------------------------------------------------

    def wrap(self, fn, name: str, aux=None):
        """``fn`` with one span per call; ``aux(args)`` fills the size column."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        stack, certified = self._stack, self._certified

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.job.append(self.job_id)
            self.size.append(aux(args) if aux else 0)
            self.end.append(0)
            stack.append(i)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = perf_counter_ns()
                stack.pop()
            if type(result) is certified:
                bits = max(result.approx.denominator.bit_length(),
                           result.err.denominator.bit_length())
                if bits > self.max_den_bits:
                    self.max_den_bits = bits
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, aux) -> None:
        original = inspect.getattr_static(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, aux))

    def install(self) -> None:
        for layer in LAYERS:
            module = importlib.import_module(f"kfib.{layer}")
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or attr in SKIP:
                    continue
                home = obj.__module__.rpartition(".")[2]
                own = obj.__module__ == module.__name__
                if obj.__module__.startswith("kfib.") and (
                        not own or attr in SAME_MODULE.get(layer, ())):
                    aux = _neg_top if obj.__name__ == "binom" else (
                        _size if home in SIZED else None)
                    self._patch(module, attr, f"{home}.{obj.__name__}", aux)
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(importlib.import_module(f"kfib.{layer}"), cls_name)
            for attr in methods:
                aux = _size if layer in SIZED else None
                self._patch(cls, attr, f"{layer}.{cls_name}.{attr}", aux)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -----------------------------------------------------

    def _top(self, i: int, names: set[int]) -> int:
        """Outermost ancestor of span i (or i itself) named in ``names``; -1 if none."""
        found = -1
        while i >= 0:
            if self.name[i] in names:
                found = i
            i = self.parent[i]
        return found

    def _nearest(self, i: int, nid: int) -> int:
        i = self.parent[i]
        while i >= 0 and self.name[i] != nid:
            i = self.parent[i]
        return i

    def metrics(self, jobs: list[dict]) -> dict:
        """Per-layer counts, self times (s) and exponents for one traced pass."""
        n = len(self.start)
        ids = self._ids
        layer = [nm.partition(".")[0] for nm in self.names]
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls: dict[str, int] = defaultdict(int)
        job_self: dict[int, dict[str, int]] = defaultdict(lambda: dict.fromkeys(LAYERS, 0))
        job_root: dict[int, int] = {}
        for i in range(n):
            calls[self.names[self.name[i]]] += 1
            job_self[self.job[i]][layer[self.name[i]]] += dur[i] - child[i]
            if self.parent[i] < 0:
                job_root[self.job[i]] = dur[i]
        # exact by construction unless a span escaped its job
        mismatch = [j for j in job_self if sum(job_self[j].values()) != job_root.get(j)]
        if mismatch:
            raise RuntimeError(f"layer self times do not add up to jobs {mismatch}")

        def count(prefix: str) -> int:
            return sum(c for nm, c in calls.items() if nm.startswith(prefix))

        def spans(name: str):
            nid = ids.get(name, -1)
            return [i for i in range(n) if self.name[i] == nid]

        rho_ids = spans("dominant_root.rho")
        asym = {ids[a] for a in ("dominant_root.asymptotic", "dominant_root.asymptotic_ratio")
                if a in ids}
        per_top: dict[int, int] = defaultdict(int)
        for i in rho_ids:
            top = self._top(i, asym)
            if top >= 0:
                per_top[top] += 1
        escalations = sum(c - 1 for c in per_top.values())

        adaptive = ids.get("series.adaptive_partial", -1)
        rounds: dict[int, list[int]] = defaultdict(list)
        for i in spans("series._TailSeries.partial"):
            owner = self._nearest(i, adaptive)
            if owner >= 0:
                rounds[owner].append(self.size[i])
        attempted = sum(sum(r) for r in rounds.values())
        useful = sum(r[-1] for r in rounds.values())

        by_id = {job["id"]: job for job in jobs}
        curves: dict[str, dict[str, dict[int, list[int]]]] = defaultdict(
            lambda: defaultdict(lambda: defaultdict(list)))
        engine_names = {ids[e]: m for m, e in EXPONENTS.items() if e in ids}
        for i in range(n):
            p = self.parent[i]
            if p >= 0 and self.parent[p] < 0 and self.name[i] in engine_names:
                job = by_id[self.job[i]]
                curves[engine_names[self.name[i]]][job["sweep"]][self.size[i]].append(dur[i])
        exponents = {}
        for metric in EXPONENTS:
            slopes = []
            for points in curves[metric].values():
                pts = [(s, statistics.median(ts)) for s, ts in sorted(points.items())]
                if len(pts) >= 3:
                    slopes.append(loglog_slope(pts))
            # 0.0 marks a workload with no sweep of this engine
            exponents[metric] = statistics.fmean(slopes) if slopes else 0.0

        out = {f"{lay}.self_s": sum(js[lay] for js in job_self.values()) / 1e9
               for lay in LAYERS}
        out.update({
            "core.calls": count("core."),
            "closed_forms.calls": count("closed_forms."),
            "binomial.calls": count("binomial."),
            "binomial.neg_top_calls": sum(self.size[i] for i in spans("binomial.binom")),
            "dyadic.adds": calls["dyadic.Dyadic.__add__"] + calls["dyadic.Dyadic.__radd__"],
            "certified.ops": count("certified."),
            "certified.max_den_bits": self.max_den_bits,
            "dominant_root.rho_calls": len(rho_ids),
            "dominant_root.escalations": escalations,
            "dominant_root.max_working_bits": max((self.size[i] for i in rho_ids), default=0),
            "series.partial_calls": calls["series._TailSeries.partial"],
            "series.useful_ratio": useful / attempted if attempted else 0.0,
            "spans": n,
        })
        out.update(exponents)
        out["jobs"] = {j: dict(in_process_s=job_root[j] / 1e9,
                               layer_self_s={lay: ns / 1e9 for lay, ns in job_self[j].items()
                                             if ns})
                       for j in sorted(job_root)}
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped tab-separated text, times in ns from the first span."""
        t0 = self.start[0] if self.start else 0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tname\tjob\tparent\tstart_ns\tend_ns\tsize\n")
            for i, (nid, job, parent, start, end, size) in enumerate(zip(
                    self.name, self.job, self.parent, self.start, self.end, self.size)):
                f.write(f"{i}\t{self.names[nid]}\t{job}\t{parent}\t{start - t0}"
                        f"\t{end - t0}\t{size}\n")

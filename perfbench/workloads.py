"""Seeded job lists for the two workloads.

A job is one kfib CLI invocation.  The seed adds a small offset (0..3) to
each n, bits or |a| (to the mantissa of the tolerance where the size is a
tolerance) and shuffles the job order; the size classes, and so the work,
stay the same for every seed.  Each job names the sweep it
belongs to and its size within that sweep, so per-size times can be
fitted to a scaling curve.
"""

from __future__ import annotations

import random

WORKLOADS = ("exact", "analytic")
#: the verify suites that touch only exact-arithmetic layers; the series
#: suite would bring the root and the series into the exact workload
EXACT_SUITES = ("engines", "identities", "erratum")
FIB_RECURRENCES = ("recurrence", "recurrence-k1")
FIB_CLOSED_FORMS = ("binomial", "ordinary", "ordinary-alt")


def _geometric(lo: int, hi: int, step: int = 2) -> list[int]:
    out = [lo]
    while out[-1] * step <= hi:
        out.append(out[-1] * step)
    return out


def _exact(off):
    for k in (3, 8):
        # steps of 4 keep the ends of each sweep with half the process starts
        for methods, sizes in ((FIB_RECURRENCES, _geometric(1024, 65536, 4)),
                               (FIB_CLOSED_FORMS, _geometric(512, 8192, 4))):
            for method in methods:
                for n in sizes:
                    n += off()
                    yield (dict(kind="fib", k=k, n=n, method=method,
                                sweep=f"fib {method} k={k}", size=n),
                           ["--format", "json", "fib", "--k", str(k), "--n", str(n),
                            "--method", method])
    for suite in EXACT_SUITES:
        yield (dict(kind="verify", suites=[suite], sweep=f"verify {suite}", size=200),
               ["verify", "--suite", suite])


def _analytic(off):
    for k in (2, 5):
        for bits in _geometric(64, 2048):
            bits += off()
            yield (dict(kind="rho", k=k, bits=bits, sweep=f"rho k={k}", size=bits),
                   ["--format", "json", "rho", "--k", str(k), "--bits", str(bits)])
    for n in _geometric(25, 200):
        n += off()
        yield (dict(kind="asymptotic", k=3, n=n, bits=64, sweep="asymptotic --ratio k=3",
                    size=n),
               ["--format", "json", "asymptotic", "--k", "3", "--n", str(n), "--bits", "64",
                "--ratio"])
    series = [("thm1", 2, "n", 1, f"{1 + off()}e-{d}", d) for d in (25, 50, 100, 150)]
    series.append(("thm3", 3, "n", 100 + off(), "1e-12", 100))
    series += [("thm2", 3, "a", -(a + off()), "1e-12", a) for a in (3, 30, 300)]
    for which, k, key, x, tol, size in series:
        yield (dict(kind="series", which=which, k=k, tol=tol, sweep=f"series {which} k={k}",
                    size=size, **{key: x}),
               ["--format", "json", "series", "--which", which, "--k", str(k),
                f"--{key}", str(x), "--tol", tol])


def build(workload: str, seed: int) -> list[dict]:
    """The workload's jobs in seeded order; each job carries its CLI ``args``."""
    rng = random.Random(f"{workload}:{seed}")
    gen = {"exact": _exact, "analytic": _analytic}[workload]
    jobs = [dict(spec, args=args) for spec, args in gen(lambda: rng.randint(0, 3))]
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs

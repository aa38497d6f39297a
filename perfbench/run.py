"""End-to-end benchmark of the kfib command line, with a traced per-layer pass.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

``--trace 0`` times real CLI invocations (``python -m kfib.cli ...`` with
``PYTHONPATH=src``, interpreter start included) in a closed loop: one
client, one job in flight.  It starts passes over the workload's job list
until ``--seconds`` have passed, with a no-work invocation after every
fifth job, checks every output against oracle.py outside the timed
region, and reports the end-to-end metrics from per-job medians.
``--trace 1`` instead runs the same jobs in this process through
``kfib.cli.run(argv)``, alternating an untraced pass and a traced pass, and
reports the per-layer metrics of tracer.py.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are a
readable table.  The full record (argv per job, per-job times and RSS,
error lines, scaling curves) goes to ``.perfbench/`` in the repository.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import select
import signal
import statistics
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_ARGS = ["fib", "--k", "2", "--n", "1"]
#: a no-work invocation after every SETUP_EVERY-th job spreads the set-up
#: samples over the run, so one slow stretch of the machine cannot set them
SETUP_EVERY = 5
SETUP_MIN = 7
IMPORT_SAMPLES = 7
JOB_TIMEOUT_S = 60
#: after this many seconds no further job starts, so a run ends within 180 s
RUN_DEADLINE_S = 140
IMPORT_TIMER = ("import time; t = time.perf_counter(); import kfib.cli; "
                "print(time.perf_counter() - t)")


class JobTimeout(Exception):
    pass


@contextmanager
def time_limit(seconds: float):
    """Raise JobTimeout in this thread once ``seconds`` have passed."""
    def expire(signum, frame):
        raise JobTimeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Runner:
    """Spawns one CLI process at a time and measures it."""

    def __init__(self, started: float):
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        OUT.mkdir(exist_ok=True)
        self.out = open(OUT / "stdout.tmp", "w+b")
        self.err = open(OUT / "stderr.tmp", "w+b")

    def close(self) -> None:
        for f in (self.out, self.err):
            f.close()
            os.unlink(f.name)

    def spawn(self, argv: list[str]) -> dict:
        """Run ``python argv`` to completion: wall time, max RSS, exit code, output."""
        budget = min(JOB_TIMEOUT_S, RUN_DEADLINE_S - (time.perf_counter() - self.started))
        if budget <= 0:
            return dict(time_s=0.0, rss_mb=0.0, code=-1, stdout="",
                        error="not started: run deadline passed")
        for f in (self.out, self.err):
            f.seek(0)
            f.truncate()
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, self.out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, self.err.fileno(), 2)]
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env,
                             file_actions=actions)
        fd = os.pidfd_open(pid)
        try:
            timed_out = not select.select([fd], [], [], budget)[0]
            if timed_out:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(fd)
        elapsed = time.perf_counter() - t0
        self.out.seek(0)
        self.err.seek(0)
        stderr = self.err.read().decode(errors="replace")
        lines = [ln for ln in stderr.splitlines() if ln.strip()]
        return dict(time_s=elapsed, rss_mb=usage.ru_maxrss / 1024,
                    code=-1 if timed_out else os.waitstatus_to_exitcode(status),
                    stdout=self.out.read().decode(errors="replace"),
                    error=f"timed out after {budget:.0f} s" if timed_out
                    else (lines[-1] if lines else ""),
                    traceback="Traceback" in stderr)

    def cli(self, args: list[str]) -> dict:
        return self.spawn(["-m", "kfib.cli", *args])


def judge(job: dict, res: dict) -> None:
    """Mark ``res`` ok or failed; a failure is a nonzero exit, a traceback or a wrong value."""
    res["wrong"] = False
    if res["code"] != 0 or res.get("traceback"):
        res["ok"] = False
        return
    ok, reason, cells = oracle.check_output(job, res["stdout"])
    res.update(ok=ok, wrong=not ok, cells=cells)
    if not ok:
        res["error"] = reason


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def scaling_curves(jobs: list[dict], per_job: list[list[dict]]) -> dict:
    """Per sweep: raw per-size median times and RSS, and the log-log slope of time."""
    from tracer import loglog_slope

    sweeps: dict[str, list] = {}
    for job, runs in zip(jobs, per_job):
        sweeps.setdefault(job["sweep"], []).append(
            (job["size"], median_of(runs, "time_s"), median_of(runs, "rss_mb")))
    curves = {}
    for name, pts in sorted(sweeps.items()):
        pts.sort()
        curves[name] = {
            "sizes": [p[0] for p in pts],
            "time_s": [round(p[1], 6) for p in pts],
            "rss_mb": [round(p[2], 1) for p in pts],
            "slope": loglog_slope([(s, t) for s, t, _ in pts]) if len(pts) >= 3 else None,
        }
    return curves


def end_to_end(jobs: list[dict], seconds: float, started: float) -> tuple[dict, dict]:
    runner = Runner(started)
    try:
        runner.cli(SETUP_ARGS)  # warm-up: byte-compiles src/ on a fresh checkout
        setup: list[dict] = []
        per_job: list[list[dict]] = [[] for _ in jobs]
        passes = []
        t_start = time.perf_counter()
        while time.perf_counter() - t_start < seconds:
            t0 = time.perf_counter()
            results = []
            for i, job in enumerate(jobs):
                results.append(runner.cli(job["args"]))
                if i % SETUP_EVERY == SETUP_EVERY - 1:
                    setup.append(runner.cli(SETUP_ARGS))
            passes.append(time.perf_counter() - t0)
            for job, res in zip(jobs, results):  # outside the timed region
                judge(job, res)
                res.pop("stdout")
                per_job[job["id"]].append(res)
        while len(setup) < SETUP_MIN:
            setup.append(runner.cli(SETUP_ARGS))
    finally:
        runner.close()
    if any(r["code"] != 0 for r in setup):
        raise RuntimeError(f"no-work invocation failed: {setup[0]['error']}")
    samples = [r for runs in per_job for r in runs]
    failed = sum(not r["ok"] for r in samples)
    job_times = [median_of(runs, "time_s") for runs in per_job]
    metrics = {
        "wall_s": sum(job_times),
        "job_p50_s": median_of(samples, "time_s"),
        "job_max_s": max(job_times),
        "peak_rss_mb": max(median_of(runs, "rss_mb") for runs in per_job),
        "ok_rate": (len(samples) - failed) / len(samples),
        "setup_s": median_of(setup, "time_s"),
    }
    record = {
        "passes": len(passes),
        "pass_elapsed_s": passes,  # includes the interleaved no-work invocations
        "setup_samples_s": [r["time_s"] for r in setup],
        "attempted": len(samples),
        "failed": failed,
        "wrong": sum(r["wrong"] for r in samples),
        "jobs": [dict(argv=["python", "-m", "kfib.cli", *job["args"]],
                      time_s=[r["time_s"] for r in runs],
                      rss_mb=[r["rss_mb"] for r in runs],
                      exit=[r["code"] for r in runs],
                      ok=[r["ok"] for r in runs],
                      error=sorted({r["error"] for r in runs if not r["ok"]}))
                 for job, runs in zip(jobs, per_job)],
        "scaling": scaling_curves(jobs, per_job),
    }
    return metrics, record


def in_process_pass(run, jobs: list[dict], started: float, tracer=None):
    """One pass through ``kfib.cli.run(argv)``; returns (wall seconds, results)."""
    results = []
    t0 = time.perf_counter()
    for job in jobs:
        budget = min(JOB_TIMEOUT_S, RUN_DEADLINE_S - (time.perf_counter() - started))
        out = io.StringIO()
        code, error = -1, "not started: run deadline passed"
        if budget > 0:
            if tracer is not None:
                tracer.job_id = job["id"]
            try:
                with time_limit(budget), redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code, error = run(job["args"]), ""
            except JobTimeout:
                error = f"timed out after {budget:.0f} s"
            except Exception as exc:  # noqa: BLE001 - e.g. the int-to-str ValueError
                error = f"{type(exc).__name__}: {exc}"
        results.append(dict(code=code, error=error, stdout=out.getvalue()))
    return time.perf_counter() - t0, results


def per_layer(jobs: list[dict], seconds: float, started: float):
    from tracer import LAYERS, Tracer

    runner = Runner(started)
    try:
        imports = [runner.spawn(["-c", IMPORT_TIMER]) for _ in range(IMPORT_SAMPLES)]
    finally:
        runner.close()
    if any(r["code"] != 0 for r in imports):
        raise RuntimeError(f"importing kfib.cli failed: {imports[0]['error']}")
    import_s = statistics.median(float(r["stdout"]) for r in imports)

    sys.path.insert(0, str(SRC))
    from kfib import cli

    plain, traced, layer_runs, samples = [], [], [], []
    t_start = time.perf_counter()
    while True:
        wall, results = in_process_pass(cli.run, jobs, started)
        plain.append(wall)
        samples += results
        tracer = Tracer()
        tracer.install()
        try:
            wall, results = in_process_pass(tracer.wrap(cli.run, "cli.run"), jobs, started,
                                            tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        samples += results
        layer_runs.append(tracer.metrics(jobs))
        if time.perf_counter() - t_start + plain[-1] + traced[-1] > seconds:
            break
    for i, res in enumerate(samples):  # outside the timed region
        judge(jobs[i % len(jobs)], res)
    last = layer_runs[-1]
    metrics = {k: v for k, v in last.items() if k not in ("spans", "jobs")}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(r[f"{layer}.self_s"] for r in layer_runs)
    metrics["cli.import_s"] = import_s
    metrics["verify.cells"] = sum(r.get("cells", 0) for r in results)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    failed = sum(not r["ok"] for r in samples)
    record = {
        "passes": len(traced),
        "plain_wall_s": plain,
        "traced_wall_s": traced,
        "import_samples_s": [float(r["stdout"]) for r in imports],
        "spans": last["spans"],
        "attempted": len(samples),
        "failed": failed,
        "wrong": sum(r["wrong"] for r in samples),
        "jobs": [dict(argv=["python", "-m", "kfib.cli", *job["args"]],
                      ok=res["ok"], error=[] if res["ok"] else [res["error"]],
                      **last["jobs"].get(job["id"], {}))
                 for job, res in zip(jobs, results)],
    }
    return metrics, record, tracer


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "kfib" / "cli.py").is_file():
        print(f"error: no kfib sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    jobs = workloads.build(args.workload, args.seed)
    if args.trace:
        metrics, record, tracer = per_layer(jobs, args.seconds, started)
    else:
        metrics, record = end_to_end(jobs, args.seconds, started)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(metrics) ^ set(units)}")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{args.workload}.spans.tsv.gz")  # latest traced pass only
    record = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, metrics=metrics, **record)
    with open(OUT / f"{name}.json", "w") as f:
        json.dump(record, f, indent=1)

    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs x "
          f"{record['passes']} passes, closed loop, one job in flight")
    for key, value in metrics.items():
        print(f"  {key:42s} {value:>14.6g} {units[key]}")
    print(f"  {'fail_rate':42s} {record['failed']}/{record['attempted']} = "
          f"{record['failed'] / record['attempted']:.4f}")
    for job in record["jobs"]:
        for error in job["error"]:
            print(f"  failed: {' '.join(job['argv'][3:])}: {error[:120]}")
    print(json.dumps({"correct": record["wrong"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

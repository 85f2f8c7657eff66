"""Benchmark of fracdim2d: three workloads, end-to-end and per-layer metrics.

Run from the root of a fracdim2d checkout:

    python3 bench/run.py --workload operator --seed 1 --seconds 15 --trace 0

Workloads (see ``jobs.py``): ``operator`` (few large operator grids),
``geometry`` (large graphs, no operator) and ``small-calls`` (the same
layers through thousands of small calls).  The library runs at its default
of one worker: ``FRACDIM2D_THREADS`` is removed from the environment.

A run times passes over the workload's job list until ``--seconds`` have
gone by (at least two passes) and checks every job's output.  With
``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (median of
nine fresh processes that import the package and build the sources),
``wall_s`` (time of one pass: the sum over jobs of each job's median time
across passes), ``peak_rss_mb`` and ``err_max`` (largest gap/tolerance
ratio of the checks).  With ``--trace 1`` it alternates an untraced pass
with a pass under the span wrappers of ``spans.py``; it reports the
per-layer metrics and ``trace.overhead_frac``, and writes the spans to
``.bench_work/``.

Times in ``setup_s`` and ``wall_s`` are reference-host seconds.  On a
shared host the speed of the same code swings by 20-50% over seconds to
minutes with the neighbours' load, far more than the bounds the metrics
must hold.  So a fixed probe of interpreter, small-array and large-array
work, which runs no package code, is timed right before and right after
every timed job (repeated for about 3% of a long job's time) and every
set-up process, and each time ``t`` is reported as
``t * PROBE_REF_S / probe``, with ``probe`` the mean of its two probes.
A change to the package moves ``t`` and leaves the probe alone; a change
of host speed moves both.  The raw times are printed in the ``runs`` line.

Standard output ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
THREAD_ENV = ("FRACDIM2D_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 60
# the probe's time on the reference host, a 2-vCPU Intel Xeon VM, where it
# reads 0.03-0.045 s as the host's load changes; a fixed value, it only sets the scale
PROBE_REF_S = 0.040
# probing around a job takes about this share of the job's time, so that the
# probes of a long job sample more of the host's state than one short probe
PROBE_SHARE = 0.03
PROBE_MAX_REPEATS = 8
_PROBE_SMALL = np.linspace(0.0, 1.0, 64)
_PROBE_LARGE = np.linspace(0.0, 1.0, 1 << 19)  # 4 MB, past a core's own caches
_PROBE_OUT = np.empty_like(_PROBE_LARGE)


def _parse() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["operator", "geometry", "small-calls"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args()


def _git_sha() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _provenance(args, thread_env: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "thread_env": thread_env,
    }


def host_probe_s(repeats: int = 1) -> float:
    """Mean time of a fixed piece of work that calls no package code: the host's speed now.

    Its three parts, of about equal time, follow the three kinds of work the
    jobs do: interpreted Python, numpy calls on small arrays, and streaming
    over arrays larger than a core's caches.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(repeats):
        table = {}
        for i in range(60_000):
            table[i & 255] = i
            acc += table.get((i * 7) & 255, 0) % 13
        for i in range(2000):
            acc += float(np.sum(np.sin(_PROBE_SMALL * i)))
        for i in range(10):
            np.multiply(_PROBE_LARGE, i + 1.0, out=_PROBE_OUT)
            np.sqrt(_PROBE_OUT, out=_PROBE_OUT)
            acc += float(_PROBE_OUT.sum())
    return (time.perf_counter() - t0) / repeats


def probe_repeats(job_s: float | None) -> int:
    """Probes before and after a job that took ``job_s`` in the previous pass."""
    if job_s is None:
        return 1
    return min(PROBE_MAX_REPEATS, max(1, round(PROBE_SHARE * job_s / PROBE_REF_S)))


def to_ref(raw_s: float, probe_before_s: float, probe_after_s: float) -> float:
    """A raw time scaled to the reference host by the probes around it."""
    return raw_s * PROBE_REF_S / (0.5 * (probe_before_s + probe_after_s))


def _setup_times(workload: str, params_path: str) -> list[tuple[float, float]]:
    """(raw, reference-host) set-up times of fresh processes."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + HERE)
    out = []
    for _ in range(SETUP_PROBES):
        before = host_probe_s()
        res = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, params_path],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
        )
        after = host_probe_s()
        if res.returncode != 0:
            raise RuntimeError(f"setup probe failed: {res.stderr.strip()[-500:]}")
        raw = json.loads(res.stdout.strip().splitlines()[-1])["setup_s"]
        out.append((raw, to_ref(raw, before, after)))
    return out


def _digest(path: str) -> str | None:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return None


def run_pass(job_list, ctx, rec=None, last_job_s: dict | None = None) -> dict:
    """One pass over the job list: timed jobs, untimed checks.

    ``last_job_s`` holds the raw job times of the previous pass, which set
    how long the probes around each job run.

    Returns the summed raw job time, each job's raw and reference-host
    time, the failures, the largest gap/tolerance ratio and the digests of
    the artifacts the jobs wrote.
    """
    times = {}
    ref_times = {}
    failed = []
    ratios = []
    digests = {}
    for job in job_list:
        if rec is not None:
            rec.paused = not job.traced
        repeats = probe_repeats((last_job_s or {}).get(job.name))
        before = host_probe_s(repeats)
        t0 = time.perf_counter()
        try:
            out = job.run(ctx)
            error = None
        except Exception as exc:  # a job that raises is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        times[job.name] = time.perf_counter() - t0
        ref_times[job.name] = to_ref(times[job.name], before, host_probe_s(repeats))
        if rec is not None:
            rec.paused = True
        if error is None:
            try:
                checks = job.check(ctx, out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is None:
            missed = []
            for name, gap, tol in checks:
                r = gap / tol
                ratios.append(r)
                if not (r <= 1.0):
                    missed.append(f"{name}: gap {gap:.3e} > tolerance {tol:.3e}")
            if missed:
                error = "; ".join(missed)
        if error is not None:
            failed.append((job.name, error))
        for name in job.artifacts:
            digests[name] = _digest(ctx.path(name))
    return {"wall_s": sum(times.values()), "job_s": times, "job_ref_s": ref_times, "failed": failed, "err_max": max(ratios) if ratios else math.inf, "digests": digests}


def _passes(step, budget_s: float, min_passes: int) -> list:
    """Results of ``step`` until the next call would overrun ``budget_s``, at least ``min_passes``.

    ``step(last_job_s)`` returns its result and the raw job times it
    measured, which the next call gets.
    """
    out = []
    last_job_s = None
    t0 = time.perf_counter()
    while len(out) < min_passes or (time.perf_counter() - t0) * (len(out) + 1) / len(out) <= budget_s:
        res, last_job_s = step(last_job_s)
        out.append(res)
    return out


def _traced_pair(job_list, ctx, rec, last_job_s) -> tuple[tuple[dict, dict], dict]:
    """An untraced pass, then a traced one, so both meet the same host state."""
    plain = run_pass(job_list, ctx, last_job_s=last_job_s)
    undo = spans.install(rec)
    try:
        rec.start_pass()
        traced = run_pass(job_list, ctx, rec, plain["job_s"])
        traced["trace"] = rec.end_pass()
    finally:
        spans.uninstall(undo)
    return (plain, traced), traced["job_s"]


def pass_ref_s(runs: list[dict], job_list) -> float:
    """Reference-host time of one pass: each job's median over the passes, summed."""
    return sum(statistics.median(r["job_ref_s"][j.name] for r in runs) for j in job_list)


def main() -> int:
    args = _parse()
    if not os.path.isfile(os.path.join(SRC, "fracdim2d", "__init__.py")):
        print("error: src/fracdim2d not found; run from the root of a fracdim2d checkout", file=sys.stderr)
        return 2
    if not (args.seconds > 0):
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    thread_env = {k: os.environ.get(k) for k in THREAD_ENV}
    os.environ.pop("FRACDIM2D_THREADS", None)  # the library's default: one worker
    sys.path.insert(0, SRC)

    import jobs

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, jobs, workdir, thread_env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, jobs, workdir: str, thread_env: dict) -> int:
    params = jobs.make_params(args.workload, args.seed)
    params_path = os.path.join(workdir, "params.json")
    with open(params_path, "w") as fh:
        json.dump(params, fh)
    print(json.dumps({"provenance": _provenance(args, thread_env)}), flush=True)

    setup = [] if args.trace else _setup_times(args.workload, params_path)
    ctx = jobs.Ctx(workdir, params, jobs.build_sources(args.workload, params))
    jobs.prepare(args.workload, ctx)
    job_list = jobs.jobs_for(args.workload)

    if not args.trace:
        def step(last_job_s):
            res = run_pass(job_list, ctx, last_job_s=last_job_s)
            return res, res["job_s"]

        runs = _passes(step, args.seconds, 2)
        traced_runs = []
    else:
        rec = spans.Recorder()
        pairs = _passes(lambda last_job_s: _traced_pair(job_list, ctx, rec, last_job_s), args.seconds, 1)
        runs = [p for p, _ in pairs]
        traced_runs = [t for _, t in pairs]
        rec.dump(os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json"))

    attempted = len(job_list) * (len(runs) + len(traced_runs))
    failures = [f for r in runs + traced_runs for f in r["failed"]]
    # artifacts must repeat byte for byte across passes, traced or not
    ref = runs[0]["digests"]
    for k, r in enumerate(runs[1:] + traced_runs, start=1):
        for name, dig in r["digests"].items():
            if dig != ref.get(name):
                failures.append((name, f"artifact differs from the first pass in pass {k}"))
    for name, error in failures:
        print(f"FAILED {name}: {error}", file=sys.stderr)

    summary = {
        "passes": len(runs),
        "traced_passes": len(traced_runs),
        "pass_wall_s": [r["wall_s"] for r in runs],
        "traced_pass_wall_s": [r["wall_s"] for r in traced_runs],
        "job_median_ref_s": {j.name: statistics.median(r["job_ref_s"][j.name] for r in runs) for j in job_list},
        "setup_raw_s": [raw for raw, _ in setup],
        "setup_ref_s": [ref for _, ref in setup],
    }
    print(json.dumps({"runs": summary}), flush=True)

    if not args.trace:
        metrics = {
            "setup_s": {"value": statistics.median(ref for _, ref in setup), "unit": "s"},
            "wall_s": {"value": pass_ref_s(runs, job_list), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            "err_max": {"value": max(r["err_max"] for r in runs), "unit": "ratio"},
        }
    else:
        # counts repeat exactly across traced passes; times take the fastest
        per_pass = [spans.layer_metrics(s, **r["trace"]) for s, r in zip(rec.passes, traced_runs)]
        metrics = {
            name: {"value": min(p[name] for p in per_pass), "unit": unit}
            for name, unit in spans.PER_LAYER.items()
            if name != "trace.overhead_frac"
        }
        overhead = pass_ref_s(traced_runs, job_list) / pass_ref_s(runs, job_list) - 1.0
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}

    n_failed = len(failures)
    print(json.dumps({"correct": n_failed == 0, "attempted": attempted, "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

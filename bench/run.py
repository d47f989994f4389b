"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {certify,lift,invert,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root.  The library is imported from ``src/``.  The
workload's job list is made from the seed and run in a closed loop (one
client, one job at a time, one process) until ``--seconds`` have passed and
the list has run at least once.  BLAS runs on one thread.

BENCHMARK.json lists the gated workloads: lift, invert and cli.  certify
is not in that list, because its timings moved by up to 1.5x with the
machine's load (see bench/README.md); it runs the same way on request.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` runs the list untraced for half the time and traced for the
other half, and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
records the environment; the same record, plus the raw spans of a traced
run, is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BLAS_THREADS = 1
TAIL_MARGIN = 10  # jobs that must lie beyond the tail percentile


def code_fingerprint() -> str:
    """sha256 over the library sources, for runs outside a git checkout."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "injop")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args, job_count, tail_pct):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_version = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "code_fingerprint": code_fingerprint(),
        "jobs": job_count,
        "tail_percentile": tail_pct,
    }


class Measurement:
    """Latencies per job index plus failure counts for one measured phase."""

    def __init__(self, jobs):
        self.keys = [job.key or i for i, job in enumerate(jobs)]
        self.latency = [[] for _ in jobs]
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.passes = 0

    def per_job(self):
        """Each job's latency: the best run of that job (or of an identical
        one, same key) in the measured phase.  On a shared machine the speed
        of the whole box changes by half for seconds at a time; the best of
        repeats spread over the run is steady where their median is not."""
        best = {}
        for key, lat in zip(self.keys, self.latency):
            if lat:
                best[key] = min(best.get(key, lat[0]), *lat)
        return [best[key] for key in self.keys]

    def summary(self):
        per_job = self.per_job()
        ordered = sorted(per_job)
        k = len(ordered) - TAIL_MARGIN - 1
        return {
            "jobs_per_s": len(per_job) / sum(per_job),
            "job_p50_ms": 1e3 * statistics.median(per_job),
            "job_tail_ms": 1e3 * ordered[k],
            "tail_percentile": 100.0 * (k + 1) / len(ordered),
        }


def measure(wl, state, seconds, tracer=None, whole_passes=False, after_pass=None):
    """Closed loop over the job list until ``seconds`` have passed and at
    least one pass is complete; every latency of every job is kept.
    ``after_pass`` is called, untimed, after each complete pass."""
    jobs = state.jobs
    m = Measurement(jobs)
    start = time.perf_counter()
    i = 0
    while True:
        job = jobs[i]
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(job, state)
            else:
                out = tracer.run_job(f"{m.passes}:{i}", wl.run, job, state)
            latency = time.perf_counter() - t0
            if tracer is not None:
                tracer.paused = True
            try:
                problem = wl.check(job, out, state)
            finally:
                if tracer is not None:
                    tracer.paused = False
        except Exception as err:  # a failed job is counted, not fatal
            latency = time.perf_counter() - t0
            problem = f"{type(err).__name__}: {err}"
        m.latency[i].append(latency)
        m.attempted += 1
        if problem is not None:
            m.failed += 1
            if len(m.errors) < 5:
                m.errors.append(f"job {i} ({job.kind}): {problem}")
        i += 1
        if i == len(jobs):
            i = 0
            m.passes += 1
            if after_pass is not None:
                after_pass()
        done = m.passes >= 1 and time.perf_counter() - start >= seconds
        if done and (i == 0 or not whole_passes):
            return m


def layer_metrics(names, setup_snap, end_snap, passes, extra):
    """Per-layer values for one set-up plus one pass of the job list."""
    from tracer import per_name

    start, end = per_name(setup_snap), per_name(end_snap)

    def per_pass(a, b):
        return a + (b - a) / passes

    counters = {k: per_pass(setup_snap["counters"].get(k, 0), v)
                for k, v in end_snap["counters"].items()}
    derived = dict(extra)
    if counters.get("certify.relu_searched"):
        derived["certify.witness_yield"] = (counters.get("certify.witnesses", 0)
                                            / counters["certify.relu_searched"])
    if counters.get("atlas.global_calls"):
        derived["atlas.fallback_frac"] = (counters.get("atlas.fallbacks", 0)
                                          / counters["atlas.global_calls"])
    out = {}
    for name in names:
        base, _, stat = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif name in counters:
            value = counters[name]
        elif stat in ("calls", "self_s") and base in end:
            col = 0 if stat == "calls" else 1
            value = per_pass(start[base][col], end[base][col])
        else:
            value = 0
        out[name] = value
    return out


def timed_setup(wl, seed, workdir):
    t0 = time.perf_counter()
    state = wl.setup(seed, workdir)
    wl.warm_up(state)
    return state, time.perf_counter() - t0


def run_untraced(wl, args, workdir):
    # Set-up runs twice before the timed loop, again after each pass while
    # that costs under 5% of the run, and to ``setup_repeats`` times after
    # the loop.  The best set-up time then samples several moments of the run.
    setup_times = []
    for _ in range(2):
        state, seconds = timed_setup(wl, args.seed, workdir)
        setup_times.append(seconds)
    between = []

    def setup_again():
        if sum(between) + min(setup_times) < 0.05 * args.seconds:
            between.append(timed_setup(wl, args.seed, workdir + "-again")[1])

    m = measure(wl, state, args.seconds, after_pass=setup_again)
    wl.finish(state)
    setup_times += between
    for _ in range(wl.setup_repeats - 2):
        setup_times.append(timed_setup(wl, args.seed, workdir)[1])
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    summary = m.summary()
    metrics = {
        "setup_s": min(setup_times),
        "jobs_per_s": summary["jobs_per_s"],
        "job_p50_ms": summary["job_p50_ms"],
        "job_tail_ms": summary["job_tail_ms"],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - m.failed / m.attempted,
    }
    per_job = [[job.kind, 1e3 * statistics.median(lat)]
               for job, lat in zip(state.jobs, m.latency)]
    return m, metrics, summary, {"setup_times": setup_times, "passes": m.passes,
                                 "per_job_ms": per_job}


def run_traced(wl, args, workdir, layer_names):
    from tracer import Tracer

    callers = [sys.modules[type(wl).__module__]]
    tracer = Tracer()
    tracer.install(callers)
    state = tracer.run_job("setup", wl.setup, args.seed, workdir)
    setup_snap = tracer.snapshot()
    tracer.uninstall()
    wl.warm_up(state)
    m_plain = measure(wl, state, args.seconds / 2.0)
    tracer.install(callers)
    state.extra["trace"] = True
    state.extra["tracer"] = tracer
    m_traced = measure(wl, state, args.seconds / 2.0, tracer=tracer, whole_passes=True)
    tracer.uninstall()
    end_snap = tracer.snapshot()
    wl.finish(state)
    extra = wl.calibrate(state)
    plain, traced = m_plain.summary(), m_traced.summary()
    extra["trace.jobs_per_s_ratio"] = traced["jobs_per_s"] / plain["jobs_per_s"]
    metrics = layer_metrics(layer_names, setup_snap, end_snap, m_traced.passes, extra)
    m_plain.attempted += m_traced.attempted
    m_plain.failed += m_traced.failed
    m_plain.errors += m_traced.errors
    details = {"passes": [m_plain.passes, m_traced.passes],
               "untraced_jobs_per_s": plain["jobs_per_s"],
               "traced_jobs_per_s": traced["jobs_per_s"],
               "aggregates": end_snap["agg"], "raw_spans": tracer.raw}
    return m_plain, metrics, traced, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "injop", "__init__.py")):
        print(f"error: library sources not found under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads; children inherit it
    sys.path.insert(0, SRC)
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.workload == "cli":
        wl = workloads.CliWorkload(os.path.join(OUT_DIR, "cli_digests.json"),
                                   code_fingerprint())
    else:
        wl = workloads.WORKLOADS[args.workload]()
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            m, metrics, summary, details = run_traced(wl, args, workdir, names)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            m, metrics, summary, details = run_untraced(wl, args, workdir)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(workdir + "-again", ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    env = environment(args, len(m.latency), summary["tail_percentile"])
    record = {"env": env, "errors": m.errors, "metrics": metrics,
              **{k: v for k, v in details.items()
                 if k not in ("aggregates", "raw_spans", "per_job_ms")}}
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({**record, **details}, fh)
    for err in m.errors:
        print(f"failed {err}", file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

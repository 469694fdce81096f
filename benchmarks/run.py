"""Benchmark of ggraphs: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload construct --seed 1 --seconds 20 --trace 0

Run from anywhere; the program under test is ``src/ggraphs`` of the checkout
this file sits in.  One process drives the workload as a closed loop with
one client: it sets the inputs up, then runs whole passes over the
workload's fixed job list, one call after another, for about ``--seconds``
and three passes at least.  Every job's output of the last pass is checked,
and every pass must give the same outputs as the first.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

With ``--trace 0`` the metrics are end to end: set-up time (median of
fresh-process samples), pass time and per-job time (medians over passes),
peak RSS and the number of decided jobs.  Pass and job times are scaled to
a fixed host speed by a reference timed around each job (see ``reference``
and ``process_reference``); their wall times are kept in the details file.
With ``--trace 1`` untraced and traced passes alternate, and the metrics are
per layer, from spans the benchmark records around its own calls into
ggraphs.  Details, spans included, go to ``benchmarks/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("construct", "recognize", "spectra", "cli")
SETUP_SAMPLES = 3
# Per-job medians need three passes to outvote one disturbed sample; only
# recognize and cli, whose passes take about 12 s and 8 s with their
# reference samples, run past --seconds for it.
MIN_PASSES = 3
SETUP_TIMEOUT_S = 120
# What reference() and process_reference() typically take on the machine the
# README's figures come from; times are reported as if the host ran at that
# speed throughout.
REFERENCE_S = 0.009
PROCESS_REFERENCE_S = 0.17
PROCESS_REFERENCE = [sys.executable, "-c", "import numpy"]

END_TO_END_UNITS = {
    "setup_s": "s", "pass_s": "s", "job_p50_ms": "ms", "peak_rss_mb": "MB", "decided": "count",
}
# Span names (one per layer) and the per-layer metric of each one's self time.
LAYER_TIMES = {
    "groups": "groups.busy_s",
    "ggraph": "ggraph.busy_s",
    "analysis": "analysis.busy_s",
    "io": "io.busy_s",
    "infinite": "infinite.busy_s",
    "characterize": "characterize.busy_s",
    "witness": "characterize.witness_busy_s",
    "iso": "iso.busy_s",
    "spectral": "spectral.busy_s",
    "cli.import": "cli.import_s",
    "cli.build": "cli.build_s",
    "cli.analyze": "cli.analyze_s",
    "cli.characterize": "cli.characterize_s",
    "cli.spectrum": "cli.spectrum_s",
    "cli.infinite": "cli.infinite_s",
    "cli.export_dot": "cli.export_dot_s",
}
LAYER_COUNTS = {
    "groups.calls": "count", "groups.elements": "count",
    "ggraph.vertices": "count", "ggraph.edge_units": "count",
    "io.bytes": "B", "infinite.vertices": "count",
    "characterize.calls": "count", "characterize.witness_found": "count",
    "spectral.calls": "count", "spectral.dimension_sum": "count",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="prepare the inputs and exit (one set-up sample)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ggraphs" / "__init__.py").is_file():
        print(f"error: no ggraphs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans

    workload = importlib.import_module(args.workload)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        if args.setup_only:
            workload.prepare(args.seed, ROOT, workdir, spans.Untraced())
            return 0
        setup = [] if args.trace else setup_samples(args, workload)
        result, details = measure(args, workload, workdir, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        details["setup_s"] = setup
    details["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(details, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def reference() -> float:
    """Seconds a fixed piece of pure-Python work takes right now.

    The host's speed drifts by a quarter over minutes, so every job is
    bracketed by this and its time scaled to REFERENCE_S.  It runs no
    ggraphs code, so no change to the program moves it.
    """
    start = time.perf_counter()
    table = {}
    for i in range(40_000):
        key = i % 997
        table[key] = table.get(key, 0) + i * i
    return time.perf_counter() - start


def process_reference() -> float:
    """Seconds a fresh interpreter takes to import numpy and exit right now.

    Work in a child process is mostly interpreter start-up and imports,
    numpy's above all, whose speed neither reference() nor a bare
    interpreter start follows; this does.  It runs no ggraphs code.
    """
    start = time.perf_counter()
    # With a timeout and no pipes, run() polls for the exit at intervals that
    # double up to 50 ms, which rounds the time up; reading the pipes to
    # their end returns when the interpreter exits.
    subprocess.run(PROCESS_REFERENCE, check=True, capture_output=True, timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - start


def at_reference_speed(times, refs, reference_s) -> list[float]:
    """Each time scaled by reference_s over the mean of the reference
    samples taken just before and just after it (refs has one more)."""
    return [t * reference_s * 2 / (a + b) for t, a, b in zip(times, refs, refs[1:])]


def setup_samples(args, workload) -> list[float]:
    """Fresh processes that import ggraphs and prepare the inputs, timed at
    the reference speed of process_reference().

    Not scaled by reference(): timed from this process, that loop does not
    follow the child's speed, and scaling by it doubled the runs' spread.
    """
    if hasattr(workload, "setup_command"):
        command, env = workload.setup_command(ROOT)
    else:
        command = [sys.executable, str(Path(__file__)), "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
        env = None
    samples, refs = [], []
    for _ in range(SETUP_SAMPLES):
        refs.append(process_reference())
        start = time.perf_counter()
        done = subprocess.run(command, env=env, capture_output=True, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.decode()[-2000:]}")
    refs.append(process_reference())
    return at_reference_speed(samples, refs, PROCESS_REFERENCE_S)


def measure(args, workload, workdir, spans):
    setup_tracer = spans.Tracer() if args.trace else spans.Untraced()
    jobs = workload.prepare(args.seed, ROOT, workdir, setup_tracer)
    # Each job starts from a collected heap, so a cyclic collection that the
    # previous jobs' garbage made due does not land in it; the inputs, alive
    # for the whole run, are moved out of the collector's sight.
    gc.collect()
    gc.freeze()
    untraced = spans.Untraced()
    in_children = getattr(workload, "IN_CHILD_PROCESSES", False)
    measure_reference = process_reference if in_children else reference
    reference_s = PROCESS_REFERENCE_S if in_children else REFERENCE_S
    # (pass seconds and per-job seconds at the reference speed, tracer or
    #  None, layer counts, fingerprints, per-job wall seconds)
    passes = []
    references = []
    first = None
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = spans.Tracer() if traced else untraced
        outputs, times, refs = [], [], []
        for job in jobs:
            gc.collect()
            refs.append(measure_reference())
            t0 = time.perf_counter()
            if traced:
                outputs.append(tracer.call("job", job.run, tracer))
            else:
                outputs.append(job.run(tracer))
            times.append(time.perf_counter() - t0)
        refs.append(measure_reference())
        references += refs
        at_reference = at_reference_speed(times, refs, reference_s)
        prints = [job.fingerprint(out) for job, out in zip(jobs, outputs)]
        first = first or prints
        counts = Counter()
        if traced:
            counts.update(tracer.counts)
            for job, out in zip(jobs, outputs):
                counts.update(job.counts(out))
        passes.append((sum(at_reference), at_reference, tracer if traced else None, counts,
                       prints, times))
        attempted += len(jobs)
        failed += sum(bool(job.failed(out)) for job, out in zip(jobs, outputs))
        # Whole passes only: stop when another pass would end nearer past
        # the deadline than short of it, so a run lasts about --seconds.
        elapsed = time.perf_counter() - begin
        done = elapsed + elapsed / len(passes) / 2 >= args.seconds
        if done and len(passes) >= MIN_PASSES:
            break
        del outputs
    peak_rss = peak_rss_mb(in_children)

    problems = []
    for job, out in zip(jobs, outputs):
        problems += job.check(out)
    for index, (*_, prints, _) in enumerate(passes):
        problems += [f"{job.name}: pass {index} output differs from pass 0"
                     for job, a, b in zip(jobs, prints, first) if a != b]
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    walls = [p[0] for p in passes]
    details = {
        "workload": args.workload, "seed": args.seed, "passes": len(passes),
        "pass_s": walls, "pass_wall_s": [sum(p[5]) for p in passes], "problems": problems,
        "reference_median_s": statistics.median(references),
        "job_median_ms": {
            job.name: 1000 * statistics.median(p[1][i] for p in passes)
            for i, job in enumerate(jobs)
        },
        "job_median_wall_ms": {
            job.name: 1000 * statistics.median(p[5][i] for p in passes)
            for i, job in enumerate(jobs)
        },
        "failed_jobs": [job.name for job, out in zip(jobs, outputs) if job.failed(out)],
    }
    if args.trace:
        metrics = layer_metrics(setup_tracer, passes)
        details["spans"] = {
            "setup": setup_tracer.records(),
            "passes": [p[2].records() for p in passes if p[2] is not None],
        }
    else:
        metrics = {
            "pass_s": statistics.median(walls),
            "job_p50_ms": statistics.median(details["job_median_ms"].values()),
            "peak_rss_mb": peak_rss,
            "decided": sum(bool(job.decided(out)) for job, out in zip(jobs, outputs)),
        }
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in metrics.items()}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, details


def layer_metrics(setup_tracer, passes) -> dict:
    """The traced set-up once plus the median traced pass, per layer."""
    traced = [p for p in passes if p[2] is not None]
    plain = [p[0] for p in passes if p[2] is None]
    setup_self = setup_tracer.self_times()
    per_pass = [p[2].self_times() for p in traced]
    metrics = {}
    for layer, name in LAYER_TIMES.items():
        value = setup_self.get(layer, 0.0) + statistics.median(t.get(layer, 0.0) for t in per_pass)
        metrics[name] = {"value": value, "unit": "s"}
    for name, unit in LAYER_COUNTS.items():
        value = setup_tracer.counts[name] + statistics.median_low(p[3][name] for p in traced)
        metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(p[0] for p in traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def peak_rss_mb(of_children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # kilobytes on Linux


if __name__ == "__main__":
    sys.exit(main())

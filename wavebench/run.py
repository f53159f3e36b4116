#!/usr/bin/env python3
"""The repository benchmark: one command, four fixed-input simulations.

    python3 wavebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the `wavebench` package (release,
offline, into $CARGO_TARGET_DIR or .bench_build), then runs repetitions of
the workload, each in a fresh process, for about --seconds seconds:

* --trace 0 reports the end-to-end metrics: wall_s and cpu_s of the
  measured run, setup_s, peak_rss_mb.
* --trace 1 alternates untraced and traced repetitions and reports every
  per-layer metric over the traced ones (0 for a layer the workload does
  not run), plus trace.overhead, traced over untraced wall time.

Each metric is the lower quartile of its repetitions. On a shared machine
other tenants only ever slow a repetition down, in bursts that last tens
of seconds; the median of a run follows such a burst, the lower quartile
mostly does not, which halves the run-to-run spread.

A first, unmeasured repetition warms the machine up; for fleet_w1 and
fleet_w2 it runs the other worker count, so every fleet run also checks
that the worker count is invisible in the results. It counts against
--seconds, so a run lasts about --seconds in all.

Each repetition is one attempted operation. It fails when its process
fails, when one of its output checks fails (conservation and regime
checks, see src/), or when its fingerprint or work counters differ from
the first repetition's: same seed, traced or not, one and two workers,
the simulated outputs must be bit-identical. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "wavebench", "Cargo.toml")
WORKLOADS = ("sched_trace", "fleet_w1", "fleet_w2", "mem_phased")
WARMUP = {"fleet_w1": "fleet_w2", "fleet_w2": "fleet_w1"}
MIN_REPS = 3
REP_TIMEOUT_S = 60


def log(msg):
    print(f"[wavebench] {msg}", file=sys.stderr, flush=True)


def build():
    """Builds the benchmark binary and returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if done.returncode != 0:
        sys.exit(f"wavebench: build failed ({done.returncode})")
    return os.path.join(target, "release", "wavebench")


def as_batch_job():
    """Marks the calling process as a CPU-bound batch job (SCHED_BATCH).

    Without it, the kernel preempts on wakeups, and fleet_w2's three
    threads on a two-core machine flip between two scheduling modes from
    one process to the next (about 7k against 110k involuntary context
    switches per run, with 50% more CPU time in the second). Where the
    policy cannot be set, the repetition runs under the default one.
    """
    try:
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except OSError:
        pass


def repetition(binary, workload, seed, traced):
    """Runs one repetition; returns its JSON record, or None if it failed."""
    cmd = [binary, workload, "--seed", str(seed), "--trace", "1" if traced else "0"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S, preexec_fn=as_batch_job)
    except subprocess.TimeoutExpired:
        log(f"{workload}: repetition timed out")
        return None
    if done.returncode != 0:
        log(f"{workload}: exit {done.returncode}: {done.stderr.strip()[-500:]}")
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def lower_quartile(values):
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def declared_metrics(trace):
    """(name, unit) of the metrics BENCHMARK.json declares for the mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0:
        sys.exit("wavebench: --seed must be non-negative")
    declared = declared_metrics(args.trace)
    binary = build()

    attempted = failed = 0
    reference = None

    def run_checked(workload, traced):
        """One repetition, checked against the first; None if it failed."""
        nonlocal attempted, failed, reference
        attempted += 1
        rec = repetition(binary, workload, args.seed, traced)
        if rec is not None and rec["failures"]:
            log(f"{workload}: output checks failed: {rec['failures']}")
            rec = None
        if rec is not None:
            key = (rec["fingerprint"], rec["counters"])
            if reference is None:
                reference = key
            elif key != reference:
                log(f"{workload} (traced={traced}): outputs differ from the "
                    f"first repetition: {key} vs {reference}")
                rec = None
        if rec is None:
            failed += 1
        return rec

    start = time.monotonic()
    run_checked(WARMUP.get(args.workload, args.workload), False)
    rep_s = time.monotonic() - start
    plain, traced = [], []
    while True:
        elapsed = time.monotonic() - start
        reps = len(plain) + len(traced)
        if reps >= MIN_REPS and elapsed + rep_s > args.seconds:
            break
        if attempted >= MIN_REPS and failed > attempted // 2:
            break
        t = time.monotonic()
        with_trace = bool(args.trace) and len(traced) < len(plain)
        rec = run_checked(args.workload, with_trace)
        rep_s = time.monotonic() - t
        if rec is not None:
            (traced if with_trace else plain).append(rec)
            log(f"{args.workload} traced={int(with_trace)} " + " ".join(
                f"{k}={rec[k]:.6g}" for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")))

    metrics = {}
    if plain and (traced or not args.trace):
        for name, unit in declared:
            if not args.trace:
                value = lower_quartile(r[name] for r in plain)
            elif name == "trace.overhead":
                value = (lower_quartile(r["wall_s"] for r in traced)
                         / lower_quartile(r["wall_s"] for r in plain))
            else:
                value = lower_quartile(r["layers"].get(name, 0.0) for r in traced)
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()

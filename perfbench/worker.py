"""Run one workload in this fresh process and print its raw results.

Started by run.py, never by hand.  The process imports pvcalc, builds the
workload's inputs and notes the time (set-up ends there), then runs
passes over the inputs as a closed loop until --seconds have passed.
With --trace 1 the first half is untraced and the second half traced,
so the tracing overhead is measured in the same process.  The last line
of stdout is one JSON object.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from time import perf_counter

import pvcalc  # noqa: F401  (the import is part of set-up)
import pvcalc._kernel as kernel

import tracer
import workloads

BENCHES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benches")

MAX_FAILURE_NOTES = 5


def run_pass(workload, caches, trace=None):
    """One pass over the workload's input set; returns its record."""
    for cache in caches:
        cache.cache_clear()
    if trace is not None:
        trace.reset()
    times = []
    failures = []
    for index, (op, check) in enumerate(workload.pass_ops()):
        if trace is not None:
            trace.active = True
        t0 = perf_counter()
        try:
            result = op()
            error = None
        except Exception as exc:  # a raising op is a failed op
            error = exc
        times.append(perf_counter() - t0)
        if trace is not None:
            trace.active = False
        if error is None:
            try:
                if not check(result):
                    error = "result disagrees with the oracle"
            except Exception as exc:  # so does a result the check chokes on
                error = exc
        if error is not None:
            failures.append(f"op {index}: {error!r}")
    record = {"times": times, "failures": failures}
    if trace is not None:
        record["layers"] = trace.summary(len(times))
    return record


def run_phase(workload, caches, deadline, trace=None, between=None):
    """Passes until the next one would end after the deadline (at least one).

    between(), when given, runs after each pass, inside the pass's budget.
    """
    passes = []
    while True:
        t0 = perf_counter()
        passes.append(run_pass(workload, caches, trace))
        if between is not None:
            between()
        if perf_counter() + (perf_counter() - t0) > deadline:
            return passes


def kernel_micro(n_pairs):
    """Per-call time of pmul and pcyclo_div in us, from the synthetic
    bench of benches/bench_kernel.py (n_pairs pmul pairs, n_pairs // 2
    pcyclo_div inputs, d = 12, the best of five repetitions)."""
    sys.path.insert(0, BENCHES)
    import bench_kernel

    best = {op: b for op, (b, _) in
            bench_kernel.bench_kernel(kernel, 7, n_pairs, 12).items()}
    return {
        "kernel.micro.pmul_us": best["pmul"] / n_pairs * 1e6,
        "kernel.micro.pcyclo_div_us": best["pcyclo_div"] / (n_pairs // 2)
        * 1e6,
    }


class StartUp:
    """Wall times of a bare interpreter and of one importing the CLI,
    sampled in pairs so that both see the same machine load."""

    ARGV = ([sys.executable, "-c", "pass"],
            [sys.executable, "-c", "import pvcalc.cli"])

    def __init__(self, env):
        self.env = env
        self.times = ([], [])

    def sample(self):
        # spawned exactly as the cli workload spawns its commands
        for argv, out in zip(self.ARGV, self.times):
            t0 = perf_counter()
            subprocess.run(argv, env=self.env, check=True, timeout=60,
                           capture_output=True, text=True)
            out.append(perf_counter() - t0)

    def best(self, at_least):
        while len(self.times[0]) < at_least:
            self.sample()
        return [min(t) for t in self.times]


def op_best(passes):
    """Each op's fastest time over the passes (passes list ops in one order).

    The same op repeated on this kind of shared machine runs up to 1.6
    times slower in busy stretches that last longer than a run, which
    moves any average or median between runs; the fastest repetition
    stays put.
    """
    return [min(column) for column in zip(*(p["times"] for p in passes))]


def end_to_end(workload, passes):
    ops = op_best(passes)
    wall = sum(ops)
    # cli runs the program only in its children; the worker's own memory
    # is the harness's
    who = (resource.RUSAGE_CHILDREN if workload.name == "cli"
           else resource.RUSAGE_SELF)
    rss = resource.getrusage(who).ru_maxrss
    return {
        "wall_s": wall,
        "ops_per_s": len(ops) / wall,
        "op_p50_ms": statistics.median(ops) * 1e3,
        "op_p90_ms": statistics.quantiles(ops, n=10, method="inclusive")[8]
        * 1e3,
        "peak_rss_mb": rss / 1024,
    }


def per_layer(args, workload, untraced, traced, start_up):
    metrics = {}
    for key in traced[0]["layers"]:
        metrics[key] = statistics.median(p["layers"][key] for p in traced)
    metrics["trace.overhead_ratio"] = (sum(op_best(traced))
                                       / sum(op_best(untraced)))
    spawn, imported = start_up.best(2 if args.tiny else 5)
    metrics["cli.spawn_s"] = spawn
    metrics["cli.import_s"] = imported - spawn
    metrics["cli.command_s"] = 0.0
    if workload.name == "cli":
        # the traced passes ran while the start-up samples were taken
        metrics["cli.command_s"] = (statistics.median(op_best(traced))
                                    - imported)
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()

    env = dict(os.environ)
    workdir = os.path.join(args.out_dir, f"cli-{os.getpid()}")
    try:
        workload = workloads.build(args.workload, args.seed, args.tiny,
                                   workdir=workdir, env=env)
        t_ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"t_ready": t_ready}))
            return 0
        return measure(args, workload, t_ready, env)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, t_ready, env):
    caches = tracer.lru_caches(tracer.pvcalc_modules())
    workload.prepare()
    start = perf_counter()
    if args.trace:
        micro = kernel_micro(50 if args.tiny else 400)
        untraced = run_phase(workload, caches, start + args.seconds / 2)
        trace = tracer.Tracer()
        trace.install()
        start_up = StartUp(env)
        traced = run_phase(workload, caches, start + args.seconds, trace,
                           between=start_up.sample)
        passes = untraced + traced
        metrics = per_layer(args, workload, untraced, traced, start_up)
        metrics.update(micro)
        trace.dump(os.path.join(
            args.out_dir, f"spans-{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed,
             "impl": kernel.IMPL_NAME})
    else:
        passes = run_phase(workload, caches, start + args.seconds)
        metrics = end_to_end(workload, passes)
    failures = [f for p in passes for f in p["failures"]]
    print(json.dumps({
        "t_ready": t_ready,
        "attempted": sum(len(p["times"]) for p in passes),
        "failed": len(failures),
        "metrics": metrics,
        "info": {"impl": kernel.IMPL_NAME, "passes": len(passes),
                 "ops_per_pass": len(passes[0]["times"]),
                 "failures": failures[:MAX_FAILURE_NOTES]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

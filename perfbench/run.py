"""pvcalc benchmark: end-to-end and per-layer metrics of four workloads.

Run from anywhere, with the repository's source tree in place:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --tiny --seconds 1

Each workload runs in its own fresh process (worker.py) as a closed
loop with one caller.  --trace 0 reports the end-to-end metrics, --trace
1 the per-layer metrics of a separate traced run.  Every op's result is
checked against an oracle; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  See README.md for
what each workload and metric is for.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("chain", "sweep", "residue", "cli")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20261017
# set-up-only processes before and after the measuring worker in a
# --trace 0 run; setup_s is the median of these and the worker's set-up
SETUP_SAMPLES_EACH_SIDE = 8
RUN_LIMIT_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _per_layer_units():
    units = {}
    for op in ("pcyclo_mul", "pcyclo_div", "pmul", "padd"):
        units[f"kernel.{op}.calls"] = "count"
        units[f"kernel.{op}.s"] = "s"
    units["kernel.pcyclo_div.success_ratio"] = "ratio"
    units["kernel.terms_out"] = "count"
    units["kernel.micro.pmul_us"] = "us"
    units["kernel.micro.pcyclo_div_us"] = "us"
    units["motring.ring_sum.terms"] = "count"
    units["motring.ring_sum.den_degree_max"] = "count"
    units["motring.lfactor.calls"] = "count"
    units["motring.lfactor.cache_hit_ratio"] = "ratio"
    units["motring.realize.s"] = "s"
    units["surface.validate.per_op"] = "calls/op"
    units["pvint.invariant_sum.cache_hit_ratio"] = "ratio"
    for name in ("motring.ring_sum", "motring.mul", "motring.euler_realize",
                 "motring.numeric_eval", "surface.validate",
                 "surface.stratum_class", "pvint.invariant_sum",
                 "birational.blow_up", "birational.invariance_delta",
                 "birational.exceptional_alphas", "zeta.residue_contribution",
                 "zeta.pole_report", "zeta.zmot_from_surface",
                 "zeta.residue_via_substitution"):
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units["cli.spawn_s"] = "s"
    units["cli.import_s"] = "s"
    units["cli.command_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


class BenchError(Exception):
    pass


def git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def spawn(args, workload, env, deadline, setup_only=False):
    """Run one worker; returns its parsed result plus its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}\n"
                         + proc.stderr[-4000:])
    result = json.loads(lines[-1])
    result["setup"] = result["t_ready"] - t0
    return result


def run_workload(args, workload, env, deadline):
    # set-up samples on both sides of the measuring run, so that they
    # span the run's stretch of machine load, not only its start
    setups = []
    sample = 0 if args.trace else SETUP_SAMPLES_EACH_SIDE
    for _ in range(sample):
        setups.append(spawn(args, workload, env, deadline, True)["setup"])
    result = spawn(args, workload, env, deadline)
    for _ in range(sample):
        setups.append(spawn(args, workload, env, deadline, True)["setup"])
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup"])
        metrics["setup_s"] = statistics.median(setups)
        result["info"]["setups"] = setups
    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        raise BenchError(f"{workload}: metrics {sorted(set(metrics) ^ set(units))}"
                         " are missing or unexpected")
    result["metrics"] = {k: {"value": metrics[k], "unit": units[k]}
                         for k in units}
    return result


def report(workload, args, result):
    info = result["info"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"(kernel {info['impl']}, {info['passes']} passes, "
          f"{attempted} ops)")
    for name, m in result["metrics"].items():
        extra = ""
        if name == "setup_s":
            setups = info["setups"]
            extra = (f"  (median of {len(setups)} set-ups, fastest "
                     f"{min(setups):.6g} s, slowest {max(setups):.6g} s)")
        if name in ("op_p50_ms", "op_p90_ms"):
            extra = (f"  (over {info['ops_per_pass']} ops, each the fastest"
                     f" of {info['passes']} passes)")
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}{extra}")
    print(f"  {'fail_ratio':<40} {failed / attempted:.6g} ratio"
          f"  ({failed} of {attempted} ops)")
    for note in info["failures"]:
        print(f"  failure: {note}")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; "
                         f"held-out seed {HELD_OUT_SEED})")
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="how long each workload measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args()

    if not (ROOT / "src" / "pvcalc" / "__init__.py").is_file():
        print(f"error: no pvcalc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(
            os.pathsep) if p])
    OUT_DIR.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S * (
        len(WORKLOADS) if args.workload == "all" else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    results = {}
    try:
        for name in names:
            results[name] = run_workload(args, name, env, deadline)
            report(name, args, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    meta = {"seed": args.seed, "trace": args.trace, "tiny": args.tiny,
            "kernel_impl": results[names[0]]["info"]["impl"],
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
            "workloads": list(names)}
    print("meta " + json.dumps(meta))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n in names
                   for k, v in results[n]["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

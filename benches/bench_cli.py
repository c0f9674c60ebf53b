"""Benchmark: one pvcalc command per process, as the perfbench cli
workload runs them.

Builds the eight commands of that workload (four compute realizations,
blowup, blowdown, residue, validate) on its inputs, and runs each as
`python -m pvcalc.cli ...` in a fresh child with PYTHONDONTWRITEBYTECODE=1,
so that every child compiles from source each pvcalc module it imports.
A bare `python -c pass` child is timed alongside: the interpreter's own
start-up, which no change to pvcalc can remove.  The rounds interleave
the nine children, so a slow stretch of the machine reaches all of them.
Per child the report gives the fastest and the median wall time, and
which pvcalc modules the command loads (from one extra child that runs
it through pvcalc.cli.main and lists sys.modules).  Every command's
output and written file are checked against the workload's in-process
expectation outside the timed region.

Run:  PYTHONPATH=src python3 benches/bench_cli.py [--rounds 20] [--seed 1]
                                                  [--out BENCH_cli.json]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
BARE = "python -c pass"

# runs one command through main and prints the pvcalc modules it loaded
_LIST_MODULES = """
import contextlib, io, json, sys
import pvcalc.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = pvcalc.cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[0] == "pvcalc")]))
"""


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def modules_loaded(argv, env):
    proc = subprocess.run([sys.executable, "-c", _LIST_MODULES,
                           json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=60)
    code, modules = json.loads(proc.stdout)
    if code != 0:
        raise SystemExit(f"{argv}: exit code {code}")
    return modules


def bare(env):
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                   timeout=60)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="BENCH_cli.json")
    args = ap.parse_args()

    sys.path.insert(0, PERFBENCH)
    import workloads

    env = child_env()
    with tempfile.TemporaryDirectory() as workdir:
        cli = workloads.Cli(args.seed, workdir=workdir, env=env)
        cli.prepare()
        names = [name for name, _ in cli.commands]
        ops = list(cli.pass_ops())
        modules = {name: modules_loaded(argv, env)
                   for name, argv in cli.commands}
        times = {name: [] for name in names + [BARE]}
        for _ in range(args.rounds):
            for name, (op, check) in zip(names, ops):
                t0 = time.perf_counter()
                result = op()
                times[name].append(time.perf_counter() - t0)
                if not check(result):
                    raise SystemExit(f"{name}: wrong output {result!r}")
            t0 = time.perf_counter()
            bare(env)
            times[BARE].append(time.perf_counter() - t0)

    rows = []
    for name, ts in times.items():
        row = {"command": name, "min_ms": 1e3 * min(ts),
               "median_ms": 1e3 * statistics.median(ts)}
        if name in modules:
            row["pvcalc_modules"] = modules[name]
        rows.append(row)
        print(f"{name:<16} min {row['min_ms']:7.1f} ms  "
              f"median {row['median_ms']:7.1f} ms  "
              f"{' '.join(row.get('pvcalc_modules', []))}")

    report = {
        "bench": "one pvcalc command per child process, the perfbench cli "
                 "workload's eight commands and a bare interpreter",
        "timing": f"{args.rounds} interleaved rounds of every child, wall "
                  "time per child including spawn; PYTHONDONTWRITEBYTECODE=1",
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commands": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()

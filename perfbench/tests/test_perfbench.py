"""Tests of the benchmark itself: metric coverage, oracles, failure counting.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from pvcalc import birational, models, motring, pvint  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_tiny(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all",
         "--tiny", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_and_no_failures(trace):
    text, result = _run_tiny(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for name in run.WORKLOADS:
        assert f"workload {name}" in text
        for m in declared:
            got = result["metrics"][f"{name}.{m['name']}"]
            assert got["unit"] == m["unit"]
            assert math.isfinite(got["value"])
            assert f"  {m['name']} " in text
    assert text.count("fail_ratio") == len(run.WORKLOADS)
    assert "fail_ratio                               0 ratio" in text
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        for name, _, _ in tracer.SPANS:
            for w in run.WORKLOADS:
                assert (metrics[f"{w}.{name}.self_s"]
                        <= metrics[f"{w}.{name}.s"] + 1e-9)
        assert metrics["chain.pvint.invariant_sum.calls"] > 0
        assert metrics["chain.kernel.pcyclo_mul.calls"] > 0
        assert metrics["sweep.birational.invariance_delta.calls"] > 0
        assert metrics["residue.zeta.residue_via_substitution.calls"] > 0
        assert metrics["cli.cli.spawn_s"] > 0


def _corrupt_chain(w):
    w.expect[0][2] = Fraction(1)


def _corrupt_sweep(w):
    jump, closed = w.expect[0]
    w.expect[0] = ({t: v + 1 for t, v in jump.items()}, closed)


def _corrupt_residue(w):
    w.expect[0]["euler"] += 1


def _corrupt_cli(w):
    text, written = w.expect["compute-euler"]
    w.expect["compute-euler"] = (text + "x", written)


@pytest.mark.parametrize("name, corrupt", [
    ("chain", _corrupt_chain), ("sweep", _corrupt_sweep),
    ("residue", _corrupt_residue), ("cli", _corrupt_cli)])
def test_corrupted_oracle_answer_counts_as_failure(name, corrupt, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"),
                                         env.get("PYTHONPATH", "")])
    w = workloads.build(name, 1, tiny=True, workdir=str(tmp_path), env=env)
    w.prepare()
    caches = tracer.lru_caches(tracer.pvcalc_modules())
    assert worker.run_pass(w, caches)["failures"] == []
    corrupt(w)
    failures = worker.run_pass(w, caches)["failures"]
    assert len(failures) == 1
    assert "disagrees with the oracle" in failures[0]


def test_oracle_agrees_with_the_program():
    for cfg in [models.plane_conic()] + [models.random_config(s)
                                         for s in range(5)]:
        shape = oracle.shape_of(cfg)
        inv = pvint.e_invariant(cfg)
        for t in (2, 3):
            assert motring.numeric_eval(inv, t ** cfg.d) == [
                oracle.value_at(shape, t)]
        assert oracle.euler_value(shape) == motring.euler_realize(inv)
        for center in models.candidate_centers(cfg) + [birational.free()]:
            after = oracle.blow_up(shape, center.kind, center.a, center.b)
            want = oracle.shape_of(birational.blow_up(cfg, center))
            assert oracle.value_at(after, 2) == oracle.value_at(want, 2)
    # the plane conic's known invariant -(w^3 + w^2 + w)
    assert oracle.value_at(oracle.shape_of(models.plane_conic()), 2) == -14


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_bookkeeping_is_in_no_span():
    def slow_count(args):
        time.sleep(0.05)
        return args

    tr = tracer.Tracer()
    inner = tr._span("inner", lambda x: x, before=slow_count)
    outer = tr._span("outer", lambda x: inner(x))
    tr.active = True
    assert outer(1) == 1
    (_, o0, o1, _), (_, i0, i1, parent) = tr.spans
    assert parent == 0
    assert o1 - o0 < 0.04 and i1 - i0 < 0.04
    assert tr.hidden >= 0.05

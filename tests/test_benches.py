"""Smoke tests of the benches: a bench that times from cold must clear
what pvcalc keeps on the objects it sums, not only the module caches,
or it times a lookup."""

import os
import sys

from pvcalc.pvint import invariant_sum

from oracles import chain_config

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benches"))

import bench_ring  # noqa: E402  (benches/bench_ring.py, on the path above)


def test_bench_ring_sums_from_cold():
    cfg = chain_config(10)
    want = bench_ring.stored(invariant_sum(cfg))
    stages, staged = bench_ring.stage_times(cfg, repeat=1)
    assert set(stages) == set(bench_ring.STAGES)
    assert bench_ring.stored(staged) == want
    assert bench_ring.stored(invariant_sum(cfg)) == want
    counts = bench_ring.kernel_counts(cfg)
    assert counts["kernel_calls"] > 0 and counts["terms_out"] > 0

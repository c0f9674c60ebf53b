"""Benchmark: the two hot kernel operations, pmul and pcyclo_div.

Times them on synthetic polynomial data (d = 12): pmul on random pairs,
pcyclo_div on products with (w^k - 1), k in 1..3, so every division
succeeds.

Run:  PYTHONPATH=src python3 benches/bench_kernel.py [--quick]
"""

import argparse
import random
import statistics
import time

import pvcalc._kernel as kernel


def synth_polys(rng, n, terms, d):
    out = []
    for _ in range(n):
        p = {}
        for _ in range(terms):
            t = rng.randint(-4, 4)
            c = rng.randint(0, 3 * d)
            p[(t << 32) | c] = rng.randint(-9, 9) or 1
        out.append(p)
    return out


def time_op(fn, pairs, repeat=5):
    """(best, median) seconds of one pass of fn over pairs."""
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for a, b in pairs:
            fn(a, b)
        samples.append(time.perf_counter() - t0)
    return min(samples), statistics.median(samples)


def bench_kernel(impl, rng_seed, n_pairs, d):
    """{"pmul": (best, median), "pcyclo_div": (best, median)} seconds for
    n_pairs products and n_pairs // 2 divisions with the kernel impl."""
    rng = random.Random(rng_seed)
    polys = synth_polys(rng, 2 * n_pairs, 12, d)
    pairs = list(zip(polys[0::2], polys[1::2]))
    results = {}
    results["pmul"] = time_op(lambda a, b: impl.pmul(a, b, d), pairs)
    # divisible inputs for the cyclotomic division
    div_pairs = []
    for a, _ in pairs[: n_pairs // 2]:
        k = rng.choice((1, 2, 3))
        prod = impl.pcyclo_mul(a, k)
        div_pairs.append((prod, k))
    results["pcyclo_div"] = time_op(
        lambda p, k: impl.pcyclo_div(p, k), div_pairs)
    return results


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true",
                    help="400 pairs instead of 2000")
    args = ap.parse_args()
    n_pairs = 400 if args.quick else 2000
    d = 12

    res = bench_kernel(kernel, 7, n_pairs, d)
    print(f"kernel ops ({n_pairs} pairs, d = {d}, best of 5):")
    print(f"{'op':<12} {'best s':>10} {'median s':>10}")
    for op, (best, med) in res.items():
        print(f"{op:<12} {best:>10.4f} {med:>10.4f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Benchmark the leave-one-out scoring kernel, `_core.loo_cv_batch`.

The kernel is the hot path of hypothesis search (one call per candidate
family per grid line). Shapes below mirror real search workloads: 59
hypotheses on 5-point lines, and small candidate sets on 25-point grids.

Usage: python benchmarks/bench_core.py [repeats]
"""

import sys
import time

import numpy as np

from perfprior import _core


def workloads(rng):
    line = rng.uniform(1.0, 1e4, size=(59, 5, 2))
    line_y = rng.uniform(0.1, 10.0, size=5)
    grid = rng.uniform(1.0, 1e8, size=(7, 25, 3))
    grid_y = rng.uniform(0.1, 10.0, size=25)
    wide = rng.uniform(1.0, 1e4, size=(64, 25, 4))
    return [
        ("single-param line (59 x 5 x 2)", line, line_y),
        ("multi candidates (7 x 25 x 3)", grid, grid_y),
        ("wide family     (64 x 25 x 4)", wide, grid_y),
    ]


def bench(a, y, repeats):
    _core.loo_cv_batch(a, y)  # warm up
    start = time.perf_counter()
    for _ in range(repeats):
        _core.loo_cv_batch(a, y)
    return (time.perf_counter() - start) / repeats


def main():
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    rng = np.random.default_rng(0)
    print(f"{'workload':<32} {'loo_cv_batch':>12}")
    for label, a, y in workloads(rng):
        print(f"{label:<32} {bench(a, y, repeats) * 1e6:>10.1f}us")


if __name__ == "__main__":
    main()

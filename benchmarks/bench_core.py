#!/usr/bin/env python3
"""Benchmark the leave-one-out scoring kernel, `_core.loo_cv_batch`.

The kernel is the hot path of hypothesis search: one call per candidate
stack, scoring every grid line of an axis (or the full grid) at once.
Shapes below mirror real search workloads: 59 hypotheses on 5-point
lines, alone and for the 25 lines of an m=3 axis, and small candidate sets
on 25-point grids. The 25-line shape is timed both as a per-line loop and
as one multi-target call.

Usage: python benchmarks/bench_core.py [repeats]
"""

import sys
import time

import numpy as np

from perfprior import _core


def workloads(rng):
    line = rng.uniform(1.0, 1e4, size=(59, 5, 2))
    line_y = rng.uniform(0.1, 10.0, size=5)
    lines_y = rng.uniform(0.1, 10.0, size=(25, 5))
    grid = rng.uniform(1.0, 1e8, size=(7, 25, 3))
    grid_y = rng.uniform(0.1, 10.0, size=25)
    wide = rng.uniform(1.0, 1e4, size=(64, 25, 4))

    def per_line():
        for y in lines_y:
            _core.loo_cv_batch(line, y)

    return [
        ("single-param line (59 x 5 x 2)", lambda: _core.loo_cv_batch(line, line_y)),
        ("25 lines (59 x 5 x 2), line loop", per_line),
        ("25 lines (59 x 5 x 2), one call", lambda: _core.loo_cv_batch(line, lines_y)),
        ("multi candidates (7 x 25 x 3)", lambda: _core.loo_cv_batch(grid, grid_y)),
        ("wide family     (64 x 25 x 4)", lambda: _core.loo_cv_batch(wide, grid_y)),
    ]


def bench(call, repeats):
    call()  # warm up
    start = time.perf_counter()
    for _ in range(repeats):
        call()
    return (time.perf_counter() - start) / repeats


def main():
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 200
    rng = np.random.default_rng(0)
    print(f"{'workload':<34} {'loo_cv_batch':>12}")
    for label, call in workloads(rng):
        print(f"{label:<34} {bench(call, repeats) * 1e6:>10.1f}us")


if __name__ == "__main__":
    main()

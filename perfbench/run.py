#!/usr/bin/env python3
"""End-to-end benchmark of the `perfprior` command line, run in-process.

    python3 perfbench/run.py --workload model-m3 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process, one caller, a closed loop: each op is one `perfprior.cli.main`
call with `--jobs 1`, and the next starts when it returns. A round runs
every op of the workload once, a classic op and an SWC op on each input in
turn; rounds repeat until --seconds have passed (at least two rounds, so
every op is repeated and its output compared byte for byte). Every output
is checked (see checks.py); an op that exits non-zero, raises, or fails a
check counts as failed.

--seed is the only randomness: it derives every spec, simulation and noise
seed. With --trace 0 the last stdout line is the JSON result with the
end-to-end metrics; with --trace 1 the layer boundaries are wrapped (see
tracing.py), the result carries the per-layer metrics, and the spans go to
perfbench/out/. See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("model-m3", "noise-study", "reps-study")
PIPELINES = ("classic", "swc")
KERNELS = 2
REPS = 5

MODEL_SPECS = 12
MODEL_PAIRED = 2  # the first specs get a second noise draw
MODEL_NOISE_PCT = 50.0

NOISE_SPECS = 8
NOISE_INTENSITIES = [10.0, 75.0]
NOISE_PATTERNS = ["uniform", "truncated_normal", "scaled_poisson", "scaled_exponential"]
NOISE_TRIALS = 1

REPS_SPECS = 4
REPS_BASELINE_NOISE = 0.5

SETUP_REPEATS = 3
MIN_ROUNDS = 2


@dataclass
class Op:
    """One CLI invocation and how to judge its output."""

    argv: list[str]
    pipeline: str
    fits: int
    out: Path
    check: Callable[[bytes], None]


def _seed(seed: int, *path: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


# -- workloads ---------------------------------------------------------------


def setup_model_m3(seed: int, work: Path, notes: Counter) -> list[Op]:
    """m = 3 specs, each simulated once and given 50% uniform noise (the
    first MODEL_PAIRED specs twice, with two draws); one classic and one
    SWC op per experiment file."""
    from checks import check_model_report, check_same_structure, structure, truth_mismatches
    from perfprior import benchgen
    from perfprior.dataset import save_experiment
    from perfprior.noise import NoiseConfig, NoisePattern, inject

    ops = []
    for idx in range(MODEL_SPECS):
        spec_seed = _seed(seed, 0, idx)
        spec = benchgen.random_spec(spec_seed, 3, KERNELS)
        exp = benchgen.simulate_measurements(spec, REPS, 0.0, spec_seed)
        truth = benchgen.truth_by_callpath(spec)
        names = list(spec.space.names)
        swc_shape: dict = {}  # the SWC structure every draw of this spec shares
        for draw in range(2 if idx < MODEL_PAIRED else 1):
            noise = NoiseConfig(NoisePattern("uniform"), MODEL_NOISE_PCT / 100.0,
                                1.0, _seed(seed, 0, idx, draw))
            path = work / f"exp_{idx}_{draw}.json"
            save_experiment(inject(exp, noise), path)
            for pipeline in PIPELINES:
                out = work / f"report_{idx}_{draw}_{pipeline}.json"

                def check(data, path=path, pipeline=pipeline, shape=swc_shape,
                          truth=truth, names=names):
                    report = json.loads(data)
                    check_model_report(report, json.loads(path.read_bytes()), pipeline)
                    if pipeline == "swc":
                        check_same_structure(report, shape.setdefault("ref", structure(report)))
                        notes["swc_truth_mismatches"] += len(
                            truth_mismatches(report, names, truth))

                argv = ["model", "--experiment", str(path), "--pipeline", pipeline,
                        "--out", str(out)]
                ops.append(Op(argv, pipeline, 1, out, check))
    return ops


def _spec_files(seed: int, work: Path, workload: int, count: int) -> list[tuple[int, Path]]:
    from perfprior import benchgen

    files = []
    for idx in range(count):
        spec_seed = _seed(seed, workload, idx)
        path = work / f"spec_{idx}.json"
        benchgen.save_spec(benchgen.random_spec(spec_seed, 2, KERNELS), path)
        files.append((spec_seed, path))
    return files


def setup_noise_study(seed: int, work: Path, notes: Counter) -> list[Op]:
    """m = 2 specs; intensities 10 and 75 under all four patterns."""
    from checks import check_noise_study, swc_ed

    fits = len(NOISE_INTENSITIES) * len(NOISE_PATTERNS) * NOISE_TRIALS
    ops = []
    for idx, (spec_seed, path) in enumerate(_spec_files(seed, work, 1, NOISE_SPECS)):
        for pipeline in PIPELINES:
            out = work / f"noise_{idx}_{pipeline}.json"

            def check(data, pipeline=pipeline):
                table = json.loads(data)
                check_noise_study(table, pipeline, NOISE_INTENSITIES,
                                  NOISE_PATTERNS, NOISE_TRIALS)
                if pipeline == "swc":
                    notes["swc_nonzero_ed_ops"] += swc_ed(table) != 0

            argv = ["study-noise", "--spec", str(path), "--pipeline", pipeline,
                    "--reps", str(REPS),
                    "--intensities", ",".join(f"{v:g}" for v in NOISE_INTENSITIES),
                    "--patterns", ",".join(NOISE_PATTERNS),
                    "--trials", str(NOISE_TRIALS), "--seed", str(spec_seed),
                    "--jobs", "1", "--out", str(out)]
            ops.append(Op(argv, pipeline, fits, out, check))
    return ops


def setup_reps_study(seed: int, work: Path, notes: Counter) -> list[Op]:
    """m = 2 specs, 5 repetitions at baseline noise 0.5: 31 subsets per op."""
    from checks import check_reps_study, swc_ed

    fits = 2**REPS - 1
    ops = []
    for idx, (spec_seed, path) in enumerate(_spec_files(seed, work, 2, REPS_SPECS)):
        for pipeline in PIPELINES:
            out = work / f"reps_{idx}_{pipeline}.json"

            def check(data, pipeline=pipeline):
                table = json.loads(data)
                check_reps_study(table, pipeline, REPS)
                if pipeline == "swc":
                    notes["swc_nonzero_ed_ops"] += swc_ed(table) != 0

            argv = ["study-reps", "--spec", str(path), "--pipeline", pipeline,
                    "--reps", str(REPS),
                    "--baseline-noise", f"{REPS_BASELINE_NOISE:g}",
                    "--seed", str(spec_seed), "--jobs", "1", "--out", str(out)]
            ops.append(Op(argv, pipeline, fits, out, check))
    return ops


SETUPS = {
    "model-m3": (setup_model_m3, 5**3),
    "noise-study": (setup_noise_study, 5**2),
    "reps-study": (setup_reps_study, 5**2),
}


# -- one run -------------------------------------------------------------------


def _call(cli_main, argv: list[str]) -> tuple[int | None, bytes]:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli_main(argv)
    except (Exception, SystemExit) as exc:  # the op failed; the run goes on
        print(f"op {argv[0]} raised {exc!r}", file=sys.stderr)
        rc = None
    return rc, buf.getvalue().encode()


def run_workload(args) -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if not (SRC / "perfprior" / "__init__.py").is_file():
        print(f"error: no perfprior package under {SRC}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import perfprior
    from perfprior import cli
    import_s = time.perf_counter() - start

    from checks import CheckError
    from tracing import Tracer

    setup, grid_points = SETUPS[args.workload]
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        notes: Counter = Counter()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            start = time.perf_counter()
            ops = setup(args.seed, work, notes)
            setup_times.append(_fresh_import_s() + time.perf_counter() - start)

        tracer = Tracer(grid_points) if args.trace else None
        if tracer:
            tracer.install()
        latencies = {p: [] for p in PIPELINES}
        busy = dict.fromkeys(PIPELINES, 0.0)
        fits = dict.fromkeys(PIPELINES, 0)
        round_rates = {p: [] for p in PIPELINES}
        seen: dict[int, bytes] = {}
        attempted = failed = 0
        correct = True
        rounds = 0
        begin = time.perf_counter()
        while rounds < MIN_ROUNDS or time.perf_counter() - begin < args.seconds:
            busy_before, fits_before = dict(busy), dict(fits)
            for idx, op in enumerate(ops):
                attempted += 1
                if tracer:
                    tracer.begin_op(attempted)
                t0 = time.perf_counter()
                rc, stdout = _call(cli.main, op.argv)
                elapsed = time.perf_counter() - t0
                if tracer:
                    tracer.end_op()
                busy[op.pipeline] += elapsed
                if rc != 0:
                    failed += 1
                    continue
                output = op.out.read_bytes()
                try:
                    if idx in seen:
                        if seen[idx] != stdout + output:
                            raise CheckError("output differs from the op's first run")
                    else:
                        op.check(output)
                        seen[idx] = stdout + output
                except CheckError as exc:
                    print(f"check failed: {' '.join(op.argv[:5])}: {exc}", file=sys.stderr)
                    failed += 1
                    correct = False
                    continue
                latencies[op.pipeline].append(elapsed)
                fits[op.pipeline] += op.fits
            for p in PIPELINES:
                round_rates[p].append(
                    (fits[p] - fits_before[p]) / (busy[p] - busy_before[p]))
            rounds += 1
        timed_s = time.perf_counter() - begin
    finally:
        shutil.rmtree(work, ignore_errors=True)

    total_fits = sum(fits.values())
    if tracer:
        layer = tracer.layer_metrics(total_fits) if total_fits else {}
        metrics = {name: {"value": v, "unit": _layer_unit(name)} for name, v in layer.items()}
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {"setup_s": {"value": statistics.median(setup_times), "unit": "s"}}
        for p in PIPELINES:
            if fits[p]:
                metrics[f"{p}_fits_per_s"] = {
                    "value": statistics.median(round_rates[p]), "unit": "1/s"}
        for p in PIPELINES:
            if latencies[p]:
                metrics[f"{p}_op_p50_ms"] = {
                    "value": statistics.median(latencies[p]) * 1e3, "unit": "ms"}
        metrics["peak_rss_mb"] = {"value": rss_kb / 1024.0, "unit": "MB"}

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    header = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "timed_s": timed_s,
        "ops": {p: len(latencies[p]) for p in PIPELINES},
        "fits": fits,
        "fits_per_s_overall": {p: fits[p] / busy[p] for p in PIPELINES if busy[p]},
        "fits_per_s_rounds": round_rates,
        "op_ms": {p: [round(t * 1e3, 3) for t in latencies[p]] for p in PIPELINES},
        "import_s": import_s, "setup_repeats_s": setup_times,
        "notes": dict(notes),
        "environment": _environment(perfprior),
        "result": result,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if tracer:
        tracer.write(out_dir / f"trace-{stem}.json", header, max(total_fits, 1))
    else:
        with open(out_dir / f"result-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1)
            fh.write("\n")

    for name, m in metrics.items():
        print(f"{args.workload:<12} {name:<30} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:<12} attempted {attempted}, failed {failed}, "
          f"{rounds} rounds in {timed_s:.1f} s")
    print(json.dumps(result))
    return 0


def _fresh_import_s() -> float:
    """Time of a first `import perfprior` in a new interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import perfprior; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                          capture_output=True, text=True, timeout=60)
    return float(proc.stdout)


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _environment(perfprior) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "backend": perfprior.BACKEND,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run_all(args) -> int:
    """Run every workload in its own process and print all results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

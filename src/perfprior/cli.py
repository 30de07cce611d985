"""Command-line front end.

Exit codes: 0 ok, 2 usage error, 3 I/O or file-format error, 4 modeling
failure. All randomness flows from --seed; repeated invocations with the
same flags produce byte-identical outputs, independent of --jobs.
Human-readable tables go to stdout; machine-readable JSON goes to --out
(or to stdout with --format machine).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import benchgen, evaluation
from .dataset import load_experiment, save_experiment, write_document
from .errors import (
    InsufficientDataError,
    ModelingError,
    ParseError,
    PerfPriorError,
    ValidationError,
)
from .noise import PATTERN_NAMES, NoiseConfig, NoisePattern, inject
from .pipelines import PIPELINES, run_pipeline
from .pmnf import leading_exponents, render

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_MODELING = 4


def _model_report(models, exp) -> dict:
    callpaths = []
    for cp, _ in exp.callpaths:
        model = models[cp.name]
        lead = leading_exponents(model)
        callpaths.append(
            {
                "name": cp.name,
                "kind": cp.kind,
                "mpi_op": None if cp.mpi_op is None else cp.mpi_op.value,
                "model": render(model),
                "constant": model.constant,
                "terms": [
                    {
                        "coefficient": t.coefficient,
                        "exponents": [[str(i), j] for i, j in t.exponents],
                        "ranks_fraction": t.ranks_fraction,
                    }
                    for t in model.terms
                ],
                "leading_exponents": {
                    name: [str(i), j] for name, (i, j) in lead.items()
                },
            }
        )
    return {"format_version": 1, "callpaths": callpaths}


def _lead_text(model) -> str:
    parts = []
    for name, (i, j) in leading_exponents(model).items():
        log = f",log^{j}" if j else ""
        parts.append(f"{name}:{i}{log}")
    return " ".join(parts)


def cmd_generate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = benchgen.GeneratorConfig()
    for idx in range(args.count):
        spec_seed = int(
            np.random.SeedSequence([args.seed, idx]).generate_state(1)[0]
        )
        spec = benchgen.random_spec(spec_seed, args.params, args.kernels, config)
        benchgen.save_spec(spec, out / f"spec_{idx:03d}.json")
    print(f"wrote {args.count} benchmark specs to {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = benchgen.load_spec(args.spec)
    exp = benchgen.simulate_measurements(
        spec, args.reps, args.baseline_noise, args.seed
    )
    save_experiment(exp, args.out)
    print(
        f"simulated {len(exp.callpaths)} call paths on "
        f"{len(exp.space.grid())} coordinates x {args.reps} repetitions"
    )
    return EXIT_OK


def cmd_inject(args) -> int:
    exp = load_experiment(args.experiment)
    config = NoiseConfig(
        NoisePattern(args.pattern),
        args.intensity / 100.0,
        args.selection,
        args.seed,
    )
    save_experiment(inject(exp, config), args.out)
    print(
        f"injected {args.pattern} noise at {args.intensity:g}% into "
        f"{args.experiment}"
    )
    return EXIT_OK


def cmd_model(args) -> int:
    exp = load_experiment(args.experiment)
    models = run_pipeline(args.pipeline, exp, args.ranks_param)
    report = _model_report(models, exp)
    report["pipeline"] = args.pipeline
    if args.out:
        write_document(report, args.out, sort_keys=True)
    if args.format == "machine":
        print(json.dumps(report, indent=1, sort_keys=True))
    elif exp.callpaths:
        width = max(len(cp.name) for cp, _ in exp.callpaths)
        for cp, _ in exp.callpaths:
            model = models[cp.name]
            print(f"{cp.name:<{width}}  [{_lead_text(model)}]  {render(model)}")
    else:
        print("experiment has no call paths")
    return EXIT_OK


def _study_reference(spec, exp):
    test_point = evaluation.next_test_point(exp.space)
    reference = {}
    for kernel in spec.kernels:
        reference[benchgen.compute_callpath(kernel)] = benchgen.true_time(
            spec, benchgen.compute_callpath(kernel), test_point
        )
        if kernel.mpi_op is not None:
            reference[benchgen.comm_callpath(kernel)] = benchgen.true_time(
                spec, benchgen.comm_callpath(kernel), test_point
            )
    return reference


def _print_study(table, args) -> None:
    if args.out:
        write_document(table.to_dict(), args.out, sort_keys=True)
    if args.format == "machine":
        print(json.dumps(table.to_dict(), indent=1, sort_keys=True))
    else:
        print(table.render_text())


def cmd_study_noise(args) -> int:
    spec = benchgen.load_spec(args.spec)
    exp = benchgen.simulate_measurements(
        spec, args.reps, args.baseline_noise, args.seed
    )
    table = evaluation.noise_robustness_study(
        exp,
        benchgen.truth_by_callpath(spec),
        intensities=[v / 100.0 for v in args.intensities],
        patterns=args.patterns,
        trials=args.trials,
        pipeline=args.pipeline,
        seed=args.seed,
        reference=_study_reference(spec, exp),
        jobs=args.jobs,
    )
    _print_study(table, args)
    return EXIT_OK


def cmd_study_reps(args) -> int:
    spec = benchgen.load_spec(args.spec)
    exp = benchgen.simulate_measurements(
        spec, args.reps, args.baseline_noise, args.seed
    )
    table = evaluation.repetition_study(
        exp,
        benchgen.truth_by_callpath(spec),
        pipeline=args.pipeline,
        seed=args.seed,
        reference=_study_reference(spec, exp),
        jobs=args.jobs,
    )
    _print_study(table, args)
    return EXIT_OK


def cmd_cost(args) -> int:
    classic, swc = evaluation.cost_report(args.params, args.reps, args.values)
    print(f"classic={classic} swc={swc}")
    return EXIT_OK


def _seed_arg(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return n


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return n


def _params_arg(value: str) -> int:
    m = int(value)
    if not 1 <= m <= 3:
        raise argparse.ArgumentTypeError("out of supported range: m <= 3")
    return m


def _fraction_arg(value: str) -> float:
    f = float(value)
    if f < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return f


def _selection_arg(value: str) -> float:
    f = float(value)
    if not 0 < f <= 1:
        raise argparse.ArgumentTypeError("must be in (0, 1]")
    return f


def _intensity_list(value: str) -> list[float]:
    try:
        return [float(v) for v in value.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated percentages")


def _pattern_list(value: str) -> list[str]:
    patterns = [v for v in value.split(",") if v]
    for p in patterns:
        if p not in PATTERN_NAMES:
            raise argparse.ArgumentTypeError(f"unknown pattern {p!r}")
    return patterns


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfprior",
        description=(
            "Empirical performance modeling with noise-resilient priors: "
            "generate synthetic benchmarks, simulate measurements, inject "
            "noise, fit models, and run robustness studies."
        ),
        epilog="exit codes: 0 ok, 2 usage, 3 I/O, 4 modeling failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write seeded benchmark spec files")
    p.add_argument("--seed", type=_seed_arg, required=True)
    p.add_argument("--params", type=_params_arg, required=True)
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--kernels", type=_positive_int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="simulate measurements for a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--reps", type=_positive_int, default=5)
    p.add_argument("--baseline-noise", type=_fraction_arg, default=0.0,
                   help="multiplicative run-to-run noise fraction")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("inject", help="inject artificial noise into runtimes")
    p.add_argument("--experiment", required=True)
    p.add_argument("--pattern", choices=PATTERN_NAMES, default="uniform")
    p.add_argument("--intensity", type=_fraction_arg, required=True,
                   help="noise intensity in percent (e.g. 50 for +50%%)")
    p.add_argument("--selection", type=_selection_arg, default=1.0,
                   help="fraction of measurements perturbed")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("model", help="fit models for every call path")
    p.add_argument("--experiment", required=True)
    p.add_argument("--pipeline", choices=PIPELINES, default="swc")
    p.add_argument("--ranks-param", default=None,
                   help="parameter counting MPI ranks (default: first)")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("table", "machine"), default="table")
    p.set_defaults(func=cmd_model)

    p = sub.add_parser("study-noise", help="noise robustness study on a spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--pipeline", choices=PIPELINES, default="swc")
    p.add_argument("--reps", type=_positive_int, default=5)
    p.add_argument("--baseline-noise", type=_fraction_arg, default=0.0)
    p.add_argument("--intensities", type=_intensity_list,
                   default=[2.0, 5.0, 10.0, 50.0, 75.0],
                   help="comma-separated percentages")
    p.add_argument("--patterns", type=_pattern_list,
                   default=["uniform", "truncated_normal", "scaled_poisson",
                            "scaled_exponential"])
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("table", "machine"), default="table")
    p.set_defaults(func=cmd_study_noise)

    p = sub.add_parser("study-reps", help="repetition reduction study")
    p.add_argument("--spec", required=True)
    p.add_argument("--pipeline", choices=PIPELINES, default="swc")
    p.add_argument("--reps", type=_positive_int, default=5)
    p.add_argument("--baseline-noise", type=_fraction_arg, default=0.5)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("table", "machine"), default="table")
    p.set_defaults(func=cmd_study_reps)

    p = sub.add_parser("cost", help="measurement budget of both approaches")
    p.add_argument("--params", type=_positive_int, required=True)
    p.add_argument("--reps", type=_positive_int, default=5)
    p.add_argument("--values", type=_positive_int, default=5)
    p.set_defaults(func=cmd_cost)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ModelingError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODELING
    except PerfPriorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

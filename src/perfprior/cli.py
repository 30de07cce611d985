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
import math
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
from .pmnf import expo_to_json, leading_exponents, render

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_MODELING = 4

# largest --reps and --values of `cost`: its counts stay printable
MAX_BUDGET_ARG = 10**6
# largest --reps of `simulate` and the studies: each coordinate of each
# call path holds that many measurements in memory
MAX_REPS = 10**4


def _model_report(models, exp) -> dict:
    callpaths = []
    for cp, _ in exp.callpaths:
        model = models[cp.name]
        lead = leading_exponents(model.skeleton)
        callpaths.append(
            {
                "name": cp.name,
                "kind": cp.kind,
                "mpi_op": None if cp.mpi_op is None else cp.mpi_op.value,
                "model": render(model),
                "constant": model.coefficients[0],
                "terms": [
                    {
                        "coefficient": c,
                        "exponents": expo_to_json(b.exponents),
                        "ranks_fraction": b.ranks_fraction,
                    }
                    for b, c in zip(model.skeleton.bases[1:], model.coefficients[1:])
                ],
                "leading_exponents": dict(zip(lead, expo_to_json(lead.values()))),
            }
        )
    return {"format_version": 1, "callpaths": callpaths}


def _lead_text(model) -> str:
    parts = []
    for name, (i, j) in leading_exponents(model.skeleton).items():
        log = f",log^{j}" if j else ""
        parts.append(f"{name}:{i}{log}")
    return " ".join(parts)


def _model_table(models, exp) -> str:
    width = max((len(cp.name) for cp, _ in exp.callpaths), default=0)
    rows = []
    for cp, _ in exp.callpaths:
        model = models[cp.name]
        rows.append(f"{cp.name:<{width}}  [{_lead_text(model)}]  {render(model)}")
    return "\n".join(rows) or "experiment has no call paths"


def _report(doc: dict, args, text) -> int:
    """Write doc to --out; print it under --format machine, else text()."""
    if args.out:
        write_document(doc, args.out, sort_keys=True)
    if args.format == "machine":
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print(text())
    return EXIT_OK


def cmd_generate(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for idx in range(args.count):
        spec_seed = evaluation._derived_seed(args.seed, idx)
        spec = benchgen.random_spec(spec_seed, args.params, args.kernels)
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
    if args.ranks_param not in (None, *exp.space.names):
        raise PerfPriorError(f"ranks parameter {args.ranks_param!r} not in space")
    models = run_pipeline(args.pipeline, exp, args.ranks_param)
    report = _model_report(models, exp)
    report["pipeline"] = args.pipeline
    return _report(report, args, lambda: _model_table(models, exp))


def _study_command(args, study, **options) -> int:
    """Run a study on the spec, simulated with --reps, --baseline-noise
    and --seed."""
    table = study(
        benchgen.load_spec(args.spec),
        pipeline=args.pipeline,
        reps=args.reps,
        baseline_noise=args.baseline_noise,
        seed=args.seed,
        jobs=args.jobs,
        **options,
    )
    return _report(table.to_dict(), args, table.render_text)


def cmd_study_noise(args) -> int:
    return _study_command(
        args,
        evaluation.noise_robustness_study,
        intensities=[v / 100.0 for v in args.intensities],
        patterns=args.patterns,
        trials=args.trials,
    )


def cmd_study_reps(args) -> int:
    return _study_command(args, evaluation.repetition_study)


def cmd_cost(args) -> int:
    classic, swc = evaluation.cost_report(args.params, args.reps, args.values)
    print(f"classic={classic} swc={swc}")
    return EXIT_OK


def _checked_arg(kind, ok, message: str):
    """argparse type for `kind` values that satisfy `ok`. argparse reports
    a value that `kind` cannot parse as an invalid `kind` value."""

    def parse(value: str):
        v = kind(value)
        if not ok(v):
            raise argparse.ArgumentTypeError(message)
        return v

    parse.__name__ = kind.__name__
    return parse


def _int_arg(lo: int, hi: int | None = None, message: str = ""):
    """argparse type for integers in [lo, hi], unbounded above if hi is None."""
    if not message:
        message = f"must be >= {lo}" + ("" if hi is None else f" and <= {hi}")
    return _checked_arg(int, lambda n: lo <= n and (hi is None or n <= hi), message)


_seed_arg = _int_arg(0)
_positive_int = _int_arg(1)
_reps_arg = _int_arg(1, MAX_REPS)
_subset_reps_arg = _int_arg(2, MAX_REPS)
_params_arg = _int_arg(1, 3, "out of supported range: m <= 3")
_budget_arg = _int_arg(1, MAX_BUDGET_ARG)
_fraction_arg = _checked_arg(
    float, lambda f: math.isfinite(f) and f >= 0, "must be finite and >= 0"
)
_selection_arg = _checked_arg(float, lambda f: 0 < f <= 1, "must be in (0, 1]")


def _nonempty_list(value: str) -> list[str]:
    items = [v for v in value.split(",") if v]
    if not items:
        raise argparse.ArgumentTypeError("expected at least one value")
    return items


def _intensity_list(value: str) -> list[float]:
    try:
        return [_fraction_arg(v) for v in _nonempty_list(value)]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated percentages")


def _pattern_list(value: str) -> list[str]:
    patterns = _nonempty_list(value)
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
    p.add_argument("--reps", type=_reps_arg, default=5)
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
    p.add_argument("--reps", type=_reps_arg, default=5)
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
    p.add_argument("--reps", type=_subset_reps_arg, default=5)
    p.add_argument("--baseline-noise", type=_fraction_arg, default=0.5)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("table", "machine"), default="table")
    p.set_defaults(func=cmd_study_reps)

    p = sub.add_parser("cost", help="measurement budget of both approaches")
    p.add_argument("--params", type=_params_arg, required=True)
    p.add_argument("--reps", type=_budget_arg, default=5)
    p.add_argument("--values", type=_budget_arg, default=5)
    p.set_defaults(func=cmd_cost)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # overflow and invalid values surface as the non-finite measurement
        # and coefficient errors below, so numpy's warnings would only
        # print ahead of the one error line
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
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

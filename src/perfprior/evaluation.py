"""Model accuracy metrics and the study harnesses.

Exponent deviation (ED) compares leading monomial exponents per parameter;
logarithmic and constant factors count as exponent 0, matching soft-O
comparison. Relative error (RE) measures predictive power at the test
point one step beyond the training range (same interval rule). Studies
aggregate both over seeded noise-injection or repetition-subset trials;
at desk scale the RE reference is the noise-free simulated runtime.
"""

from __future__ import annotations

import itertools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .dataset import (
    METRIC_TIME,
    Coordinate,
    ExperimentSet,
    MetricSeries,
    ParameterSpace,
    subset_repetitions,
)
from .errors import IrregularSpacingError, ValidationError
from .noise import NoiseConfig, NoisePattern, inject
from .pipelines import run_pipeline
from .pmnf import Expo, PmnfModel, evaluate, leading_exponents

STUDY_FORMAT_VERSION = 1

# ground truth: call path name -> parameter name -> leading (i, j)
TruthExponents = Mapping[str, Mapping[str, Expo]]


@dataclass(frozen=True)
class EdReport:
    """Per-parameter absolute deviation of leading monomial exponents."""

    deviations: Mapping[str, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "deviations", dict(self.deviations))
        for name, d in self.deviations.items():
            if d < 0:
                raise ValidationError(f"negative deviation for {name!r}")

    def total(self) -> Fraction:
        return sum(self.deviations.values(), Fraction(0))

    def mean(self) -> float:
        return float(self.total() / len(self.deviations))

    def max(self) -> Fraction:
        return max(self.deviations.values())


def exponent_deviation(m1: PmnfModel, m2: PmnfModel) -> EdReport:
    """Per-parameter |i1* - i2*| of the leading exponents (logs count 0)."""
    if m1.space_names != m2.space_names:
        raise ValidationError("models live in different parameter spaces")
    lead1 = leading_exponents(m1)
    lead2 = leading_exponents(m2)
    return EdReport(
        {n: abs(lead1[n][0] - lead2[n][0]) for n in m1.space_names}
    )


def deviation_from_truth(
    model: PmnfModel, truth: Mapping[str, Expo]
) -> EdReport:
    """ED of a model against ground-truth leading exponents."""
    lead = leading_exponents(model)
    deviations = {}
    for name in model.space_names:
        true_i = Fraction(truth[name][0]) if name in truth else Fraction(0)
        deviations[name] = abs(lead[name][0] - true_i)
    return EdReport(deviations)


def relative_error(model: PmnfModel, test: Coordinate, measured: float) -> float:
    """|measured - predicted| / measured * 100, in percent."""
    if not measured > 0:
        raise ValidationError("measured value at the test point must be positive")
    return abs(measured - evaluate(model, test)) / measured * 100.0


def next_test_point(space: ParameterSpace) -> Coordinate:
    """Extend every parameter one step by its own interval rule."""
    point = []
    for name, values in zip(space.names, space.values):
        if len(values) < 3:
            raise IrregularSpacingError(
                f"parameter {name!r} needs at least 3 values"
            )
        ratios = [b / a for a, b in zip(values, values[1:])]
        diffs = [b - a for a, b in zip(values, values[1:])]
        if all(math.isclose(r, ratios[0], rel_tol=1e-9) for r in ratios):
            point.append(values[-1] * ratios[0])
        elif all(math.isclose(d, diffs[0], rel_tol=1e-9) for d in diffs):
            point.append(values[-1] + diffs[0])
        else:
            raise IrregularSpacingError(
                f"irregular spacing for parameter {name!r}: neither the "
                "geometric nor the arithmetic rule applies"
            )
    return tuple(point)


def cost_report(
    m: int, reps_classic: int = 5, values_per_param: int = 5
) -> tuple[int, int]:
    """Measurement counts (classic, swc) for an m-parameter design."""
    if m < 1:
        raise ValidationError("parameter count must be >= 1")
    configurations = values_per_param**m
    return configurations * reps_classic, 2 * configurations


@dataclass(frozen=True)
class StudyRow:
    level: float
    pattern: str
    mean_ed: float
    std_ed: float
    mean_re_pct: float
    std_re_pct: float
    trials: int


@dataclass(frozen=True)
class StudyTable:
    study: str
    pipeline: str
    rows: tuple[StudyRow, ...]

    def to_dict(self) -> dict:
        return {
            "format_version": STUDY_FORMAT_VERSION,
            "study": self.study,
            "pipeline": self.pipeline,
            "rows": [
                {
                    "level": r.level,
                    "pattern": r.pattern,
                    "mean_ed": r.mean_ed,
                    "std_ed": r.std_ed,
                    "mean_re_pct": None if math.isnan(r.mean_re_pct) else r.mean_re_pct,
                    "std_re_pct": None if math.isnan(r.std_re_pct) else r.std_re_pct,
                    "trials": r.trials,
                }
                for r in self.rows
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True) + "\n"

    def render_text(self) -> str:
        level_name = "intensity" if self.study == "noise" else "repetitions"
        header = (
            f"{level_name:>12} {'pattern':>20} {'mean ED':>12} {'std ED':>12} "
            f"{'mean RE %':>12} {'std RE %':>12} {'trials':>7}"
        )
        lines = [header, "-" * len(header)]
        for r in self.rows:
            level = f"{r.level:g}"
            lines.append(
                f"{level:>12} {r.pattern:>20} {r.mean_ed:>12.6g} "
                f"{r.std_ed:>12.6g} {r.mean_re_pct:>12.6g} "
                f"{r.std_re_pct:>12.6g} {r.trials:>7}"
            )
        return "\n".join(lines)


def _trial_metrics(
    models: Mapping[str, PmnfModel],
    truth: TruthExponents,
    test_point: Coordinate | None,
    reference: Mapping[str, float] | None,
) -> tuple[float, float]:
    """Mean ED and mean RE of one pipeline run over its call paths."""
    eds = []
    res = []
    for name, model in models.items():
        if name in truth:
            eds.append(deviation_from_truth(model, truth[name]).mean())
        if reference is not None and test_point is not None and name in reference:
            res.append(relative_error(model, test_point, reference[name]))
    ed = float(np.mean(eds)) if eds else 0.0
    re = float(np.mean(res)) if res else float("nan")
    return ed, re


def _derived_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _run_cells(cell_fn, cells: list, jobs: int) -> list:
    """Run every study cell, in a process pool when jobs > 1 (same order)."""
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(cell_fn, cells))
    return [cell_fn(c) for c in cells]


def _study_row(
    level: float, pattern: str, metrics: Sequence[tuple[float, float]]
) -> StudyRow:
    """Mean and spread of (ED, RE) over one cell's trials."""
    eds = np.array([m[0] for m in metrics])
    res = np.array([m[1] for m in metrics])
    return StudyRow(
        level=float(level),
        pattern=pattern,
        mean_ed=float(eds.mean()),
        std_ed=float(eds.std()),
        mean_re_pct=float(res.mean()),
        std_re_pct=float(res.std()),
        trials=len(metrics),
    )


def _noise_cell(args) -> list[tuple[float, float]]:
    (exp, truth, pattern, intensity, trials, seed, cell, pipeline, ranks,
     test_point, reference, selection) = args
    out = []
    for trial in range(trials):
        config = NoiseConfig(
            NoisePattern(pattern),
            intensity,
            selection,
            _derived_seed(seed, cell, trial),
        )
        models = run_pipeline(pipeline, inject(exp, config), ranks)
        out.append(_trial_metrics(models, truth, test_point, reference))
    return out


def noise_robustness_study(
    exp: ExperimentSet,
    truth: TruthExponents,
    intensities: Sequence[float],
    patterns: Sequence[str],
    trials: int = 100,
    pipeline: str = "swc",
    seed: int = 0,
    ranks_param: str | None = None,
    reference: Mapping[str, float] | None = None,
    selection_fraction: float = 1.0,
    jobs: int = 1,
) -> StudyTable:
    """Inject noise per (intensity, pattern) cell and refit, many trials.

    ED is measured against ground truth; RE against the supplied noise-free
    reference values at the test point. Results are deterministic in the
    seed and independent of the parallelism degree.
    """
    test_point = next_test_point(exp.space) if reference else None
    cells = [
        (
            exp, truth, pattern, float(intensity), trials, seed, cell_idx,
            pipeline, ranks_param, test_point, reference, selection_fraction,
        )
        for cell_idx, (intensity, pattern) in enumerate(
            itertools.product(intensities, patterns)
        )
    ]
    results = _run_cells(_noise_cell, cells, jobs)
    rows = tuple(
        _study_row(intensity, pattern, metrics)
        for (intensity, pattern), metrics in zip(
            itertools.product(intensities, patterns), results
        )
    )
    return StudyTable("noise", pipeline, rows)


def _subsets(r: int, k: int, seed: int, limit: int) -> list[tuple[int, ...]]:
    """All k-subsets of range(r), or a seeded sample when there are many."""
    total = math.comb(r, k)
    if total <= limit:
        return list(itertools.combinations(range(r), k))
    rng = np.random.default_rng([seed, k])
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < limit:
        pick = tuple(sorted(rng.choice(r, size=k, replace=False).tolist()))
        chosen.add(pick)
    return sorted(chosen)


def _reps_cell(args) -> list[tuple[float, float]]:
    exp, truth, k, seed, pipeline, ranks, test_point, reference, limit = args
    r = exp.callpaths[0][1][METRIC_TIME].repetitions
    out = []
    for subset in _subsets(r, k, seed, limit):
        restricted = _restrict_repetitions(exp, subset)
        models = run_pipeline(pipeline, restricted, ranks)
        out.append(_trial_metrics(models, truth, test_point, reference))
    return out


def _restrict_repetitions(exp: ExperimentSet, subset: Sequence[int]) -> ExperimentSet:
    callpaths = []
    for cp, metrics in exp.callpaths:
        new_metrics: dict[str, MetricSeries] = {}
        for metric, series in metrics.items():
            if metric == METRIC_TIME:
                new_metrics[metric] = subset_repetitions(series, subset)
            else:
                new_metrics[metric] = series
        callpaths.append((cp, new_metrics))
    return ExperimentSet(exp.space, tuple(callpaths))


def repetition_study(
    exp: ExperimentSet,
    truth: TruthExponents,
    pipeline: str = "swc",
    seed: int = 0,
    ranks_param: str | None = None,
    reference: Mapping[str, float] | None = None,
    max_subsets: int = 64,
    jobs: int = 1,
) -> StudyTable:
    """Refit on every subset of time repetitions, per subset size k."""
    if not exp.callpaths:
        raise ValidationError("repetition study needs at least one call path")
    r = exp.callpaths[0][1][METRIC_TIME].repetitions
    if r < 2:
        raise ValidationError("repetition study needs at least 2 repetitions")
    test_point = next_test_point(exp.space) if reference else None
    cells = [
        (exp, truth, k, seed, pipeline, ranks_param, test_point, reference,
         max_subsets)
        for k in range(1, r + 1)
    ]
    results = _run_cells(_reps_cell, cells, jobs)
    rows = tuple(
        _study_row(k, "-", metrics) for k, metrics in zip(range(1, r + 1), results)
    )
    return StudyTable("repetitions", pipeline, rows)

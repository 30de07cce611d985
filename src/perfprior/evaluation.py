"""Model accuracy metrics and the study harnesses.

Exponent deviation (ED) compares leading monomial exponents per parameter;
logarithmic and constant factors count as exponent 0, matching soft-O
comparison. Relative error (RE) measures predictive power at the test
point one step beyond the training range (same interval rule). Studies
aggregate both over seeded noise-injection or repetition-subset trials;
at desk scale the RE reference is the noise-free simulated runtime.
"""

from __future__ import annotations

import functools
import itertools
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

# most repetition subsets of one size that a repetition study refits
MAX_SUBSETS = 64

# ground truth: call path name -> parameter name -> leading (i, j)
TruthExponents = Mapping[str, Mapping[str, Expo]]


def deviation_from_truth(
    model: PmnfModel, truth: Mapping[str, Expo]
) -> dict[str, Fraction]:
    """Per-parameter |i* - i_true| of the leading exponents (logs count 0).

    A parameter missing from truth has true exponent 0.
    """
    lead = leading_exponents(model)
    deviations = {}
    for name in model.space_names:
        true_i = Fraction(truth[name][0]) if name in truth else Fraction(0)
        deviations[name] = abs(lead[name][0] - true_i)
    return deviations


def exponent_deviation(m1: PmnfModel, m2: PmnfModel) -> dict[str, Fraction]:
    """Per-parameter |i1* - i2*| of the leading exponents (logs count 0)."""
    if m1.space_names != m2.space_names:
        raise ValidationError("models live in different parameter spaces")
    return deviation_from_truth(m1, leading_exponents(m2))


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
            deviations = deviation_from_truth(model, truth[name])
            eds.append(float(sum(deviations.values(), Fraction(0)) / len(deviations)))
        if reference is not None and test_point is not None and name in reference:
            res.append(relative_error(model, test_point, reference[name]))
    ed = float(np.mean(eds)) if eds else 0.0
    re = float(np.mean(res)) if res else float("nan")
    return ed, re


def _derived_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _run_cell(context: tuple, cell: tuple) -> StudyRow:
    """Fit one row's trials: make_trial(exp, key) builds each trial's data."""
    exp, pipeline, ranks_param, truth, test_point, reference = context
    level, pattern, make_trial, keys = cell
    eds, res = [], []
    for key in keys:
        models = run_pipeline(pipeline, make_trial(exp, key), ranks_param)
        ed, re = _trial_metrics(models, truth, test_point, reference)
        eds.append(ed)
        res.append(re)
    return StudyRow(
        level=float(level),
        pattern=pattern,
        mean_ed=float(np.mean(eds)),
        std_ed=float(np.std(eds)),
        mean_re_pct=float(np.mean(res)),
        std_re_pct=float(np.std(res)),
        trials=len(keys),
    )


def _run_study(
    study: str, exp: ExperimentSet, truth: TruthExponents, pipeline: str,
    ranks_param: str | None, reference: Mapping[str, float] | None,
    cells: list[tuple], jobs: int,
) -> StudyTable:
    """One row per (level, pattern, make_trial, keys) cell, in a process
    pool when jobs > 1 (same rows in the same order)."""
    test_point = next_test_point(exp.space) if reference else None
    run_cell = functools.partial(
        _run_cell, (exp, pipeline, ranks_param, truth, test_point, reference)
    )
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return StudyTable(study, pipeline, tuple(pool.map(run_cell, cells)))
    return StudyTable(study, pipeline, tuple(map(run_cell, cells)))


def _noisy(exp: ExperimentSet, key: tuple[str, float, int]) -> ExperimentSet:
    pattern, intensity, seed = key
    return inject(exp, NoiseConfig(NoisePattern(pattern), intensity, seed=seed))


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
    jobs: int = 1,
) -> StudyTable:
    """Inject noise per (intensity, pattern) cell and refit, many trials.

    ED is measured against ground truth; RE against the supplied noise-free
    reference values at the test point. Results are deterministic in the
    seed and independent of the parallelism degree.
    """
    cells = [
        (
            intensity, pattern, _noisy,
            [
                (pattern, float(intensity), _derived_seed(seed, cell, trial))
                for trial in range(trials)
            ],
        )
        for cell, (intensity, pattern) in enumerate(
            itertools.product(intensities, patterns)
        )
    ]
    return _run_study(
        "noise", exp, truth, pipeline, ranks_param, reference, cells, jobs
    )


def _subsets(r: int, k: int, seed: int) -> list[tuple[int, ...]]:
    """All k-subsets of range(r), or a seeded sample when there are many."""
    if math.comb(r, k) <= MAX_SUBSETS:
        return list(itertools.combinations(range(r), k))
    rng = np.random.default_rng([seed, k])
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < MAX_SUBSETS:
        pick = tuple(sorted(rng.choice(r, size=k, replace=False).tolist()))
        chosen.add(pick)
    return sorted(chosen)


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
    jobs: int = 1,
) -> StudyTable:
    """Refit on every subset of time repetitions, per subset size k."""
    if not exp.callpaths:
        raise ValidationError("repetition study needs at least one call path")
    r = exp.callpaths[0][1][METRIC_TIME].repetitions
    if r < 2:
        raise ValidationError("repetition study needs at least 2 repetitions")
    cells = [
        (k, "-", _restrict_repetitions, _subsets(r, k, seed))
        for k in range(1, r + 1)
    ]
    return _run_study(
        "repetitions", exp, truth, pipeline, ranks_param, reference, cells, jobs
    )

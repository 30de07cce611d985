"""Model accuracy metrics and the study harnesses.

Exponent deviation (ED) compares leading monomial exponents per parameter;
logarithmic and constant factors count as exponent 0, matching soft-O
comparison. Relative error (RE) measures predictive power at the test
point one step beyond the training range (same interval rule).

A study takes a benchmark spec. It simulates the spec's measurements
once, refits them on every seeded noise-injection or repetition-subset
trial, and averages both metrics per row: ED against the spec's
ground-truth exponents, RE against its noise-free runtime at the test
point. SWC counts MPI ranks on the spec's ranks parameter. Trials change
only runtimes, never effort metrics, so SWC derives each call path's prior
once per study and refits only the runtimes per trial.
"""

from __future__ import annotations

import functools
import itertools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import benchgen
from .dataset import Coordinate, ExperimentSet, ParameterSpace, subset_repetitions
from .errors import IrregularSpacingError, ValidationError
from .noise import NoiseConfig, NoisePattern, inject
from .pipelines import fit_models, model_structures
from .pipelines import run_pipeline  # noqa: F401  (perfbench traces this name)
from .pmnf import Expo, PmnfModel, evaluate, leading_exponents

STUDY_FORMAT_VERSION = 1

# most repetition subsets of one size that a repetition study refits
MAX_SUBSETS = 64


def deviation_from_truth(
    model: PmnfModel, truth: Mapping[str, Expo]
) -> dict[str, Fraction]:
    """Per-parameter |i* - i_true| of the leading exponents (logs count 0).

    A parameter missing from truth has true exponent 0.
    """
    lead = leading_exponents(model.skeleton)
    deviations = {}
    for name, (i, _) in lead.items():
        true_i = Fraction(truth[name][0]) if name in truth else Fraction(0)
        deviations[name] = abs(i - true_i)
    return deviations


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
            "rows": [asdict(r) for r in self.rows],
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
    truth: Mapping[str, Mapping[str, Expo]],
    test_point: Coordinate,
    reference: Mapping[str, float],
) -> tuple[float, float]:
    """Mean ED and mean RE of one pipeline run over its call paths."""
    eds, res = [], []
    for name, model in models.items():
        deviations = deviation_from_truth(model, truth[name])
        eds.append(float(sum(deviations.values(), Fraction(0)) / len(deviations)))
        res.append(relative_error(model, test_point, reference[name]))
    return float(np.mean(eds)), float(np.mean(res))


def _derived_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _run_cell(context: tuple, cell: tuple) -> StudyRow:
    """Fit one row's trials: make_trial(exp, key) builds each trial's data."""
    exp, structures, truth, test_point, reference = context
    level, pattern, make_trial, keys = cell
    eds, res = [], []
    for key in keys:
        models = fit_models(make_trial(exp, key), structures)
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
    study: str, spec: benchgen.BenchmarkSpec, pipeline: str, reps: int,
    baseline_noise: float, seed: int, cells: list[tuple], jobs: int,
) -> StudyTable:
    """Simulate the spec and fix each call path's structure once, then fit
    one row per (level, pattern, make_trial, keys) cell, in a process pool
    when jobs > 1 (same rows in the same order)."""
    exp = benchgen.simulate_measurements(spec, reps, baseline_noise, seed)
    structures = model_structures(pipeline, exp, spec.ranks_param)
    truth = benchgen.truth_by_callpath(spec)
    test_point = next_test_point(spec.space)
    reference = {name: benchgen.true_time(spec, name, test_point) for name in truth}
    run_cell = functools.partial(
        _run_cell, (exp, structures, truth, test_point, reference)
    )
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return StudyTable(study, pipeline, tuple(pool.map(run_cell, cells)))
    return StudyTable(study, pipeline, tuple(map(run_cell, cells)))


def _noisy(
    pattern: str, intensity: float, seed: int, cell: int,
    exp: ExperimentSet, trial: int,
) -> ExperimentSet:
    config = NoiseConfig(
        NoisePattern(pattern), intensity, seed=_derived_seed(seed, cell, trial)
    )
    return inject(exp, config)


def noise_robustness_study(
    spec: benchgen.BenchmarkSpec,
    intensities: Sequence[float],
    patterns: Sequence[str],
    trials: int = 100,
    pipeline: str = "swc",
    reps: int = 5,
    baseline_noise: float = 0.0,
    seed: int = 0,
    jobs: int = 1,
) -> StudyTable:
    """Inject noise per (intensity, pattern) cell and refit, many trials.

    The spec is simulated once with `reps` repetitions at `baseline_noise`.
    Results are deterministic in the seed and independent of the
    parallelism degree.
    """
    if trials < 1:
        raise ValidationError("noise study needs at least 1 trial")
    cells = [
        (
            intensity, pattern,
            functools.partial(_noisy, pattern, float(intensity), seed, cell),
            range(trials),
        )
        for cell, (intensity, pattern) in enumerate(
            itertools.product(intensities, patterns)
        )
    ]
    return _run_study(
        "noise", spec, pipeline, reps, baseline_noise, seed, cells, jobs
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
    return exp.with_time(lambda _, series: subset_repetitions(series, subset))


def repetition_study(
    spec: benchgen.BenchmarkSpec,
    pipeline: str = "swc",
    reps: int = 5,
    baseline_noise: float = 0.5,
    seed: int = 0,
    jobs: int = 1,
) -> StudyTable:
    """Refit on every subset of the `reps` time repetitions, per subset
    size k."""
    if reps < 2:
        raise ValidationError("repetition study needs at least 2 repetitions")
    cells = [
        (k, "-", _restrict_repetitions, _subsets(reps, k, seed))
        for k in range(1, reps + 1)
    ]
    return _run_study(
        "repetitions", spec, pipeline, reps, baseline_noise, seed, cells, jobs
    )

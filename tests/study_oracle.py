"""Per-trial oracle for the study engine.

Every trial is fitted with `run_pipeline`, so each SWC trial runs its own
effort search and derives its own priors from the trial's data, as the
studies did before they derived the priors once per study. Trial data,
seeds and subsets follow the studies' documented rules; the engine's
tables must equal these bit for bit.
"""

import itertools

import numpy as np

from perfprior import benchgen
from perfprior.dataset import subset_repetitions
from perfprior.evaluation import (
    StudyRow,
    StudyTable,
    _derived_seed,
    _subsets,
    _trial_metrics,
    next_test_point,
)
from perfprior.noise import NoiseConfig, NoisePattern, inject
from perfprior.pipelines import run_pipeline


def _table(study, spec, pipeline, reps, baseline_noise, seed, cells):
    """cells: (level, pattern, trials) where trials(exp) yields each trial's
    experiment."""
    exp = benchgen.simulate_measurements(spec, reps, baseline_noise, seed)
    truth = benchgen.truth_by_callpath(spec)
    point = next_test_point(spec.space)
    reference = {name: benchgen.true_time(spec, name, point) for name in truth}
    rows = []
    for level, pattern, trials in cells:
        eds, res = [], []
        for trial in trials(exp):
            models = run_pipeline(pipeline, trial, spec.ranks_param)
            ed, re = _trial_metrics(models, truth, point, reference)
            eds.append(ed)
            res.append(re)
        rows.append(StudyRow(
            float(level), pattern, float(np.mean(eds)), float(np.std(eds)),
            float(np.mean(res)), float(np.std(res)), len(eds),
        ))
    return StudyTable(study, pipeline, tuple(rows))


def per_trial_noise_study(
    spec, intensities, patterns, trials, pipeline, reps=5, baseline_noise=0.0,
    seed=0,
):
    def noisy(pattern, intensity, cell):
        return lambda exp: (
            inject(exp, NoiseConfig(NoisePattern(pattern), float(intensity),
                                    seed=_derived_seed(seed, cell, trial)))
            for trial in range(trials)
        )

    cells = [
        (intensity, pattern, noisy(pattern, intensity, cell))
        for cell, (intensity, pattern) in enumerate(
            itertools.product(intensities, patterns)
        )
    ]
    return _table("noise", spec, pipeline, reps, baseline_noise, seed, cells)


def per_trial_repetition_study(spec, pipeline, reps=5, baseline_noise=0.5, seed=0):
    def subsets(k):
        return lambda exp: (
            exp.with_time(lambda _, series: subset_repetitions(series, subset))
            for subset in _subsets(reps, k, seed)
        )

    cells = [(k, "-", subsets(k)) for k in range(1, reps + 1)]
    return _table("repetitions", spec, pipeline, reps, baseline_noise, seed, cells)

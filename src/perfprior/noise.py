"""Reproducible artificial noise injection into runtime measurements.

Noise is additive and non-negative: a selected measurement y becomes
y * (1 + intensity * s) with s sampled in [0, 1] from the chosen pattern,
so an intensity of 0.75 means up to +75% runtime. Effort metrics
(basic-block counts, bytes) are never touched.

Every measurement gets its own random stream derived from the global seed
and its (call path, coordinate, repetition) identity, which makes
injection order-independent and lets it commute with repetition
subsetting. The one loop that draws from those streams, `perturb`, also
applies the simulator's multiplicative baseline noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import ExperimentSet, MetricSeries
from .errors import PerfPriorError, ValidationError

PATTERN_NAMES = (
    "none",
    "uniform",
    "truncated_normal",
    "scaled_poisson",
    "scaled_exponential",
)


@dataclass(frozen=True)
class NoisePattern:
    """A noise distribution with the fixed parameters of the evaluation setup."""

    kind: str

    def __post_init__(self):
        if self.kind not in PATTERN_NAMES:
            raise ValidationError(f"unknown noise pattern {self.kind!r}")


@dataclass(frozen=True)
class NoiseConfig:
    pattern: NoisePattern
    intensity: float
    selection_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.pattern, str):
            object.__setattr__(self, "pattern", NoisePattern(self.pattern))
        if not (math.isfinite(self.intensity) and self.intensity >= 0):
            raise ValidationError("intensity must be a non-negative fraction")
        if not (0 < self.selection_fraction <= 1):
            raise ValidationError("selection_fraction must be in (0, 1]")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")


def sample(pattern: NoisePattern, rng: np.random.Generator) -> float:
    """Draw one noise factor in [0, 1]."""
    if pattern.kind == "none":
        return 0.0
    if pattern.kind == "uniform":
        return float(rng.uniform(0.0, 1.0))
    if pattern.kind == "truncated_normal":
        while True:
            s = abs(float(rng.normal(0.0, 1.0)))
            if s <= 1.0:
                return s
    if pattern.kind == "scaled_poisson":
        return float(min(rng.poisson(1000.0) / 1000.0, 1.0))
    if pattern.kind == "scaled_exponential":
        return float(min(rng.exponential(1.0 / 1000.0) * 1000.0, 1.0))
    raise ValidationError(f"unknown noise pattern {pattern.kind!r}")


def perturb(
    exp: ExperimentSet, level: float, draw: Callable, seed: int, what: str
) -> ExperimentSet:
    """Multiply each runtime y by 1 + level * draw(rng), where rng is the
    measurement's own stream default_rng([seed, call path, grid point, rep_id]);
    an overflow raises an error that names `what`, the noise setting."""
    if level == 0:
        return exp

    def perturb_series(cp_idx: int, series: MetricSeries) -> MetricSeries:
        out = np.array([
            [
                y * (1.0 + level * draw(np.random.default_rng([seed, cp_idx, g, r])))
                for y, r in zip(row, series.rep_ids)
            ]
            for g, row in enumerate(series.data.tolist())
        ])
        finite = np.isfinite(out).all(axis=1)
        if not finite.all():
            coord = exp.space.grid()[int(np.argmin(finite))]
            raise PerfPriorError(f"{what} overflows the runtime at {coord}")
        return MetricSeries(out, series.rep_ids)

    return exp.with_time(perturb_series)


def inject(exp: ExperimentSet, config: NoiseConfig) -> ExperimentSet:
    """Perturb time measurements; all other series are carried unchanged.
    A measurement is selected with probability selection_fraction."""
    if config.pattern.kind == "none":
        return exp

    def draw(rng: np.random.Generator) -> float:
        selected = rng.random() <= config.selection_fraction
        return sample(config.pattern, rng) if selected else 0.0

    what = f"noise intensity {100 * config.intensity:g}%"
    return perturb(exp, config.intensity, draw, config.seed, what)

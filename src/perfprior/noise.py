"""Reproducible artificial noise injection into runtime measurements.

Noise is additive and non-negative: a selected measurement y becomes
y * (1 + intensity * s) with s sampled in [0, 1] from the chosen pattern,
so an intensity of 0.75 means up to +75% runtime. Effort metrics
(basic-block counts, bytes) are never touched.

Every measurement draws from its own random stream, the one that
np.random.default_rng([seed, call path, grid point, repetition]) would
give, which makes injection order-independent and lets it commute with
repetition subsetting. `perturb` seeds all of a series' streams in one
vectorised pass: it runs numpy's SeedSequence hash and PCG64 seeding
step over every measurement at once and loads each resulting state into
one reused generator. numpy's stream-compatibility policy (NEP 19) keeps
SeedSequence and PCG64 streams fixed across versions, so these are the
very streams default_rng gives. `perturb` also applies the simulator's
multiplicative baseline noise.
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

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
# numpy's SeedSequence hash constants and PCG64's default multiplier.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _seed_words(n: int) -> list[int]:
    """SeedSequence's coercion of a non-negative int: its little-endian
    uint32 words, one word for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_consts(init: int, mult: int):
    """The (xor, multiply) constants of SeedSequence's successive hashes."""
    while True:
        nxt = init * mult & _MASK32
        yield np.uint32(init), np.uint32(nxt)
        init = nxt


def _hash(value: np.ndarray, consts) -> np.ndarray:
    xor, mult = next(consts)
    value = (value ^ xor) * mult
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _generate_state(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(8, uint32) for each row of an (n, L)
    uint32 entropy matrix, as an (n, 8) matrix: mix_entropy into the pool
    of 4 words, then hash the pool out. L >= 4, as [seed, cp, g, r] has at
    least one word each, so the pool needs no zero padding."""
    length = entropy.shape[1]
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = [_hash(entropy[:, i], consts) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], consts))
    for src in range(4, length):
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(entropy[:, src], consts))
    consts = _hash_consts(_INIT_B, _MULT_B)
    return np.stack([_hash(pool[i % 4], consts) for i in range(8)], axis=1)


def _by_word_count(values) -> list[tuple[list[int], np.ndarray]]:
    """Positions into `values` and the matrix of their seed words, one pair
    per word count."""
    groups: dict[int, list] = {}
    for i, v in enumerate(values):
        words = _seed_words(v)
        groups.setdefault(len(words), []).append((i, words))
    return [
        ([i for i, _ in group], np.array([w for _, w in group], np.uint32))
        for group in groups.values()
    ]


def _stream_states(
    seed: int, cp_idx: int, rows: int, rep_ids: tuple[int, ...]
) -> list[dict[str, int]]:
    """The PCG64 {"state", "inc"} of default_rng([seed, cp_idx, g, r]) for
    every grid row g < rows and every r in rep_ids, row-major."""
    head = np.array(_seed_words(seed) + _seed_words(cp_idx), np.uint32)
    # A grid row index is one word: no grid has 2^32 points.
    g_words = np.arange(rows, dtype=np.uint32)[:, None]
    words = np.empty((rows, len(rep_ids), 8), np.uint64)
    for at_r, r_words in _by_word_count(rep_ids):
        n_r = len(at_r)
        entropy = np.hstack([
            np.broadcast_to(head, (rows * n_r, len(head))),
            np.repeat(g_words, n_r, axis=0),
            np.tile(r_words, (rows, 1)),
        ])
        words[:, at_r] = _generate_state(entropy).reshape(rows, n_r, 8)
    words = words.reshape(-1, 8)
    # generate_state(4, uint64) pairs the words little-endian; PCG64 takes
    # the first two as the high and low half of its initial state, the last
    # two as those of its sequence.
    u64 = (words[:, 0::2] | words[:, 1::2] << np.uint64(32)).tolist()
    states = []
    for hi, lo, seq_hi, seq_lo in u64:
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (hi << 64 | lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"state": state, "inc": inc})
    return states


def perturb(
    exp: ExperimentSet, level: float, draw: Callable, seed: int, what: str
) -> ExperimentSet:
    """Multiply each runtime y by 1 + level * draw(rng), where rng yields the
    measurement's own stream, default_rng([seed, call path, grid point,
    rep_id]), unchanged bit for bit; an overflow raises an error that names
    `what`, the noise setting.

    A series' streams are seeded in one vectorised pass (_stream_states),
    and each is loaded in turn into one generator, which `draw` reads with
    numpy's own samplers. NEP 19 keeps SeedSequence and PCG64 streams fixed
    across numpy versions, so the seeding stays valid."""
    if level == 0:
        return exp
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    state = {"bit_generator": "PCG64", "state": None, "has_uint32": 0, "uinteger": 0}

    def perturb_series(cp_idx: int, series: MetricSeries) -> MetricSeries:
        factors = []
        for stream in _stream_states(seed, cp_idx, len(series.data), series.rep_ids):
            state["state"] = stream
            bits.state = state
            factors.append(draw(rng))
        with np.errstate(over="ignore"):
            out = series.data * (1.0 + level * np.reshape(factors, series.data.shape))
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

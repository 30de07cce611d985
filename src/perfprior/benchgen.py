"""Synthetic benchmark specs with known complexity, and their simulation.

A spec describes kernels whose computational complexity comes from loop
arrangements (one loop per parameter, nested or sequential) and whose
communication complexity comes from an MPI operation moving a message
whose element count scales with the parameters. Measurements are produced
analytically: basic-block counts and transferred bytes are exact functions
of the spec, and runtimes follow the true coefficients plus the standard
communication cost forms, optionally perturbed by a multiplicative
baseline noise. That makes a spec a desk-scale ground-truth oracle for the
whole modeling pipeline, without compiling or running anything.

Element counts and loop trip counts are integers, so term values are
rounded. The generator keeps every term's smallest grid value above a
floor (and scales message counts by a base factor): rounding a
small fractional-exponent term can otherwise alias it into a different
complexity class, e.g. round(p^(1/4)) on the default geometric grid is
exactly affine in log2(p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .dataset import (
    KIND_COMMUNICATION,
    KIND_COMPUTATION,
    EFFORT_METRIC,
    METRIC_TIME,
    CallPath,
    Coordinate,
    ExperimentSet,
    MetricSeries,
    MpiOp,
    ParameterSpace,
    read_document,
    require_int,
    require_keys,
    require_list,
    require_number,
    space_from_dict,
    space_to_dict,
    write_document,
)
from .errors import ParseError, ValidationError
from .noise import perturb
from .pmnf import (
    BasisFunction,
    Expo,
    Term,
    default_exponent_sets,
    leading_from_terms,
    monomial_values,
)
from .priors import B, B_FRAC, COST_FORMS, LOG_P, has_factor

SPEC_FORMAT_VERSION = 1


@dataclass(frozen=True)
class KernelSpec:
    """Ground-truth description of one synthetic kernel."""

    name: str
    computation_terms: tuple[Term, ...]
    loop_arrangement: str
    mpi_op: MpiOp | None
    message_elems_term: BasisFunction | None
    elem_size: int = 4
    message_elems_base: int = 1
    true_alpha: float = 1e-5
    true_beta: float = 1e-9
    true_gamma: float = 1e-10
    bb_per_iteration: int = 1

    def __post_init__(self):
        object.__setattr__(
            self, "computation_terms", tuple(self.computation_terms)
        )
        if self.mpi_op is not None:
            object.__setattr__(self, "mpi_op", MpiOp(self.mpi_op))
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("kernel name must be a non-empty string")
        if self.loop_arrangement not in ("nested", "sequential"):
            raise ValidationError(
                f"unknown loop arrangement {self.loop_arrangement!r}"
            )
        if not self.computation_terms:
            raise ValidationError("kernel needs at least one computation term")
        for term in self.computation_terms:
            if not (term.coefficient > 0):
                raise ValidationError("computation coefficients must be positive")
        if self.message_elems_term is not None and self.message_elems_term.is_constant:
            raise ValidationError("message term must not be all-zero")
        if self.mpi_op is not None and not has_factor(self.mpi_op, B, B_FRAC):
            if self.message_elems_term is not None:
                raise ValidationError(
                    f"{self.mpi_op.value} kernels carry no message term"
                )
        elif (self.mpi_op is None) != (self.message_elems_term is None):
            raise ValidationError(
                "mpi_op and message term must be present together"
            )
        if self.elem_size <= 0:
            raise ValidationError("elem_size must be positive")
        if self.message_elems_base < 1:
            raise ValidationError("message_elems_base must be >= 1")
        for v, label in (
            (self.true_alpha, "alpha"),
            (self.true_beta, "beta"),
            (self.true_gamma, "gamma"),
        ):
            if not (v > 0):
                raise ValidationError(f"true_{label} must be positive")
        if self.bb_per_iteration < 1:
            raise ValidationError("bb_per_iteration must be a positive integer")


@dataclass(frozen=True)
class BenchmarkSpec:
    """A seeded set of kernels over a parameter space."""

    seed: int
    space: ParameterSpace
    kernels: tuple[KernelSpec, ...]
    ranks_param: str = "p"

    def __post_init__(self):
        object.__setattr__(self, "kernels", tuple(self.kernels))
        if not self.kernels:
            raise ValidationError("benchmark spec needs at least one kernel")
        if self.ranks_param not in self.space.names:
            raise ValidationError(
                f"ranks parameter {self.ranks_param!r} not in space"
            )
        names = [k.name for k in self.kernels]
        if len(set(names)) != len(names):
            raise ValidationError("kernel names must be unique")
        for k in self.kernels:
            for term in k.computation_terms:
                if len(term.exponents) != self.space.m:
                    raise ValidationError("term arity does not match space")
            if k.message_elems_term is not None:
                if len(k.message_elems_term.exponents) != self.space.m:
                    raise ValidationError("message arity does not match space")


# Pools and ranges of the seeded generator. Term exponents come from the
# modeler's search space; message sizes grow at most like x^(3/2).
MONOMIAL_EXPONENTS = tuple(default_exponent_sets()[0])
LOG_EXPONENTS = (0, 1, 2)
MESSAGE_MONOMIALS = tuple(i for i in MONOMIAL_EXPONENTS if i <= Fraction(3, 2))
MESSAGE_LOGS = (0, 1)
MESSAGE_ZERO_PROB = 0.25
MESSAGE_ELEMS_BASE = 1000
COEFF_RANGE = (1e-8, 1e-5)
ALPHA_RANGE = (1e-6, 1e-4)
BETA_RANGE = (1e-10, 1e-8)
GAMMA_RANGE = (1e-11, 1e-9)
BB_RANGE = (1, 64)
ELEM_SIZES = (4, 8)
MPI_OPS = tuple(MpiOp)
# smallest value any computation term may take on the grid
MIN_TERM_VALUE = 1000.0


def default_space(m: int) -> ParameterSpace:
    """Training spaces mirroring the synthetic evaluation setup."""
    if m not in (1, 2, 3):
        raise ValidationError("supported parameter counts: m in {1, 2, 3}")
    names = ("p", "n", "s")[:m]
    values = (
        (128.0, 256.0, 512.0, 1024.0, 2048.0),
        (8000.0, 16000.0, 24000.0, 32000.0, 40000.0),
        (1000.0, 2000.0, 3000.0, 4000.0, 5000.0),
    )[:m]
    return ParameterSpace(names, values)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _draw_axis_function(rng: np.random.Generator) -> Expo:
    while True:
        i = MONOMIAL_EXPONENTS[rng.integers(len(MONOMIAL_EXPONENTS))]
        j = LOG_EXPONENTS[rng.integers(len(LOG_EXPONENTS))]
        if i != 0 or j != 0:
            return (Fraction(i), int(j))


def _axis_term(m: int, axis: int, expo: Expo) -> tuple[Expo, ...]:
    exps: list[Expo] = [(Fraction(0), 0)] * m
    exps[axis] = expo
    return tuple(exps)


def _combine_terms(a: Sequence[Expo], b: Sequence[Expo]) -> tuple[Expo, ...]:
    return tuple((ia + ib, ja + jb) for (ia, ja), (ib, jb) in zip(a, b))


def _draw_kernel(
    rng: np.random.Generator, name: str, space: ParameterSpace
) -> KernelSpec:
    m = space.m
    grid = np.array(space.grid())
    logs = np.log2(grid)
    arrangement = "nested" if rng.random() < 0.5 else "sequential"
    axis_order = [int(a) for a in rng.permutation(m)]

    for _ in range(500):
        functions = {axis: _draw_axis_function(rng) for axis in axis_order}
        terms: list[tuple[Expo, ...]] = []
        if arrangement == "nested":
            current = None
            for axis in axis_order:
                nxt = _axis_term(m, axis, functions[axis])
                current = nxt if current is None else _combine_terms(current, nxt)
                terms.append(current)
        else:
            terms = [_axis_term(m, axis, functions[axis]) for axis in axis_order]
        if all(
            monomial_values(t, grid, logs).min() >= MIN_TERM_VALUE
            for t in terms
        ):
            break
    else:
        raise ValidationError("could not draw terms above the minimum value floor")

    computation = tuple(Term(_log_uniform(rng, *COEFF_RANGE), t) for t in terms)
    op = MPI_OPS[rng.integers(len(MPI_OPS))]
    message = None
    if has_factor(op, B, B_FRAC):
        while message is None or message.is_constant:
            exps: list[Expo] = []
            for _ in range(m):
                if rng.random() < MESSAGE_ZERO_PROB:
                    exps.append((Fraction(0), 0))
                else:
                    i = MESSAGE_MONOMIALS[rng.integers(len(MESSAGE_MONOMIALS))]
                    j = MESSAGE_LOGS[rng.integers(len(MESSAGE_LOGS))]
                    exps.append((Fraction(i), int(j)))
            message = BasisFunction(tuple(exps))
    return KernelSpec(
        name=name,
        computation_terms=computation,
        loop_arrangement=arrangement,
        mpi_op=op,
        message_elems_term=message,
        elem_size=int(ELEM_SIZES[rng.integers(len(ELEM_SIZES))]),
        message_elems_base=MESSAGE_ELEMS_BASE,
        true_alpha=_log_uniform(rng, *ALPHA_RANGE),
        true_beta=_log_uniform(rng, *BETA_RANGE),
        true_gamma=_log_uniform(rng, *GAMMA_RANGE),
        bb_per_iteration=int(rng.integers(BB_RANGE[0], BB_RANGE[1] + 1)),
    )


def random_spec(seed: int, m: int, n_kernels: int = 1) -> BenchmarkSpec:
    """Seeded random benchmark spec; identical seeds give identical specs."""
    if m not in (1, 2, 3):
        raise ValidationError("supported parameter counts: m in {1, 2, 3}")
    if n_kernels < 1:
        raise ValidationError("n_kernels must be >= 1")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    space = default_space(m)
    kernels = []
    for idx in range(n_kernels):
        rng = np.random.default_rng([seed, idx])
        kernels.append(_draw_kernel(rng, f"k{idx:02d}", space))
    return BenchmarkSpec(
        seed=seed, space=space, kernels=tuple(kernels), ranks_param=space.names[0]
    )


# --- call paths, ground truth and analytic simulation -----------------------


def _callpaths(
    spec: BenchmarkSpec, kernel: KernelSpec, coords: np.ndarray
) -> Iterator[tuple[CallPath, list, np.ndarray, np.ndarray]]:
    """Yield each call path the kernel produces, in simulation order, as
    (call path, exponents of its ground-truth terms, runtime, effort), with
    the exact per-coordinate runtime and effort on coords (no repetition
    noise). The truth terms are the loop terms of the computation, and the
    payload and log2(p) latency terms of the MPI operation."""
    logs = np.log2(coords)
    bb = np.zeros(coords.shape[0])
    time_comp = np.zeros(coords.shape[0])
    for term in kernel.computation_terms:
        values = monomial_values(term.exponents, coords, logs)
        bb += np.rint(values) * kernel.bb_per_iteration
        time_comp += term.coefficient * values
    comp = [t.exponents for t in kernel.computation_terms]
    yield CallPath(f"{kernel.name}/compute", KIND_COMPUTATION), comp, time_comp, bb
    op = kernel.mpi_op
    if op is None:
        return
    ranks_axis = spec.space.names.index(spec.ranks_param)
    p = coords[:, ranks_axis]
    terms = []
    if kernel.message_elems_term is None:
        payload = np.zeros(coords.shape[0])
    else:
        terms.append(kernel.message_elems_term.exponents)
        elems = np.rint(
            kernel.message_elems_base
            * monomial_values(kernel.message_elems_term.exponents, coords, logs)
        )
        payload = float(kernel.elem_size) * elems
    time_comm = 0.0 if has_factor(op, LOG_P) else kernel.true_alpha
    for factor, label in COST_FORMS[op]:
        c = getattr(kernel, f"true_{label}")  # beta -> true_beta
        if factor == LOG_P:
            log_exps: list[Expo] = [(Fraction(0), 0)] * spec.space.m
            log_exps[ranks_axis] = (Fraction(0), 1)
            terms.append(tuple(log_exps))
            time_comm = time_comm + c * np.log2(p)
        elif factor == B:
            time_comm = time_comm + c * payload
        else:
            time_comm = time_comm + c * payload * (p - 1.0) / p
    cp = CallPath(f"{kernel.name}/{op.value}", KIND_COMMUNICATION, op)
    yield cp, terms, time_comm, payload


def truth_by_callpath(spec: BenchmarkSpec) -> dict[str, dict[str, Expo]]:
    """Ground-truth leading exponents keyed by simulated call-path name."""
    grid = np.array(spec.space.grid())
    return {
        cp.name: dict(zip(spec.space.names, leading_from_terms(terms, spec.space.m)))
        for kernel in spec.kernels
        for cp, terms, _, _ in _callpaths(spec, kernel, grid)
    }


def simulate_measurements(
    spec: BenchmarkSpec, reps: int, baseline_noise: float = 0.0, seed: int = 0
) -> ExperimentSet:
    """Analytic stand-in for cluster runs.

    Basic blocks and bytes are exact and identical across repetitions;
    runtimes are multiplied per repetition by (1 + baseline_noise * u)
    with u uniform in [0, 1) from a per-measurement stream (noise.perturb).
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    if baseline_noise < 0:
        raise ValidationError("baseline_noise must be >= 0")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    ranks = spec.space.values[spec.space.names.index(spec.ranks_param)]
    if any(k.mpi_op is not None for k in spec.kernels) and min(ranks) < 2:
        raise ValidationError("communication kernels need rank counts >= 2 everywhere")
    coords = np.array(spec.space.grid())
    callpaths = []
    for kernel in spec.kernels:
        for cp, _, runtime, effort in _callpaths(spec, kernel, coords):
            exact = {METRIC_TIME: runtime, EFFORT_METRIC[cp.kind]: effort}
            callpaths.append((cp, {
                m: MetricSeries(m, np.repeat(v[:, None], reps, axis=1))
                for m, v in exact.items()
            }))
    exp = ExperimentSet(spec.space, tuple(callpaths))
    what = f"baseline noise {baseline_noise:g}"
    return perturb(exp, baseline_noise, np.random.Generator.random, seed, what)


def true_time(spec: BenchmarkSpec, callpath: str, coordinate: Coordinate) -> float:
    """Noise-free runtime of one call path at any coordinate."""
    coords = np.array([coordinate], dtype=float)
    for kernel in spec.kernels:
        for cp, _, runtime, _ in _callpaths(spec, kernel, coords):
            if cp.name == callpath:
                return float(runtime[0])
    raise KeyError(f"no call path named {callpath!r} in spec")


# --- spec files ---------------------------------------------------------------


def _expo_to_json(exps: Sequence[Expo]) -> list:
    return [[str(i), j] for i, j in exps]


def _monomial_from_json(value, where: str) -> Fraction:
    """A monomial exponent is a string such as "3/2" within float range."""
    if not isinstance(value, str):
        raise ParseError(f"could not convert {value!r} to an exponent in {where}")
    i = Fraction(value)
    try:
        float(i)
    except OverflowError:
        raise ParseError(f"exponent {value!r} out of range in {where}") from None
    return i


def _expo_from_json(raw, m: int, where: str) -> tuple[Expo, ...]:
    if len(require_list(raw, where)) != m:
        raise ParseError(f"{where}: expected {m} exponent pairs")
    return tuple(
        (_monomial_from_json(i, where), require_int(j, where)) for i, j in raw
    )


def spec_to_dict(spec: BenchmarkSpec) -> dict:
    return {
        "format_version": SPEC_FORMAT_VERSION,
        "seed": spec.seed,
        "ranks_param": spec.ranks_param,
        "parameters": space_to_dict(spec.space),
        "kernels": [
            {
                "name": k.name,
                "loop_arrangement": k.loop_arrangement,
                "computation_terms": [
                    {
                        "exponents": _expo_to_json(t.exponents),
                        "coefficient": t.coefficient,
                    }
                    for t in k.computation_terms
                ],
                "mpi_op": None if k.mpi_op is None else k.mpi_op.value,
                "message_elems_term": None
                if k.message_elems_term is None
                else _expo_to_json(k.message_elems_term.exponents),
                "message_elems_base": k.message_elems_base,
                "elem_size": k.elem_size,
                "true_alpha": k.true_alpha,
                "true_beta": k.true_beta,
                "true_gamma": k.true_gamma,
                "bb_per_iteration": k.bb_per_iteration,
            }
            for k in spec.kernels
        ],
    }


def _kernel_from_dict(k, m: int) -> KernelSpec:
    # the file's kernel keys are exactly KernelSpec's fields, all required
    require_keys(k, "kernel", [f.name for f in fields(KernelSpec)])
    terms = []
    for t in require_list(k["computation_terms"], "computation_terms"):
        require_keys(t, "computation term", ["exponents", "coefficient"])
        expos = _expo_from_json(t["exponents"], m, "computation term")
        coefficient = require_number(t["coefficient"], "computation term")
        terms.append(Term(coefficient, expos))
    message = k["message_elems_term"]
    if message is not None:
        message = BasisFunction(_expo_from_json(message, m, "message_elems_term"))
    return KernelSpec(
        name=k["name"],
        computation_terms=tuple(terms),
        loop_arrangement=k["loop_arrangement"],
        mpi_op=k["mpi_op"],
        message_elems_term=message,
        message_elems_base=require_int(k["message_elems_base"], "message_elems_base"),
        elem_size=require_int(k["elem_size"], "elem_size"),
        true_alpha=require_number(k["true_alpha"], "true_alpha"),
        true_beta=require_number(k["true_beta"], "true_beta"),
        true_gamma=require_number(k["true_gamma"], "true_gamma"),
        bb_per_iteration=require_int(k["bb_per_iteration"], "bb_per_iteration"),
    )


def spec_from_dict(doc) -> BenchmarkSpec:
    keys = ["format_version", "seed", "ranks_param", "parameters", "kernels"]
    require_keys(doc, "benchmark spec", keys)
    if require_int(doc["format_version"], "format_version") != SPEC_FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc['format_version']!r}")
    space = space_from_dict(doc["parameters"])
    kernels = require_list(doc["kernels"], "kernels")
    return BenchmarkSpec(
        seed=require_int(doc["seed"], "seed"),
        space=space,
        kernels=tuple(_kernel_from_dict(k, space.m) for k in kernels),
        ranks_param=doc["ranks_param"],
    )


def save_spec(spec: BenchmarkSpec, path) -> None:
    write_document(spec_to_dict(spec), path)


def load_spec(path) -> BenchmarkSpec:
    return read_document(path, spec_from_dict)

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
rounded. The default generator keeps every term's smallest grid value
above a floor (and scales message counts by a base factor): rounding a
small fractional-exponent term can otherwise alias it into a different
complexity class, e.g. round(p^(1/4)) on the default geometric grid is
exactly affine in log2(p).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Sequence

import numpy as np

from .dataset import (
    KIND_COMMUNICATION,
    KIND_COMPUTATION,
    METRIC_BASIC_BLOCKS,
    METRIC_BYTES,
    METRIC_TIME,
    CallPath,
    Coordinate,
    ExperimentSet,
    MetricSeries,
    MpiOp,
    ParameterSpace,
    read_document,
    require_keys,
    require_list,
    space_from_dict,
    space_to_dict,
    write_document,
)
from .errors import ParseError, ValidationError
from .pmnf import Expo, default_exponent_sets, leading_from_terms
from .priors import account_bytes

SPEC_FORMAT_VERSION = 1

_COLLECTIVES_WITH_LOG = (
    MpiOp.BROADCAST,
    MpiOp.SCATTER,
    MpiOp.GATHER,
    MpiOp.ALLGATHER,
    MpiOp.REDUCE,
    MpiOp.ALLREDUCE,
    MpiOp.BARRIER,
)


@dataclass(frozen=True)
class ComplexityTerm:
    """Per-parameter (monomial, log) exponents of one complexity term."""

    exponents: tuple[Expo, ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "exponents",
            tuple((Fraction(i), int(j)) for i, j in self.exponents),
        )
        if all(i == 0 and j == 0 for i, j in self.exponents):
            raise ValidationError("complexity term must not be all-zero")


@dataclass(frozen=True)
class KernelSpec:
    """Ground-truth description of one synthetic kernel."""

    name: str
    computation_terms: tuple[tuple[ComplexityTerm, float], ...]
    loop_arrangement: str
    mpi_op: MpiOp | None
    message_elems_term: ComplexityTerm | None
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
        for _, coeff in self.computation_terms:
            if not (coeff > 0):
                raise ValidationError("computation coefficients must be positive")
        if self.mpi_op is MpiOp.BARRIER:
            if self.message_elems_term is not None:
                raise ValidationError("barrier kernels carry no message term")
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
            for term, _ in k.computation_terms:
                if len(term.exponents) != self.space.m:
                    raise ValidationError("term arity does not match space")
            if k.message_elems_term is not None:
                if len(k.message_elems_term.exponents) != self.space.m:
                    raise ValidationError("message arity does not match space")


@dataclass(frozen=True)
class GeneratorConfig:
    """Pools and ranges for the seeded random generator."""

    monomial_exponents: tuple[Fraction, ...] = ()
    log_exponents: tuple[int, ...] = (0, 1, 2)
    message_monomials: tuple[Fraction, ...] = ()
    message_logs: tuple[int, ...] = (0, 1)
    coeff_range: tuple[float, float] = (1e-8, 1e-5)
    alpha_range: tuple[float, float] = (1e-6, 1e-4)
    beta_range: tuple[float, float] = (1e-10, 1e-8)
    gamma_range: tuple[float, float] = (1e-11, 1e-9)
    bb_range: tuple[int, int] = (1, 64)
    elem_sizes: tuple[int, ...] = (4, 8)
    ops: tuple[MpiOp, ...] = tuple(MpiOp)
    message_elems_base: int = 1000
    message_zero_prob: float = 0.25
    min_term_value: float = 1000.0
    space: ParameterSpace | None = None

    def __post_init__(self):
        if not self.monomial_exponents:
            i_set, _ = default_exponent_sets()
            object.__setattr__(self, "monomial_exponents", tuple(i_set))
        if not self.message_monomials:
            i_set, _ = default_exponent_sets()
            object.__setattr__(
                self,
                "message_monomials",
                tuple(i for i in i_set if i <= Fraction(3, 2)),
            )
        if self.coeff_range[0] <= 0 or self.coeff_range[0] > self.coeff_range[1]:
            raise ValidationError("coefficient range must be positive and ordered")
        for lo, hi in (self.alpha_range, self.beta_range, self.gamma_range):
            if lo <= 0 or lo > hi:
                raise ValidationError("cost ranges must be positive and ordered")
        if self.bb_range[0] < 1 or self.bb_range[0] > self.bb_range[1]:
            raise ValidationError("bb_range must be ordered and >= 1")


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


def term_values(term: ComplexityTerm, coords: np.ndarray) -> np.ndarray:
    """Evaluate a term on an (N, m) coordinate array."""
    coords = np.asarray(coords, dtype=float)
    out = np.ones(coords.shape[0])
    for l, (i, j) in enumerate(term.exponents):
        if i:
            out = out * coords[:, l] ** float(i)
        if j:
            out = out * np.log2(coords[:, l]) ** j
    return out


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _draw_axis_function(
    rng: np.random.Generator, config: GeneratorConfig
) -> Expo:
    while True:
        i = config.monomial_exponents[rng.integers(len(config.monomial_exponents))]
        j = config.log_exponents[rng.integers(len(config.log_exponents))]
        if i != 0 or j != 0:
            return (Fraction(i), int(j))


def _axis_term(m: int, axis: int, expo: Expo) -> ComplexityTerm:
    exps: list[Expo] = [(Fraction(0), 0)] * m
    exps[axis] = expo
    return ComplexityTerm(tuple(exps))


def _combine_terms(a: ComplexityTerm, b: ComplexityTerm) -> ComplexityTerm:
    exps = tuple(
        (ia + ib, ja + jb)
        for (ia, ja), (ib, jb) in zip(a.exponents, b.exponents)
    )
    return ComplexityTerm(exps)


def _draw_kernel(
    rng: np.random.Generator,
    name: str,
    space: ParameterSpace,
    config: GeneratorConfig,
) -> KernelSpec:
    m = space.m
    grid = np.array(space.grid())
    arrangement = "nested" if rng.random() < 0.5 else "sequential"
    axis_order = [int(a) for a in rng.permutation(m)]

    for _ in range(500):
        functions = {axis: _draw_axis_function(rng, config) for axis in axis_order}
        terms: list[ComplexityTerm] = []
        if arrangement == "nested":
            current = None
            for axis in axis_order:
                nxt = _axis_term(m, axis, functions[axis])
                current = nxt if current is None else _combine_terms(current, nxt)
                terms.append(current)
        else:
            terms = [_axis_term(m, axis, functions[axis]) for axis in axis_order]
        if all(term_values(t, grid).min() >= config.min_term_value for t in terms):
            break
    else:
        raise ValidationError(
            "could not draw terms above the minimum value floor; "
            "widen the exponent pools or lower min_term_value"
        )

    computation = tuple(
        (t, _log_uniform(rng, *config.coeff_range)) for t in terms
    )
    op = config.ops[rng.integers(len(config.ops))]
    message = None
    if op is not MpiOp.BARRIER:
        while True:
            exps: list[Expo] = []
            for _ in range(m):
                if rng.random() < config.message_zero_prob:
                    exps.append((Fraction(0), 0))
                else:
                    i = config.message_monomials[
                        rng.integers(len(config.message_monomials))
                    ]
                    j = config.message_logs[rng.integers(len(config.message_logs))]
                    exps.append((Fraction(i), int(j)))
            if any(i != 0 or j != 0 for i, j in exps):
                message = ComplexityTerm(tuple(exps))
                break
    return KernelSpec(
        name=name,
        computation_terms=computation,
        loop_arrangement=arrangement,
        mpi_op=op,
        message_elems_term=message,
        elem_size=int(config.elem_sizes[rng.integers(len(config.elem_sizes))]),
        message_elems_base=config.message_elems_base,
        true_alpha=_log_uniform(rng, *config.alpha_range),
        true_beta=_log_uniform(rng, *config.beta_range),
        true_gamma=_log_uniform(rng, *config.gamma_range),
        bb_per_iteration=int(rng.integers(config.bb_range[0], config.bb_range[1] + 1)),
    )


def random_spec(
    seed: int, m: int, n_kernels: int = 1, config: GeneratorConfig | None = None
) -> BenchmarkSpec:
    """Seeded random benchmark spec; identical seeds give identical specs."""
    if m not in (1, 2, 3):
        raise ValidationError("supported parameter counts: m in {1, 2, 3}")
    if n_kernels < 1:
        raise ValidationError("n_kernels must be >= 1")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    config = config or GeneratorConfig()
    space = config.space or default_space(m)
    kernels = []
    for idx in range(n_kernels):
        rng = np.random.default_rng([seed, idx])
        kernels.append(_draw_kernel(rng, f"k{idx:02d}", space, config))
    return BenchmarkSpec(
        seed=seed, space=space, kernels=tuple(kernels), ranks_param=space.names[0]
    )


# --- ground truth -----------------------------------------------------------


def _comm_truth_terms(
    spec: BenchmarkSpec, kernel: KernelSpec
) -> list[tuple[Expo, ...]] | None:
    if kernel.mpi_op is None:
        return None
    m = spec.space.m
    ranks_axis = spec.space.names.index(spec.ranks_param)
    terms = []
    if kernel.mpi_op in _COLLECTIVES_WITH_LOG:
        log_exps: list[Expo] = [(Fraction(0), 0)] * m
        log_exps[ranks_axis] = (Fraction(0), 1)
        terms.append(tuple(log_exps))
    if kernel.message_elems_term is not None:
        terms.append(kernel.message_elems_term.exponents)
    return terms


def ground_truth(
    spec: BenchmarkSpec,
) -> dict[str, dict[str, dict[str, Expo] | None]]:
    """Per-kernel leading exponents implied by the spec itself."""
    out = {}
    names = spec.space.names
    for kernel in spec.kernels:
        comp = leading_from_terms(
            [t.exponents for t, _ in kernel.computation_terms], spec.space.m
        )
        comm_terms = _comm_truth_terms(spec, kernel)
        comm = (
            None
            if comm_terms is None
            else dict(zip(names, leading_from_terms(comm_terms, spec.space.m)))
        )
        out[kernel.name] = {
            "computation": dict(zip(names, comp)),
            "communication": comm,
        }
    return out


def compute_callpath(kernel: KernelSpec) -> str:
    return f"{kernel.name}/compute"


def comm_callpath(kernel: KernelSpec) -> str:
    return f"{kernel.name}/{kernel.mpi_op.value}"


def truth_by_callpath(spec: BenchmarkSpec) -> dict[str, dict[str, Expo]]:
    """Ground-truth leading exponents keyed by simulated call-path name."""
    truth = ground_truth(spec)
    out = {}
    for kernel in spec.kernels:
        entry = truth[kernel.name]
        out[compute_callpath(kernel)] = entry["computation"]
        if kernel.mpi_op is not None:
            out[comm_callpath(kernel)] = entry["communication"]
    return out


# --- analytic simulation ----------------------------------------------------


def _kernel_signals(
    spec: BenchmarkSpec, kernel: KernelSpec, coords: np.ndarray
) -> dict[str, np.ndarray | None]:
    """Exact per-coordinate metrics of one kernel (no repetition noise)."""
    bb = np.zeros(coords.shape[0])
    time_comp = np.zeros(coords.shape[0])
    for term, coeff in kernel.computation_terms:
        values = term_values(term, coords)
        bb += np.rint(values) * kernel.bb_per_iteration
        time_comp += coeff * values
    payload = None
    time_comm = None
    if kernel.mpi_op is not None:
        op = kernel.mpi_op
        ranks_axis = spec.space.names.index(spec.ranks_param)
        p = coords[:, ranks_axis]
        if kernel.message_elems_term is None:
            payload = np.zeros(coords.shape[0])
        else:
            elems = np.rint(
                kernel.message_elems_base * term_values(kernel.message_elems_term, coords)
            )
            payload = float(kernel.elem_size) * elems
        alpha, beta, gamma = kernel.true_alpha, kernel.true_beta, kernel.true_gamma
        if op in (MpiOp.SEND, MpiOp.RECEIVE):
            time_comm = alpha + beta * payload
        elif op is MpiOp.BROADCAST:
            time_comm = alpha * np.log2(p) + beta * payload
        elif op in (MpiOp.SCATTER, MpiOp.GATHER, MpiOp.ALLGATHER):
            time_comm = alpha * np.log2(p) + beta * payload * (p - 1.0) / p
        elif op in (MpiOp.REDUCE, MpiOp.ALLREDUCE):
            time_comm = (
                alpha * np.log2(p)
                + beta * payload
                + gamma * payload * (p - 1.0) / p
            )
        elif op is MpiOp.BARRIER:
            time_comm = alpha * np.log2(p)
    return {"bb": bb, "time_comp": time_comp, "bytes": payload, "time_comm": time_comm}


def _check_simulatable(spec: BenchmarkSpec) -> None:
    if any(k.mpi_op is not None for k in spec.kernels):
        ranks_axis = spec.space.names.index(spec.ranks_param)
        if min(spec.space.values[ranks_axis]) < 2:
            raise ValidationError(
                "communication kernels need rank counts >= 2 everywhere"
            )


def simulate_measurements(
    spec: BenchmarkSpec, reps: int, baseline_noise: float = 0.0, seed: int = 0
) -> ExperimentSet:
    """Analytic stand-in for cluster runs.

    Basic blocks and bytes are exact and identical across repetitions;
    runtimes are multiplied per repetition by (1 + baseline_noise * u)
    with u uniform in [0, 1) from a per-measurement seeded stream.
    """
    if reps < 1:
        raise ValidationError("reps must be >= 1")
    if baseline_noise < 0:
        raise ValidationError("baseline_noise must be >= 0")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    _check_simulatable(spec)
    grid = spec.space.grid()
    coords = np.array(grid)
    callpaths = []
    cp_index = 0

    def time_series(values: np.ndarray) -> MetricSeries:
        nonlocal cp_index
        data = {}
        for ci, coord in enumerate(grid):
            base = float(values[ci])
            if baseline_noise > 0:
                reps_list = []
                for r in range(reps):
                    rng = np.random.default_rng([seed, cp_index, ci, r])
                    reps_list.append(base * (1.0 + baseline_noise * rng.random()))
                data[coord] = tuple(reps_list)
            else:
                data[coord] = (base,) * reps
        return MetricSeries(METRIC_TIME, data)

    def flat_series(metric: str, values: np.ndarray) -> MetricSeries:
        return MetricSeries(
            metric, {c: (float(v),) * reps for c, v in zip(grid, values)}
        )

    for kernel in spec.kernels:
        signals = _kernel_signals(spec, kernel, coords)
        cp = CallPath(compute_callpath(kernel), KIND_COMPUTATION)
        callpaths.append(
            (
                cp,
                {
                    METRIC_TIME: time_series(signals["time_comp"]),
                    METRIC_BASIC_BLOCKS: flat_series(
                        METRIC_BASIC_BLOCKS, signals["bb"]
                    ),
                },
            )
        )
        cp_index += 1
        if kernel.mpi_op is not None:
            cp = CallPath(
                comm_callpath(kernel), KIND_COMMUNICATION, kernel.mpi_op
            )
            callpaths.append(
                (
                    cp,
                    {
                        METRIC_TIME: time_series(signals["time_comm"]),
                        METRIC_BYTES: flat_series(METRIC_BYTES, signals["bytes"]),
                    },
                )
            )
            cp_index += 1
    return ExperimentSet(spec.space, tuple(callpaths))


def true_time(spec: BenchmarkSpec, callpath: str, coordinate: Coordinate) -> float:
    """Noise-free runtime of one call path at any coordinate."""
    coords = np.array([coordinate], dtype=float)
    for kernel in spec.kernels:
        signals = _kernel_signals(spec, kernel, coords)
        if callpath == compute_callpath(kernel):
            return float(signals["time_comp"][0])
        if kernel.mpi_op is not None and callpath == comm_callpath(kernel):
            return float(signals["time_comm"][0])
    raise KeyError(f"no call path named {callpath!r} in spec")


def root_bytes(spec: BenchmarkSpec, kernel: KernelSpec, coordinate: Coordinate) -> int:
    """Root-side byte accounting of the kernel's operation at a coordinate."""
    if kernel.mpi_op is None:
        raise ValidationError(f"kernel {kernel.name!r} has no MPI operation")
    if kernel.message_elems_term is None:
        elems = 0
    else:
        value = term_values(
            kernel.message_elems_term, np.array([coordinate], dtype=float)
        )[0]
        elems = int(np.rint(kernel.message_elems_base * value))
    ranks_axis = spec.space.names.index(spec.ranks_param)
    p = int(coordinate[ranks_axis])
    return account_bytes(kernel.mpi_op, elems, kernel.elem_size, p)[0]


# --- source emission ---------------------------------------------------------

_MPI_CALLS = {
    MpiOp.SEND: "MPI_Send({buf}, {count}, {dtype}, 1, 0, MPI_COMM_WORLD);",
    MpiOp.RECEIVE: (
        "MPI_Recv({buf}, {count}, {dtype}, 0, 0, MPI_COMM_WORLD,"
        " MPI_STATUS_IGNORE);"
    ),
    MpiOp.BROADCAST: "MPI_Bcast({buf}, {count}, {dtype}, 0, MPI_COMM_WORLD);",
    MpiOp.SCATTER: (
        "MPI_Scatter({buf}, {count}, {dtype}, {buf}, {count}, {dtype}, 0,"
        " MPI_COMM_WORLD);"
    ),
    MpiOp.GATHER: (
        "MPI_Gather({buf}, {count}, {dtype}, {buf}, {count}, {dtype}, 0,"
        " MPI_COMM_WORLD);"
    ),
    MpiOp.ALLGATHER: (
        "MPI_Allgather({buf}, {count}, {dtype}, {buf}, {count}, {dtype},"
        " MPI_COMM_WORLD);"
    ),
    MpiOp.REDUCE: (
        "MPI_Reduce(MPI_IN_PLACE, {buf}, {count}, {dtype}, MPI_SUM, 0,"
        " MPI_COMM_WORLD);"
    ),
    MpiOp.ALLREDUCE: (
        "MPI_Allreduce(MPI_IN_PLACE, {buf}, {count}, {dtype}, MPI_SUM,"
        " MPI_COMM_WORLD);"
    ),
    MpiOp.BARRIER: "MPI_Barrier(MPI_COMM_WORLD);",
}


def _axis_expr(name: str, expo: Expo) -> str:
    i, j = expo
    parts = []
    if i == 1:
        parts.append(f"(double){name}")
    elif i != 0:
        parts.append(f"std::pow((double){name}, {float(i)!r})")
    if j == 1:
        parts.append(f"std::log2((double){name})")
    elif j != 0:
        parts.append(f"std::pow(std::log2((double){name}), {j})")
    return " * ".join(parts) if parts else "1.0"


def _term_expr(term: ComplexityTerm, names: Sequence[str]) -> str:
    parts = [
        _axis_expr(name, expo)
        for name, expo in zip(names, term.exponents)
        if expo != (Fraction(0), 0)
    ]
    return " * ".join(parts) if parts else "1.0"


def _bound_expr(name: str, expo: Expo) -> str:
    if expo == (Fraction(1), 0):
        return name
    return f"scaled_extent({_axis_expr(name, expo)})"


def emit_source(spec: BenchmarkSpec) -> str:
    """Deterministic C++ text realizing the spec (never compiled here)."""
    names = spec.space.names
    truth = ground_truth(spec)
    truth_doc = {
        kernel: {
            section: None
            if lead is None
            else {p: [str(e[0]), e[1]] for p, e in lead.items()}
            for section, lead in entry.items()
        }
        for kernel, entry in truth.items()
    }
    lines = [
        "// Synthetic benchmark generated from a seeded spec.",
        "// GROUND_TRUTH " + json.dumps(truth_doc, sort_keys=True),
        "#include <cmath>",
        "#include <cstdint>",
        "#include <vector>",
        "#include <mpi.h>",
        "",
        "namespace {",
        "long scaled_extent(double v) { return (long)std::llround(v); }",
        "}  // namespace",
    ]
    args = ", ".join(f"long {n}" for n in names)
    for kernel in spec.kernels:
        lines.append("")
        lines.append(
            f"// kernel {kernel.name}: {kernel.loop_arrangement} loops"
            + (f", {kernel.mpi_op.value}" if kernel.mpi_op else "")
        )
        lines.append(f"void {kernel.name}_frame({args}) {{")
        body: list[str] = []
        elem_type, mpi_type = (
            ("int", "MPI_INT") if kernel.elem_size == 4 else ("double", "MPI_DOUBLE")
        )
        if kernel.message_elems_term is not None:
            extent = (
                f"scaled_extent({kernel.message_elems_base}.0 * "
                f"{_term_expr(kernel.message_elems_term, names)})"
            )
            body.append(f"std::vector<{elem_type}> payload({extent});")
        body.append("int64_t acc = 0;")
        loop_axes = _loop_axes(spec, kernel)
        if kernel.loop_arrangement == "nested":
            depth = 0
            for axis, expo in loop_axes:
                var = f"i{depth}"
                bound = _bound_expr(names[axis], expo)
                body.append(
                    "  " * depth + f"for (long {var} = 0; {var} < {bound}; ++{var}) {{"
                )
                depth += 1
                body.append("  " * depth + _work_statement(kernel, depth))
            for depth in range(len(loop_axes) - 1, -1, -1):
                body.append("  " * depth + "}")
        else:
            for idx, (axis, expo) in enumerate(loop_axes):
                var = f"i{idx}"
                bound = _bound_expr(names[axis], expo)
                body.append(f"for (long {var} = 0; {var} < {bound}; ++{var}) {{")
                body.append("  " + _work_statement(kernel, idx + 1, first=idx))
                body.append("}")
        if kernel.mpi_op is not None:
            if kernel.message_elems_term is None:
                body.append(_MPI_CALLS[kernel.mpi_op])
            else:
                body.append(
                    _MPI_CALLS[kernel.mpi_op].format(
                        buf="payload.data()",
                        count="(int)payload.size()",
                        dtype=mpi_type,
                    )
                )
        body.append("(void)acc;")
        lines.extend("  " + b for b in body)
        lines.append("}")
    return "\n".join(lines) + "\n"


def _work_statement(kernel: KernelSpec, depth: int, first: int = 0) -> str:
    idx = " + ".join(f"i{d}" for d in range(first, depth))
    if kernel.message_elems_term is not None:
        return f"acc += (int64_t)payload[(size_t)(({idx}) % (long)payload.size())];"
    return f"acc += {idx};"


def _loop_axes(spec: BenchmarkSpec, kernel: KernelSpec) -> list[tuple[int, Expo]]:
    """Recover per-loop (axis, function) pairs from the stored terms."""
    axes: list[tuple[int, Expo]] = []
    if kernel.loop_arrangement == "sequential":
        for term, _ in kernel.computation_terms:
            for axis, expo in enumerate(term.exponents):
                if expo != (Fraction(0), 0):
                    axes.append((axis, expo))
                    break
    else:
        previous: tuple[Expo, ...] | None = None
        for term, _ in kernel.computation_terms:
            exps = term.exponents
            if previous is None:
                delta = exps
            else:
                delta = tuple(
                    (i - pi, j - pj)
                    for (i, j), (pi, pj) in zip(exps, previous)
                )
            for axis, expo in enumerate(delta):
                if expo != (Fraction(0), 0):
                    axes.append((axis, expo))
                    break
            previous = exps
    return axes


# --- spec files ---------------------------------------------------------------


def _expo_to_json(exps: Sequence[Expo]) -> list:
    return [[str(i), j] for i, j in exps]


def _expo_from_json(raw, m: int, where: str) -> tuple[Expo, ...]:
    if len(require_list(raw, where)) != m:
        raise ParseError(f"{where}: expected {m} exponent pairs")
    return tuple((Fraction(i), int(j)) for i, j in raw)


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
                    {"exponents": _expo_to_json(t.exponents), "coefficient": c}
                    for t, c in k.computation_terms
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
        terms.append((ComplexityTerm(expos), float(t["coefficient"])))
    message = k["message_elems_term"]
    if message is not None:
        message = ComplexityTerm(_expo_from_json(message, m, "message_elems_term"))
    return KernelSpec(
        name=k["name"],
        computation_terms=tuple(terms),
        loop_arrangement=k["loop_arrangement"],
        mpi_op=k["mpi_op"],
        message_elems_term=message,
        message_elems_base=int(k["message_elems_base"]),
        elem_size=int(k["elem_size"]),
        true_alpha=float(k["true_alpha"]),
        true_beta=float(k["true_beta"]),
        true_gamma=float(k["true_gamma"]),
        bb_per_iteration=int(k["bb_per_iteration"]),
    )


def spec_from_dict(doc) -> BenchmarkSpec:
    keys = ["format_version", "seed", "ranks_param", "parameters", "kernels"]
    require_keys(doc, "benchmark spec", keys)
    if doc["format_version"] != SPEC_FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc['format_version']!r}")
    space = space_from_dict(doc["parameters"])
    kernels = require_list(doc["kernels"], "kernels")
    return BenchmarkSpec(
        seed=int(doc["seed"]),
        space=space,
        kernels=tuple(_kernel_from_dict(k, space.m) for k in kernels),
        ranks_param=doc["ranks_param"],
    )


def save_spec(spec: BenchmarkSpec, path) -> None:
    write_document(spec_to_dict(spec), path)


def load_spec(path) -> BenchmarkSpec:
    return read_document(path, spec_from_dict)

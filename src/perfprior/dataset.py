"""Data model and file I/O for repeated multi-parameter measurements.

An experiment holds, per call path, one series per metric over the full
cartesian grid of the parameter space: a read-only float array of shape
(grid points, repetitions) whose row g holds the repetitions measured at
space.grid()[g], the sorted coordinate order. Aggregation to a single
value per coordinate happens explicitly.

Measurements live in base units (seconds, counts, bytes). The reader
places each file record by exact numeric equality of its coordinate, so
producers must emit exactly representable values. Everything here is
immutable after construction and all operations are pure functions.

This module also holds the one JSON document reader and writer: benchmark
spec files go through the same key, type and conversion checks.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import ParseError, ValidationError

Coordinate = tuple[float, ...]

FORMAT_VERSION = 1

METRIC_TIME = "time_s"
METRIC_BASIC_BLOCKS = "basic_blocks"
METRIC_BYTES = "bytes"
_METRICS = (METRIC_TIME, METRIC_BASIC_BLOCKS, METRIC_BYTES)

KIND_COMPUTATION = "computation"
KIND_COMMUNICATION = "communication"
# the noise-free effort metric each kind of call path is modeled from
EFFORT_METRIC = {
    KIND_COMPUTATION: METRIC_BASIC_BLOCKS,
    KIND_COMMUNICATION: METRIC_BYTES,
}


class MpiOp(str, Enum):
    """Closed set of modeled MPI operations."""

    SEND = "send"
    RECEIVE = "receive"
    BROADCAST = "broadcast"
    SCATTER = "scatter"
    GATHER = "gather"
    ALLGATHER = "allgather"
    REDUCE = "reduce"
    ALLREDUCE = "allreduce"
    BARRIER = "barrier"


@dataclass(frozen=True)
class ParameterSpace:
    """Ordered parameter names with their measured values."""

    names: tuple[str, ...]
    values: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(
            self, "values", tuple(tuple(float(v) for v in vs) for vs in self.values)
        )
        if not self.names:
            raise ValidationError("parameter space needs at least one parameter")
        if any(not isinstance(n, str) or not n for n in self.names):
            raise ValidationError("parameter names must be non-empty strings")
        if len(set(self.names)) != len(self.names):
            raise ValidationError("parameter names must be unique")
        if len(self.values) != len(self.names):
            raise ValidationError("one value list per parameter required")
        for name, vs in zip(self.names, self.values):
            if len(vs) < 2:
                raise ValidationError(f"parameter {name!r} needs at least 2 values")
            for v in vs:
                if not math.isfinite(v) or v < 1.0:
                    raise ValidationError(
                        f"parameter {name!r} has value {v!r} below 1"
                    )
            if any(b <= a for a, b in zip(vs, vs[1:])):
                raise ValidationError(f"values of {name!r} not strictly increasing")

    @property
    def m(self) -> int:
        return len(self.names)

    def grid(self) -> list[Coordinate]:
        """All coordinates of the full-factorial design, row-major order."""
        return [tuple(c) for c in itertools.product(*self.values)]


@dataclass(frozen=True)
class CallPath:
    """A node of the calling-context tree, tagged by what it does."""

    name: str
    kind: str
    mpi_op: MpiOp | None = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValidationError("call path name must be a non-empty string")
        if self.kind not in (KIND_COMPUTATION, KIND_COMMUNICATION):
            raise ValidationError(f"unknown call path kind {self.kind!r}")
        if self.mpi_op is not None:
            object.__setattr__(self, "mpi_op", MpiOp(self.mpi_op))
        if (self.kind == KIND_COMMUNICATION) != (self.mpi_op is not None):
            raise ValidationError(
                "mpi_op must be present exactly for communication call paths"
            )


@dataclass(frozen=True, eq=False)
class MetricSeries:
    """Measurements of one metric: a row per grid point, a column per repetition.
    The metric's name is the series' key in its call path's metric dict.

    rep_ids label the repetition columns so that derived series (see
    subset_repetitions) remember which original repetitions they carry.
    They are in-memory provenance only and are not serialized.
    """

    data: np.ndarray
    rep_ids: tuple[int, ...] = field(default=())

    def __post_init__(self):
        try:
            data = np.array(self.data, dtype=float)
        except ValueError as exc:
            ragged = len({np.shape(row) for row in self.data}) > 1
            why = "unequal repetition counts" if ragged else f"a non-number ({exc})"
            raise ValidationError(f"{why} within a series") from None
        if data.ndim != 2 or data.shape[1] == 0:
            raise ValidationError("series must be a (grid point x repetition) array")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        rep_ids = tuple(int(i) for i in self.rep_ids) or tuple(range(data.shape[1]))
        if len(rep_ids) != data.shape[1]:
            raise ValidationError("rep_ids length does not match repetition count")
        object.__setattr__(self, "rep_ids", rep_ids)

    def __eq__(self, other):
        return (
            isinstance(other, MetricSeries)
            and self.rep_ids == other.rep_ids
            and np.array_equal(self.data, other.data)
        )

    @property
    def repetitions(self) -> int:
        return len(self.rep_ids)


@dataclass(frozen=True)
class ExperimentSet:
    """Parameter space plus per-call-path metric series on a shared grid."""

    space: ParameterSpace
    callpaths: tuple[tuple[CallPath, Mapping[str, MetricSeries]], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "callpaths", tuple((cp, dict(ms)) for cp, ms in self.callpaths)
        )
        points = math.prod(len(vs) for vs in self.space.values)
        names = set()
        for cp, metrics in self.callpaths:
            if cp.name in names:
                raise ValidationError(f"duplicate call path name {cp.name!r}")
            names.add(cp.name)
            for metric, series in metrics.items():
                if metric not in _METRICS:
                    raise ValidationError(f"unknown metric {metric!r}")
                if series.data.shape[0] != points:
                    raise ValidationError(
                        f"incomplete grid for {cp.name!r}/{metric}: "
                        f"{series.data.shape[0]} of {points} coordinates"
                    )
                ok = (np.isfinite(series.data) & (series.data >= 0)).all(axis=1)
                if not ok.all():
                    coord = self.space.grid()[int(np.argmin(ok))]
                    raise ValidationError(
                        f"non-finite or negative measurement at {coord}"
                    )
            # Effort metrics (basic blocks for computation, bytes for
            # communication) are expected but only enforced where used, so
            # time-only experiments remain loadable for classic modeling.
            if METRIC_TIME not in metrics:
                raise ValidationError(f"call path {cp.name!r} lacks {METRIC_TIME}")

    def callpath(self, name: str) -> tuple[CallPath, Mapping[str, MetricSeries]]:
        for cp, metrics in self.callpaths:
            if cp.name == name:
                return cp, metrics
        raise KeyError(f"no call path named {name!r}")

    def with_time(
        self, fn: Callable[[int, MetricSeries], MetricSeries]
    ) -> ExperimentSet:
        """The same experiment with each call path's runtime series replaced
        by fn(call path index, runtime series); effort series, which no
        trial touches, pass through unchanged."""
        return ExperimentSet(
            self.space,
            tuple(
                (cp, {m: fn(i, s) if m == METRIC_TIME else s for m, s in ms.items()})
                for i, (cp, ms) in enumerate(self.callpaths)
            ),
        )


def aggregate(space: ParameterSpace, series: MetricSeries) -> dict[Coordinate, float]:
    """Collapse each grid point's repetitions to their median, by coordinate.

    The median of an even-length list is the mean of the two middle order
    statistics.
    """
    reps = np.sort(series.data, axis=1)
    k = reps.shape[1] // 2
    medians = reps[:, k] if reps.shape[1] % 2 else (reps[:, k - 1] + reps[:, k]) / 2
    return dict(zip(space.grid(), medians.tolist()))


def subset_repetitions(series: MetricSeries, indices: Iterable[int]) -> MetricSeries:
    """Restrict a series to the given repetition columns (everywhere)."""
    idx = sorted(set(int(i) for i in indices))
    if not idx:
        raise ValidationError("repetition subset must be non-empty")
    if idx[0] < 0 or idx[-1] >= series.repetitions:
        raise ValidationError(
            f"repetition index out of range 0..{series.repetitions - 1}"
        )
    return MetricSeries(series.data[:, idx], tuple(series.rep_ids[i] for i in idx))


def require_keys(
    obj, where: str, required: Sequence[str], optional: Sequence[str] = ()
) -> dict:
    """Check that obj is an object with exactly the allowed keys; return it."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where} must be an object")
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ParseError(f"unknown key {sorted(unknown)[0]!r} in {where}")
    missing = set(required) - set(obj)
    if missing:
        raise ParseError(f"missing key {sorted(missing)[0]!r} in {where}")
    return obj


def require_list(obj, where: str) -> list:
    """Check that obj is a list; return it."""
    if not isinstance(obj, list):
        raise ParseError(f"{where} must be a list")
    return obj


def require_number(value, where: str) -> float:
    """Check that value is a JSON number (booleans are not); return a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"could not convert {value!r} to a number in {where}")
    return float(value)


def require_int(value, where: str) -> int:
    """Check that value is a JSON number without a fractional part; return it."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"could not convert {value!r} to an integer in {where}")
    return value


def space_to_dict(space: ParameterSpace) -> list:
    """Plain-data form of the `parameters` block."""
    return [
        {"name": n, "values": list(vs)} for n, vs in zip(space.names, space.values)
    ]


def space_from_dict(raw) -> ParameterSpace:
    params = [
        require_keys(p, "parameter", ["name", "values"])
        for p in require_list(raw, "parameters")
    ]
    return ParameterSpace(
        tuple(p["name"] for p in params),
        tuple(
            tuple(
                require_number(v, "parameter values")
                for v in require_list(p["values"], "parameter values")
            )
            for p in params
        ),
    )


def experiment_to_dict(exp: ExperimentSet) -> dict:
    """Plain-data form of an experiment (canonical coordinate order)."""
    doc = {
        "format_version": FORMAT_VERSION,
        "parameters": space_to_dict(exp.space),
        "callpaths": [],
    }
    grid = exp.space.grid()
    for cp, metrics in exp.callpaths:
        entry = {"name": cp.name, "kind": cp.kind}
        if cp.mpi_op is not None:
            entry["mpi_op"] = cp.mpi_op.value
        entry["metrics"] = {
            metric: [
                {"coordinate": list(c), "repetitions": reps}
                for c, reps in zip(grid, series.data.tolist())
            ]
            for metric, series in sorted(metrics.items())
        }
        doc["callpaths"].append(entry)
    return doc


def experiment_from_dict(doc) -> ExperimentSet:
    require_keys(doc, "experiment", ["format_version", "parameters", "callpaths"])
    if require_int(doc["format_version"], "format_version") != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc['format_version']!r}")
    space = space_from_dict(doc["parameters"])
    grid = space.grid()
    on_grid = set(grid)
    callpaths = []
    for c in require_list(doc["callpaths"], "callpaths"):
        require_keys(c, "callpath", ["name", "kind", "metrics"], ["mpi_op"])
        cp = CallPath(c["name"], c["kind"], c.get("mpi_op"))
        metrics = {}
        raw_metrics = require_keys(c["metrics"], "metrics", (), _METRICS)
        for metric, records in raw_metrics.items():
            data = {}
            for rec in require_list(records, "metric series"):
                require_keys(rec, "measurement", ["coordinate", "repetitions"])
                raw_coord = require_list(rec["coordinate"], "coordinate")
                coord = tuple(require_number(v, "coordinate") for v in raw_coord)
                if coord in data:
                    raise ParseError(f"duplicate coordinate {coord} in {cp.name!r}")
                data[coord] = [
                    require_number(r, "repetitions")
                    for r in require_list(rec["repetitions"], "repetitions")
                ]
                if not data[coord]:
                    raise ValidationError(f"empty repetition list at {coord}")
            where = f"{cp.name!r}/{metric}"
            if any(len(coord) != space.m for coord in data):
                raise ValidationError(
                    f"coordinate length mismatch for {where}: expected {space.m} values"
                )
            off = [c for c in data if c not in on_grid]
            missing = [c for c in grid if c not in data]
            if off or missing:
                what = (
                    f"{off[0]} is off the grid" if off else f"no record at {missing[0]}"
                )
                raise ValidationError(f"incomplete grid for {where}: {what}")
            metrics[metric] = MetricSeries([data[c] for c in grid])
        callpaths.append((cp, metrics))
    return ExperimentSet(space, tuple(callpaths))


def write_document(doc: dict, path, sort_keys: bool = False) -> None:
    """Write a JSON document; numbers keep full round-trip precision."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=sort_keys)
        fh.write("\n")


def read_document(path, from_dict):
    """Decode a JSON file and convert it with from_dict.

    Decoding and conversion failures (bad JSON, nesting too deep for the
    decoder, wrong types, bad literals) become a ParseError naming the
    file; a ValidationError passes through unchanged.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return from_dict(json.load(fh))
    except ValidationError:
        raise
    except (
        ValueError, TypeError, ZeroDivisionError, OverflowError, RecursionError
    ) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def save_experiment(exp: ExperimentSet, path) -> None:
    """Write an experiment file."""
    write_document(experiment_to_dict(exp), path)


def load_experiment(path) -> ExperimentSet:
    """Read and validate an experiment file."""
    return read_document(path, experiment_from_dict)

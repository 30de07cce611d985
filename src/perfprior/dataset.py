"""Data model and file I/O for repeated multi-parameter measurements.

An experiment holds, per call path, one series per metric over the full
cartesian grid of the parameter space. Repetition lists are stored as
measured; aggregation to a single value per coordinate happens explicitly.

Measurements live in base units (seconds, counts, bytes). Coordinates are
matched by exact numeric equality, so producers must emit exactly
representable values. Everything here is immutable after construction and
all operations are pure functions.

This module also holds the one JSON document reader and writer: benchmark
spec files go through the same key, type and conversion checks.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import ParseError, ValidationError

Coordinate = tuple[float, ...]

FORMAT_VERSION = 1

METRIC_TIME = "time_s"
METRIC_BASIC_BLOCKS = "basic_blocks"
METRIC_BYTES = "bytes"
_METRICS = (METRIC_TIME, METRIC_BASIC_BLOCKS, METRIC_BYTES)

KIND_COMPUTATION = "computation"
KIND_COMMUNICATION = "communication"


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


@dataclass(frozen=True)
class MetricSeries:
    """Repetition lists per coordinate for one metric.

    rep_ids label the repetition slots so that derived series (see
    subset_repetitions) remember which original repetitions they carry.
    They are in-memory provenance only and are not serialized.
    """

    metric: str
    data: Mapping[Coordinate, tuple[float, ...]]
    rep_ids: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if self.metric not in _METRICS:
            raise ValidationError(f"unknown metric {self.metric!r}")
        fixed = {}
        rep_len = None
        for coord, reps in self.data.items():
            coord = tuple(float(v) for v in coord)
            reps = tuple(float(r) for r in reps)
            if not reps:
                raise ValidationError(f"empty repetition list at {coord}")
            if rep_len is None:
                rep_len = len(reps)
            elif len(reps) != rep_len:
                raise ValidationError("unequal repetition counts within a series")
            for r in reps:
                if not math.isfinite(r):
                    raise ValidationError(f"non-finite measurement at {coord}")
                if r < 0:
                    raise ValidationError(f"negative measurement at {coord}")
            fixed[coord] = reps
        if not fixed:
            raise ValidationError("series has no coordinates")
        object.__setattr__(self, "data", fixed)
        if not self.rep_ids:
            object.__setattr__(self, "rep_ids", tuple(range(rep_len)))
        else:
            object.__setattr__(self, "rep_ids", tuple(int(i) for i in self.rep_ids))
        if len(self.rep_ids) != rep_len:
            raise ValidationError("rep_ids length does not match repetition count")

    @property
    def repetitions(self) -> int:
        return len(self.rep_ids)

    def coordinates(self) -> list[Coordinate]:
        return sorted(self.data)


@dataclass(frozen=True)
class ExperimentSet:
    """Parameter space plus per-call-path metric series on a shared grid."""

    space: ParameterSpace
    callpaths: tuple[tuple[CallPath, Mapping[str, MetricSeries]], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "callpaths", tuple((cp, dict(ms)) for cp, ms in self.callpaths)
        )
        grid = set(self.space.grid())
        names = set()
        for cp, metrics in self.callpaths:
            if cp.name in names:
                raise ValidationError(f"duplicate call path name {cp.name!r}")
            names.add(cp.name)
            for metric, series in metrics.items():
                if metric != series.metric:
                    raise ValidationError(
                        f"metric key {metric!r} does not match series {series.metric!r}"
                    )
                if any(len(coord) != self.space.m for coord in series.data):
                    raise ValidationError(
                        f"coordinate length mismatch for {cp.name!r}/{metric}: "
                        f"expected {self.space.m} values"
                    )
                coords = set(series.data)
                if coords != grid:
                    raise ValidationError(
                        f"incomplete grid for {cp.name!r}/{metric}: "
                        f"{len(coords)} of {len(grid)} coordinates"
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


def aggregate(series: MetricSeries, stat: str = "median") -> dict[Coordinate, float]:
    """Collapse repetition lists to one value per coordinate.

    The median of an even-length list is the mean of the two middle order
    statistics.
    """
    if stat == "median":
        fn = statistics.median
    elif stat == "min":
        fn = min
    elif stat == "mean":
        fn = statistics.fmean
    else:
        raise ValidationError(f"unknown aggregation {stat!r}")
    return {coord: float(fn(reps)) for coord, reps in series.data.items()}


def subset_repetitions(series: MetricSeries, indices: Iterable[int]) -> MetricSeries:
    """Restrict a series to the given repetition positions (everywhere)."""
    idx = sorted(set(int(i) for i in indices))
    if not idx:
        raise ValidationError("repetition subset must be non-empty")
    if idx[0] < 0 or idx[-1] >= series.repetitions:
        raise ValidationError(
            f"repetition index out of range 0..{series.repetitions - 1}"
        )
    data = {c: tuple(reps[i] for i in idx) for c, reps in series.data.items()}
    return MetricSeries(series.metric, data, tuple(series.rep_ids[i] for i in idx))


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
        tuple(tuple(require_list(p["values"], "parameter values")) for p in params),
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
                {"coordinate": list(c), "repetitions": list(series.data[c])}
                for c in grid
            ]
            for metric, series in sorted(metrics.items())
        }
        doc["callpaths"].append(entry)
    return doc


def experiment_from_dict(doc) -> ExperimentSet:
    require_keys(doc, "experiment", ["format_version", "parameters", "callpaths"])
    if doc["format_version"] != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc['format_version']!r}")
    space = space_from_dict(doc["parameters"])
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
                coord = tuple(float(v) for v in raw_coord)
                if coord in data:
                    raise ParseError(f"duplicate coordinate {coord} in {cp.name!r}")
                data[coord] = tuple(require_list(rec["repetitions"], "repetitions"))
            metrics[metric] = MetricSeries(metric, data)
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

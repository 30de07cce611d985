"""End-to-end model construction per call path.

classic: hypothesis search on median-aggregated runtimes alone.
swc:     effort-derived prior (basic blocks or bytes plus the MPI cost
         form) fitted to runtimes; structure is fixed by the prior.
"""

from __future__ import annotations

from .dataset import METRIC_TIME, ExperimentSet, aggregate
from .errors import InsufficientDataError, ModelingError, PerfPriorError
from .modeler import search
from .pmnf import PmnfModel
from .priors import build_swc_model

PIPELINES = ("classic", "swc")


def classic_models(exp: ExperimentSet) -> dict[str, PmnfModel]:
    """Time-only search per call path."""
    models = {}
    for cp, metrics in exp.callpaths:
        try:
            data = aggregate(metrics[METRIC_TIME], "median")
            models[cp.name] = search(data, exp.space)
        except (InsufficientDataError, ModelingError, KeyError) as exc:
            raise ModelingError(f"classic modeling failed for {cp.name!r}: {exc}")
    return models


def swc_models(
    exp: ExperimentSet, ranks_param: str | None = None
) -> dict[str, PmnfModel]:
    """Prior-constrained model per call path."""
    models = {}
    for cp, _ in exp.callpaths:
        try:
            models[cp.name] = build_swc_model(exp, cp, ranks_param)
        except (InsufficientDataError, ModelingError, KeyError) as exc:
            raise ModelingError(f"SWC modeling failed for {cp.name!r}: {exc}")
    return models


def run_pipeline(
    name: str, exp: ExperimentSet, ranks_param: str | None = None
) -> dict[str, PmnfModel]:
    if name == "classic":
        return classic_models(exp)
    if name == "swc":
        return swc_models(exp, ranks_param)
    raise PerfPriorError(f"unknown pipeline {name!r}")

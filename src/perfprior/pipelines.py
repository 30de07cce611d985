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


def run_pipeline(
    name: str, exp: ExperimentSet, ranks_param: str | None = None
) -> dict[str, PmnfModel]:
    """One model per call path, in the experiment's call-path order."""
    if name not in PIPELINES:
        raise PerfPriorError(f"unknown pipeline {name!r}")
    models = {}
    for cp, metrics in exp.callpaths:
        try:
            if name == "classic":
                time_data = aggregate(exp.space, metrics[METRIC_TIME])
                models[cp.name] = search(time_data, exp.space)
            else:
                models[cp.name] = build_swc_model(exp, cp.name, ranks_param)
        except (InsufficientDataError, ModelingError, KeyError) as exc:
            label = "SWC" if name == "swc" else name
            raise ModelingError(f"{label} modeling failed for {cp.name!r}: {exc}")
    return models

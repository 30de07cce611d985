"""End-to-end model construction per call path.

classic: hypothesis search on median-aggregated runtimes alone.
swc:     effort-derived prior (basic blocks or bytes plus the MPI cost
         form) fitted to runtimes; structure is fixed by the prior.

A pipeline runs in two steps. `model_structures` fixes what the runtimes
cannot change: nothing under classic, each call path's prior under SWC.
`fit_models` fits one experiment's runtimes against those structures. A
study takes the first step once and the second once per trial.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Mapping

from . import priors
from .dataset import METRIC_TIME, ExperimentSet, aggregate
from .errors import InsufficientDataError, ModelingError, PerfPriorError
from .modeler import search
from .pmnf import PmnfModel, Skeleton
from .priors import build_swc_model  # noqa: F401  (perfbench traces this name)

PIPELINES = ("classic", "swc")


@contextmanager
def _modeling_failure(label: str, callpath: str):
    try:
        yield
    except (InsufficientDataError, ModelingError, KeyError) as exc:
        raise ModelingError(f"{label} modeling failed for {callpath!r}: {exc}")


def model_structures(
    name: str, exp: ExperimentSet, ranks_param: str | None = None
) -> dict[str, Skeleton | None]:
    """Each call path's fixed structure, in the experiment's call-path
    order: None under classic, where every fit searches its own, and the
    effort-derived prior under SWC."""
    if name not in PIPELINES:
        raise PerfPriorError(f"unknown pipeline {name!r}")
    if name == "classic":
        return dict.fromkeys(cp.name for cp, _ in exp.callpaths)
    structures: dict[str, Skeleton | None] = {}
    for cp, _ in exp.callpaths:
        with _modeling_failure("SWC", cp.name):
            structures[cp.name] = priors.swc_prior(exp, cp.name, ranks_param)
    return structures


def fit_models(
    exp: ExperimentSet, structures: Mapping[str, Skeleton | None]
) -> dict[str, PmnfModel]:
    """One model per call path, in the experiment's call-path order, from
    its median runtimes: a search where the structure is None, the prior's
    coefficients otherwise. The prior fixes the structure, so the leading
    exponents of an SWC model do not depend on the runtimes."""
    models = {}
    for cp, metrics in exp.callpaths:
        prior = structures[cp.name]
        with _modeling_failure("classic" if prior is None else "SWC", cp.name):
            time_data = aggregate(exp.space, metrics[METRIC_TIME])
            models[cp.name] = (
                search(time_data, exp.space)
                if prior is None
                else priors.fit_skeleton_to_time(prior, time_data)
            )
    return models


def run_pipeline(
    name: str, exp: ExperimentSet, ranks_param: str | None = None
) -> dict[str, PmnfModel]:
    """One model per call path, in the experiment's call-path order."""
    return fit_models(exp, model_structures(name, exp, ranks_param))

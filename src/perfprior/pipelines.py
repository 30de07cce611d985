"""End-to-end model construction per call path.

classic: the structure is searched on median-aggregated runtimes alone.
swc:     the structure is the effort-derived prior (basic blocks or bytes
         plus the MPI cost form), fixed before any runtime is seen.

The pipelines differ only in where the structure comes from; both fit
its coefficients to the median runtimes through one call,
`priors.fit_skeleton_to_time`. `model_structures` fixes what the runtimes
cannot change: nothing under classic, each call path's prior under SWC.
`fit_models` searches the structures left open on one experiment's
runtimes and fits every call path. A study takes the first step once and
the second once per trial.
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
    its median runtimes: the given structure, or the one searched on the
    runtimes where it is None, with fitted coefficients. A prior fixes the
    structure, so the leading exponents of an SWC model do not depend on
    the runtimes."""
    models = {}
    for cp, metrics in exp.callpaths:
        prior = structures[cp.name]
        with _modeling_failure("classic" if prior is None else "SWC", cp.name):
            time_data = aggregate(exp.space, metrics[METRIC_TIME])
            structure = search(time_data, exp.space) if prior is None else prior
            models[cp.name] = priors.fit_skeleton_to_time(structure, time_data)
    return models


def run_pipeline(
    name: str, exp: ExperimentSet, ranks_param: str | None = None
) -> dict[str, PmnfModel]:
    """One model per call path, in the experiment's call-path order."""
    return fit_models(exp, model_structures(name, exp, ranks_param))

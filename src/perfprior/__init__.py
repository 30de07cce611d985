"""Noise-resilient empirical performance modeling.

Builds multi-parameter performance models from repeated measurements and
stabilizes their structure with priors derived from effort metrics
(basic-block counts and transferred bytes embedded in MPI cost forms),
plus a seeded synthetic-benchmark generator and study harnesses to
quantify accuracy, noise robustness, and measurement cost.
"""

from ._core import BACKEND
from .dataset import (
    CallPath,
    ExperimentSet,
    MetricSeries,
    MpiOp,
    ParameterSpace,
    aggregate,
    load_experiment,
    save_experiment,
    subset_repetitions,
)
from .pmnf import (
    BasisFunction,
    PmnfModel,
    Skeleton,
    default_exponent_sets,
    evaluate,
    leading_exponents,
    render,
)
from .modeler import (
    fit_coefficients,
    fit_skeleton_to_time,
    search,
    single_param_hypotheses,
)
from .priors import (
    account_bytes,
    build_swc_model,
    derive_communication_prior,
    derive_computation_prior,
    model_effort,
)
from .noise import NoiseConfig, NoisePattern, inject, sample
from .benchgen import (
    BenchmarkSpec,
    KernelSpec,
    random_spec,
    simulate_measurements,
    truth_by_callpath,
)
from .evaluation import (
    StudyTable,
    cost_report,
    deviation_from_truth,
    next_test_point,
    noise_robustness_study,
    relative_error,
    repetition_study,
)

__version__ = "0.1.0"

"""Noise-resilient dynamic priors from effort metrics.

The effort search selects a structure and fits no coefficients. Computation
priors keep the bases of the basic-block structure. Communication priors
embed the transferred-bytes structure B into the standard cost forms of MPI
operations (latency alpha, per-byte transfer beta, per-byte computation
gamma):

    send/receive        alpha + B beta
    broadcast           log2(p) alpha + B beta
    scatter/gather/
    allgather           log2(p) alpha + B (p-1)/p beta
    reduce/allreduce    log2(p) alpha + (beta + (p-1)/p gamma) B
    barrier             log2(p) alpha

`COST_FORMS` is the code's only copy of this table, and the only place
that says which coefficient is alpha, beta or gamma: the prior, the
simulated runtimes, the ground-truth log term and the byte accounting all
read it. A prior is a plain skeleton; its bases carry no labels. Barrier
carries no payload; its log2(p) latency form follows the same
tree-transfer argument as the collectives and is our extension. The
constant of the bytes structure is dropped when forming B terms: a constant
payload is absorbed by the skeleton's constant and latency bases.
"""

from __future__ import annotations

from fractions import Fraction

from .dataset import (
    EFFORT_METRIC,
    METRIC_TIME,
    KIND_COMPUTATION,
    ExperimentSet,
    MpiOp,
    aggregate,
)
from .errors import ModelingError, ValidationError
from .modeler import fit_skeleton_to_time, search
from .pmnf import BasisFunction, PmnfModel, Skeleton, constant_basis

# The factors a cost-form coefficient multiplies.
LOG_P = "log2(p)"
B = "B"
B_FRAC = "B(p-1)/p"

# Each op's (factor, coefficient name) pairs after the constant, in basis
# order. An op without a log2(p) factor pays its alpha in the constant.
COST_FORMS: dict[MpiOp, tuple[tuple[str, str], ...]] = {
    MpiOp.SEND: ((B, "beta"),),
    MpiOp.RECEIVE: ((B, "beta"),),
    MpiOp.BROADCAST: ((LOG_P, "alpha"), (B, "beta")),
    MpiOp.SCATTER: ((LOG_P, "alpha"), (B_FRAC, "beta")),
    MpiOp.GATHER: ((LOG_P, "alpha"), (B_FRAC, "beta")),
    MpiOp.ALLGATHER: ((LOG_P, "alpha"), (B_FRAC, "beta")),
    MpiOp.REDUCE: ((LOG_P, "alpha"), (B, "beta"), (B_FRAC, "gamma")),
    MpiOp.ALLREDUCE: ((LOG_P, "alpha"), (B, "beta"), (B_FRAC, "gamma")),
    MpiOp.BARRIER: ((LOG_P, "alpha"),),
}


def has_factor(op: MpiOp, *factors: str) -> bool:
    """Whether the op's cost form has any of the given factors."""
    return any(factor in factors for factor, _ in COST_FORMS[op])


def derive_computation_prior(bb_structure: Skeleton) -> Skeleton:
    """The basic-block structure's bases, the constant first and the rest
    in signature order."""
    rest = sorted(bb_structure.bases[1:], key=BasisFunction.signature)
    return Skeleton(bb_structure.space_names, bb_structure.bases[:1] + tuple(rest))


def derive_communication_prior(
    op: MpiOp | str, bytes_structure: Skeleton, ranks_param: str
) -> Skeleton:
    """Embed the bytes structure's non-constant bases into the op's cost form."""
    op = MpiOp(op)
    names = bytes_structure.space_names
    if ranks_param not in names:
        raise ValidationError(f"ranks parameter {ranks_param!r} not in space")
    n = len(names)
    ranks_axis = names.index(ranks_param)

    log_exps: list = [(Fraction(0), 0)] * n
    log_exps[ranks_axis] = (Fraction(0), 1)
    b_exps = [
        b.exponents
        for b in sorted(bytes_structure.bases[1:], key=BasisFunction.signature)
    ]

    bases: list[BasisFunction] = [constant_basis(n)]
    seen = {bases[0].signature()}
    for factor, _ in COST_FORMS[op]:
        if factor == LOG_P:
            factor_bases = [BasisFunction(tuple(log_exps))]
        else:
            fraction = ranks_param if factor == B_FRAC else None
            factor_bases = [BasisFunction(exps, fraction) for exps in b_exps]
        for basis in factor_bases:
            if basis.signature() not in seen:
                seen.add(basis.signature())
                bases.append(basis)
    return Skeleton(names, tuple(bases))


def account_bytes(
    op: MpiOp | str, elem_count: int, elem_size: int, p: int
) -> tuple[int, int]:
    """Bytes moved by one operation: (at the root, at each target).

    elem_count counts elements of elem_size bytes per endpoint payload,
    e.g. a broadcast of n ints to p ranks accounts n*4 bytes at each
    target and p*n*4 at the root.
    """
    op = MpiOp(op)
    if elem_count < 0 or int(elem_count) != elem_count:
        raise ValidationError("elem_count must be a non-negative integer")
    if elem_size <= 0 or int(elem_size) != elem_size:
        raise ValidationError("elem_size must be a positive integer")
    if p < 1 or int(p) != p:
        raise ValidationError("rank count must be a positive integer")
    payload = int(elem_count) * int(elem_size)
    if not has_factor(op, B, B_FRAC):
        return 0, 0
    if not has_factor(op, LOG_P):  # point to point
        return payload, payload
    # collectives: the root (or every rank, for all- variants) aggregates
    # one payload per rank
    return int(p) * payload, payload


def model_effort(exp: ExperimentSet, callpath: str) -> Skeleton:
    """The structure of the call path's effort metric, searched on its
    medians; no coefficients are fitted."""
    cp, metrics = exp.callpath(callpath)
    metric = EFFORT_METRIC[cp.kind]
    if metric not in metrics:
        raise ModelingError(f"call path {callpath!r} lacks metric {metric!r}")
    return search(aggregate(exp.space, metrics[metric]), exp.space)


def swc_prior(
    exp: ExperimentSet, callpath: str, ranks_param: str | None = None
) -> Skeleton:
    """The call path's SWC structure: its effort model turned into a prior.

    Only effort metrics feed it, so one prior serves every experiment that
    differs only in its runtimes. ranks_param defaults to the first space
    parameter.
    """
    cp, _ = exp.callpath(callpath)
    if ranks_param is None:
        ranks_param = exp.space.names[0]
    effort = model_effort(exp, callpath)
    if cp.kind == KIND_COMPUTATION:
        return derive_computation_prior(effort)
    return derive_communication_prior(cp.mpi_op, effort, ranks_param)


def build_swc_model(
    exp: ExperimentSet, callpath: str, ranks_param: str | None = None
) -> PmnfModel:
    """Software-counter-based model: effort-derived prior fitted to time."""
    prior = swc_prior(exp, callpath, ranks_param)
    _, metrics = exp.callpath(callpath)
    return fit_skeleton_to_time(prior, aggregate(exp.space, metrics[METRIC_TIME]))

"""Shared builders for tests: spaces, hand-made specs, and models."""

import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from perfprior.benchgen import BenchmarkSpec, KernelSpec
from perfprior.dataset import MpiOp, ParameterSpace
from perfprior.errors import ValidationError
from perfprior.evaluation import deviation_from_truth
from perfprior.pmnf import (
    BasisFunction,
    PmnfModel,
    Skeleton,
    constant_basis,
    leading_exponents,
)

# At collection, hypothesis's pytest plugin caches constants of the source
# modules under its home directory, ./.hypothesis by default, whatever a
# test's database setting. Keep that cache out of the working tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "perfprior-hypothesis")


def space_pn() -> ParameterSpace:
    """The two-parameter training space of the synthetic studies."""
    return ParameterSpace(
        ("p", "n"),
        (
            (128.0, 256.0, 512.0, 1024.0, 2048.0),
            (8000.0, 16000.0, 24000.0, 32000.0, 40000.0),
        ),
    )


def fig2_spec(message_base: int = 1) -> BenchmarkSpec:
    """The worked-example kernel: nested loops (outer n, inner p) plus a
    broadcast of n*p integers; computation O(n*p + n), communication
    O(n*p + log2 p)."""
    f0 = Fraction(0)
    term_n = BasisFunction(((f0, 0), (Fraction(1), 0)))
    term_np = BasisFunction(((Fraction(1), 0), (Fraction(1), 0)))
    kernel = KernelSpec(
        name="k00",
        computation_terms=((2e-8, term_n), (5e-9, term_np)),
        loop_arrangement="nested",
        mpi_op=MpiOp.BROADCAST,
        message_elems_term=term_np,
        elem_size=4,
        message_elems_base=message_base,
        true_alpha=3e-5,
        true_beta=2e-9,
        true_gamma=4e-10,
        bb_per_iteration=3,
    )
    return BenchmarkSpec(seed=0, space=space_pn(), kernels=(kernel,), ranks_param="p")


def model_from_expos(names, *term_expos) -> PmnfModel:
    """Unit-coefficient model from per-term exponent dicts {name: (i, j)}."""
    bases = [constant_basis(len(names))]
    for expos in term_expos:
        pairs = tuple(
            (Fraction(expos.get(n, (0, 0))[0]), int(expos.get(n, (0, 0))[1]))
            for n in names
        )
        bases.append(BasisFunction(pairs))
    return PmnfModel(Skeleton(names, bases), (0.0,) + (1.0,) * len(term_expos))


def fitted_terms(model: PmnfModel) -> dict:
    """Each non-constant basis's exponents mapped to its coefficient."""
    bases, coefficients = model.skeleton.bases[1:], model.coefficients[1:]
    return {b.exponents: c for b, c in zip(bases, coefficients)}


def exponent_deviation(m1: PmnfModel, m2: PmnfModel) -> dict[str, Fraction]:
    """Per-parameter |i1* - i2*| of the leading exponents (logs count 0)."""
    if m1.skeleton.space_names != m2.skeleton.space_names:
        raise ValidationError("models live in different parameter spaces")
    return deviation_from_truth(m1, leading_exponents(m2.skeleton))


@pytest.fixture
def pn_space():
    return space_pn()

"""Shared builders for tests: spaces, hand-made specs, and models."""

import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from perfprior.benchgen import BenchmarkSpec, ComplexityTerm, KernelSpec
from perfprior.dataset import MpiOp, ParameterSpace
from perfprior.pmnf import PmnfModel, Term

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
    term_n = ComplexityTerm(((f0, 0), (Fraction(1), 0)))
    term_np = ComplexityTerm(((Fraction(1), 0), (Fraction(1), 0)))
    kernel = KernelSpec(
        name="k00",
        computation_terms=((term_n, 2e-8), (term_np, 5e-9)),
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
    terms = []
    for expos in term_expos:
        pairs = tuple(
            (Fraction(expos.get(n, (0, 0))[0]), int(expos.get(n, (0, 0))[1]))
            for n in names
        )
        terms.append(Term(1.0, pairs))
    return PmnfModel(0.0, tuple(terms), tuple(names))


@pytest.fixture
def pn_space():
    return space_pn()

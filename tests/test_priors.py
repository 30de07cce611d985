from fractions import Fraction

import numpy as np
import pytest

from conftest import fig2_spec, fitted_terms
from oracle import exhaustive_oracle
from perfprior import modeler
from perfprior.benchgen import simulate_measurements
from perfprior.dataset import MpiOp
from perfprior.errors import ModelingError, ValidationError
from perfprior.noise import NoiseConfig, NoisePattern, inject
from perfprior.pmnf import (
    BasisFunction,
    Skeleton,
    constant_basis,
    leading_exponents,
)
from perfprior.priors import (
    account_bytes,
    build_swc_model,
    derive_communication_prior,
    derive_computation_prior,
    model_effort,
    swc_prior,
)

F = Fraction

PN = ("p", "n")


def bb_structure_n_np():
    # c1 + c2*n + c3*n*p
    return Skeleton(
        PN,
        (
            constant_basis(2),
            BasisFunction(((F(0), 0), (F(1), 0))),
            BasisFunction(((F(1), 0), (F(1), 0))),
        ),
    )


def skeleton_of(*basis_expos):
    """The constant plus one generic basis per exponent tuple."""
    return Skeleton(
        PN, (constant_basis(2),) + tuple(BasisFunction(e) for e in basis_expos)
    )


class TestComputationPrior:
    def test_strips_coefficients_keeps_structure(self):
        skel = derive_computation_prior(bb_structure_n_np())
        assert skel.bases[0].is_constant
        assert {b.exponents for b in skel.bases[1:]} == {
            ((F(0), 0), (F(1), 0)),
            ((F(1), 0), (F(1), 0)),
        }

    def test_constant_model_gives_constant_skeleton(self):
        skel = derive_computation_prior(Skeleton(PN, (constant_basis(2),)))
        assert len(skel.bases) == 1

    def test_single_term(self):
        skel = derive_computation_prior(skeleton_of(((F(0), 0), (F(1), 0))))
        assert len(skel.bases) == 2

    def test_idempotent_structure(self):
        skel = derive_computation_prior(bb_structure_n_np())
        refit = skeleton_of(*(b.exponents for b in skel.bases[1:]))
        assert derive_computation_prior(refit).bases == skel.bases

    def test_bases_in_signature_order(self):
        n, np_, log = (
            ((F(0), 0), (F(1), 0)),
            ((F(1), 0), (F(1), 0)),
            ((F(0), 1), (F(0), 0)),
        )
        skel = derive_computation_prior(skeleton_of(np_, log, n))
        assert skel.bases == (
            constant_basis(2),
            BasisFunction(log),
            BasisFunction(n),
            BasisFunction(np_),
        )


def log_p():
    return BasisFunction(((F(0), 1), (F(0), 0)))


class TestCommunicationPrior:
    def test_broadcast(self):
        prior = derive_communication_prior(
            "broadcast", skeleton_of(((F(1), 0), (F(1), 0))), "p"
        )
        assert prior.bases == (
            constant_basis(2),
            log_p(),
            BasisFunction(((F(1), 0), (F(1), 0))),
        )

    def test_reduce_keeps_beta_and_gamma(self):
        prior = derive_communication_prior(
            MpiOp.REDUCE, skeleton_of(((F(0), 0), (F(1), 0))), "p"
        )
        n_term = ((F(0), 0), (F(1), 0))
        assert prior.bases == (
            constant_basis(2),
            log_p(),
            BasisFunction(n_term),
            BasisFunction(n_term, ranks_fraction="p"),
        )

    def test_scatter_applies_ranks_fraction(self):
        prior = derive_communication_prior(
            "scatter", skeleton_of(((F(0), 0), (F(1), 0))), "p"
        )
        assert prior.bases == (
            constant_basis(2),
            log_p(),
            BasisFunction(((F(0), 0), (F(1), 0)), ranks_fraction="p"),
        )

    def test_barrier_is_latency_only(self):
        prior = derive_communication_prior("barrier", skeleton_of(), "p")
        assert prior.bases == (constant_basis(2), log_p())

    def test_send_merges_alpha_into_constant(self):
        prior = derive_communication_prior(
            "send", skeleton_of(((F(0), 0), (F(1), 0))), "p"
        )
        assert prior.bases == (
            constant_basis(2),
            BasisFunction(((F(0), 0), (F(1), 0))),
        )

    def test_duplicate_log_term_collapses(self):
        # bytes that scale as log2(p) themselves
        prior = derive_communication_prior(
            "broadcast", skeleton_of(((F(0), 1), (F(0), 0))), "p"
        )
        assert prior.bases == (constant_basis(2), log_p())

    def test_unknown_ranks_param_rejected(self):
        with pytest.raises(ValidationError):
            derive_communication_prior("broadcast", skeleton_of(), "q")


class TestAccountBytes:
    def test_broadcast_example(self):
        assert account_bytes("broadcast", 10, 4, 4) == (160, 40)

    def test_barrier_has_no_payload(self):
        assert account_bytes("barrier", 999, 8, 64) == (0, 0)

    def test_send_ignores_ranks(self):
        assert account_bytes("send", 3, 8, 17) == (24, 24)

    def test_linear_in_count_and_size(self):
        for p in (2, 4, 8):
            for n in (1, 10):
                root, target = account_bytes("gather", n, 4, p)
                assert root == p * n * 4
                assert target == n * 4
                double_root, _ = account_bytes("gather", 2 * n, 4, p)
                assert double_root == 2 * root
                bigger_root, _ = account_bytes("gather", n, 8, p)
                assert bigger_root == 2 * root

    def test_invalid_arguments(self):
        with pytest.raises(ValidationError):
            account_bytes("send", -1, 4, 2)
        with pytest.raises(ValidationError):
            account_bytes("send", 1, 0, 2)
        with pytest.raises(ValidationError):
            account_bytes("send", 1, 4, 0)


class TestModelEffort:
    def test_bytes_scaling_recovered(self):
        spec = fig2_spec()
        exp = simulate_measurements(spec, reps=1)
        lead = leading_exponents(model_effort(exp, "k00/broadcast"))
        assert lead["n"] == (F(1), 0) and lead["p"] == (F(1), 0)
        oracle = exhaustive_oracle(
            {
                c: float(np.rint(c[0] * c[1]) * 4)
                for c in exp.space.grid()
            },
            "multi_restricted",
            exp.space,
        )
        assert leading_exponents(oracle.skeleton) == lead

    def test_zero_bytes_gives_zero_constant(self, pn_space):
        from perfprior.dataset import CallPath, ExperimentSet, MetricSeries

        zeros = [(0.0,) for _ in pn_space.grid()]
        times = [(1.0,) for _ in pn_space.grid()]
        exp = ExperimentSet(
            pn_space,
            (
                (
                    CallPath("b/barrier", "communication", "barrier"),
                    {
                        "time_s": MetricSeries(times),
                        "bytes": MetricSeries(zeros),
                    },
                ),
            ),
        )
        structure = model_effort(exp, "b/barrier")
        zero_medians = dict.fromkeys(pn_space.grid(), 0.0)
        model = modeler.fit_skeleton_to_time(structure, zero_medians)
        assert model.skeleton.bases[1:] == ()
        assert model.coefficients[0] == 0.0

    def test_quadratic_blocks(self, pn_space):
        from perfprior.dataset import CallPath, ExperimentSet, MetricSeries

        bb = [(float(c[1]) ** 2 + c[1],) for c in pn_space.grid()]
        times = [(1.0,) for _ in pn_space.grid()]
        exp = ExperimentSet(
            pn_space,
            (
                (
                    CallPath("w/loop", "computation"),
                    {
                        "time_s": MetricSeries(times),
                        "basic_blocks": MetricSeries(bb),
                    },
                ),
            ),
        )
        assert leading_exponents(model_effort(exp, "w/loop"))["n"][0] == F(2)

    def test_missing_metric_names_callpath(self, pn_space):
        from perfprior.dataset import CallPath, ExperimentSet, MetricSeries

        times = [(1.0,) for _ in pn_space.grid()]
        exp = ExperimentSet(
            pn_space,
            (
                (
                    CallPath("c/bcast", "communication", "broadcast"),
                    {"time_s": MetricSeries(times)},
                ),
            ),
        )
        with pytest.raises(ModelingError, match="c/bcast"):
            model_effort(exp, "c/bcast")


class TestSwcPrior:
    def test_structures_need_no_effort_fit(self, monkeypatch):
        def no_fit(*args):
            raise AssertionError("the effort search fitted coefficients")

        monkeypatch.setattr(modeler, "fit_coefficients", no_fit)
        exp = simulate_measurements(fig2_spec(), reps=1)
        n, np_ = ((F(0), 0), (F(1), 0)), ((F(1), 0), (F(1), 0))
        comp = swc_prior(exp, "k00/compute")
        assert comp.bases == (constant_basis(2), BasisFunction(n), BasisFunction(np_))
        comm = swc_prior(exp, "k00/broadcast")
        assert comm.bases == (constant_basis(2), log_p(), BasisFunction(np_))


class TestBuildSwcModel:
    def test_worked_example_end_to_end(self):
        spec = fig2_spec()
        exp = simulate_measurements(spec, reps=1)
        comp = build_swc_model(exp, "k00/compute")
        lead = leading_exponents(comp.skeleton)
        assert lead["n"] == (F(1), 0) and lead["p"] == (F(1), 0)
        comm = build_swc_model(exp, "k00/broadcast")
        lead = leading_exponents(comm.skeleton)
        assert lead["n"][0] == F(1)
        assert lead["p"][0] == F(1)  # from the n*p payload term

    def test_structure_invariant_under_injected_noise(self):
        spec = fig2_spec()
        exp = simulate_measurements(spec, reps=1)
        noisy = inject(exp, NoiseConfig(NoisePattern("uniform"), 0.75, 1.0, 99))
        for name in ("k00/compute", "k00/broadcast"):
            clean_model = build_swc_model(exp, name)
            noisy_model = build_swc_model(noisy, name)
            clean_skel, noisy_skel = clean_model.skeleton, noisy_model.skeleton
            assert leading_exponents(clean_skel) == leading_exponents(noisy_skel)
            assert [b.exponents for b in clean_skel.bases[1:]] == [
                b.exponents for b in noisy_skel.bases[1:]
            ]

    def test_coefficients_recovered_exactly(self):
        spec = fig2_spec()
        exp = simulate_measurements(spec, reps=1)
        kernel = spec.kernels[0]
        comp = build_swc_model(exp, "k00/compute")
        got = fitted_terms(comp)
        for c, basis in kernel.computation_terms:
            assert got[basis.exponents] == pytest.approx(c, rel=1e-6)
        comm = build_swc_model(exp, "k00/broadcast")
        got = fitted_terms(comm)
        log_term = ((F(0), 1), (F(0), 0))
        payload_term = ((F(1), 0), (F(1), 0))
        assert got[log_term] == pytest.approx(kernel.true_alpha, rel=1e-6)
        # fitted payload coefficient absorbs elem size
        assert got[payload_term] == pytest.approx(
            kernel.true_beta * kernel.elem_size, rel=1e-6
        )

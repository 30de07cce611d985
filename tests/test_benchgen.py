import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import fig2_spec
from perfprior.benchgen import (
    MIN_TERM_VALUE,
    BenchmarkSpec,
    KernelSpec,
    load_spec,
    random_spec,
    save_spec,
    simulate_measurements,
    spec_from_dict,
    spec_to_dict,
    true_time,
    truth_by_callpath,
)
from perfprior.dataset import EFFORT_METRIC, MpiOp, ParameterSpace
from perfprior.errors import ParseError, ValidationError
from perfprior.pmnf import BasisFunction, monomial_values
from perfprior.priors import account_bytes

F = Fraction


def root_bytes(spec, kernel, coordinate):
    """Root-side byte accounting of the kernel's operation at a coordinate."""
    if kernel.message_elems_term is None:
        elems = 0
    else:
        coords = np.array([coordinate], dtype=float)
        value = monomial_values(
            kernel.message_elems_term.exponents, coords, np.log2(coords)
        )[0]
        elems = int(np.rint(kernel.message_elems_base * value))
    p = int(coordinate[spec.space.names.index(spec.ranks_param)])
    return account_bytes(kernel.mpi_op, elems, kernel.elem_size, p)[0]


def n_kernel(name, op, n_exp=1, message=None):
    """A kernel on fig2_spec's (p, n) space whose computation scales as
    n^n_exp, with an optional operation and message-size term."""
    return KernelSpec(
        name=name,
        computation_terms=((1e-7, BasisFunction(((F(0), 0), (F(n_exp), 0)))),),
        loop_arrangement="sequential",
        mpi_op=op,
        message_elems_term=message,
    )


class TestRandomSpec:
    def test_deterministic_in_seed(self):
        assert random_spec(42, 2, 2) == random_spec(42, 2, 2)
        assert spec_to_dict(random_spec(42, 2, 2)) == spec_to_dict(
            random_spec(42, 2, 2)
        )

    def test_different_seeds_differ(self):
        assert random_spec(1, 2, 1) != random_spec(2, 2, 1)

    def test_many_seeds_yield_valid_specs(self):
        for seed in range(1, 201):
            spec = random_spec(seed, 2, 1)
            for kernel in spec.kernels:
                assert kernel.computation_terms
                if kernel.mpi_op is MpiOp.BARRIER:
                    assert kernel.message_elems_term is None
                elif kernel.mpi_op is not None:
                    assert kernel.message_elems_term is not None

    def test_term_floor_respected(self):
        for seed in range(1, 31):
            spec = random_spec(seed, 2, 1)
            grid = np.array(spec.space.grid())
            for _, basis in spec.kernels[0].computation_terms:
                values = monomial_values(basis.exponents, grid, np.log2(grid))
                assert values.min() >= MIN_TERM_VALUE

    @pytest.mark.parametrize(
        "seed, m, n_kernels, digest",
        [
            (0, 1, 1, "a97387b59d58779945b4ef168d9caff509c9b6eaef7c11a1f02ddd349960ab29"),
            (7, 1, 3, "7c30ec023db9f1199df04f5131cb06b91d160a86e5142bb6d29bfd0c7b1df97f"),
            (1, 2, 1, "9ce7e594a3a33851d73768c4f9acc2f13895c89cc2e2017072e9e8470daf29f5"),
            (232, 2, 2, "f3c741c7ec851b1349dce91bedb37a0d9895f6827d67613dccb7589246a5b208"),
            (74, 3, 2, "175a9751653902a2369f3f437b0c596ffeb6cd7dc085feb9eebad626f8e1f564"),
            (1045, 3, 3, "fcc308b826f81fe28599af9593a0813c8324d375a0137309c2c4441d4300909e"),
        ],
    )
    def test_draws_are_pinned(self, seed, m, n_kernels, digest):
        doc = json.dumps(spec_to_dict(random_spec(seed, m, n_kernels)), sort_keys=True)
        assert hashlib.sha256(doc.encode()).hexdigest() == digest


class TestGroundTruth:
    def test_worked_example(self):
        truth = truth_by_callpath(fig2_spec())
        assert truth["k00/compute"] == {"p": (F(1), 0), "n": (F(1), 0)}
        assert truth["k00/broadcast"] == {"p": (F(1), 0), "n": (F(1), 0)}

    def test_barrier_only_kernel(self):
        spec = BenchmarkSpec(
            0, fig2_spec().space, (n_kernel("b00", MpiOp.BARRIER),), "p"
        )
        truth = truth_by_callpath(spec)
        assert truth["b00/barrier"] == {"p": (F(0), 1), "n": (F(0), 0)}

    def test_quadratic_computation(self):
        qspec = BenchmarkSpec(0, fig2_spec().space, (n_kernel("q00", None, 2),), "p")
        truth = truth_by_callpath(qspec)
        assert truth["q00/compute"]["n"] == (F(2), 0)
        assert list(truth) == ["q00/compute"]

    def test_invariant_under_coefficient_scaling(self):
        spec = fig2_spec()
        scaled = spec_from_dict(spec_to_dict(spec))
        assert truth_by_callpath(spec) == truth_by_callpath(scaled)

    def test_send_has_no_log_term(self):
        message = BasisFunction(((F(0), 0), (F(1), 0)))
        kernel = n_kernel("s00", MpiOp.SEND, message=message)
        sspec = BenchmarkSpec(0, fig2_spec().space, (kernel,), "p")
        truth = truth_by_callpath(sspec)
        assert truth["s00/send"] == {"p": (F(0), 0), "n": (F(1), 0)}

    def test_simulated_callpaths_are_the_truth_keys_in_order(self):
        """Simulation and ground truth list the same call paths in the same
        order, each with its time and the effort metric of its kind."""
        handmade = BenchmarkSpec(
            0,
            fig2_spec().space,
            (n_kernel("b00", MpiOp.BARRIER), n_kernel("q00", None)),
            "p",
        )
        specs = [random_spec(seed, m, 3) for m in (1, 2, 3) for seed in range(10)]
        for spec in specs + [handmade]:
            exp = simulate_measurements(spec, reps=1)
            names = [cp.name for cp, _ in exp.callpaths]
            assert names == list(truth_by_callpath(spec))
            for cp, metrics in exp.callpaths:
                assert set(metrics) == {"time_s", EFFORT_METRIC[cp.kind]}


class TestSimulate:
    def test_noise_free_repetitions_identical(self):
        exp = simulate_measurements(fig2_spec(), reps=5, baseline_noise=0.0)
        for cp, metrics in exp.callpaths:
            for series in metrics.values():
                for reps in series.data.tolist():
                    assert len(set(reps)) == 1

    def test_basic_blocks_have_zero_variance_even_with_noise(self):
        for seed in (1, 2, 3):
            spec = random_spec(seed, 2, 1)
            exp = simulate_measurements(spec, reps=5, baseline_noise=0.8, seed=seed)
            for cp, metrics in exp.callpaths:
                for metric in ("basic_blocks", "bytes"):
                    if metric in metrics:
                        for reps in metrics[metric].data.tolist():
                            assert len(set(reps)) == 1

    def test_root_bytes_worked_example(self):
        # broadcast of n*p ints at (p, n) = (4, 10): 4 * 40 * 4 bytes at root
        spec = fig2_spec()
        assert root_bytes(spec, spec.kernels[0], (4.0, 10.0)) == 640

    def test_payload_series_is_per_target_volume(self):
        spec = fig2_spec()
        exp = simulate_measurements(spec, reps=1)
        series = exp.callpath("k00/broadcast")[1]["bytes"]
        coord = (128.0, 8000.0)
        assert series.data[exp.space.grid().index(coord), 0] == 4.0 * 128.0 * 8000.0

    def test_times_strictly_positive(self):
        for seed in (5, 6):
            spec = random_spec(seed, 2, 1)
            exp = simulate_measurements(spec, reps=3, baseline_noise=0.5, seed=1)
            for cp, metrics in exp.callpaths:
                assert metrics["time_s"].data.min() > 0

    def test_deterministic(self):
        spec = random_spec(9, 2, 1)
        a = simulate_measurements(spec, reps=4, baseline_noise=0.4, seed=12)
        b = simulate_measurements(spec, reps=4, baseline_noise=0.4, seed=12)
        assert a == b

    def test_baseline_noise_bounded(self):
        spec = fig2_spec()
        clean = simulate_measurements(spec, reps=1, baseline_noise=0.0)
        noisy = simulate_measurements(spec, reps=3, baseline_noise=0.3, seed=8)
        for (cp, cm), (_, nm) in zip(clean.callpaths, noisy.callpaths):
            for base, reps in zip(cm["time_s"].data[:, 0], nm["time_s"].data):
                for z in reps:
                    assert base <= z <= 1.3 * base

    def test_true_time_matches_noise_free_simulation(self):
        spec = fig2_spec()
        exp = simulate_measurements(spec, reps=1, baseline_noise=0.0)
        for cp, metrics in exp.callpaths:
            for coord, reps in zip(exp.space.grid(), metrics["time_s"].data):
                assert true_time(spec, cp.name, coord) == reps[0]

    @pytest.mark.parametrize("op", list(MpiOp), ids=lambda op: op.value)
    def test_comm_time_and_log_term_follow_the_cost_forms(self, op):
        """Simulated communication time and the ground-truth log2(p) term
        against the cost forms written out by hand, per operation."""
        a, b, g = 3e-5, 2e-9, 4e-10
        forms = {
            "send": lambda p, B: a + b * B,
            "receive": lambda p, B: a + b * B,
            "broadcast": lambda p, B: a * math.log2(p) + b * B,
            "scatter": lambda p, B: a * math.log2(p) + b * B * (p - 1) / p,
            "gather": lambda p, B: a * math.log2(p) + b * B * (p - 1) / p,
            "allgather": lambda p, B: a * math.log2(p) + b * B * (p - 1) / p,
            "reduce": lambda p, B: (
                a * math.log2(p) + b * B + g * B * (p - 1) / p
            ),
            "allreduce": lambda p, B: (
                a * math.log2(p) + b * B + g * B * (p - 1) / p
            ),
            "barrier": lambda p, B: a * math.log2(p),
        }
        has_log = op.value not in ("send", "receive")
        payload = op.value != "barrier"
        kernel = KernelSpec(
            name="c00",
            computation_terms=((1e-7, BasisFunction(((F(0), 0), (F(1), 0)))),),
            loop_arrangement="sequential",
            mpi_op=op,
            message_elems_term=(
                BasisFunction(((F(0), 0), (F(1), 0))) if payload else None
            ),
            elem_size=4,
            true_alpha=a,
            true_beta=b,
            true_gamma=g,
        )
        spec = BenchmarkSpec(0, fig2_spec().space, (kernel,), "p")
        for p, n in ((128.0, 8000.0), (96.0, 1234.0)):
            B = 4 * n if payload else 0.0
            assert true_time(spec, f"c00/{op.value}", (p, n)) == pytest.approx(
                forms[op.value](p, B), rel=1e-12
            )
        comm = truth_by_callpath(spec)[f"c00/{op.value}"]
        assert comm["p"] == ((F(0), 1) if has_log else (F(0), 0))
        assert comm["n"] == ((F(1), 0) if payload else (F(0), 0))

    def test_ranks_fraction_runtime_stays_finite(self):
        # payload * (p - 1) overflows at these values; the runtime does not
        spec = random_spec(3, 2, 1)
        assert spec.kernels[0].mpi_op == MpiOp.SCATTER
        values = tuple(tuple(v * 1e150 for v in vs) for vs in spec.space.values)
        big = dataclasses.replace(
            spec, space=ParameterSpace(spec.space.names, values)
        )
        exp = simulate_measurements(big, reps=1)
        times = exp.callpath("k00/scatter")[1]["time_s"].data
        assert np.isfinite(times).all() and times.min() > 0

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            simulate_measurements(fig2_spec(), reps=0)
        with pytest.raises(ValidationError):
            simulate_measurements(fig2_spec(), reps=1, baseline_noise=-0.1)


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        spec = random_spec(77, 3, 2)
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        assert load_spec(path) == spec

    def test_unknown_key_rejected(self, tmp_path):
        doc = spec_to_dict(fig2_spec())
        doc["extra"] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="unknown key"):
            load_spec(path)

    def test_exponents_survive_exactly(self, tmp_path):
        spec = random_spec(5, 2, 1)
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        again = load_spec(path)
        for k1, k2 in zip(spec.kernels, again.kernels):
            assert [b.exponents for _, b in k1.computation_terms] == [
                b.exponents for _, b in k2.computation_terms
            ]


class TestKernelSpecInvariants:
    def test_mpi_op_requires_message(self):
        with pytest.raises(ValidationError):
            KernelSpec(
                name="x",
                computation_terms=((1.0, BasisFunction(((F(1), 0),))),),
                loop_arrangement="nested",
                mpi_op=MpiOp.BROADCAST,
                message_elems_term=None,
            )

    def test_name_must_be_a_string(self):
        with pytest.raises(ValidationError, match="string"):
            KernelSpec(
                name=7,
                computation_terms=((1.0, BasisFunction(((F(1), 0),))),),
                loop_arrangement="nested",
                mpi_op=None,
                message_elems_term=None,
            )

    def test_positive_coefficients_required(self):
        with pytest.raises(ValidationError):
            KernelSpec(
                name="x",
                computation_terms=((0.0, BasisFunction(((F(1), 0),))),),
                loop_arrangement="nested",
                mpi_op=None,
                message_elems_term=None,
            )

    def test_computation_term_must_not_be_all_zero(self):
        with pytest.raises(ValidationError, match="all-zero"):
            KernelSpec(
                name="x",
                computation_terms=((1.0, BasisFunction(((F(0), 0),))),),
                loop_arrangement="nested",
                mpi_op=None,
                message_elems_term=None,
            )

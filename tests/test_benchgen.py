from fractions import Fraction

import numpy as np
import pytest

from conftest import fig2_spec
from perfprior.benchgen import (
    GeneratorConfig,
    emit_source,
    ground_truth,
    load_spec,
    random_spec,
    root_bytes,
    save_spec,
    simulate_measurements,
    spec_from_dict,
    spec_to_dict,
    true_time,
    truth_by_callpath,
)
from perfprior.dataset import MpiOp
from perfprior.errors import ParseError, ValidationError

F = Fraction


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

    def test_restricted_config(self):
        config = GeneratorConfig(
            message_monomials=(F(1),),
            message_logs=(0,),
            message_zero_prob=0.0,
            ops=(MpiOp.BROADCAST,),
        )
        for seed in range(1, 21):
            spec = random_spec(seed, 2, 1, config)
            kernel = spec.kernels[0]
            assert kernel.mpi_op is MpiOp.BROADCAST
            for i, j in kernel.message_elems_term.exponents:
                assert i == 1 and j == 0

    def test_term_floor_respected(self):
        from perfprior.benchgen import term_values

        config = GeneratorConfig()
        for seed in range(1, 31):
            spec = random_spec(seed, 2, 1, config)
            grid = np.array(spec.space.grid())
            for term, _ in spec.kernels[0].computation_terms:
                assert term_values(term, grid).min() >= config.min_term_value


class TestGroundTruth:
    def test_worked_example(self):
        truth = ground_truth(fig2_spec())["k00"]
        assert truth["computation"] == {"p": (F(1), 0), "n": (F(1), 0)}
        assert truth["communication"] == {"p": (F(1), 0), "n": (F(1), 0)}

    def test_barrier_only_kernel(self):
        from perfprior.benchgen import BenchmarkSpec, ComplexityTerm, KernelSpec

        spec = fig2_spec()
        kernel = KernelSpec(
            name="b00",
            computation_terms=((ComplexityTerm(((F(0), 0), (F(1), 0))), 1e-7),),
            loop_arrangement="sequential",
            mpi_op=MpiOp.BARRIER,
            message_elems_term=None,
        )
        barrier_spec = BenchmarkSpec(0, spec.space, (kernel,), "p")
        truth = ground_truth(barrier_spec)["b00"]
        assert truth["communication"] == {"p": (F(0), 1), "n": (F(0), 0)}

    def test_quadratic_computation(self):
        from perfprior.benchgen import BenchmarkSpec, ComplexityTerm, KernelSpec

        spec = fig2_spec()
        kernel = KernelSpec(
            name="q00",
            computation_terms=((ComplexityTerm(((F(0), 0), (F(2), 0))), 1e-7),),
            loop_arrangement="sequential",
            mpi_op=None,
            message_elems_term=None,
        )
        qspec = BenchmarkSpec(0, spec.space, (kernel,), "p")
        truth = ground_truth(qspec)["q00"]
        assert truth["computation"]["n"] == (F(2), 0)
        assert truth["communication"] is None

    def test_invariant_under_coefficient_scaling(self):
        spec = fig2_spec()
        scaled = spec_from_dict(spec_to_dict(spec))
        assert ground_truth(spec) == ground_truth(scaled)

    def test_send_has_no_log_term(self):
        from perfprior.benchgen import BenchmarkSpec, ComplexityTerm, KernelSpec

        spec = fig2_spec()
        kernel = KernelSpec(
            name="s00",
            computation_terms=((ComplexityTerm(((F(0), 0), (F(1), 0))), 1e-7),),
            loop_arrangement="sequential",
            mpi_op=MpiOp.SEND,
            message_elems_term=ComplexityTerm(((F(0), 0), (F(1), 0))),
        )
        sspec = BenchmarkSpec(0, spec.space, (kernel,), "p")
        truth = ground_truth(sspec)["s00"]
        assert truth["communication"] == {"p": (F(0), 0), "n": (F(1), 0)}


class TestSimulate:
    def test_noise_free_repetitions_identical(self):
        exp = simulate_measurements(fig2_spec(), reps=5, baseline_noise=0.0)
        for cp, metrics in exp.callpaths:
            for series in metrics.values():
                for reps in series.data.values():
                    assert len(set(reps)) == 1

    def test_basic_blocks_have_zero_variance_even_with_noise(self):
        for seed in (1, 2, 3):
            spec = random_spec(seed, 2, 1)
            exp = simulate_measurements(spec, reps=5, baseline_noise=0.8, seed=seed)
            for cp, metrics in exp.callpaths:
                for metric in ("basic_blocks", "bytes"):
                    if metric in metrics:
                        for reps in metrics[metric].data.values():
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
        assert series.data[coord][0] == 4.0 * 128.0 * 8000.0

    def test_times_strictly_positive(self):
        for seed in (5, 6):
            spec = random_spec(seed, 2, 1)
            exp = simulate_measurements(spec, reps=3, baseline_noise=0.5, seed=1)
            for cp, metrics in exp.callpaths:
                for reps in metrics["time_s"].data.values():
                    assert min(reps) > 0

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
            for coord, reps in cm["time_s"].data.items():
                base = reps[0]
                for z in nm["time_s"].data[coord]:
                    assert base <= z <= 1.3 * base

    def test_true_time_matches_noise_free_simulation(self):
        spec = fig2_spec()
        exp = simulate_measurements(spec, reps=1, baseline_noise=0.0)
        for cp, metrics in exp.callpaths:
            for coord, reps in metrics["time_s"].data.items():
                assert true_time(spec, cp.name, coord) == reps[0]

    def test_invalid_args(self):
        with pytest.raises(ValidationError):
            simulate_measurements(fig2_spec(), reps=0)
        with pytest.raises(ValidationError):
            simulate_measurements(fig2_spec(), reps=1, baseline_noise=-0.1)


class TestEmitSource:
    def test_deterministic(self):
        spec = random_spec(33, 2, 2)
        assert emit_source(spec) == emit_source(spec)

    def test_worked_example_structure(self):
        text = emit_source(fig2_spec())
        assert text.count("MPI_Bcast") == 1
        assert "for (long i0 = 0; i0 < n; ++i0) {" in text
        assert "for (long i1 = 0; i1 < p; ++i1) {" in text
        assert "// GROUND_TRUTH" in text

    def test_barrier_kernel_has_no_payload(self):
        from perfprior.benchgen import BenchmarkSpec, ComplexityTerm, KernelSpec

        spec = fig2_spec()
        kernel = KernelSpec(
            name="b00",
            computation_terms=((ComplexityTerm(((F(0), 0), (F(1), 0))), 1e-7),),
            loop_arrangement="sequential",
            mpi_op=MpiOp.BARRIER,
            message_elems_term=None,
        )
        text = emit_source(BenchmarkSpec(0, spec.space, (kernel,), "p"))
        assert "MPI_Barrier" in text
        assert "payload" not in text

    def test_truth_header_is_machine_readable(self):
        import json

        text = emit_source(fig2_spec())
        header = next(
            line for line in text.splitlines() if line.startswith("// GROUND_TRUTH")
        )
        doc = json.loads(header.removeprefix("// GROUND_TRUTH "))
        assert doc["k00"]["computation"]["n"] == ["1", 0]


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        spec = random_spec(77, 3, 2)
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        assert load_spec(path) == spec

    def test_unknown_key_rejected(self, tmp_path):
        import json

        doc = spec_to_dict(fig2_spec())
        doc["extra"] = True
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="unknown key"):
            load_spec(path)

    def test_exponents_survive_exactly(self, tmp_path):
        config = GeneratorConfig()
        spec = random_spec(5, 2, 1, config)
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        again = load_spec(path)
        for k1, k2 in zip(spec.kernels, again.kernels):
            assert [t.exponents for t, _ in k1.computation_terms] == [
                t.exponents for t, _ in k2.computation_terms
            ]


class TestKernelSpecInvariants:
    def test_mpi_op_requires_message(self):
        from perfprior.benchgen import ComplexityTerm, KernelSpec

        with pytest.raises(ValidationError):
            KernelSpec(
                name="x",
                computation_terms=((ComplexityTerm(((F(1), 0),)), 1.0),),
                loop_arrangement="nested",
                mpi_op=MpiOp.BROADCAST,
                message_elems_term=None,
            )

    def test_name_must_be_a_string(self):
        from perfprior.benchgen import ComplexityTerm, KernelSpec

        with pytest.raises(ValidationError, match="string"):
            KernelSpec(
                name=7,
                computation_terms=((ComplexityTerm(((F(1), 0),)), 1.0),),
                loop_arrangement="nested",
                mpi_op=None,
                message_elems_term=None,
            )

    def test_positive_coefficients_required(self):
        from perfprior.benchgen import ComplexityTerm, KernelSpec

        with pytest.raises(ValidationError):
            KernelSpec(
                name="x",
                computation_terms=((ComplexityTerm(((F(1), 0),)), 0.0),),
                loop_arrangement="nested",
                mpi_op=None,
                message_elems_term=None,
            )

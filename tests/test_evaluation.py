from fractions import Fraction

import pytest

from conftest import exponent_deviation, fig2_spec, model_from_expos
from perfprior import evaluation, priors
from perfprior.benchgen import random_spec, simulate_measurements
from perfprior.dataset import ParameterSpace
from perfprior.errors import IrregularSpacingError, ModelingError, ValidationError
from perfprior.evaluation import (
    cost_report,
    deviation_from_truth,
    next_test_point,
    noise_robustness_study,
    relative_error,
    repetition_study,
)
from perfprior.pipelines import run_pipeline
from perfprior.pmnf import PmnfModel, Skeleton, constant_basis
from study_oracle import per_trial_noise_study, per_trial_repetition_study

F = Fraction

CASE_A = ("p", "G", "Z")
CASE_B = ("p", "n")


def case_a_models():
    theo_comp = model_from_expos(CASE_A, {"G": (1, 0), "Z": (1, 0)})
    models = {
        "classic": model_from_expos(
            CASE_A, {"p": (1, 2), "G": (F(3, 4), 1), "Z": (F(4, 5), 0)}
        ),
        "dnn": model_from_expos(
            CASE_A, {"p": (1, 0), "G": (F(5, 4), 0), "Z": (F(2, 3), 0)}
        ),
        "swc": model_from_expos(CASE_A, {"G": (1, 1), "Z": (F(3, 4), 0)}),
    }
    return theo_comp, models


class TestExponentDeviationTable:
    def test_case_a_computation_rows(self):
        theo, models = case_a_models()
        expected = {
            "classic": {"p": F(1), "G": F(1, 4), "Z": F(1, 5)},
            "dnn": {"p": F(1), "G": F(1, 4), "Z": F(1, 3)},
            "swc": {"p": F(0), "G": F(0), "Z": F(1, 4)},
        }
        for name, model in models.items():
            assert exponent_deviation(theo, model) == expected[name]

    def test_case_a_communication_rows(self):
        theo = model_from_expos(
            CASE_A, {"p": (F(1, 3), 0)}, {"G": (1, 0), "Z": (F(2, 3), 0)}
        )
        rows = {
            "classic": (
                model_from_expos(
                    CASE_A,
                    {"p": (F(4, 3), 1), "G": (F(3, 4), 1), "Z": (F(1, 3), 2)},
                ),
                {"p": F(1), "G": F(1, 4), "Z": F(1, 3)},
            ),
            "dnn": (
                model_from_expos(CASE_A, {"G": (F(5, 4), 0), "Z": (F(1, 2), 0)}),
                {"p": F(1, 3), "G": F(1, 4), "Z": F(1, 6)},
            ),
            "swc": (
                model_from_expos(CASE_A, {"G": (1, 0), "Z": (F(2, 3), 0)}),
                {"p": F(1, 3), "G": F(0), "Z": F(0)},
            ),
        }
        for model, expected in rows.values():
            assert exponent_deviation(theo, model) == expected

    def test_case_b_rows(self):
        theo = model_from_expos(
            CASE_B, {"p": (1, 0)}, {"n": (1, 1)}, {"n": (1, 0), "p": (0, 1)}
        )
        rows = {
            "classic": (
                model_from_expos(CASE_B, {"p": (F(2, 3), 0), "n": (F(3, 4), 1)}),
                {"p": F(1, 3), "n": F(1, 4)},
            ),
            "dnn": (
                model_from_expos(CASE_B, {"p": (F(2, 3), 1), "n": (F(1, 4), 0)}),
                {"p": F(1, 3), "n": F(3, 4)},
            ),
            "swc": (
                model_from_expos(
                    CASE_B,
                    {"p": (1, 0)},
                    {"n": (F(5, 4), 1), "p": (F(1, 4), 0)},
                ),
                {"p": F(0), "n": F(1, 4)},
            ),
        }
        for model, expected in rows.values():
            assert exponent_deviation(theo, model) == expected

    def test_identical_models_zero(self):
        theo, _ = case_a_models()
        deviations = exponent_deviation(theo, theo)
        assert all(d == 0 for d in deviations.values())

    def test_symmetric(self):
        theo, models = case_a_models()
        for model in models.values():
            assert (
                exponent_deviation(theo, model)
                == exponent_deviation(model, theo)
            )

    def test_triangle_inequality_per_parameter(self):
        theo, models = case_a_models()
        a, b, c = theo, models["classic"], models["dnn"]
        ab = exponent_deviation(a, b)
        bc = exponent_deviation(b, c)
        ac = exponent_deviation(a, c)
        for name in CASE_A:
            assert ac[name] <= ab[name] + bc[name]

    def test_space_mismatch_rejected(self):
        theo, _ = case_a_models()
        other = model_from_expos(CASE_B, {"p": (1, 0)})
        with pytest.raises(ValidationError):
            exponent_deviation(theo, other)


def constant_model(value: float) -> PmnfModel:
    return PmnfModel(Skeleton(("x",), (constant_basis(1),)), (value,))


class TestRelativeError:
    def test_perfect_prediction(self):
        model = constant_model(10.0)
        assert relative_error(model, (4.0,), 10.0) == 0.0

    def test_overprediction(self):
        model = constant_model(15.0)
        assert relative_error(model, (4.0,), 10.0) == pytest.approx(50.0)

    def test_underprediction(self):
        model = constant_model(5.0)
        assert relative_error(model, (4.0,), 10.0) == pytest.approx(50.0)

    def test_nonpositive_measurement_rejected(self):
        model = constant_model(5.0)
        with pytest.raises(ValidationError):
            relative_error(model, (4.0,), 0.0)


class TestNextTestPoint:
    def test_geometric_powers_of_two(self):
        space = ParameterSpace(("p",), ((32.0, 64.0, 128.0, 256.0, 512.0),))
        assert next_test_point(space) == (1024.0,)

    def test_arithmetic_extension(self):
        space = ParameterSpace(
            ("n",), ((8000.0, 16000.0, 24000.0, 32000.0, 40000.0),)
        )
        assert next_test_point(space) == (48000.0,)

    def test_both_rules_together(self, pn_space):
        assert next_test_point(pn_space) == (4096.0, 48000.0)

    def test_irregular_spacing_rejected(self):
        space = ParameterSpace(("x",), ((1.0, 2.0, 4.0, 7.0),))
        with pytest.raises(IrregularSpacingError, match="irregular spacing"):
            next_test_point(space)


class TestCostReport:
    def test_two_parameters(self):
        assert cost_report(2) == (125, 50)

    def test_one_parameter(self):
        assert cost_report(1) == (25, 10)

    def test_three_parameters(self):
        assert cost_report(3) == (625, 250)

    def test_custom_values(self):
        assert cost_report(2, reps_classic=3, values_per_param=4) == (48, 32)


class TestStudies:
    def test_swc_noise_study_keeps_zero_ed(self):
        table = noise_robustness_study(
            random_spec(3, 2, 1),
            intensities=[0.5],
            patterns=["uniform", "scaled_poisson"],
            trials=3,
            pipeline="swc",
            seed=1,
        )
        for row in table.rows:
            assert row.mean_ed == 0.0
            assert row.std_ed == 0.0

    def test_zero_intensity_recovers_exactly(self):
        # send kernel: both the compute and the communication runtimes lie
        # inside the classic search family, so recovery is exact for both
        # pipelines
        from perfprior.benchgen import BenchmarkSpec, KernelSpec
        from perfprior.dataset import MpiOp
        from perfprior.pmnf import BasisFunction

        base = fig2_spec()
        term_np = BasisFunction(((F(1), 0), (F(1), 0)))
        term_n = BasisFunction(((F(0), 0), (F(1), 0)))
        kernel = KernelSpec(
            name="k00",
            computation_terms=((2e-8, term_n), (5e-9, term_np)),
            loop_arrangement="nested",
            mpi_op=MpiOp.SEND,
            message_elems_term=term_np,
        )
        spec = BenchmarkSpec(0, base.space, (kernel,), "p")
        for pipeline in ("classic", "swc"):
            table = noise_robustness_study(
                spec,
                intensities=[0.0],
                patterns=["uniform"],
                trials=2,
                pipeline=pipeline,
                seed=5,
            )
            assert table.rows[0].mean_ed == 0.0
            assert table.rows[0].mean_re_pct == pytest.approx(0.0, abs=1e-6)

    def test_zero_intensity_fig2_swc_exact_classic_close(self):
        kwargs = dict(intensities=[0.0], patterns=["uniform"], trials=1, seed=5)
        swc = noise_robustness_study(fig2_spec(), pipeline="swc", **kwargs)
        assert swc.rows[0].mean_ed == 0.0
        assert swc.rows[0].mean_re_pct == pytest.approx(0.0, abs=1e-6)
        # the broadcast latency term lies outside the classic candidate
        # family, so classic recovery is close but not exact
        classic = noise_robustness_study(fig2_spec(), pipeline="classic", **kwargs)
        assert classic.rows[0].mean_ed == 0.0
        assert classic.rows[0].mean_re_pct < 0.01

    def test_classic_at_least_as_deviant_as_swc(self):
        worse = 0
        total = 5
        for seed in range(1, total + 1):
            spec = random_spec(seed, 2, 1)
            tables = {
                pipeline: noise_robustness_study(
                    spec,
                    intensities=[0.5],
                    patterns=["uniform"],
                    trials=4,
                    pipeline=pipeline,
                    seed=seed,
                )
                for pipeline in ("classic", "swc")
            }
            classic_ed = tables["classic"].rows[0].mean_ed
            swc_ed = tables["swc"].rows[0].mean_ed
            assert swc_ed == 0.0
            if classic_ed >= swc_ed:
                worse += 1
        assert worse == total

    def test_repetition_study_swc_constant(self):
        table = repetition_study(random_spec(11, 2, 1), pipeline="swc", seed=2)
        assert [row.level for row in table.rows] == [1.0, 2.0, 3.0, 4.0, 5.0]
        for row in table.rows:
            assert row.std_ed == 0.0
        assert len({row.mean_ed for row in table.rows}) == 1
        # k = 5: a single subset
        assert table.rows[-1].trials == 1
        assert table.rows[-1].std_ed == 0.0

    def test_repetition_study_classic_varies(self):
        unstable = 0
        total = 4
        for seed in range(21, 21 + total):
            table = repetition_study(
                random_spec(seed, 2, 1), pipeline="classic",
                baseline_noise=0.75, seed=seed,
            )
            if any(row.std_ed > 0 for row in table.rows):
                unstable += 1
        assert unstable >= total - 1

    @pytest.mark.parametrize(
        "study, options, pipeline",
        [
            (study, options, pipeline)
            for pipeline in ("classic", "swc")
            for study, options in (
                (
                    noise_robustness_study,
                    dict(intensities=[0.1, 0.5], patterns=["uniform"],
                         trials=2, seed=9),
                ),
                # baseline noise makes every repetition subset a different fit
                (repetition_study, dict(baseline_noise=0.5, seed=0)),
            )
        ],
        ids=["noise", "reps", "noise-swc", "reps-swc"],
    )
    def test_parallel_equals_sequential(self, study, options, pipeline):
        spec = random_spec(13, 2, 1)
        kwargs = dict(pipeline=pipeline, reps=3, **options)
        seq = study(spec, **kwargs, jobs=1)
        par = study(spec, **kwargs, jobs=2)
        assert seq == par

    def test_trial_seeds_are_derived_when_the_trial_runs(self, monkeypatch):
        derived = []
        derive = evaluation._derived_seed

        def counted(*args):
            derived.append(args)
            return derive(*args)

        def first_fit(*args):
            raise RuntimeError("first fit")

        monkeypatch.setattr(evaluation, "_derived_seed", counted)
        monkeypatch.setattr(evaluation, "fit_models", first_fit)
        for pipeline in ("classic", "swc"):
            derived.clear()
            with pytest.raises(RuntimeError, match="first fit"):
                noise_robustness_study(
                    random_spec(3, 2, 1), intensities=[0.1],
                    patterns=["uniform"], trials=10**5, pipeline=pipeline,
                    seed=4,
                )
            assert derived == [(4, 0, 0)]

    @pytest.mark.parametrize("pipeline", ["classic", "swc"])
    @pytest.mark.parametrize(
        "engine, oracle, options",
        [
            (
                noise_robustness_study, per_trial_noise_study,
                dict(intensities=[0.1, 0.75],
                     patterns=["uniform", "scaled_exponential"], trials=2,
                     baseline_noise=0.5, seed=3),
            ),
            # C(8, 4) = 70 > MAX_SUBSETS: the k = 4 row refits a seeded sample
            (
                repetition_study, per_trial_repetition_study,
                dict(reps=8, baseline_noise=0.5, seed=3),
            ),
        ],
        ids=["noise", "reps8"],
    )
    def test_engine_equals_per_trial_oracle(self, engine, oracle, options, pipeline):
        spec = random_spec(17, 2, 1)
        expected = oracle(spec, pipeline=pipeline, **options)
        for jobs in (1, 2):
            assert engine(spec, pipeline=pipeline, jobs=jobs, **options) == expected

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "study, options",
        [
            (noise_robustness_study,
             dict(intensities=[0.1], patterns=["uniform"], trials=2)),
            (repetition_study, dict()),
        ],
        ids=["noise", "reps"],
    )
    def test_swc_prior_failure_raises_before_any_trial(
        self, monkeypatch, study, options, jobs
    ):
        def no_effort_model(data, space):
            raise ModelingError("no effort model")

        def trials_started(*args):
            raise AssertionError("the study started its trials")

        spec = random_spec(3, 2, 1)
        monkeypatch.setattr(priors, "search", no_effort_model)
        with pytest.raises(ModelingError) as expected:
            run_pipeline("swc", simulate_measurements(spec, 5), spec.ranks_param)
        assert str(expected.value) == (
            "SWC modeling failed for 'k00/compute': no effort model"
        )
        monkeypatch.setattr(evaluation, "fit_models", trials_started)
        monkeypatch.setattr(evaluation, "ProcessPoolExecutor", trials_started)
        with pytest.raises(ModelingError) as raised:
            study(spec, pipeline="swc", jobs=jobs, **options)
        assert str(raised.value) == str(expected.value)

    def test_noise_study_needs_a_trial(self):
        with pytest.raises(ValidationError, match="at least 1 trial"):
            noise_robustness_study(
                random_spec(1, 2, 1), intensities=[0.1], patterns=["uniform"],
                trials=0,
            )

    def test_table_serialization(self):
        table = noise_robustness_study(
            random_spec(3, 2, 1),
            intensities=[0.02],
            patterns=["uniform"],
            trials=1,
            pipeline="swc",
            reps=2,
            seed=0,
        )
        doc = table.to_dict()
        assert doc["format_version"] == 1
        assert doc["rows"][0]["trials"] == 1
        assert "intensity" in table.render_text()


class TestDeviationFromTruth:
    def test_missing_parameter_counts_zero_exponent(self):
        model = model_from_expos(CASE_B, {"n": (1, 0)})
        truth = {"n": (F(1), 0), "p": (F(1), 0)}
        assert deviation_from_truth(model, truth) == {"n": F(0), "p": F(1)}

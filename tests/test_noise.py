import numpy as np
import pytest

from conftest import fig2_spec
from perfprior.benchgen import simulate_measurements
from perfprior.dataset import subset_repetitions
from perfprior.errors import ValidationError
from perfprior.noise import NoiseConfig, NoisePattern, inject, sample


class TestSample:
    def test_none_is_zero(self):
        rng = np.random.default_rng(0)
        assert all(sample(NoisePattern("none"), rng) == 0.0 for _ in range(100))

    @pytest.mark.parametrize(
        "kind", ["uniform", "truncated_normal", "scaled_poisson", "scaled_exponential"]
    )
    def test_samples_within_unit_interval(self, kind):
        rng = np.random.default_rng(1)
        pattern = NoisePattern(kind)
        values = [sample(pattern, rng) for _ in range(20000)]
        assert min(values) >= 0.0
        assert max(values) <= 1.0

    def test_uniform_mean(self):
        rng = np.random.default_rng(2)
        values = [sample(NoisePattern("uniform"), rng) for _ in range(100000)]
        assert np.mean(values) == pytest.approx(0.5, abs=0.01)

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ValidationError):
            NoisePattern("pink")


def small_exp(reps=5):
    return simulate_measurements(fig2_spec(), reps=reps, baseline_noise=0.0, seed=3)


class TestInject:
    def test_zero_intensity_is_identity(self):
        exp = small_exp()
        assert inject(exp, NoiseConfig(NoisePattern("uniform"), 0.0, 1.0, 7)) == exp

    def test_none_pattern_is_identity(self):
        exp = small_exp()
        assert inject(exp, NoiseConfig(NoisePattern("none"), 0.5, 1.0, 7)) == exp

    def test_effort_metrics_untouched(self):
        exp = small_exp()
        noisy = inject(exp, NoiseConfig(NoisePattern("uniform"), 0.75, 1.0, 7))
        for (cp, metrics), (_, noisy_metrics) in zip(exp.callpaths, noisy.callpaths):
            for metric, series in metrics.items():
                if metric != "time_s":
                    assert noisy_metrics[metric] == series

    def test_perturbation_bounds(self):
        exp = small_exp()
        noisy = inject(exp, NoiseConfig(NoisePattern("uniform"), 0.75, 1.0, 7))
        for (cp, metrics), (_, noisy_metrics) in zip(exp.callpaths, noisy.callpaths):
            base = metrics["time_s"].data
            bent = noisy_metrics["time_s"].data
            assert (base <= bent).all() and (bent <= 1.75 * base).all()

    def test_additive_nonnegative(self):
        exp = small_exp()
        for kind in ("truncated_normal", "scaled_poisson", "scaled_exponential"):
            noisy = inject(exp, NoiseConfig(NoisePattern(kind), 0.5, 1.0, 11))
            for (cp, metrics), (_, nm) in zip(exp.callpaths, noisy.callpaths):
                assert (nm["time_s"].data >= metrics["time_s"].data).all()

    def test_deterministic(self):
        exp = small_exp()
        config = NoiseConfig(NoisePattern("scaled_exponential"), 0.5, 0.6, 13)
        assert inject(exp, config) == inject(exp, config)

    def test_selection_fraction_leaves_some_untouched(self):
        exp = small_exp()
        noisy = inject(exp, NoiseConfig(NoisePattern("uniform"), 0.75, 0.3, 5))
        untouched = 0
        total = 0
        for (cp, metrics), (_, nm) in zip(exp.callpaths, noisy.callpaths):
            same = nm["time_s"].data == metrics["time_s"].data
            total += same.size
            untouched += int(same.sum())
        assert 0 < untouched < total

    def test_commutes_with_subset_repetitions(self):
        exp = small_exp()
        config = NoiseConfig(NoisePattern("uniform"), 0.5, 1.0, 21)
        subset = (1, 3)
        noisy_first = inject(exp, config)
        for (cp, metrics), (_, nm) in zip(exp.callpaths, noisy_first.callpaths):
            series = metrics["time_s"]
            sub_then_inject = inject(
                _single_path_exp(exp, cp, subset_repetitions(series, subset)),
                config,
            )
            a = sub_then_inject.callpaths[0][1]["time_s"]
            b = subset_repetitions(nm["time_s"], subset)
            assert a == b
            break

    def test_invalid_selection_fraction(self):
        with pytest.raises(ValidationError):
            NoiseConfig(NoisePattern("uniform"), 0.5, 0.0, 1)


def _single_path_exp(exp, cp, time_series):
    from perfprior.dataset import ExperimentSet

    metrics = dict(exp.callpath(cp.name)[1])
    metrics["time_s"] = time_series
    return ExperimentSet(exp.space, ((cp, metrics),))

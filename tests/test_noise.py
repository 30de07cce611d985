import warnings

import numpy as np
import pytest

from conftest import fig2_spec
from perfprior import benchgen, noise
from perfprior.benchgen import random_spec, simulate_measurements
from perfprior.dataset import MetricSeries, subset_repetitions
from perfprior.errors import PerfPriorError, ValidationError
from perfprior.noise import (
    PATTERN_NAMES,
    NoiseConfig,
    NoisePattern,
    _stream_states,
    inject,
    sample,
)


def oracle_perturb(exp, level, draw, seed, what):
    """noise.perturb as one default_rng([seed, cp, g, rep_id]) per
    measurement and Python float arithmetic."""
    if level == 0:
        return exp

    def perturb_series(cp_idx, series):
        out = np.array([
            [
                y * (1.0 + level * draw(np.random.default_rng([seed, cp_idx, g, r])))
                for y, r in zip(row, series.rep_ids)
            ]
            for g, row in enumerate(series.data.tolist())
        ])
        finite = np.isfinite(out).all(axis=1)
        if not finite.all():
            coord = exp.space.grid()[int(np.argmin(finite))]
            raise PerfPriorError(f"{what} overflows the runtime at {coord}")
        return MetricSeries(out, series.rep_ids)

    return exp.with_time(perturb_series)


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


BIG_SEED = 12345678901  # two SeedSequence words


def _numpy_states(seed, cp_idx, rows, rep_ids):
    return [
        np.random.default_rng([seed, cp_idx, g, r]).bit_generator.state["state"]
        for g in range(rows)
        for r in rep_ids
    ]


class TestStreamStates:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, BIG_SEED, 2**96 + 3])
    @pytest.mark.parametrize("cp_idx", [0, 3, 2**32 + 1])
    def test_equal_numpy_seeding(self, seed, cp_idx):
        rep_ids = (0, 2, 4, 7)
        assert _stream_states(seed, cp_idx, 3, rep_ids) == _numpy_states(
            seed, cp_idx, 3, rep_ids
        )

    def test_rep_ids_of_several_words(self):
        rep_ids = (1, 2**32, 2**70 + 5, 0)
        assert _stream_states(7, 1, 2, rep_ids) == _numpy_states(7, 1, 2, rep_ids)


def _patterns_exp():
    spec = random_spec(4, 2, 2)
    return simulate_measurements(spec, reps=5, baseline_noise=0.5, seed=9)


class TestEqualsPerMeasurementOracle:
    """inject and the simulator's baseline noise give, bit for bit, what one
    default_rng per measurement gives."""

    @pytest.mark.parametrize("fraction", [1.0, 0.3])
    @pytest.mark.parametrize("kind", PATTERN_NAMES)
    def test_inject(self, monkeypatch, kind, fraction):
        exp = _patterns_exp()
        config = NoiseConfig(NoisePattern(kind), 0.75, fraction, BIG_SEED)
        got = inject(exp, config)
        monkeypatch.setattr(noise, "perturb", oracle_perturb)
        assert _time_equal(got, inject(exp, config))

    def test_inject_repetition_subset(self, monkeypatch):
        exp = _patterns_exp().with_time(lambda _, s: subset_repetitions(s, (0, 2, 4)))
        config = NoiseConfig(NoisePattern("truncated_normal"), 0.5, 0.3, BIG_SEED)
        got = inject(exp, config)
        monkeypatch.setattr(noise, "perturb", oracle_perturb)
        assert _time_equal(got, inject(exp, config))

    @pytest.mark.parametrize("seed", [3, BIG_SEED])
    def test_simulate_measurements(self, monkeypatch, seed):
        spec = random_spec(4, 2, 2)
        got = simulate_measurements(spec, 5, 0.5, seed)
        monkeypatch.setattr(benchgen, "perturb", oracle_perturb)
        assert _time_equal(got, simulate_measurements(spec, 5, 0.5, seed))


def _time_equal(a, b):
    """Equal runtime bits and rep_ids in every call path; the effort series
    are the same objects in both."""
    return all(
        ma["time_s"].rep_ids == mb["time_s"].rep_ids
        and np.array_equal(ma["time_s"].data, mb["time_s"].data)
        for (_, ma), (_, mb) in zip(a.callpaths, b.callpaths, strict=True)
    )


class TestOverflow:
    """An overflowing level raises the one PerfPriorError the per-measurement
    loop raised, naming the same coordinate, and no numpy warning."""

    def _assert_same_error(self, monkeypatch, module, run):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PerfPriorError) as got:
                run()
            monkeypatch.setattr(module, "perturb", oracle_perturb)
            with pytest.raises(PerfPriorError) as want:
                run()
        assert str(got.value) == str(want.value)
        assert "overflows the runtime at" in str(got.value)

    def test_inject(self, monkeypatch):
        # Scaled so that some runtimes overflow, the first at (2048.0, 32000.0).
        exp = small_exp().with_time(lambda _, s: MetricSeries(4 * s.data, s.rep_ids))
        config = NoiseConfig("uniform", 1e308, seed=3)
        self._assert_same_error(monkeypatch, noise, lambda: inject(exp, config))

    def test_simulate_measurements(self, monkeypatch):
        # The first overflow is at the third grid point.
        spec = random_spec(4, 2, 2)
        self._assert_same_error(
            monkeypatch, benchgen, lambda: simulate_measurements(spec, 3, 1e300, 2)
        )


def _single_path_exp(exp, cp, time_series):
    from perfprior.dataset import ExperimentSet

    metrics = dict(exp.callpath(cp.name)[1])
    metrics["time_s"] = time_series
    return ExperimentSet(exp.space, ((cp, metrics),))

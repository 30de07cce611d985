import json

import pytest

from perfprior.benchgen import default_space, random_spec, simulate_measurements
from perfprior.dataset import (
    CallPath,
    ExperimentSet,
    MetricSeries,
    ParameterSpace,
    aggregate,
    experiment_to_dict,
    load_experiment,
    save_experiment,
    subset_repetitions,
)
from perfprior.errors import ParseError, ValidationError


def small_experiment(reps=5):
    space = ParameterSpace(("p", "n"), ((2.0, 4.0), (10.0, 20.0)))
    time = {c: tuple(1.0 + 0.1 * r for r in range(reps)) for c in space.grid()}
    bb = {c: (100.0,) * reps for c in space.grid()}
    cp = CallPath("main/work", "computation")
    return ExperimentSet(
        space,
        (
            (
                cp,
                {
                    "time_s": MetricSeries("time_s", time),
                    "basic_blocks": MetricSeries("basic_blocks", bb),
                },
            ),
        ),
    )


class TestParameterSpace:
    def test_grid_is_full_factorial(self):
        space = ParameterSpace(("a", "b"), ((1.0, 2.0, 3.0), (5.0, 6.0)))
        assert len(space.grid()) == 6
        assert space.grid()[0] == (1.0, 5.0)

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValidationError):
            ParameterSpace(("a", "a"), ((1.0, 2.0), (1.0, 2.0)))

    def test_rejects_values_below_one(self):
        with pytest.raises(ValidationError):
            ParameterSpace(("a",), ((0.5, 2.0),))

    def test_rejects_non_string_names(self):
        with pytest.raises(ValidationError, match="strings"):
            ParameterSpace((7,), ((1.0, 2.0),))

    def test_rejects_non_increasing(self):
        with pytest.raises(ValidationError):
            ParameterSpace(("a",), ((2.0, 2.0),))


class TestCallPath:
    def test_communication_requires_op(self):
        with pytest.raises(ValidationError):
            CallPath("x", "communication")

    def test_rejects_non_string_name(self):
        with pytest.raises(ValidationError, match="string"):
            CallPath(7, "computation")

    def test_computation_forbids_op(self):
        with pytest.raises(ValidationError):
            CallPath("x", "computation", "broadcast")


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        exp = small_experiment()
        path = tmp_path / "exp.json"
        save_experiment(exp, path)
        assert load_experiment(path) == exp

    def test_round_trip_simulated_three_params(self, tmp_path):
        spec = random_spec(11, 3, 1)
        exp = simulate_measurements(spec, reps=2, baseline_noise=0.3, seed=5)
        assert len(exp.space.grid()) == 125
        path = tmp_path / "exp.json"
        save_experiment(exp, path)
        again = load_experiment(path)
        assert again == exp
        save_experiment(again, tmp_path / "exp2.json")
        assert (tmp_path / "exp.json").read_bytes() == (
            tmp_path / "exp2.json"
        ).read_bytes()

    def test_empty_callpaths_is_valid(self, tmp_path):
        space = ParameterSpace(("p",), ((2.0, 4.0),))
        exp = ExperimentSet(space, ())
        path = tmp_path / "empty.json"
        save_experiment(exp, path)
        assert load_experiment(path).callpaths == ()

    def test_missing_coordinate_rejected(self, tmp_path):
        doc = experiment_to_dict(small_experiment())
        del doc["callpaths"][0]["metrics"]["time_s"][-1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="incomplete grid"):
            load_experiment(path)

    def test_wrong_length_coordinate_rejected(self, tmp_path):
        doc = experiment_to_dict(small_experiment())
        doc["callpaths"][0]["metrics"]["time_s"][0]["coordinate"] = [2.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="coordinate length mismatch"):
            load_experiment(path)

    def test_negative_measurement_rejected(self, tmp_path):
        doc = experiment_to_dict(small_experiment())
        doc["callpaths"][0]["metrics"]["time_s"][0]["repetitions"][0] = -1.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match="negative measurement"):
            load_experiment(path)

    def test_unknown_key_rejected(self, tmp_path):
        doc = experiment_to_dict(small_experiment())
        doc["surprise"] = 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="unknown key"):
            load_experiment(path)

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_experiment(path)

    def test_deeply_nested_json_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        with pytest.raises(ParseError, match="recursion"):
            load_experiment(path)


class TestAggregate:
    def test_median_odd(self):
        s = MetricSeries("time_s", {(2.0,): (3.0, 1.0, 2.0)})
        assert aggregate(s, "median") == {(2.0,): 2.0}

    def test_singleton_all_stats(self):
        s = MetricSeries("time_s", {(2.0,): (5.0,)})
        for stat in ("median", "min", "mean"):
            assert aggregate(s, stat) == {(2.0,): 5.0}

    def test_median_even_is_mean_of_middles(self):
        s = MetricSeries("time_s", {(2.0,): (1.0, 2.0, 3.0, 10.0)})
        assert aggregate(s, "median") == {(2.0,): 2.5}

    def test_median_permutation_invariant(self):
        import itertools

        reps = (4.0, 1.0, 3.0, 2.0, 9.0)
        medians = {
            aggregate(MetricSeries("time_s", {(2.0,): perm}), "median")[(2.0,)]
            for perm in itertools.permutations(reps)
        }
        assert medians == {3.0}


class TestSubsetRepetitions:
    def test_full_subset_is_identity(self):
        s = small_experiment().callpaths[0][1]["time_s"]
        assert subset_repetitions(s, range(5)) == s

    def test_single_index(self):
        s = small_experiment().callpaths[0][1]["time_s"]
        sub = subset_repetitions(s, {2})
        assert sub.repetitions == 1
        assert all(len(v) == 1 for v in sub.data.values())
        assert sub.rep_ids == (2,)

    def test_all_nonempty_subsets_distinct(self):
        import itertools

        s = small_experiment().callpaths[0][1]["time_s"]
        subsets = []
        for k in range(1, 6):
            subsets.extend(itertools.combinations(range(5), k))
        series = {tuple(sorted(sub)): subset_repetitions(s, sub) for sub in subsets}
        assert len(series) == 31

    def test_out_of_range_rejected(self):
        s = small_experiment().callpaths[0][1]["time_s"]
        with pytest.raises(ValidationError):
            subset_repetitions(s, {7})
        with pytest.raises(ValidationError):
            subset_repetitions(s, set())

    def test_preserves_grid(self):
        s = small_experiment().callpaths[0][1]["time_s"]
        sub = subset_repetitions(s, {0, 3})
        assert set(sub.data) == set(s.data)


class TestExperimentValidation:
    def test_duplicate_callpath_names_rejected(self):
        exp = small_experiment()
        with pytest.raises(ValidationError, match="duplicate call path"):
            ExperimentSet(exp.space, exp.callpaths + exp.callpaths)

    def test_series_must_cover_grid(self):
        space = ParameterSpace(("p",), ((2.0, 4.0),))
        series = MetricSeries("time_s", {(2.0,): (1.0,)})
        with pytest.raises(ValidationError, match="incomplete grid"):
            ExperimentSet(space, ((CallPath("x", "computation"), {"time_s": series}),))

    def test_time_metric_required(self):
        space = ParameterSpace(("p",), ((2.0, 4.0),))
        bb = MetricSeries("basic_blocks", {(2.0,): (1.0,), (4.0,): (1.0,)})
        with pytest.raises(ValidationError, match="time_s"):
            ExperimentSet(
                space, ((CallPath("x", "computation"), {"basic_blocks": bb}),)
            )

    def test_unequal_rep_lengths_rejected(self):
        with pytest.raises(ValidationError, match="repetition"):
            MetricSeries("time_s", {(2.0,): (1.0,), (4.0,): (1.0, 2.0)})


def test_default_space_values():
    space = default_space(2)
    assert space.names == ("p", "n")
    assert space.values[0] == (128.0, 256.0, 512.0, 1024.0, 2048.0)
    assert space.values[1] == (8000.0, 16000.0, 24000.0, 32000.0, 40000.0)

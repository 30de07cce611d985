import copy
import dataclasses
import io
import json
import signal
import warnings
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fig2_spec
from perfprior.benchgen import (
    random_spec,
    save_spec,
    simulate_measurements,
    spec_to_dict,
)
from perfprior.cli import main
from perfprior.dataset import (
    EFFORT_METRIC,
    KIND_COMPUTATION,
    METRIC_TIME,
    CallPath,
    ExperimentSet,
    MetricSeries,
    ParameterSpace,
    experiment_to_dict,
    load_experiment,
    save_experiment,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_strict(capsys, *argv):
    """run, with every warning raised as an error.

    pytest records warnings instead of printing them, so a warning that a
    real run would print on stderr ahead of the error line fails here.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(capsys, *argv)


class TestGenerate:
    def test_writes_count_specs_deterministically(self, tmp_path, capsys):
        out = tmp_path / "specs"
        code, _, _ = run(
            capsys, "generate", "--seed", "7", "--params", "2",
            "--count", "3", "--out", str(out),
        )
        assert code == 0
        files = sorted(out.glob("*.json"))
        assert len(files) == 3
        first = [f.read_bytes() for f in files]
        code, _, _ = run(
            capsys, "generate", "--seed", "7", "--params", "2",
            "--count", "3", "--out", str(out),
        )
        assert code == 0
        assert [f.read_bytes() for f in sorted(out.glob("*.json"))] == first

    def test_params_out_of_range_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["generate", "--seed", "1", "--params", "4", "--count", "1",
                 "--out", str(tmp_path)]
            )
        assert exc.value.code == 2
        assert "m <= 3" in capsys.readouterr().err

    def test_zero_count_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["generate", "--seed", "1", "--params", "2", "--count", "0",
                 "--out", str(tmp_path)]
            )
        assert exc.value.code == 2

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                ["generate", "--seed", "-5", "--params", "2", "--count", "1",
                 "--out", str(tmp_path)]
            )
        assert exc.value.code == 2


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    save_spec(fig2_spec(), path)
    return path


@pytest.fixture
def experiment_file(tmp_path, spec_file, capsys):
    path = tmp_path / "exp.json"
    code, _, _ = run(
        capsys, "simulate", "--spec", str(spec_file), "--reps", "5",
        "--out", str(path),
    )
    assert code == 0
    return path


class TestSimulate:
    def test_repetition_count(self, experiment_file):
        exp = load_experiment(experiment_file)
        for cp, metrics in exp.callpaths:
            assert metrics["time_s"].repetitions == 5

    def test_zero_baseline_noise_zero_variance(self, experiment_file):
        exp = load_experiment(experiment_file)
        for cp, metrics in exp.callpaths:
            for reps in metrics["time_s"].data.tolist():
                assert len(set(reps)) == 1

    def test_missing_spec_exits_3(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "simulate", "--spec", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "exp.json"),
        )
        assert code == 3


class TestModel:
    def test_swc_report_matches_ground_truth(self, experiment_file, capsys, tmp_path):
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys, "model", "--experiment", str(experiment_file),
            "--pipeline", "swc", "--out", str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        lead = {
            c["name"]: c["leading_exponents"] for c in report["callpaths"]
        }
        assert lead["k00/compute"] == {"p": ["1", 0], "n": ["1", 0]}
        assert lead["k00/broadcast"]["n"] == ["1", 0]
        assert "k00/compute" in stdout

    def test_classic_pipeline_runs(self, experiment_file, capsys):
        code, stdout, _ = run(
            capsys, "model", "--experiment", str(experiment_file),
            "--pipeline", "classic",
        )
        assert code == 0
        assert "k00/broadcast" in stdout

    def test_missing_bytes_exits_4_naming_callpath(
        self, experiment_file, tmp_path, capsys
    ):
        doc = json.loads(experiment_file.read_text())
        for cp in doc["callpaths"]:
            cp["metrics"].pop("bytes", None)
        crippled = tmp_path / "crippled.json"
        crippled.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "model", "--experiment", str(crippled), "--pipeline", "swc",
        )
        assert code == 4
        assert "k00/broadcast" in err

    @pytest.mark.parametrize("pipeline", ["classic", "swc"])
    def test_unknown_ranks_param_exits_2(self, experiment_file, capsys, pipeline):
        code, stdout, err = run(
            capsys, "model", "--experiment", str(experiment_file),
            "--pipeline", pipeline, "--ranks-param", "zz",
        )
        assert code == 2 and stdout == ""
        assert err == "error: ranks parameter 'zz' not in space\n"

    def test_machine_format(self, experiment_file, capsys):
        code, stdout, _ = run(
            capsys, "model", "--experiment", str(experiment_file),
            "--format", "machine",
        )
        assert code == 0
        assert json.loads(stdout)["pipeline"] == "swc"


    @pytest.mark.parametrize("pipeline", ["classic", "swc"])
    def test_non_finite_coefficients_exit_4_naming_callpath(
        self, tmp_path, capsys, pipeline
    ):
        # the median of two 1e308 repetitions overflows to inf
        exp = simulate_measurements(random_spec(0, 1, 1), reps=4)
        doc = experiment_to_dict(exp)
        record = doc["callpaths"][0]["metrics"]["time_s"][2]
        record["repetitions"] = [1e308] * 4
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(
            capsys, "model", "--experiment", str(path), "--pipeline", pipeline,
        )
        assert code == 4
        # numpy may warn about the overflow first; the error is one line
        (line,) = [line for line in err.splitlines() if line.startswith("error:")]
        assert "k00/compute" in line and "non-finite" in line

    @pytest.mark.parametrize(
        "runtimes",
        [[1.7e308] * 5, [1.0, 1e308, 1.7e308, 1e308, 5.0]],
        ids=["all-huge", "mixed"],
    )
    def test_overflowing_folds_exit_4_naming_callpath(
        self, tmp_path, capsys, runtimes
    ):
        # every leave-one-out fold sum overflows, so every hypothesis of the
        # classic search scores NaN and none may be taken for an exact fit
        doc = experiment_to_dict(simulate_measurements(random_spec(0, 1, 1), reps=1))
        for record, y in zip(doc["callpaths"][0]["metrics"]["time_s"], runtimes):
            record["repetitions"] = [y]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        code, stdout, err = run_strict(
            capsys, "model", "--experiment", str(path), "--pipeline", "classic",
        )
        assert code == 4 and stdout == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ") and "k00/compute" in line

    @pytest.mark.parametrize("pipeline", ["classic", "swc"])
    def test_overflowing_design_fits(self, tmp_path, capfd, pipeline):
        # x^3 log2(x)^2 overflows at x = 1e100, so some hypotheses' designs
        # are not finite; they must not reach LAPACK
        p = [v * 1e100 for v in (1.0, 2.0, 4.0, 8.0, 16.0)]
        effort = EFFORT_METRIC[KIND_COMPUTATION]
        metrics = {
            METRIC_TIME: MetricSeries(METRIC_TIME, [[1e-90 * v] for v in p]),
            effort: MetricSeries(effort, [[v] for v in p]),
        }
        exp = ExperimentSet(
            ParameterSpace(("p",), (p,)), ((CallPath("a", KIND_COMPUTATION), metrics),)
        )
        path = tmp_path / "exp.json"
        save_experiment(exp, path)
        code, stdout, err = run(
            capfd, "model", "--experiment", str(path), "--pipeline", pipeline,
        )
        assert (code, err) == (0, "")
        assert stdout.startswith("a  [p:1]") and stdout.endswith(" + 1e-90 * p\n")

    @pytest.mark.parametrize("pipeline", ["classic", "swc"])
    @pytest.mark.parametrize("scale", [1e100, 1e200, 1e300])
    def test_scaled_parameters_keep_exit_contract(
        self, tmp_path, capfd, scale, pipeline
    ):
        exp = simulate_measurements(random_spec(3, 2, 1), reps=2)
        values = tuple(tuple(v * scale for v in vs) for vs in exp.space.values)
        space = ParameterSpace(exp.space.names, values)
        path = tmp_path / "exp.json"
        save_experiment(dataclasses.replace(exp, space=space), path)
        code, stdout, err = run(
            capfd, "model", "--experiment", str(path), "--pipeline", pipeline,
        )
        assert code in (0, 4)
        if code == 4:
            (line,) = err.splitlines()
            assert line.startswith("error: ")
        assert "DLASCL" not in stdout + err

    @pytest.mark.parametrize("pipeline", ["classic", "swc"])
    def test_two_value_parameter_exits_4(self, tmp_path, capsys, pipeline):
        spec = random_spec(3, 2, 1)
        p_values, _ = spec.space.values
        space = ParameterSpace(spec.space.names, (p_values, (8000.0, 16000.0)))
        path = tmp_path / "exp.json"
        exp = simulate_measurements(dataclasses.replace(spec, space=space), reps=2)
        save_experiment(exp, path)
        code, stdout, err = run_strict(
            capsys, "model", "--experiment", str(path), "--pipeline", pipeline,
        )
        assert code == 4 and stdout == ""
        (line,) = err.splitlines()
        assert line.startswith("error: ")
        assert "parameter 'n' needs at least 3 values" in line


class TestInject:
    def test_zero_intensity_output_equals_input(
        self, experiment_file, tmp_path, capsys
    ):
        out = tmp_path / "noisy.json"
        code, _, _ = run(
            capsys, "inject", "--experiment", str(experiment_file),
            "--intensity", "0", "--out", str(out),
        )
        assert code == 0
        assert out.read_bytes() == experiment_file.read_bytes()

    def test_injection_is_deterministic(self, experiment_file, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code, _, _ = run(
                capsys, "inject", "--experiment", str(experiment_file),
                "--pattern", "scaled_poisson", "--intensity", "50",
                "--seed", "3", "--out", str(out),
            )
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert outs[0] != experiment_file.read_bytes()

    @pytest.mark.parametrize("selection", ["0", "1.5", "nan"])
    def test_selection_out_of_range_exits_2(
        self, experiment_file, tmp_path, capsys, selection
    ):
        with pytest.raises(SystemExit) as exc:
            main(
                ["inject", "--experiment", str(experiment_file),
                 "--intensity", "50", "--selection", selection,
                 "--out", str(tmp_path / "noisy.json")]
            )
        assert exc.value.code == 2
        assert "(0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("simulate", "--spec", "s.json", "--out", "e.json",
          "--baseline-noise", "nan"), "finite and >= 0"),
        (("simulate", "--spec", "s.json", "--out", "e.json",
          "--baseline-noise", "inf"), "finite and >= 0"),
        (("inject", "--experiment", "e.json", "--out", "n.json",
          "--intensity", "nan"), "finite and >= 0"),
        (("inject", "--experiment", "e.json", "--out", "n.json",
          "--intensity", "inf"), "finite and >= 0"),
        (("study-noise", "--spec", "s.json", "--intensities=-5"),
         "finite and >= 0"),
        (("study-noise", "--spec", "s.json", "--intensities=10,nan"),
         "finite and >= 0"),
        (("study-noise", "--spec", "s.json", "--intensities", ","),
         "at least one value"),
        (("study-noise", "--spec", "s.json", "--patterns", ","),
         "at least one value"),
        (("study-reps", "--spec", "s.json", "--reps", "1"), "must be >= 2"),
        (("simulate", "--spec", "s.json", "--out", "e.json", "--reps", "10001"),
         "<= 10000"),
        (("study-noise", "--spec", "s.json", "--reps", "10001"), "<= 10000"),
        (("study-reps", "--spec", "s.json", "--reps", "10001"), "<= 10000"),
        (("inject", "--experiment", "e.json", "--out", "n.json",
          "--intensity", "1e308"), "intensity 1e+308% overflows"),
        (("study-noise", "--spec", "s.json", "--intensities", "1e308",
          "--patterns", "uniform", "--trials", "1"),
         "intensity 1e+308% overflows"),
        (("simulate", "--spec", "s.json", "--out", "n.json",
          "--baseline-noise", "1e308"), "baseline noise 1e+308 overflows"),
        (("study-noise", "--spec", "s.json", "--baseline-noise", "1e308",
          "--intensities", "10", "--patterns", "uniform", "--trials", "1"),
         "baseline noise 1e+308 overflows"),
        (("study-reps", "--spec", "s.json", "--baseline-noise", "1e308"),
         "baseline noise 1e+308 overflows"),
    ],
    ids=[
        "baseline-noise-nan", "baseline-noise-inf", "intensity-nan",
        "intensity-inf", "intensities-negative", "intensities-nan",
        "intensities-empty", "patterns-empty", "study-reps-1",
        "simulate-reps-10001", "study-noise-reps-10001", "study-reps-10001",
        "intensity-overflows", "intensities-overflow",
        "simulate-baseline-noise-overflows", "study-noise-baseline-noise-overflows",
        "study-reps-baseline-noise-overflows",
    ],
)
def test_non_finite_or_negative_float_flag_exits_2(
    tmp_path, monkeypatch, capsys, argv, message
):
    """A bad flag value exits 2 with one error line that names its bound:
    a noise level that is not a finite number >= 0 or that overflows a
    runtime, an empty list, a repetition study of fewer than 2
    repetitions, or more than 10^4 repetitions."""
    # runtimes of 7e3 s and more: a noise of 1e308 % overflows them
    monkeypatch.chdir(tmp_path)
    spec = random_spec(0, 2, 1)
    save_spec(spec, "s.json")
    save_experiment(simulate_measurements(spec, reps=2), "e.json")
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and message in err
    assert not (tmp_path / "n.json").exists()


@pytest.mark.parametrize(
    "argv, kind",
    [
        (("generate", "--seed", "abc", "--params", "2", "--count", "1",
          "--out", "o"), "int"),
        (("generate", "--seed", "0", "--params", "2", "--count", "abc",
          "--out", "o"), "int"),
        (("cost", "--params", "abc"), "int"),
        (("cost", "--params", "2", "--reps", "abc"), "int"),
        (("study-reps", "--spec", "s.json", "--reps", "abc"), "int"),
        (("simulate", "--spec", "s.json", "--out", "e.json",
          "--baseline-noise", "abc"), "float"),
        (("inject", "--experiment", "e.json", "--out", "n.json",
          "--intensity", "5", "--selection", "abc"), "float"),
    ],
    ids=["seed", "positive", "params", "budget", "subset-reps", "fraction",
         "selection"],
)
def test_unparsable_flag_names_the_builtin_kind(capsys, argv, kind):
    """A flag value of the wrong type is reported as an invalid int or
    float value, not under the name of the parser's helper."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert f"invalid {kind} value: 'abc'" in capsys.readouterr().err


class TestCost:
    def test_two_params(self, capsys):
        code, stdout, _ = run(capsys, "cost", "--params", "2")
        assert code == 0
        assert stdout.strip() == "classic=125 swc=50"

    def test_three_params(self, capsys):
        code, stdout, _ = run(capsys, "cost", "--params", "3")
        assert stdout.strip() == "classic=625 swc=250"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--params", "3000", "--values", "100"),
            ("--params", "3", "--values", "1" + "0" * 1500),
            ("--params", "4"),
        ],
        ids=["params-3000", "values-1e1500", "params-4"],
    )
    def test_out_of_range_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["cost", *argv])
        assert exc.value.code == 2
        assert capsys.readouterr().err.count("error:") == 1


class TestStudies:
    def test_noise_study_row_count_and_determinism(
        self, spec_file, tmp_path, capsys
    ):
        args = (
            "study-noise", "--spec", str(spec_file), "--pipeline", "swc",
            "--intensities", "2,50", "--patterns", "uniform,scaled_poisson",
            "--trials", "2", "--seed", "11",
        )
        out1 = tmp_path / "study1.json"
        code, stdout1, _ = run(capsys, *args, "--out", str(out1))
        assert code == 0
        doc = json.loads(out1.read_text())
        assert len(doc["rows"]) == 4
        assert all(r["mean_ed"] == 0.0 for r in doc["rows"])
        out2 = tmp_path / "study2.json"
        code, stdout2, _ = run(capsys, *args, "--out", str(out2))
        assert stdout1 == stdout2
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "study",
        [
            ("study-noise", "--intensities", "50", "--patterns", "uniform",
             "--trials", "2"),
            ("study-reps", "--reps", "3"),
        ],
        ids=["noise", "reps"],
    )
    def test_jobs_do_not_change_results(self, spec_file, tmp_path, capsys, study):
        args = (
            *study, "--spec", str(spec_file), "--pipeline", "classic",
            "--seed", "5",
        )
        out1, out2 = tmp_path / "j1.json", tmp_path / "j2.json"
        assert run(capsys, *args, "--jobs", "1", "--out", str(out1))[0] == 0
        assert run(capsys, *args, "--jobs", "2", "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_reps_study(self, spec_file, tmp_path, capsys):
        out = tmp_path / "reps.json"
        code, stdout, _ = run(
            capsys, "study-reps", "--spec", str(spec_file), "--pipeline", "swc",
            "--reps", "3", "--baseline-noise", "0.5", "--seed", "2",
            "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert [r["level"] for r in doc["rows"]] == [1.0, 2.0, 3.0]
        assert all(r["std_ed"] == 0.0 for r in doc["rows"])

    @pytest.mark.parametrize(
        "study",
        [
            ("study-noise", "--intensities", "0", "--patterns", "uniform",
             "--trials", "1"),
            ("study-reps", "--reps", "2", "--baseline-noise", "0"),
        ],
        ids=["noise", "reps"],
    )
    def test_swc_counts_ranks_on_the_spec_ranks_parameter(
        self, tmp_path, capsys, study
    ):
        # a scatter kernel with the ranks parameter p listed second: SWC
        # must take the rank count from p, not from the first parameter
        doc = spec_to_dict(random_spec(3, 2, 1))
        assert doc["ranks_param"] == "p"
        assert doc["kernels"][0]["mpi_op"] == "scatter"
        doc["parameters"].reverse()
        kernel = doc["kernels"][0]
        for term in kernel["computation_terms"]:
            term["exponents"].reverse()
        kernel["message_elems_term"].reverse()
        spec = tmp_path / "swapped.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / "study.json"
        code, _, _ = run(
            capsys, *study, "--spec", str(spec), "--pipeline", "swc",
            "--out", str(out),
        )
        assert code == 0
        for row in json.loads(out.read_text())["rows"]:
            assert row["mean_ed"] == 0.0
            assert row["mean_re_pct"] < 1e-6


DELETE = object()


def _mutated(doc, path, value):
    """Copy of doc with the node at path deleted or replaced by value; an
    index one past the end of a list appends value."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    elif isinstance(parent, list) and path[-1] == len(parent):
        parent.append(value)
    else:
        parent[path[-1]] = value
    return doc


KERNEL = ("kernels", 0)
TERM = KERNEL + ("computation_terms", 0)
FIRST_TIME = ("callpaths", 0, "metrics", "time_s", 0)


class TestMalformedDocuments:
    """Every malformed file exits 3 with one line on stderr."""

    @pytest.mark.parametrize(
        "path, value",
        [
            (KERNEL + ("name",), DELETE),
            (KERNEL + ("message_elems_base",), DELETE),
            (TERM + ("coefficient",), DELETE),
            (("parameters", 0, "values"), DELETE),
            (("parameters",), 5),
            (TERM + ("exponents", 0, 0), "1/x"),
            (TERM + ("exponents", 0, 0), "1/0"),
            (KERNEL + ("true_alpha",), "abc"),
            (("seed",), "x"),
            (KERNEL + ("mpi_op",), "bogus"),
            (KERNEL + ("true_alpha",), 1e308),
            (KERNEL + ("true_alpha",), "3e-05"),
            (KERNEL + ("true_alpha",), True),
            (("seed",), 1.5),
            (TERM + ("exponents", 0, 1), 1.5),
            (KERNEL + ("elem_size",), "4"),
            (("format_version",), True),
            (TERM + ("exponents", 0, 0), True),
            (TERM + ("exponents", 0, 0), 1.5),
            (TERM + ("exponents", 0, 0), "1e400"),
        ],
        ids=[
            "no-kernel-name", "no-message-elems-base", "no-term-coefficient",
            "no-parameter-values", "parameters-number", "exponent-1/x",
            "exponent-1/0", "string-alpha", "string-seed", "unknown-mpi-op",
            "overflowing-alpha", "numeric-string-alpha", "boolean-alpha",
            "fractional-seed", "fractional-log-exponent", "numeric-string-elem-size",
            "boolean-format-version", "boolean-exponent", "numeric-exponent",
            "overflowing-exponent",
        ],
    )
    def test_spec(self, tmp_path, capsys, path, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_mutated(spec_to_dict(fig2_spec()), path, value)))
        code, _, err = run_strict(
            capsys, "simulate", "--spec", str(bad), "--out", str(tmp_path / "e.json")
        )
        assert code == 3
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("parameters",), 5, "parameters must be a list"),
            (FIRST_TIME + ("repetitions", 0), "abc", "could not convert"),
            (("callpaths",), {}, "callpaths must be a list"),
            (("callpaths", 0, "metrics"), [], "metrics must be an object"),
            (("callpaths", 0, "name"), 7, "call path name"),
            (FIRST_TIME + ("coordinate",), [128.0], "coordinate length mismatch"),
            ((), [], "experiment must be an object"),
            (FIRST_TIME + ("repetitions", 0), "0.5", "could not convert"),
            (FIRST_TIME + ("repetitions", 0), True, "could not convert"),
            (FIRST_TIME + ("coordinate", 0), "128", "could not convert"),
            (("parameters", 0, "values", 0), False, "could not convert"),
            (("format_version",), True, "could not convert"),
            (
                ("callpaths", 0, "metrics", "time_s", 25),
                {"coordinate": [4096.0, 8000.0], "repetitions": [1.0]},
                "incomplete grid for 'k00/compute'/time_s: (4096.0, 8000.0) is off",
            ),
        ],
        ids=[
            "parameters-number", "string-repetition", "callpaths-object",
            "metrics-list", "numeric-callpath-name", "one-value-coordinate",
            "top-level-list", "numeric-string-repetition", "boolean-repetition",
            "numeric-string-coordinate", "boolean-parameter-value",
            "boolean-format-version", "extra-record",
        ],
    )
    def test_experiment(self, experiment_file, tmp_path, capsys, path, value, message):
        doc = json.loads(experiment_file.read_text())
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(_mutated(doc, path, value)))
        code, _, err = run_strict(capsys, "model", "--experiment", str(bad))
        assert code == 3
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert message in err


# --- fuzzing the exit-code contract -------------------------------------------

FUZZ_SPEC = spec_to_dict(random_spec(3, 1, 1))
FUZZ_EXPERIMENT = experiment_to_dict(
    simulate_measurements(random_spec(3, 1, 1), reps=2, baseline_noise=0.5)
)
FILLERS = (DELETE, None, 0, -1.5, 1e308, "x", [], {})


def _node_paths(doc, prefix=()):
    """Paths to every node below the root of a JSON document."""
    if isinstance(doc, dict):
        children = doc.items()
    elif isinstance(doc, list):
        children = enumerate(doc)
    else:
        children = ()
    for key, child in children:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


def _mutations(doc):
    return st.builds(
        _mutated,
        st.just(doc),
        st.sampled_from(list(_node_paths(doc))),
        st.sampled_from(FILLERS),
    )


class _Hang(BaseException):
    """Raised by the alarm; not an Exception, so main cannot swallow it."""


def _raise_hang(signum, frame):
    raise _Hang("cli.main did not return within 10 s")


def _check_exit_contract(argv):
    """main returns 0, 3 or 4, and a failure prints one error line, nothing else.

    Warnings are raised as errors (see run_strict), so a warning fails too.
    """
    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _raise_hang)
    signal.alarm(10)
    try:
        with (
            redirect_stdout(io.StringIO()),
            redirect_stderr(err),
            warnings.catch_warnings(),
        ):
            warnings.simplefilter("error")
            code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 3, 4), err.getvalue()
    if code == 0:
        assert "error:" not in err.getvalue()
    else:
        assert err.getvalue().count("\n") == 1, err.getvalue()
        assert err.getvalue().startswith("error: "), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


FUZZ_SETTINGS = settings(
    derandomize=True, database=None, deadline=timedelta(seconds=5)
)


@settings(FUZZ_SETTINGS, max_examples=600)
@given(doc=_mutations(FUZZ_SPEC))
def test_fuzzed_spec_keeps_exit_contract(fuzz_dir, doc):
    (fuzz_dir / "spec.json").write_text(json.dumps(doc))
    _check_exit_contract(
        ["simulate", "--spec", str(fuzz_dir / "spec.json"), "--reps", "2",
         "--out", str(fuzz_dir / "exp.json")]
    )


@settings(FUZZ_SETTINGS, max_examples=400)
@given(doc=_mutations(FUZZ_EXPERIMENT), pipeline=st.sampled_from(["classic", "swc"]))
def test_fuzzed_experiment_keeps_exit_contract(fuzz_dir, doc, pipeline):
    (fuzz_dir / "exp.json").write_text(json.dumps(doc))
    _check_exit_contract(
        ["model", "--experiment", str(fuzz_dir / "exp.json"), "--pipeline", pipeline]
    )

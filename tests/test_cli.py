import json

import pytest

from conftest import fig2_spec
from perfprior.benchgen import save_spec
from perfprior.cli import main
from perfprior.dataset import load_experiment


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
            for reps in metrics["time_s"].data.values():
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

    def test_machine_format(self, experiment_file, capsys):
        code, stdout, _ = run(
            capsys, "model", "--experiment", str(experiment_file),
            "--format", "machine",
        )
        assert code == 0
        assert json.loads(stdout)["pipeline"] == "swc"


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


class TestCost:
    def test_two_params(self, capsys):
        code, stdout, _ = run(capsys, "cost", "--params", "2")
        assert code == 0
        assert stdout.strip() == "classic=125 swc=50"

    def test_three_params(self, capsys):
        code, stdout, _ = run(capsys, "cost", "--params", "3")
        assert stdout.strip() == "classic=625 swc=250"


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

    def test_jobs_do_not_change_results(self, spec_file, tmp_path, capsys):
        args = (
            "study-noise", "--spec", str(spec_file), "--pipeline", "classic",
            "--intensities", "50", "--patterns", "uniform", "--trials", "2",
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

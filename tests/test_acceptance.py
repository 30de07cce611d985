"""Acceptance gate: one test per criterion, each printing a verdict line.

These are the exit criteria of the artifact. They run the full pipeline at
study scale, so this module takes a few minutes; the unit-test modules
cover the same operations at example scale.
"""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import perfprior
from conftest import model_from_expos
from oracle import exhaustive_oracle
from perfprior.benchgen import (
    random_spec,
    simulate_measurements,
    truth_by_callpath,
)
from perfprior.dataset import MpiOp, ParameterSpace
from perfprior.evaluation import (
    cost_report,
    deviation_from_truth,
    exponent_deviation,
    next_test_point,
    noise_robustness_study,
    repetition_study,
)
from perfprior.modeler import (
    cv_score,
    search_multi,
    search_single,
)
from perfprior.pipelines import run_pipeline
from perfprior.pmnf import (
    BasisFunction,
    Skeleton,
    constant_basis,
    default_exponent_sets,
    design_matrix,
    leading_exponents,
)
from perfprior.priors import account_bytes, derive_communication_prior
from perfprior.pmnf import PmnfModel, Term

F = Fraction


def _report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


def test_criterion_1_noise_free_structural_recovery():
    """50 seeded two-parameter specs: SWC ED must be exactly 0 everywhere."""
    started = time.monotonic()
    checked = 0
    for seed in range(1, 51):
        spec = random_spec(seed, 2, 1)
        exp = simulate_measurements(spec, reps=1, baseline_noise=0.0, seed=seed)
        truth = truth_by_callpath(spec)
        models = run_pipeline("swc", exp)
        for name, model in models.items():
            report = deviation_from_truth(model, truth[name])
            assert all(d == 0 for d in report.deviations.values()), (
                seed,
                name,
                report.deviations,
            )
            checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"took {elapsed:.1f}s, budget is 2 minutes"
    _report(1, f"ED == 0 for all parameters of {checked} call paths "
               f"across 50/50 specs in {elapsed:.1f}s")


def test_criterion_2_noise_invariance_of_swc_structure():
    """SWC ED stays exactly 0 under every noise cell; classic degrades."""
    intensities = [0.02, 0.05, 0.10, 0.50, 0.75]
    patterns = ["uniform", "truncated_normal", "scaled_poisson",
                "scaled_exponential"]
    degraded = 0
    n_specs = 20
    for seed in range(1, n_specs + 1):
        spec = random_spec(seed, 2, 1)
        exp = simulate_measurements(spec, reps=5, baseline_noise=0.0, seed=seed)
        truth = truth_by_callpath(spec)
        swc = noise_robustness_study(
            exp, truth, intensities=intensities, patterns=patterns,
            trials=20, pipeline="swc", seed=seed,
        )
        for row in swc.rows:
            assert row.mean_ed == 0.0, (seed, row)
            assert row.std_ed == 0.0, (seed, row)
        classic = noise_robustness_study(
            exp, truth, intensities=intensities, patterns=patterns,
            trials=20, pipeline="classic", seed=seed,
        )
        high = [row.mean_ed for row in classic.rows if row.level >= 0.5]
        if float(np.mean(high)) > 0:
            degraded += 1
    assert degraded > n_specs // 2, f"classic degraded on only {degraded} specs"
    _report(2, f"SWC mean/std ED identically 0 over "
               f"{n_specs * len(intensities) * len(patterns)} cells x 20 trials; "
               f"classic mean ED > 0 at >=50% intensity on {degraded}/{n_specs} specs")


def _contribution_scaled_targets(rng, a):
    targets = 10.0 ** rng.uniform(-3, 3, size=a.shape[1])
    return targets / np.abs(a).max(axis=0)


def test_criterion_3_coefficient_recovery():
    """Exact data from searched hypotheses: exact structure, 1e-6 coefficients.

    Coefficients are drawn so every term's peak contribution stays within
    six orders of magnitude of the others; beyond that, float64 cannot even
    represent the generating sum, so 'exactly generated data' ceases to
    exist.
    """
    i_set, j_set = default_exponent_sets()
    rng = np.random.default_rng(30_000)
    grids = [
        (4.0, 8.0, 16.0, 32.0, 64.0),
        (32.0, 64.0, 128.0, 256.0, 512.0),
        (8000.0, 16000.0, 24000.0, 32000.0, 40000.0),
    ]

    def draw_expo():
        while True:
            i, j = i_set[rng.integers(20)], j_set[rng.integers(3)]
            if i != 0 or j != 0:
                return (i, j)

    cases = 0
    for _ in range(140):
        x = grids[rng.integers(len(grids))]
        expo = draw_expo()
        skel = Skeleton(("x",), (constant_basis(1), BasisFunction((expo,))))
        a = design_matrix(skel, np.array(x)[:, None])
        true = _contribution_scaled_targets(rng, a)
        data = {(v,): float(t) for v, t in zip(x, a @ true)}
        model = search_single(data, "x")
        assert len(model.terms) == 1
        assert model.terms[0].exponents == (expo,)
        got = np.array([model.constant, model.terms[0].coefficient])
        assert np.all(np.abs(got - true) / true < 1e-6)
        assert cv_score(skel, data) <= 1e-9
        cases += 1

    space = ParameterSpace(
        ("p", "n"),
        ((128.0, 256.0, 512.0, 1024.0, 2048.0),
         (8000.0, 16000.0, 24000.0, 32000.0, 40000.0)),
    )
    coords = np.array(space.grid())
    for _ in range(70):
        t_p, t_n = draw_expo(), draw_expo()
        products = {
            "p": ((t_p, (F(0), 0))),
            "n": (((F(0), 0), t_n)),
            "pn": ((t_p, t_n)),
        }
        shape = ["p", "n", "pn", ("p", "pn"), ("n", "pn"), ("p", "n")][
            rng.integers(6)
        ]
        chosen = (shape,) if isinstance(shape, str) else shape
        bases = (constant_basis(2),) + tuple(
            BasisFunction(products[c]) for c in chosen
        )
        skel = Skeleton(space.names, bases)
        a = design_matrix(skel, coords)
        true = _contribution_scaled_targets(rng, a)
        data = {tuple(c): float(v) for c, v in zip(space.grid(), a @ true)}
        model = search_multi(data, space)
        assert {t.exponents for t in model.terms} == {
            b.exponents for b in bases[1:]
        }, (shape, t_p, t_n)
        fitted = {t.exponents: t.coefficient for t in model.terms}
        for basis, coeff in zip(bases[1:], true[1:]):
            assert abs(fitted[basis.exponents] - coeff) / coeff < 1e-6
        assert abs(model.constant - true[0]) / true[0] < 1e-6
        assert cv_score(skel, data) <= 1e-9
        cases += 1
    _report(3, f"exact structure, 1e-6 coefficients, cv <= 1e-9 on {cases} "
               "seeded cases")


def test_criterion_4_oracle_equivalence():
    """Production search equals the independent brute-force oracle."""
    i_set, j_set = default_exponent_sets()
    rng = np.random.default_rng(40_000)
    grids = [
        (4.0, 8.0, 16.0, 32.0, 64.0),
        (32.0, 64.0, 128.0, 256.0, 512.0),
        (3.0, 9.0, 27.0, 81.0, 243.0),
    ]

    def draw_expo():
        while True:
            i, j = i_set[rng.integers(20)], j_set[rng.integers(3)]
            if i != 0 or j != 0:
                return (i, j)

    matches = 0
    for _ in range(100):
        x = grids[rng.integers(len(grids))]
        if rng.random() < 0.2:
            skel = Skeleton(("x",), (constant_basis(1),))
        else:
            skel = Skeleton(("x",), (constant_basis(1), BasisFunction((draw_expo(),))))
        a = design_matrix(skel, np.array(x)[:, None])
        true = _contribution_scaled_targets(rng, a)
        y = a @ true
        if rng.random() < 0.5:
            y = y * (1.0 + 0.2 * rng.uniform(0, 1, size=len(y)))
        data = {(v,): float(t) for v, t in zip(x, y)}
        got = search_single(data, "x")
        want = exhaustive_oracle(
            data, "single", ParameterSpace(("x",), (x,))
        )
        same = (
            leading_exponents(got) == leading_exponents(want)
            and len(got.terms) == len(want.terms)
        )
        matches += int(same)
    assert matches == 100, f"single-parameter agreement {matches}/100"

    space = ParameterSpace(
        ("p", "n"),
        ((128.0, 256.0, 512.0, 1024.0, 2048.0),
         (8000.0, 16000.0, 24000.0, 32000.0, 40000.0)),
    )
    coords = np.array(space.grid())
    multi_matches = 0
    for _ in range(50):
        t_p, t_n = draw_expo(), draw_expo()
        bases = (
            constant_basis(2),
            BasisFunction((t_p, (F(0), 0))),
            BasisFunction(((F(0), 0), t_n)),
        )
        skel = Skeleton(space.names, bases)
        a = design_matrix(skel, coords)
        true = _contribution_scaled_targets(rng, a)
        y = a @ true
        if rng.random() < 0.5:
            y = y * (1.0 + 0.1 * rng.uniform(0, 1, size=len(y)))
        data = {tuple(c): float(v) for c, v in zip(space.grid(), y)}
        got = search_multi(data, space)
        want = exhaustive_oracle(data, "multi_restricted", space)
        same = (
            leading_exponents(got) == leading_exponents(want)
            and sorted(t.exponents for t in got.terms)
            == sorted(t.exponents for t in want.terms)
        )
        multi_matches += int(same)
    assert multi_matches == 50, f"two-parameter agreement {multi_matches}/50"
    _report(4, "search equals oracle on 100/100 single- and 50/50 "
               "two-parameter datasets")


def test_criterion_5_cost_form_conformance():
    """Communication priors match a hand-coded structural table, all 9 ops."""
    names = ("p", "n")
    n_term = ((F(0), 0), (F(1), 0))
    log_p = ((F(0), 1), (F(0), 0))
    bytes_model = PmnfModel(16.0, (Term(4.0, n_term),), names)

    def b(exps, frac=None):
        return BasisFunction(exps, ranks_fraction=frac)

    const = constant_basis(2)
    expected = {
        MpiOp.SEND: (const, b(n_term)),
        MpiOp.RECEIVE: (const, b(n_term)),
        MpiOp.BROADCAST: (const, b(log_p), b(n_term)),
        MpiOp.SCATTER: (const, b(log_p), b(n_term, "p")),
        MpiOp.GATHER: (const, b(log_p), b(n_term, "p")),
        MpiOp.ALLGATHER: (const, b(log_p), b(n_term, "p")),
        MpiOp.REDUCE: (const, b(log_p), b(n_term), b(n_term, "p")),
        MpiOp.ALLREDUCE: (const, b(log_p), b(n_term), b(n_term, "p")),
        MpiOp.BARRIER: (const, b(log_p)),
    }
    for op, bases in expected.items():
        prior = derive_communication_prior(op, bytes_model, "p")
        assert prior.skeleton.bases == bases, op

    assert account_bytes("broadcast", 10, 4, 4) == (160, 40)
    for p in (2, 4, 8):
        for n in (1, 10):
            root, target = account_bytes("broadcast", n, 4, p)
            assert root == p * n * 4 and target == n * 4
            root2, target2 = account_bytes("broadcast", 2 * n, 4, p)
            assert root2 == 2 * root and target2 == 2 * target
    _report(5, "all 9 operations match the hand-coded cost-form table; "
               "byte accounting reproduces 160/40 and is linear")


def test_criterion_6_metric_fidelity():
    """Exponent deviation reproduces a fixed case-study reference table."""
    case_a = ("p", "G", "Z")
    case_b = ("p", "n")
    theo_comp = model_from_expos(case_a, {"G": (1, 0), "Z": (1, 0)})
    theo_comm = model_from_expos(
        case_a, {"p": (F(1, 3), 0)}, {"G": (1, 0), "Z": (F(2, 3), 0)}
    )
    theo_rel = model_from_expos(
        case_b, {"p": (1, 0)}, {"n": (1, 1)}, {"n": (1, 0), "p": (0, 1)}
    )
    cells = [
        (theo_comp,
         model_from_expos(case_a, {"p": (1, 2), "G": (F(3, 4), 1), "Z": (F(4, 5), 0)}),
         {"p": F(1), "G": F(1, 4), "Z": F(1, 5)}),
        (theo_comp,
         model_from_expos(case_a, {"p": (1, 0), "G": (F(5, 4), 0), "Z": (F(2, 3), 0)}),
         {"p": F(1), "G": F(1, 4), "Z": F(1, 3)}),
        (theo_comp,
         model_from_expos(case_a, {"G": (1, 1), "Z": (F(3, 4), 0)}),
         {"p": F(0), "G": F(0), "Z": F(1, 4)}),
        (theo_comm,
         model_from_expos(case_a, {"p": (F(4, 3), 1), "G": (F(3, 4), 1), "Z": (F(1, 3), 2)}),
         {"p": F(1), "G": F(1, 4), "Z": F(1, 3)}),
        (theo_comm,
         model_from_expos(case_a, {"G": (F(5, 4), 0), "Z": (F(1, 2), 0)}),
         {"p": F(1, 3), "G": F(1, 4), "Z": F(1, 6)}),
        (theo_comm,
         model_from_expos(case_a, {"G": (1, 0), "Z": (F(2, 3), 0)}),
         {"p": F(1, 3), "G": F(0), "Z": F(0)}),
        (theo_rel,
         model_from_expos(case_b, {"p": (F(2, 3), 0), "n": (F(3, 4), 1)}),
         {"p": F(1, 3), "n": F(1, 4)}),
        (theo_rel,
         model_from_expos(case_b, {"p": (F(2, 3), 1), "n": (F(1, 4), 0)}),
         {"p": F(1, 3), "n": F(3, 4)}),
        (theo_rel,
         model_from_expos(case_b, {"p": (1, 0)}, {"n": (F(5, 4), 1), "p": (F(1, 4), 0)}),
         {"p": F(0), "n": F(1, 4)}),
    ]
    n_cells = 0
    for theo, model, expected in cells:
        report = exponent_deviation(theo, model)
        assert report.deviations == expected
        n_cells += len(expected)

    assert next_test_point(
        ParameterSpace(("p",), ((32.0, 64.0, 128.0, 256.0, 512.0),))
    ) == (1024.0,)
    assert next_test_point(
        ParameterSpace(("n",), ((8000.0, 16000.0, 24000.0, 32000.0, 40000.0),))
    ) == (48000.0,)
    _report(6, f"all {n_cells} case-study deviation cells exact; "
               "both test-point rules reproduced")


def test_criterion_7_measurement_budget():
    classic, swc = cost_report(2)
    assert (classic, swc) == (125, 50)
    saved = 1 - swc / classic
    assert saved == pytest.approx(0.6)
    assert swc < classic / 2 + classic / 10  # 50 < 62.5: about half the cost
    assert not swc <= classic / 2 or swc == 50  # exact halving is not claimed
    assert cost_report(1) == (25, 10)
    assert cost_report(3) == (625, 250)
    _report(7, "budgets (125, 50): 60% fewer measurements, 50 < 62.5")


def test_criterion_8_repetition_stability():
    """SWC deviation is constant across repetition subsets; classic is not."""
    n_specs = 20
    classic_unstable = 0
    for seed in range(101, 101 + n_specs):
        spec = random_spec(seed, 2, 1)
        exp = simulate_measurements(spec, reps=5, baseline_noise=0.5, seed=seed)
        truth = truth_by_callpath(spec)
        swc = repetition_study(exp, truth, pipeline="swc", seed=seed)
        assert [row.level for row in swc.rows] == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert len({row.mean_ed for row in swc.rows}) == 1
        for row in swc.rows:
            assert row.std_ed == 0.0, (seed, row)
            assert row.mean_ed == 0.0, (seed, row)
        classic = repetition_study(exp, truth, pipeline="classic", seed=seed)
        if any(row.std_ed > 0 for row in classic.rows):
            classic_unstable += 1
    assert classic_unstable > n_specs // 2
    _report(8, f"SWC rows constant (std 0) for {n_specs}/{n_specs} specs; "
               f"classic ED std > 0 on {classic_unstable}/{n_specs}")


def _run_cli(workdir, *argv):
    # Put the directory holding the imported package first on PYTHONPATH:
    # a relative entry such as ``src`` would resolve against ``workdir``.
    env = os.environ.copy()
    paths = [str(Path(perfprior.__file__).resolve().parent.parent)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    proc = subprocess.run(
        [sys.executable, "-m", "perfprior.cli", *argv],
        cwd=workdir,
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_9_cli_determinism(tmp_path):
    """Every seeded invocation is byte-identical, independent of --jobs."""
    transcripts = []
    for run_dir in ("one", "two"):
        base = tmp_path / run_dir
        base.mkdir()
        out = []
        out.append(_run_cli(base, "generate", "--seed", "7", "--params", "2",
                            "--count", "2", "--out", "specs"))
        out.append(_run_cli(base, "simulate", "--spec", "specs/spec_000.json",
                            "--reps", "5", "--baseline-noise", "0.2",
                            "--seed", "3", "--out", "exp.json"))
        out.append(_run_cli(base, "inject", "--experiment", "exp.json",
                            "--pattern", "scaled_exponential", "--intensity",
                            "50", "--seed", "4", "--out", "noisy.json"))
        out.append(_run_cli(base, "model", "--experiment", "noisy.json",
                            "--pipeline", "swc", "--out", "report.json",
                            "--format", "machine"))
        out.append(_run_cli(base, "study-noise", "--spec", "specs/spec_000.json",
                            "--intensities", "10,50", "--patterns", "uniform",
                            "--trials", "3", "--seed", "5", "--pipeline",
                            "classic", "--jobs", "1", "--out", "study.json"))
        out.append(_run_cli(base, "study-noise", "--spec", "specs/spec_000.json",
                            "--intensities", "10,50", "--patterns", "uniform",
                            "--trials", "3", "--seed", "5", "--pipeline",
                            "classic", "--jobs", "2", "--out", "study_par.json"))
        out.append(_run_cli(base, "study-reps", "--spec", "specs/spec_000.json",
                            "--reps", "3", "--baseline-noise", "0.5",
                            "--seed", "6", "--out", "reps.json"))
        out.append(_run_cli(base, "cost", "--params", "2"))
        files = {
            name: (base / name).read_bytes()
            for name in ("specs/spec_000.json", "specs/spec_001.json",
                         "exp.json", "noisy.json", "report.json",
                         "study.json", "study_par.json", "reps.json")
        }
        transcripts.append((out, files))
    assert transcripts[0][0] == transcripts[1][0], "stdout differs between runs"
    assert transcripts[0][1] == transcripts[1][1], "files differ between runs"
    files = transcripts[0][1]
    assert files["study.json"] == files["study_par.json"], "--jobs changed results"
    assert b"classic=125 swc=50" in transcripts[0][0][-1]
    _report(9, "two full CLI transcripts byte-identical; --jobs 2 matches "
               "--jobs 1")

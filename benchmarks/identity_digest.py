#!/usr/bin/env python3
"""Print one sha256 per class of document the perfprior CLI writes.

A change that must keep every output byte-identical prints the same lines
as its parent commit. The lines are pinned in `identity_digest.txt` next
to this script, so one run checks a tree:

    PYTHONPATH=src python3 benchmarks/identity_digest.py

It prints its lines, then exits 1 naming every class whose line differs
from the pinned file (or is missing from it). A change that alters output
bytes on purpose updates the pinned file in its own diff, so the re-pinned
classes show in review. The pinned lines were made with numpy 2.4.6 and
Python 3.11.7 on a 2-core x86-64 Linux machine.

Classes, each hashed over its documents in a fixed order:

- `generate`: `generate --count 1` for seeds 0-39 at m = 1, 2, 3 with
  1, 2 and 3 kernels (360 spec files);
- `simulate`: the `simulate` experiment files of the model sweep below
  (280 files), which pin the simulator's runtimes, blocks and bytes;
- `inject`: `inject --intensity 75 --selection 0.5` under each noise
  pattern on `random_spec` seeds 0-39 at m = 2, 2 kernels, simulated with
  5 repetitions at baseline noise 0.5 (160 files), which pin both
  per-measurement noise draws, the partial selection and the baseline;
- `model/<pipeline>`: `model --format machine` stdout for `random_spec`
  seeds 0-119 at m = 1 and m = 2 and 0-39 at m = 3, 2 kernels, 5
  repetitions, 50 % uniform noise (280 fits per pipeline, 560 in all);
- `study-noise/<pipeline>/<pattern>`: one `study-noise` JSON per noise
  pattern on `random_spec(1, 2, 2)`, intensities 10 % and 75 %, 3 trials;
- `study-reps/<pipeline>`: one `study-reps` JSON on the same spec,
  4 repetitions at baseline noise 0.5;
- `study-reps-sampled/<pipeline>`: the same at 8 repetitions, where
  C(8, 4) = 70 subsets exceed `evaluation.MAX_SUBSETS`, so the k = 4 row
  refits a seeded sample of them; every study command runs a second time
  with `--jobs 2`, and the script exits with that command line when the
  two outputs differ;
- `truth`: every call path's ground-truth leading exponents
  (`truth_by_callpath`) and its noise-free runtime (`true_time`) at
  `next_test_point`, for `random_spec` seeds 0-119 at m = 1, 2, 3 with
  3 kernels;
- `search`: `render(model)` and the coefficients of the model
  `modeler.fit_skeleton_to_time(modeler.search(data, space), data)` on
  3,000 seeded one-parameter datasets: 3-, 5- and 7-point grids, each
  arithmetic or geometric, with exact, noisy (up to +30 %) or constant
  targets; the exact and noisy ones come from a random member of the
  single-parameter hypothesis family. `search` returns the winning
  skeleton; this fits it to the same data, as the classic pipeline does;
- `evaluate`: `pmnf.evaluate` of 3,000 seeded random models (m = 1-3, up
  to three terms, a fifth of them with a (p-1)/p factor) at 4 random
  non-integer coordinates each. The study lines reach `evaluate` only at
  integer test points, where numpy's and Python's float powers agree; off
  them the two can differ in the last bit, so this line pins the route.

It takes about a minute on a 2-core machine.
"""

import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from perfprior import benchgen, cli, evaluation, modeler, pmnf
from perfprior.dataset import ParameterSpace

PIPELINES = ("classic", "swc")
PATTERNS = ("uniform", "truncated_normal", "scaled_poisson", "scaled_exponential")
MODEL_SEEDS = {1: range(120), 2: range(120), 3: range(40)}
TRUTH_SEEDS = range(120)
INJECT_SEEDS = range(40)
SEARCH_DATASETS = 3000
EVALUATE_MODELS = 3000
PINNED = Path(__file__).with_name("identity_digest.txt")


def run(*argv) -> str:
    """Run one CLI command in-process and return its stdout."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    if code != 0:
        sys.exit(f"perfprior {' '.join(map(str, argv))} exited {code}")
    return out.getvalue()


def generate_digest(work: Path) -> str:
    digest = hashlib.sha256()
    for m in (1, 2, 3):
        for kernels in (1, 2, 3):
            for seed in range(40):
                out = work / f"gen_{m}_{kernels}_{seed}"
                run("generate", "--seed", seed, "--params", m, "--count", 1,
                    "--kernels", kernels, "--out", out)
                digest.update((out / "spec_000.json").read_bytes())
    return digest.hexdigest()


def model_digests(work: Path) -> dict[str, str]:
    digests = {p: hashlib.sha256() for p in PIPELINES}
    simulated = hashlib.sha256()
    spec, exp, noisy = work / "spec.json", work / "exp.json", work / "noisy.json"
    for m, seeds in MODEL_SEEDS.items():
        for seed in seeds:
            benchgen.save_spec(benchgen.random_spec(seed, m, 2), spec)
            run("simulate", "--spec", spec, "--reps", 5, "--seed", seed,
                "--out", exp)
            simulated.update(exp.read_bytes())
            run("inject", "--experiment", exp, "--pattern", "uniform",
                "--intensity", 50, "--seed", seed, "--out", noisy)
            for p in PIPELINES:
                report = run("model", "--experiment", noisy, "--pipeline", p,
                             "--format", "machine")
                digests[p].update(report.encode())
    return {"simulate": simulated.hexdigest()} | {
        f"model/{p}": d.hexdigest() for p, d in digests.items()
    }


def inject_digest(work: Path) -> str:
    digest = hashlib.sha256()
    spec, exp, noisy = work / "spec.json", work / "exp.json", work / "noisy.json"
    for seed in INJECT_SEEDS:
        benchgen.save_spec(benchgen.random_spec(seed, 2, 2), spec)
        run("simulate", "--spec", spec, "--reps", 5, "--baseline-noise", 0.5,
            "--seed", seed, "--out", exp)
        for pattern in PATTERNS:
            run("inject", "--experiment", exp, "--pattern", pattern,
                "--intensity", 75, "--selection", 0.5, "--seed", seed,
                "--out", noisy)
            digest.update(noisy.read_bytes())
    return digest.hexdigest()


def study_sha(out: Path, *argv) -> str:
    """Run one study command at --jobs 1 and 2; the sha256 of its output,
    which must not depend on the parallelism degree."""
    outputs = []
    for jobs in (1, 2):
        run(*argv, "--jobs", jobs, "--out", out)
        outputs.append(out.read_bytes())
    if outputs[0] != outputs[1]:
        sys.exit(f"perfprior {' '.join(map(str, argv))}: output differs "
                 "between --jobs 1 and --jobs 2")
    return hashlib.sha256(outputs[0]).hexdigest()


def study_digests(work: Path) -> dict[str, str]:
    spec, out = work / "study_spec.json", work / "study.json"
    benchgen.save_spec(benchgen.random_spec(1, 2, 2), spec)
    digests = {}
    for p in PIPELINES:
        for pattern in PATTERNS:
            digests[f"study-noise/{p}/{pattern}"] = study_sha(
                out, "study-noise", "--spec", spec, "--pipeline", p,
                "--intensities", "10,75", "--patterns", pattern,
                "--trials", 3, "--seed", 7,
            )
        for name, reps in (("study-reps", 4), ("study-reps-sampled", 8)):
            digests[f"{name}/{p}"] = study_sha(
                out, "study-reps", "--spec", spec, "--pipeline", p,
                "--reps", reps, "--seed", 7,
            )
    return digests


def truth_digest() -> str:
    digest = hashlib.sha256()
    for m in (1, 2, 3):
        for seed in TRUTH_SEEDS:
            spec = benchgen.random_spec(seed, m, 3)
            point = evaluation.next_test_point(spec.space)
            for name, lead in benchgen.truth_by_callpath(spec).items():
                exps = " ".join(f"{p}:{i},{j}" for p, (i, j) in lead.items())
                runtime = benchgen.true_time(spec, name, point).hex()
                digest.update(f"{name} {exps} {runtime}\n".encode())
    return digest.hexdigest()


def search_dataset(seed: int):
    """One seeded m=1 search input: (data, space)."""
    rng = np.random.default_rng(seed)
    points = (3, 5, 7)[seed % 3]
    if seed // 3 % 2:
        ratio = float(rng.integers(2, 4))
        values = float(rng.integers(1, 9)) * ratio ** np.arange(points)
    else:
        values = float(rng.integers(1, 65)) + rng.integers(1, 33) * np.arange(points)
    space = ParameterSpace(("x",), (tuple(values),))
    kind = seed // 6 % 3
    if kind == 2:
        y = np.full(points, rng.uniform(1, 50))
    else:
        family = modeler.single_param_hypotheses("x")
        skel = family[rng.integers(len(family))]
        a = pmnf.design_matrix(skel, values[:, None])
        y = a @ (10.0 ** rng.uniform(-2, 2, size=skel.size) / np.abs(a).max(axis=0))
        if kind == 1:
            y = y * (1.0 + 0.3 * rng.uniform(0, 1, size=points))
    return {(v,): float(t) for v, t in zip(space.values[0], y)}, space


def search_digest() -> str:
    digest = hashlib.sha256()
    for seed in range(SEARCH_DATASETS):
        data, space = search_dataset(seed)
        model = modeler.fit_skeleton_to_time(modeler.search(data, space), data)
        line = " ".join([pmnf.render(model)] + [c.hex() for c in model.coefficients])
        digest.update(f"{line}\n".encode())
    return digest.hexdigest()


def random_model(seed: int) -> pmnf.PmnfModel:
    """One seeded model on m = 1-3 parameters with up to three terms."""
    rng = np.random.default_rng(seed)
    names = ("p", "n", "q")[: 1 + seed % 3]
    i_set, j_set = pmnf.default_exponent_sets()
    terms = {}  # a repeated basis keeps its first place and its last coefficient
    for _ in range(rng.integers(0, 4)):
        exponents = [(rng.choice(i_set), int(rng.choice(j_set))) for _ in names]
        fraction = "p" if rng.uniform() < 0.2 else None
        if fraction or any(i or j for i, j in exponents):
            terms[pmnf.BasisFunction(exponents, fraction)] = 10.0 ** rng.uniform(-3, 3)
    skel = pmnf.Skeleton(names, (pmnf.constant_basis(len(names)), *terms))
    return pmnf.PmnfModel(skel, (rng.uniform(-10, 10), *terms.values()))


def evaluate_digest() -> str:
    digest = hashlib.sha256()
    for seed in range(EVALUATE_MODELS):
        model = random_model(seed)
        rng = np.random.default_rng([seed, 1])
        for _ in range(4):
            at = tuple(rng.uniform(1, 1e4, size=len(model.skeleton.space_names)))
            digest.update(f"{pmnf.evaluate(model, at).hex()}\n".encode())
    return digest.hexdigest()


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        digests = {"generate": generate_digest(work)}
        digests.update(model_digests(work))
        digests["inject"] = inject_digest(work)
        digests.update(study_digests(work))
    digests["truth"] = truth_digest()
    digests["search"] = search_digest()
    digests["evaluate"] = evaluate_digest()
    for name, value in digests.items():
        print(f"{value}  {name}")
    lines = PINNED.read_text().splitlines()
    pinned = {name: value for value, name in (line.split("  ", 1) for line in lines)}
    changed = [
        name for name in {**pinned, **digests} if pinned.get(name) != digests.get(name)
    ]
    if changed:
        sys.exit(f"differs from {PINNED.name}: {', '.join(changed)}")


if __name__ == "__main__":
    main()

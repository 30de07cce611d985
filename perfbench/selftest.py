#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs the program once per output kind on small seeded inputs, shows that
the genuine outputs pass their checks, then feeds each check a corrupted
copy and shows that it rejects it: a flipped exponent, an SWC structure
that differs between two noise draws of one spec, a coefficient nudged off
the normal equations, a non-zero SWC exponent-deviation row and a wrong
trial count. Exits 1 if any genuine output is rejected or any corrupted
one accepted. Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import shutil
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 7


def _cli(cli, argv: list[str], out: Path) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv + ["--out", str(out)])
    if rc != 0:
        raise SystemExit(f"selftest: {argv[0]} exited {rc}")
    return json.loads(out.read_bytes())


def _largest_term(entry: dict, names: list[str], coords) -> int:
    """Index of the term contributing most to the fitted values."""
    import numpy as np

    from checks import term_column

    sizes = [
        abs(t["coefficient"]) * np.linalg.norm(term_column(t, names, coords))
        for t in entry["terms"]
    ]
    return int(np.argmax(sizes))


def _refit(entry: dict, names: list[str], coords, y) -> None:
    """Least-squares coefficients of the entry's terms, set in place."""
    import numpy as np

    from checks import term_column

    a = np.stack(
        [np.ones(len(y))] + [term_column(t, names, coords) for t in entry["terms"]],
        axis=1,
    )
    norms = np.linalg.norm(a, axis=0)
    coef = np.linalg.lstsq(a / norms, y, rcond=None)[0] / norms
    entry["constant"] = float(coef[0])
    for term, c in zip(entry["terms"], coef[1:]):
        term["coefficient"] = float(c)


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(HERE.parent / "src"))
    from perfprior import benchgen, cli
    from perfprior.dataset import save_experiment
    from perfprior.noise import NoiseConfig, NoisePattern, inject

    from checks import (
        CheckError,
        check_model_report,
        check_noise_study,
        check_reps_study,
        check_same_structure,
        leading_of_terms,
        median_times,
        structure,
    )

    work = HERE / ".work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        spec = benchgen.random_spec(SEED, 3, 2)
        exact = benchgen.simulate_measurements(spec, 5, 0.0, SEED)
        docs, reports = [], []
        for draw in range(2):
            exp = inject(exact, NoiseConfig(NoisePattern("uniform"), 0.5, 1.0, draw))
            exp_path = work / f"exp_{draw}.json"
            save_experiment(exp, exp_path)
            docs.append(json.loads(exp_path.read_bytes()))
            reports.append({
                p: _cli(cli, ["model", "--experiment", str(exp_path), "--pipeline", p],
                        work / f"report_{draw}_{p}.json")
                for p in ("classic", "swc")
            })
        spec_path = work / "spec.json"
        benchgen.save_spec(benchgen.random_spec(SEED, 2, 2), spec_path)
        noise = _cli(cli, ["study-noise", "--spec", str(spec_path), "--pipeline", "swc",
                           "--intensities", "10,75", "--patterns", "uniform",
                           "--trials", "2", "--seed", str(SEED)], work / "noise.json")
        reps = _cli(cli, ["study-reps", "--spec", str(spec_path), "--pipeline", "swc",
                          "--seed", str(SEED)], work / "reps.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    exp_doc = docs[1]
    reference = structure(reports[0]["swc"])

    def check_swc(report):
        check_model_report(report, exp_doc, "swc")
        check_same_structure(report, reference)

    checks = {
        "swc report": check_swc,
        "classic report": lambda r: check_model_report(r, exp_doc, "classic"),
        "noise study": lambda t: check_noise_study(t, "swc", [10.0, 75.0], ["uniform"], 2),
        "reps study": lambda t: check_reps_study(t, "swc", 5),
    }
    genuine = {
        "swc report": reports[1]["swc"],
        "classic report": reports[1]["classic"],
        "noise study": noise,
        "reps study": reps,
    }
    names = [p["name"] for p in exp_doc["parameters"]]
    times = median_times(exp_doc)

    def flip_leading(report):
        entry = report["callpaths"][0]
        i, j = entry["leading_exponents"][names[0]]
        entry["leading_exponents"][names[0]] = [str(Fraction(i) + 1), j]

    def flip_term_exponent(report):
        # the report stays self-consistent: its leading exponents follow
        # the flipped term, so only the normal equations can tell
        entry = report["callpaths"][0]
        k = _largest_term(entry, names, times[entry["name"]][0])
        i, j = entry["terms"][k]["exponents"][0]
        entry["terms"][k]["exponents"][0] = [str(Fraction(i) + 1), j]
        _set_leading(entry)

    def wrong_structure(report):
        # drop a leading term and refit: the coefficients satisfy the
        # normal equations, so only the other noise draw can tell
        for entry in report["callpaths"]:
            lead = leading_of_terms(entry, len(names))
            for k in range(len(entry["terms"])):
                trial = copy.deepcopy(entry)
                del trial["terms"][k]
                if leading_of_terms(trial, len(names)) != lead:
                    coords, y = times[entry["name"]]
                    _refit(trial, names, coords, y)
                    _set_leading(trial)
                    entry.clear()
                    entry.update(trial)
                    return
        raise SystemExit("selftest: no term decides a leading exponent")

    def _set_leading(entry):
        entry["leading_exponents"] = {
            n: [str(i), j]
            for n, (i, j) in zip(names, leading_of_terms(entry, len(names)))
        }

    def nudge_coefficient(report):
        for entry in report["callpaths"]:
            if entry["terms"]:
                k = _largest_term(entry, names, times[entry["name"]][0])
                entry["terms"][k]["coefficient"] *= 1 + 1e-6
                return
        raise SystemExit("selftest: no report term to nudge")

    def nonzero_ed(table):
        table["rows"][-1]["mean_ed"] = 0.25

    def ed_spread(table):
        table["rows"][0]["std_ed"] = 0.125

    def wrong_trials(table):
        table["rows"][0]["trials"] += 1

    corruptions = [
        ("swc report", "flipped leading exponent", flip_leading),
        ("swc report", "flipped term exponent", flip_term_exponent),
        ("classic report", "flipped term exponent", flip_term_exponent),
        ("swc report", "refitted structure unlike the other draw's", wrong_structure),
        ("swc report", "coefficient nudged by 1e-6", nudge_coefficient),
        ("classic report", "coefficient nudged by 1e-6", nudge_coefficient),
        ("noise study", "non-zero SWC ED row", nonzero_ed),
        ("reps study", "non-zero SWC ED row", nonzero_ed),
        ("noise study", "SWC ED spread across trials", ed_spread),
        ("noise study", "wrong trial count", wrong_trials),
        ("reps study", "wrong trial count", wrong_trials),
    ]

    bad = 0
    for kind, doc in genuine.items():
        try:
            checks[kind](doc)
            print(f"accepted  genuine {kind}")
        except CheckError as exc:
            print(f"REJECTED  genuine {kind}: {exc}")
            bad += 1
    for kind, label, corrupt in corruptions:
        doc = copy.deepcopy(genuine[kind])
        corrupt(doc)
        try:
            checks[kind](doc)
            print(f"ACCEPTED  {kind} with {label}")
            bad += 1
        except CheckError as exc:
            print(f"rejected  {kind} with {label}: {exc}")
    print("selftest " + ("failed" if bad else "passed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks computed apart from the program under test.

Every check reads the program's JSON output as plain data and recomputes
what it can on its own: the design matrix of a reported model from its
exponents, logs and (p-1)/p factor, the least-squares normal equations
against the per-coordinate median of the input times (read from the input
file with `json`, not with the program's reader), the leading exponents
of the reported terms, and the row layout a study must have.

SWC outputs are also checked for the paper's invariance: their structure
comes from noise-free effort data, so two noise draws of one spec give the
same SWC structure, and every SWC row of a study has the same exponent
deviation (ED) with zero spread. Equality with the generator's ground
truth is not a pass/fail check: the effort-metric search misses it on a
few specs even without noise (about 1 in 80 m=3 specs and 1 in 400 m=2
specs), so such a check would fail on some seeds only. Mismatches are
counted instead (truth_mismatches, swc_ed) and reported with the result.

A failed check raises CheckError.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

# Relative size of the normal-equation residual A^T (y - A c) that a
# least-squares solution may leave: rounding the coefficients to doubles
# alone leaves about 1e-16, and a wrong coefficient leaves far more.
NORMAL_EQ_TOL = 1e-9

# Equal per-trial EDs may still average to a spread of a few ulps; a
# different structure moves ED by at least the smallest exponent step
# (1/12) over the number of call paths and parameters, which is far more.
ED_TOL = 1e-12


class CheckError(Exception):
    """An output of the program failed a check."""


def median_times(experiment_doc: dict) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per call path: (coordinates (N, m), median time per coordinate)."""
    out = {}
    for cp in experiment_doc["callpaths"]:
        records = cp["metrics"]["time_s"]
        coords = np.array([r["coordinate"] for r in records], dtype=float)
        reps = np.array([r["repetitions"] for r in records], dtype=float)
        out[cp["name"]] = (coords, np.median(reps, axis=1))
    return out


def _expo(pair) -> tuple[Fraction, int]:
    i, j = pair
    return Fraction(i), int(j)


def term_column(term: dict, names: list[str], coords: np.ndarray) -> np.ndarray:
    """Values of one reported term's basis at every coordinate."""
    col = np.ones(coords.shape[0])
    for axis, pair in enumerate(term["exponents"]):
        i, j = _expo(pair)
        x = coords[:, axis]
        if i:
            col = col * np.power(x, i.numerator / i.denominator)
        if j:
            col = col * np.log2(x) ** j
    if term["ranks_fraction"] is not None:
        p = coords[:, names.index(term["ranks_fraction"])]
        col = col * (p - 1.0) / p
    return col


def normal_equation_residual(
    entry: dict, names: list[str], coords: np.ndarray, y: np.ndarray
) -> float:
    """Largest relative |a_k^T (y - A c)| over the model's basis columns."""
    cols = [np.ones(coords.shape[0])]
    cols += [term_column(t, names, coords) for t in entry["terms"]]
    a = np.stack(cols, axis=1)
    c = np.array([entry["constant"]] + [t["coefficient"] for t in entry["terms"]])
    a_ld = a.astype(np.longdouble)
    r = y.astype(np.longdouble) - a_ld @ c.astype(np.longdouble)
    norms = np.linalg.norm(a, axis=0)
    scale = norms * (np.linalg.norm(y) + np.sum(np.abs(c) * norms))
    rel = np.abs(np.asarray(a_ld.T @ r, dtype=float)) / scale
    return float(rel.max())


def leading_of_terms(entry: dict, m: int) -> list[tuple[Fraction, int]]:
    """Per parameter: max monomial exponent, then max log exponent at it."""
    terms = [[_expo(p) for p in t["exponents"]] for t in entry["terms"]]
    lead = []
    for axis in range(m):
        if not terms:
            lead.append((Fraction(0), 0))
            continue
        i_star = max(t[axis][0] for t in terms)
        j_star = max(t[axis][1] for t in terms if t[axis][0] == i_star)
        lead.append((i_star, j_star))
    return lead


def check_model_report(report: dict, experiment_doc: dict, pipeline: str) -> None:
    """Check one `perfprior model` report against its input file."""
    names = [p["name"] for p in experiment_doc["parameters"]]
    times = median_times(experiment_doc)
    if report.get("format_version") != 1 or report.get("pipeline") != pipeline:
        raise CheckError("report header does not match the request")
    got = [e["name"] for e in report["callpaths"]]
    if got != list(times):
        raise CheckError(f"report call paths {got} differ from the input's")
    for entry in report["callpaths"]:
        name = entry["name"]
        reported = [_expo(entry["leading_exponents"][n]) for n in names]
        if reported != leading_of_terms(entry, len(names)):
            raise CheckError(f"{name}: leading exponents disagree with the terms")
        coords, y = times[name]
        worst = normal_equation_residual(entry, names, coords, y)
        if not worst <= NORMAL_EQ_TOL:
            raise CheckError(
                f"{name}: coefficients miss the normal equations by {worst:.3g}"
            )


def structure(report: dict) -> dict:
    """Per call path: the coefficient-free term list of the reported model."""
    return {
        e["name"]: sorted(
            (tuple(_expo(p) for p in t["exponents"]), t["ranks_fraction"] or "")
            for t in e["terms"]
        )
        for e in report["callpaths"]
    }


def check_same_structure(report: dict, reference: dict) -> None:
    """An SWC report must have the structure of another noise draw's."""
    got = structure(report)
    for name, terms in reference.items():
        if got.get(name) != terms:
            raise CheckError(f"{name}: SWC structure differs between noise draws")


def truth_mismatches(report: dict, names: list[str], truth: dict) -> list[str]:
    """Call paths whose leading exponents differ from the ground truth."""
    out = []
    for entry in report["callpaths"]:
        reported = [_expo(entry["leading_exponents"][n]) for n in names]
        expected = [_expo(truth[entry["name"]].get(n, (0, 0))) for n in names]
        if reported != expected:
            out.append(entry["name"])
    return out


def _check_study_header(table: dict, study: str, pipeline: str) -> None:
    if (
        table.get("format_version") != 1
        or table.get("study") != study
        or table.get("pipeline") != pipeline
    ):
        raise CheckError("study header does not match the request")


def _check_row(row: dict, level: float, pattern: str, trials: int, swc: bool) -> None:
    if row["level"] != level or row["pattern"] != pattern:
        raise CheckError(f"row {row['level']}/{row['pattern']} is out of place")
    if row["trials"] != trials:
        raise CheckError(
            f"row {level}/{pattern}: {row['trials']} trials, {trials} expected"
        )
    for key in ("mean_ed", "std_ed", "mean_re_pct", "std_re_pct"):
        value = row[key]
        if value is None or not math.isfinite(value) or value < 0:
            raise CheckError(f"row {level}/{pattern}: bad {key} {value!r}")
    if swc and row["std_ed"] > ED_TOL:
        raise CheckError(
            f"SWC row {level}/{pattern} has exponent deviation spread {row['std_ed']}"
        )


def _check_swc_invariance(table: dict) -> None:
    eds = [row["mean_ed"] for row in table["rows"]]
    if max(eds) - min(eds) > ED_TOL:
        raise CheckError(f"SWC rows disagree on exponent deviation: {eds}")


def swc_ed(table: dict) -> float:
    """The exponent deviation every SWC row of a checked study shares."""
    return table["rows"][0]["mean_ed"]


def check_noise_study(
    table: dict,
    pipeline: str,
    intensities: list[float],
    patterns: list[str],
    trials: int,
) -> None:
    """Rows per (intensity, pattern) in order; SWC rows share one ED."""
    _check_study_header(table, "noise", pipeline)
    cells = list(itertools.product(intensities, patterns))
    if len(table["rows"]) != len(cells):
        raise CheckError(f"{len(table['rows'])} rows, {len(cells)} expected")
    for row, (intensity, pattern) in zip(table["rows"], cells):
        _check_row(row, intensity / 100.0, pattern, trials, pipeline == "swc")
    if pipeline == "swc":
        _check_swc_invariance(table)


def check_reps_study(table: dict, pipeline: str, reps: int) -> None:
    """Rows k = 1..reps with comb(reps, k) trials; SWC rows share one ED."""
    _check_study_header(table, "repetitions", pipeline)
    if len(table["rows"]) != reps:
        raise CheckError(f"{len(table['rows'])} rows, {reps} expected")
    for k, row in enumerate(table["rows"], start=1):
        _check_row(row, float(k), "-", math.comb(reps, k), pipeline == "swc")
    if pipeline == "swc":
        _check_swc_invariance(table)

"""Independent brute-force oracle for the hypothesis search.

A deliberately naive re-implementation used to cross-check
`perfprior.modeler`: designs are built element by element, every fold is
refit with a plain SVD solve, and the family is enumerated from the
exponent sets directly. Scores below the search's SCORE_FLOOR count as
exact fits, and ties break on the same structural order, so both pick the
same skeleton.
"""

import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from perfprior.dataset import Coordinate, ParameterSpace
from perfprior.errors import ValidationError
from perfprior.modeler import SCORE_FLOOR
from perfprior.pmnf import Expo, PmnfModel, Term, default_exponent_sets


def _snap(score: float) -> float:
    return 0.0 if score < SCORE_FLOOR else float(score)


def _oracle_basis_value(exps: Sequence[Expo], coord: Coordinate) -> float:
    v = 1.0
    for x, (i, j) in zip(coord, exps):
        if i != 0:
            v *= float(x) ** (i.numerator / i.denominator)
        if j != 0:
            v *= math.log2(x) ** j
    return v


def _oracle_matrix(bases: Sequence[tuple[Expo, ...]], coords) -> np.ndarray:
    a = np.array(
        [[_oracle_basis_value(b, c) for b in bases] for c in coords], dtype=float
    )
    # normalize columns (max-abs) so lstsq's rank cutoff cannot drop the
    # constant next to a 1e16-scale term column
    peaks = np.abs(a).max(axis=0)
    return a / np.where(peaks > 0, peaks, 1.0)


def _oracle_cv(bases: Sequence[tuple[Expo, ...]], coords, y) -> float:
    n = len(coords)
    a = _oracle_matrix(bases, coords)
    total = 0.0
    for hold in range(n):
        keep = [r for r in range(n) if r != hold]
        coef = np.linalg.lstsq(a[keep], y[keep], rcond=None)[0]
        pred = float(a[hold] @ coef)
        denom = abs(y[hold]) + abs(pred)
        if denom > 0:
            total += abs(pred - y[hold]) / denom
    return total / n


def _oracle_key(bases: Sequence[tuple[Expo, ...]]) -> tuple:
    total_i = sum((i for b in bases for i, _ in b), Fraction(0))
    total_j = sum(j for b in bases for _, j in b)
    signature = tuple(
        sorted(
            (sum((i for i, _ in b), Fraction(0)), sum(j for _, j in b), b, "")
            for b in bases
        )
    )
    return (len(bases), total_i, total_j, signature)


def _oracle_single_family(m: int, axis: int) -> list[list[tuple[Expo, ...]]]:
    i_set, j_set = default_exponent_sets()
    zero: tuple[Expo, ...] = tuple(((Fraction(0), 0)) for _ in range(m))
    family = [[zero]]
    for i in i_set:
        for j in j_set:
            if i == 0 and j == 0:
                continue
            exps = [(Fraction(0), 0)] * m
            exps[axis] = (i, j)
            family.append([zero, tuple(exps)])
    return family


def _oracle_best(family, coords, y) -> list[tuple[Expo, ...]]:
    scored = []
    for bases in family:
        s = _oracle_cv(bases, coords, y)
        scored.append(((_snap(s), _oracle_key(bases)), bases))
    return min(scored, key=lambda t: t[0])[1]


def _oracle_model(bases, coords, y, names) -> PmnfModel:
    a = np.array(
        [[_oracle_basis_value(b, c) for b in bases] for c in coords], dtype=float
    )
    peaks = np.abs(a).max(axis=0)
    peaks = np.where(peaks > 0, peaks, 1.0)
    coef = np.linalg.lstsq(a / peaks, y, rcond=None)[0] / peaks
    terms = [
        Term(float(c), b)
        for c, b in zip(coef[1:], bases[1:])
    ]
    return PmnfModel(float(coef[0]), tuple(terms), names)


def exhaustive_oracle(
    data: Mapping[Coordinate, float], family: str, space: ParameterSpace
) -> PmnfModel:
    """Brute-force search over the same family via an independent code path."""
    coords = sorted(data)
    y = np.array([data[c] for c in coords], dtype=float)
    if family == "single":
        if space.m != 1:
            raise ValidationError("single family expects a one-parameter space")
        best = _oracle_best(_oracle_single_family(1, 0), coords, y)
        return _oracle_model(best, coords, y, space.names)
    if family != "multi_restricted":
        raise ValidationError(f"unknown oracle family {family!r}")
    if space.m not in (2, 3):
        raise ValidationError("oracle family too large: m must be 2 or 3")

    best_terms: dict[int, tuple[Expo, ...]] = {}
    for axis in range(space.m):
        family_ax = _oracle_single_family(space.m, axis)
        per_hyp = []
        others = [space.values[l] for l in range(space.m) if l != axis]
        lines = []
        for fixed in itertools.product(*others):
            line_coords = []
            for v in space.values[axis]:
                coord = list(fixed)
                coord.insert(axis, v)
                line_coords.append(tuple(coord))
            lines.append((line_coords, np.array([data[c] for c in line_coords])))
        for bases in family_ax:
            mean = sum(
                _snap(_oracle_cv(bases, lcs, ly)) for lcs, ly in lines
            ) / len(lines)
            per_hyp.append(((_snap(mean), _oracle_key(bases)), bases))
        chosen = min(per_hyp, key=lambda t: t[0])[1]
        if len(chosen) > 1:
            best_terms[axis] = chosen[1]

    zero: tuple[Expo, ...] = tuple(((Fraction(0), 0)) for _ in range(space.m))
    products = []
    axes = sorted(best_terms)
    for size in range(1, len(axes) + 1):
        for subset in itertools.combinations(axes, size):
            exps = [(Fraction(0), 0)] * space.m
            for ax in subset:
                for l, (i, j) in enumerate(best_terms[ax]):
                    exps[l] = (exps[l][0] + i, exps[l][1] + j)
            products.append(tuple(exps))
    candidates = []
    for count in range(0, space.m + 1):
        for chosen in itertools.combinations(products, count):
            candidates.append([zero] + list(chosen))
    best = _oracle_best(candidates, coords, y)
    return _oracle_model(best, coords, y, space.names)

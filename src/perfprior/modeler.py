"""Hypothesis search over the model normal form.

Selection uses leave-one-out cross-validation with the symmetric relative
error |pred - y| / (|y| + |pred|), which is scale-free and bounded by 1
across the many orders of magnitude spanned by time and count metrics.
Scores below SCORE_FLOOR are treated as exact fits, so the choice among
indistinguishable exact fits rests on the structural tie-break alone:
(basis count, sum of monomial exponents, sum of log exponents,
lexicographic signature). The same floor and order apply in the tests'
independent oracle (tests/oracle.py), which makes selection deterministic
end to end.

The search is hierarchical for every parameter count m = 1, 2, 3: a
consensus single-parameter term per parameter (minimal mean score across
the grid lines along its axis), then an enumeration of candidate
skeletons whose non-constant bases are products of the best terms over
non-empty parameter subsets, capped at m + 1 bases. At m = 1 the axis has
one line, the whole data, and the candidates are {1} and {1, best term}.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from . import _core
from .dataset import Coordinate, ParameterSpace
from .errors import InsufficientDataError, ModelingError, ValidationError
from .pmnf import (
    BasisFunction,
    Expo,
    PmnfModel,
    Skeleton,
    constant_basis,
    default_exponent_sets,
    design_matrix,
    model_from_skeleton,
)

SCORE_FLOOR = 1e-12


def _snap(score: float) -> float:
    return 0.0 if score < SCORE_FLOOR else float(score)


def _skeleton_key(skel: Skeleton) -> tuple:
    total_i = Fraction(0)
    total_j = 0
    for b in skel.bases:
        for i, j in b.exponents:
            total_i += i
            total_j += j
    signature = tuple(sorted(b.signature() for b in skel.bases))
    return (len(skel.bases), total_i, total_j, signature)


def _ordered(data: Mapping[Coordinate, float]) -> tuple[np.ndarray, np.ndarray]:
    coords = sorted(data)
    arr = np.array(coords, dtype=float)
    y = np.array([data[c] for c in coords], dtype=float)
    return arr, y


def fit_coefficients(
    skel: Skeleton, data: Mapping[Coordinate, float]
) -> tuple[tuple[float, ...], float]:
    """Least-squares coefficients of a skeleton; returns (coefficients, rss).

    Rank-deficient systems yield the minimum-norm solution. Raises
    ModelingError when a coefficient is not finite (the data overflow).
    """
    if len(data) < skel.size:
        raise InsufficientDataError(
            f"{len(data)} points cannot determine {skel.size} coefficients"
        )
    coords, y = _ordered(data)
    a = design_matrix(skel, coords)
    coef, rss, _ = _core.fit_ols(a, y)
    if not np.isfinite(coef).all():
        raise ModelingError("least-squares fit gave non-finite coefficients")
    return tuple(float(c) for c in coef), rss


@functools.lru_cache(maxsize=64)
def single_param_hypotheses(param: str) -> tuple[Skeleton, ...]:
    """The constant plus one skeleton {1, x^i log2^j(x)} per (i, j) != (0, 0).

    Built once per parameter name; the tuple is shared by every caller.
    """
    i_set, j_set = default_exponent_sets()
    names = (param,)
    out = [Skeleton(names, (constant_basis(1),))]
    for i in i_set:
        for j in j_set:
            if i == 0 and j == 0:
                continue
            out.append(Skeleton(names, (constant_basis(1), BasisFunction(((i, j),)))))
    return tuple(out)


@functools.lru_cache(maxsize=64)
def _family_keys(param: str) -> tuple[tuple, ...]:
    """Structural tie-break keys of single_param_hypotheses(param), in order."""
    return tuple(_skeleton_key(skel) for skel in single_param_hypotheses(param))


def _loo_scores(
    coords: np.ndarray, skels: Sequence[Skeleton], ys: Sequence[np.ndarray]
) -> np.ndarray:
    """Score every skeleton on every target vector sharing the coordinates.

    Skeletons of one size share a stack, and all targets are scored in one
    batched LOO call per size.
    """
    by_size: dict[int, list[int]] = {}
    for idx, skel in enumerate(skels):
        by_size.setdefault(skel.size, []).append(idx)
    targets = np.array(ys)
    scores = np.empty((len(skels), len(targets)))
    for idxs in by_size.values():
        stack = np.stack([design_matrix(skels[idx], coords) for idx in idxs])
        scores[idxs] = _core.loo_cv_batch(stack, targets)
    return scores


def _select(
    skels: Sequence[Skeleton], scores: Sequence[float], keys: Sequence[tuple]
) -> tuple[Skeleton, float]:
    best = min(range(len(skels)), key=lambda idx: (_snap(scores[idx]), keys[idx]))
    return skels[best], _snap(scores[best])


def _combine_exponents(
    terms: Mapping[int, tuple[Expo, ...]], subset: Sequence[int], m: int
) -> tuple[Expo, ...]:
    exps: list[Expo] = [(Fraction(0), 0)] * m
    for axis in subset:
        for l, (i, j) in enumerate(terms[axis]):
            old_i, old_j = exps[l]
            exps[l] = (old_i + i, old_j + j)
    return tuple(exps)


def _candidates(
    space: ParameterSpace, best_terms: Mapping[int, tuple[Expo, ...]]
) -> list[Skeleton]:
    """All skeletons over products of per-parameter best terms, <= m+1 bases."""
    m = space.m
    axes = sorted(best_terms)
    products = []
    for size in range(1, len(axes) + 1):
        for subset in itertools.combinations(axes, size):
            products.append(_combine_exponents(best_terms, subset, m))
    const = constant_basis(m)
    candidates = []
    for count in range(0, m + 1):
        for chosen in itertools.combinations(products, count):
            bases = (const,) + tuple(BasisFunction(e) for e in chosen)
            candidates.append(Skeleton(space.names, bases))
    return candidates


def search(data: Mapping[Coordinate, float], space: ParameterSpace) -> PmnfModel:
    """Hierarchical search over the full grid; see module docstring."""
    if space.m not in (1, 2, 3):
        raise ValidationError("hypothesis search supports m in {1, 2, 3}")
    grid = space.grid()
    if set(data) != set(grid):
        raise ValidationError("hypothesis search requires the full grid")
    if space.m == 1 and len(space.values[0]) < 3:
        raise InsufficientDataError("need at least 3 distinct parameter values")

    y = np.array([data[c] for c in grid], dtype=float)
    cube = y.reshape([len(vs) for vs in space.values])
    best_terms: dict[int, tuple[Expo, ...]] = {}
    for axis in range(space.m):
        hyps = single_param_hypotheses(space.names[axis])
        axis_coords = np.array(space.values[axis], dtype=float)[:, None]
        # every grid line along the axis, the other axes in grid order
        lines = np.moveaxis(cube, axis, -1).reshape(-1, len(space.values[axis]))
        line_scores = _loo_scores(axis_coords, hyps, lines)
        line_scores[line_scores < SCORE_FLOOR] = 0.0
        winner, _ = _select(
            hyps, line_scores.mean(axis=1), _family_keys(space.names[axis])
        )
        if winner.size > 1:
            (i, j) = winner.bases[1].exponents[0]
            exps: list[Expo] = [(Fraction(0), 0)] * space.m
            exps[axis] = (i, j)
            best_terms[axis] = tuple(exps)

    candidates = _candidates(space, best_terms)
    scores = _loo_scores(np.array(grid, dtype=float), candidates, [y])[:, 0]
    winner, _ = _select(candidates, scores, [_skeleton_key(c) for c in candidates])
    return fit_skeleton_to_time(winner, data)


def fit_skeleton_to_time(
    skel: Skeleton, time_data: Mapping[Coordinate, float]
) -> PmnfModel:
    """Bind a prior's coefficients to time measurements (structure fixed)."""
    coef, _ = fit_coefficients(skel, time_data)
    return model_from_skeleton(skel, coef)

"""Hypothesis search over the model normal form.

Selection uses leave-one-out cross-validation with the symmetric relative
error |pred - y| / (|y| + |pred|), which is scale-free and bounded by 1
across the many orders of magnitude spanned by time and count metrics.

Both stages of the search select by one rule (`_best`): scores below
SCORE_FLOOR count as exact fits (0), per line and again after averaging
over lines, and the tie among the hypotheses at the least mean goes to
the structurally simplest: (basis count, sum of monomial exponents, sum
of log exponents, lexicographic signature). The tests' independent
oracle (tests/oracle.py) applies the same floor and order.

The search is hierarchical for every parameter count m = 1, 2, 3: one
single-parameter term per parameter, scored on the grid lines along its
axis, then candidate skeletons whose non-constant bases are products of
those terms over non-empty parameter subsets, capped at m + 1 bases. At
m = 1 the axis has one line, the whole data, and the candidates are {1}
and {1, best term}. Every parameter needs at least 3 values: with 2,
every leave-one-out fold of a two-basis line is underdetermined.
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


def _best(
    coords: np.ndarray, skels: Sequence[Skeleton], lines: np.ndarray
) -> Skeleton:
    """The winner over (L, N) target lines sharing the coordinates, scored in
    one batched LOO call per skeleton size. NaN scores (non-finite folds)
    never win; raises ModelingError when every skeleton scores NaN."""
    by_size: dict[int, list[int]] = {}
    for idx, skel in enumerate(skels):
        by_size.setdefault(skel.size, []).append(idx)
    scores = np.empty((len(skels), len(lines)))
    for idxs in by_size.values():
        stack = np.stack([design_matrix(skels[idx], coords) for idx in idxs])
        scores[idxs] = _core.loo_cv_batch(stack, lines)
    scores[scores < SCORE_FLOOR] = 0.0
    means = scores.mean(axis=1)
    means[means < SCORE_FLOOR] = 0.0
    if np.isnan(means).all():
        raise ModelingError("every hypothesis scores non-finite: the data overflow")
    tied = np.flatnonzero(means == np.nanmin(means))
    return min((skels[idx] for idx in tied), key=_skeleton_key)


def _candidates(space: ParameterSpace, best: Mapping[int, Expo]) -> list[Skeleton]:
    """All skeletons over products of per-parameter best terms, <= m+1 bases."""
    absent: Expo = (Fraction(0), 0)
    products = [
        BasisFunction(
            tuple(best[axis] if axis in subset else absent for axis in range(space.m))
        )
        for size in range(1, len(best) + 1)
        for subset in itertools.combinations(sorted(best), size)
    ]
    const = constant_basis(space.m)
    return [
        Skeleton(space.names, (const,) + chosen)
        for count in range(space.m + 1)
        for chosen in itertools.combinations(products, count)
    ]


def search(data: Mapping[Coordinate, float], space: ParameterSpace) -> PmnfModel:
    """Hierarchical search over the full grid; see module docstring."""
    if space.m not in (1, 2, 3):
        raise ValidationError("hypothesis search supports m in {1, 2, 3}")
    grid = space.grid()
    if set(data) != set(grid):
        raise ValidationError("hypothesis search requires the full grid")
    for name, values in zip(space.names, space.values):
        if len(values) < 3:
            raise InsufficientDataError(f"parameter {name!r} needs at least 3 values")

    y = np.array([data[c] for c in grid], dtype=float)
    cube = y.reshape([len(vs) for vs in space.values])
    best: dict[int, Expo] = {}
    for axis, (name, values) in enumerate(zip(space.names, space.values)):
        # every grid line along the axis, the other axes in grid order
        lines = np.moveaxis(cube, axis, -1).reshape(-1, len(values))
        axis_coords = np.array(values, dtype=float)[:, None]
        winner = _best(axis_coords, single_param_hypotheses(name), lines)
        if winner.size > 1:
            best[axis] = winner.bases[1].exponents[0]

    winner = _best(np.array(grid, dtype=float), _candidates(space, best), y[None])
    return fit_skeleton_to_time(winner, data)


def fit_skeleton_to_time(
    skel: Skeleton, time_data: Mapping[Coordinate, float]
) -> PmnfModel:
    """Bind a prior's coefficients to time measurements (structure fixed)."""
    coef, _ = fit_coefficients(skel, time_data)
    return model_from_skeleton(skel, coef)

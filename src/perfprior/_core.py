"""Numerical core: least-squares fitting and leave-one-out scoring.

Leave-one-out scoring is the hot path of hypothesis search. It solves the
normal equations of every fold of every hypothesis, for every target
vector, in one batched numpy call; hypotheses whose folds are
rank-deficient are rescored on the exact per-fold SVD route, which is also
the one used for final coefficients. Both routes reduce their fold
predictions through one error, `_loo_error`, in which a non-finite
prediction or target makes the score NaN rather than an exact fit. A
hypothesis whose design overflowed is never rescored and keeps a NaN score.
"""

from __future__ import annotations

import numpy as np

# Names the numerical path for reports that record it next to their figures.
BACKEND = "numpy"

# Square of the smallest acceptable Cholesky pivot of a column-scaled
# normal system; below this the fold is treated as rank-deficient.
PIVOT_GUARD = 1e-10

_REFINE_STEPS = 2


def column_scaled(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale columns to unit 2-norm; zero columns are left untouched. A
    finite column whose sum of squares overflows is divided by its peak
    magnitude before its norm is taken."""
    norms = np.sqrt(np.einsum("...nk,...nk->...k", a, a))
    if not np.isfinite(norms).all():
        over = ~np.isfinite(norms) & np.isfinite(a).all(axis=-2)
        peak = np.where(over, np.abs(a).max(axis=-2), 1.0)
        rescued = peak * np.linalg.norm(a / peak[..., None, :], axis=-2)
        norms = np.where(over, rescued, norms)
    norms = np.where(norms > 0, norms, 1.0)
    return a / norms[..., None, :], norms


def fit_ols(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients for a (N, k) design matrix.

    Full-rank systems are solved column-scaled with iterative refinement
    (extended-precision residuals), which keeps small coefficients accurate
    next to terms that are many orders of magnitude larger. Rank-deficient
    systems return the minimum-norm solution in the original coordinates.
    An overflowed (non-finite) design gives NaN coefficients without
    reaching LAPACK, which rejects it.
    """
    a = np.asarray(a, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not np.isfinite(a).all():
        return np.full(a.shape[1], np.nan)
    scaled, norms = column_scaled(a)
    coef_s, _, rank, _ = np.linalg.lstsq(scaled, y, rcond=None)
    if rank < a.shape[1]:
        return np.linalg.lstsq(a, y, rcond=None)[0]
    # residuals against the original matrix, rescaled in extended precision:
    # the double rounding of `scaled` is exactly the error being refined away
    a_ld = a.astype(np.longdouble) / norms.astype(np.longdouble)
    y_ld = y.astype(np.longdouble)
    best = coef_s.astype(np.longdouble)
    best_res = y_ld - a_ld @ best
    best_norm = float(np.sqrt(np.sum(best_res * best_res)))
    current = best
    residual = best_res
    for _ in range(_REFINE_STEPS):
        delta, _, _, _ = np.linalg.lstsq(scaled, np.asarray(residual, dtype=np.float64), rcond=None)
        current = current + delta.astype(np.longdouble)
        residual = y_ld - a_ld @ current
        norm = float(np.sqrt(np.sum(residual * residual)))
        if norm < best_norm:
            best, best_norm = current, norm
    return np.asarray(best / norms.astype(np.longdouble), dtype=np.float64)


def _loo_error(pred: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean symmetric relative error |pred - y| / (|y| + |pred|) over the
    last (fold) axis of pred; y broadcasts against pred. A 0/0 fold counts
    0; a NaN or inf fold makes the mean NaN."""
    denom = np.abs(y) + np.abs(pred)
    err = np.zeros_like(pred)
    np.divide(np.abs(pred - y), denom, out=err, where=denom != 0)
    return err.mean(axis=-1)


def loo_cv_slow(a: np.ndarray, y: np.ndarray) -> float:
    """Per-fold SVD leave-one-out score; handles rank-deficient folds."""
    n = a.shape[0]
    pred = np.empty(n)
    for i in range(n):
        mask = np.arange(n) != i
        coef, _, _, _ = np.linalg.lstsq(a[mask], y[mask], rcond=None)
        pred[i] = a[i] @ coef
    return float(_loo_error(pred, y))


def _pivots_ok(gram_folds: np.ndarray) -> np.ndarray:
    """Per hypothesis of (H, N, k, k) fold Grams: do all folds pass the guard?"""
    try:
        chol = np.linalg.cholesky(gram_folds)
    except np.linalg.LinAlgError:
        # one indefinite fold fails the whole batch: check hypotheses alone
        if len(gram_folds) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_pivots_ok(folds[None]) for folds in gram_folds])
    pivots = np.diagonal(chol, axis1=-2, axis2=-1) ** 2
    return pivots.reshape(len(gram_folds), -1).min(axis=1) >= PIVOT_GUARD


def loo_cv_batch(a_stack: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Leave-one-out scores for hypotheses sharing the same coordinates.

    a_stack: (H, N, k) raw design matrices; ys: (N,) targets, or (L, N) for
    L target vectors scored against the same designs. Returns (H,) or
    (H, L) mean symmetric relative errors. Columns are scaled to unit norm
    first; hypotheses with rank-deficient folds are rescored exactly. Each
    target's scores equal those of a call with that target alone, bit for
    bit: every fold system is solved with one right-hand side, and the
    einsums only add an outer target axis to the one-target reductions.
    """
    a_stack = np.ascontiguousarray(a_stack, dtype=np.float64)
    ys = np.ascontiguousarray(ys, dtype=np.float64)
    targets = np.atleast_2d(ys)
    scaled, _ = column_scaled(a_stack)
    # the fold Grams and the pivot check depend on the designs alone
    gram = scaled.transpose(0, 2, 1) @ scaled
    gram_folds = gram[:, None, :, :] - np.einsum("hni,hnj->hnij", scaled, scaled)
    ok = _pivots_ok(gram_folds)
    scores = np.full((len(scaled), len(targets)), np.nan)
    if ok.any():
        a_ok = scaled[ok]
        rhs = np.einsum("hnk,ln->lhk", a_ok, targets)
        rhs_folds = rhs[:, :, None, :] - a_ok[None] * targets[:, None, :, None]
        coef = np.linalg.solve(gram_folds[ok], rhs_folds[..., None])[..., 0]
        pred = np.einsum("hnk,lhnk->lhn", a_ok, coef)
        scores[ok] = _loo_error(pred, targets[:, None, :]).T
    for hi in np.nonzero(~ok)[0]:
        if not np.isfinite(scaled[hi]).all():
            continue  # an overflowed design: LAPACK cannot take it
        for col, y in enumerate(targets):
            scores[hi, col] = loo_cv_slow(scaled[hi], y)
    return scores[:, 0] if ys.ndim == 1 else scores

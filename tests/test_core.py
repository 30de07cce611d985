import numpy as np
import pytest

from perfprior._core import (
    _pivots_ok,
    column_scaled,
    fit_ols,
    loo_cv_batch,
    loo_cv_slow,
)
from perfprior.modeler import SCORE_FLOOR, single_param_hypotheses
from perfprior.pmnf import design_matrix


def quad_system():
    x = np.array([4.0, 8.0, 16.0, 32.0, 64.0])
    a = np.stack([np.ones_like(x), x**2], axis=1)
    return a, 3 + 0.5 * x**2


def huge_column_system():
    """An exact line whose x column has a sum of squares above 1.8e308."""
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0]) * 1e160
    a = np.stack([np.ones_like(x), x], axis=1)
    return a, 3 + 2e-160 * x


class TestFitOls:
    def test_exact_interpolation(self):
        a, y = quad_system()
        coef = fit_ols(a, y)
        assert abs(coef[0] - 3) / 3 < 1e-9
        assert abs(coef[1] - 0.5) / 0.5 < 1e-9
        assert np.sum((a @ coef - y) ** 2) < 1e-12

    def test_constant_is_mean(self):
        a, y = np.ones((2, 1)), np.array([7.0, 9.0])
        coef = fit_ols(a, y)
        assert coef[0] == pytest.approx(8.0)
        assert np.sum((a @ coef - y) ** 2) == pytest.approx(2.0)

    def test_min_norm_matches_pinv(self):
        # one coordinate, two bases: rank-deficient by construction
        a = np.array([[1.0, 6.0]])
        y = np.array([14.0])
        coef = fit_ols(a, y)
        expected = np.linalg.pinv(a) @ y
        assert np.allclose(coef, expected, rtol=1e-12)
        assert np.sum((a @ coef - y) ** 2) < 1e-18

    def test_overflowed_design_gives_nan_without_lapack(self, capfd):
        x = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
        a = np.stack([np.ones_like(x), x, np.full_like(x, np.inf)], axis=1)
        coef = fit_ols(a, x)
        assert np.isnan(coef).all()
        assert capfd.readouterr() == ("", "")

    def test_small_constant_next_to_huge_term(self):
        x = np.array([8000.0, 16000.0, 24000.0, 32000.0, 40000.0])
        a = np.stack([np.ones_like(x), x**3], axis=1)
        y = 3 + 0.5 * x**3
        coef = fit_ols(a, y)
        assert abs(coef[0] - 3) / 3 < 1e-6
        assert abs(coef[1] - 0.5) / 0.5 < 1e-12

    def test_column_with_overflowing_norm(self):
        a, y = huge_column_system()
        coef = fit_ols(a, y)
        assert coef == pytest.approx([3.0, 2e-160], rel=1e-12)


class TestLooCvBatch:
    def test_exact_fit_scores_near_zero(self):
        a, y = quad_system()
        score = loo_cv_batch(a[None], y)[0]
        assert score < 1e-12

    def test_column_with_overflowing_norm_scores_exact(self):
        a, y = huge_column_system()
        assert loo_cv_batch(a[None], y)[0] < SCORE_FLOOR

    def test_matches_slow_path(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n, k = int(rng.integers(4, 9)), int(rng.integers(1, 4))
            a = rng.uniform(0.5, 10, size=(n, k))
            y = rng.uniform(0.5, 10, size=n)
            fast = loo_cv_batch(a[None], y)[0]
            slow = loo_cv_slow(column_scaled(a)[0], y)
            assert fast == pytest.approx(slow, abs=1e-12)

    def test_scores_bounded(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0.1, 100, size=(12, 8, 3))
        y = rng.uniform(0.1, 100, size=8)
        scores = loo_cv_batch(a, y)
        assert np.all(scores >= 0) and np.all(scores <= 1)

    def test_rank_deficient_fold_rescued(self):
        # duplicated column: every fold is singular, exact path must kick in
        x = np.array([2.0, 4.0, 8.0, 16.0])
        a = np.stack([np.ones_like(x), x, x], axis=1)
        y = 2 * x
        scores = loo_cv_batch(a[None], y)
        assert np.isfinite(scores[0])
        assert scores[0] < 1e-9

    def test_backends_agree(self):
        # the batched normal equations against per-fold SVD, stack by stack
        rng = np.random.default_rng(9)
        for _ in range(10):
            n, k = int(rng.integers(5, 10)), int(rng.integers(1, 4))
            a = rng.uniform(0.5, 1e4, size=(4, n, k))
            y = rng.uniform(0.5, 1e4, size=n)
            scores = loo_cv_batch(a, y)
            scaled, _ = column_scaled(a)
            slow = [loo_cv_slow(s, y) for s in scaled]
            assert np.allclose(scores, slow, rtol=1e-9, atol=1e-12)

    def test_rank_deficient_hypothesis_in_full_rank_stack(self):
        # one hypothesis with a duplicated column among full-rank ones: the
        # rescued score and the batched ones must all match the exact path
        x = np.array([2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
        y = 3 + 0.2 * x**1.5 + np.array([0.1, -0.2, 0.3, 0.0, -0.1, 0.2])
        ones = np.ones_like(x)
        a = np.stack(
            [
                np.stack([ones, x, x**2], axis=1),
                np.stack([ones, x, x], axis=1),
                np.stack([ones, np.log2(x), x**1.5], axis=1),
                np.stack([ones, np.sqrt(x), x], axis=1),
            ]
        )
        scores = loo_cv_batch(a, y)
        scaled, _ = column_scaled(a)
        slow = [loo_cv_slow(s, y) for s in scaled]
        assert np.all(np.isfinite(scores))
        assert np.allclose(scores, slow, rtol=1e-9, atol=1e-12)

    def test_leverage_one_point_rescued(self):
        # a column non-zero at one point only has leverage 1 there: the fold
        # that leaves that point out is singular, every other fold is not
        x = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
        y = 3 + 0.5 * x + np.array([0.1, -0.2, 0.3, 0.0, -0.1])
        ones = np.ones_like(x)
        spike = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
        a = np.stack([np.stack([ones, spike], axis=1), np.stack([ones, x], axis=1)])
        scaled, _ = column_scaled(a)
        gram = scaled.transpose(0, 2, 1) @ scaled
        folds = gram[:, None] - np.einsum("hni,hnj->hnij", scaled, scaled)
        assert _pivots_ok(folds).tolist() == [False, True]
        scores = loo_cv_batch(a, y)
        assert np.isfinite(scores[0])
        assert scores[0] == loo_cv_slow(scaled[0], y)
        assert scores[1] == pytest.approx(loo_cv_slow(scaled[1], y), rel=1e-9)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestNonFiniteFolds:
    """A fold with a NaN or inf prediction or target is not an exact fit:
    it makes the hypothesis's score NaN on both leave-one-out routes."""

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    def test_every_single_parameter_hypothesis_scores_nan(self, bad):
        x = np.array([[2.0], [4.0], [8.0], [16.0], [32.0]])
        y = np.array([1.0, 2.0, bad, 4.0, 5.0])
        skels = single_param_hypotheses("x")
        assert len(skels) == 60
        for skel in skels:
            assert np.isnan(loo_cv_batch(design_matrix(skel, x)[None], y)[0])

    def test_rescue_with_nan_target_scores_nan(self):
        x = np.array([2.0, 4.0, 8.0, 16.0])
        a = np.stack([np.ones_like(x), x, x], axis=1)
        y = np.array([1.0, 2.0, np.nan, 4.0])
        assert np.isnan(loo_cv_slow(column_scaled(a)[0], y))
        assert np.isnan(loo_cv_batch(a[None], y)[0])

    def test_overflowed_design_is_not_rescued(self, capfd):
        # an inf column scales to NaN; LAPACK would reject it with output
        # on the process's stdout, so the rescue skips it
        rng = np.random.default_rng(10)
        a = rng.uniform(0.5, 1e3, size=(4, 6, 2))
        y = rng.uniform(0.1, 10, size=6)
        bad = a.copy()
        bad[1, 3, 1] = np.inf
        scores = loo_cv_batch(bad, y)
        assert np.isnan(scores[1])
        keep = [0, 2, 3]
        assert np.array_equal(scores[keep], loo_cv_batch(a[keep], y))
        assert capfd.readouterr() == ("", "")


class TestLooCvBatchMultiTarget:
    """Scoring L targets in one call equals L single-target calls, bit for bit."""

    @staticmethod
    def assert_per_target_equal(a, ys):
        scores = loo_cv_batch(a, ys)
        assert scores.shape == (a.shape[0], ys.shape[0])
        for col, y in enumerate(ys):
            assert np.array_equal(scores[:, col], loo_cv_batch(a, y))

    def test_random_stacks(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            h, n, k = (int(rng.integers(1, 12)), int(rng.integers(4, 9)),
                       int(rng.integers(1, 4)))
            a = rng.uniform(0.5, 1e4, size=(h, n, k))
            ys = rng.uniform(0.1, 1e3, size=(int(rng.integers(2, 26)), n))
            self.assert_per_target_equal(a, ys)

    def test_duplicated_column_rescued_for_every_target(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(0.5, 1e3, size=(5, 7, 3))
        a[2, :, 2] = a[2, :, 1]
        ys = rng.uniform(0.1, 1e3, size=(4, 7))
        self.assert_per_target_equal(a, ys)
        scores = loo_cv_batch(a, ys)
        scaled, _ = column_scaled(a)
        for col, y in enumerate(ys):
            assert scores[2, col] == loo_cv_slow(scaled[2], y)

    def test_constant_target(self):
        rng = np.random.default_rng(7)
        a = rng.uniform(0.5, 1e3, size=(6, 5, 2))
        ys = np.stack([np.full(5, 3.0), rng.uniform(0.1, 10, size=5), np.zeros(5)])
        self.assert_per_target_equal(a, ys)

    def test_single_target_in_two_dimensions(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(0.5, 1e3, size=(4, 6, 2))
        ys = rng.uniform(0.1, 10, size=(1, 6))
        self.assert_per_target_equal(a, ys)

    def test_one_dimensional_target_keeps_shape(self):
        a, y = quad_system()
        stack = np.stack([a, a[:, :1].repeat(2, axis=1)])
        assert loo_cv_batch(stack, y).shape == (2,)

from fractions import Fraction

import numpy as np
import pytest

from oracle import cv_score, exhaustive_oracle
from perfprior.dataset import ParameterSpace
from perfprior.errors import InsufficientDataError, ValidationError
from perfprior.modeler import (
    fit_coefficients,
    fit_skeleton_to_time,
    search,
    single_param_hypotheses,
)
from perfprior.pmnf import (
    BasisFunction,
    Skeleton,
    constant_basis,
    default_exponent_sets,
    design_matrix,
    leading_exponents,
)

F = Fraction

X5 = (4.0, 8.0, 16.0, 32.0, 64.0)
X_SPACE = ParameterSpace(("x",), (X5,))


def one_param_data(fn, values=X5):
    return {(x,): fn(x) for x in values}


def skel_1p(*expos):
    return Skeleton(("x",), (constant_basis(1),) + tuple(BasisFunction((e,)) for e in expos))


class TestFitCoefficients:
    def test_exact_quadratic(self):
        data = one_param_data(lambda x: 3 + 0.5 * x**2)
        coef = fit_coefficients(skel_1p((F(2), 0)), data)
        assert abs(coef[0] - 3) / 3 < 1e-9
        assert abs(coef[1] - 0.5) / 0.5 < 1e-9
        rss = sum((coef[0] + coef[1] * x**2 - y) ** 2 for (x,), y in data.items())
        assert rss < 1e-12

    def test_constant_mean(self):
        data = {(4.0,): 7.0, (8.0,): 9.0}
        coef = fit_coefficients(skel_1p(), data)
        assert coef[0] == pytest.approx(8.0)
        assert sum((coef[0] - y) ** 2 for y in data.values()) == pytest.approx(2.0)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientDataError):
            fit_coefficients(skel_1p((F(1), 0)), {(4.0,): 7.0})


class TestCvScore:
    def test_exact_data_scores_zero(self):
        data = one_param_data(lambda x: 3 + 0.5 * x**2)
        assert cv_score(skel_1p((F(2), 0)), data) <= 1e-9

    def test_constant_on_two_points(self):
        assert cv_score(skel_1p(), {(1.0,): 0.0, (2.0,): 2.0}) == pytest.approx(1.0)

    def test_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            data = one_param_data(lambda x: float(rng.uniform(0, 100)))
            s = cv_score(skel_1p((F(1), 1)), data)
            assert 0 <= s <= 1

    def test_needs_one_extra_point(self):
        with pytest.raises(InsufficientDataError):
            cv_score(skel_1p((F(1), 0)), {(4.0,): 1.0, (8.0,): 2.0})


class TestHypothesisFamily:
    def test_built_once_and_immutable(self):
        hyps = single_param_hypotheses("x")
        assert isinstance(hyps, tuple)
        assert single_param_hypotheses("x") is hyps

    def test_sixty_hypotheses(self):
        hyps = single_param_hypotheses("x")
        assert len(hyps) == 60
        assert sum(1 for h in hyps if h.size == 1) == 1

    def test_contains_four_fifths(self):
        hyps = single_param_hypotheses("x")
        wanted = ((F(4, 5), 0),)
        assert any(
            h.size == 2 and h.bases[1].exponents == wanted
            for h in hyps
        )

    def test_contains_squared_log(self):
        hyps = single_param_hypotheses("x")
        wanted = ((F(0), 2),)
        assert any(
            h.size == 2 and h.bases[1].exponents == wanted
            for h in hyps
        )


class TestSearchSingle:
    def test_exact_quadratic(self):
        data = one_param_data(lambda x: 3 + 0.5 * x**2)
        model = fit_skeleton_to_time(search(data, X_SPACE), data)
        assert leading_exponents(model.skeleton)["x"] == (F(2), 0)
        assert abs(model.coefficients[0] - 3) / 3 < 1e-6
        assert abs(model.coefficients[1] - 0.5) / 0.5 < 1e-6
        oracle = exhaustive_oracle(data, "single", X_SPACE)
        assert leading_exponents(oracle.skeleton) == leading_exponents(model.skeleton)

    def test_constant_data_prefers_fewer_terms(self):
        data = one_param_data(lambda x: 7.0)
        model = fit_skeleton_to_time(search(data, X_SPACE), data)
        assert model.skeleton.bases[1:] == ()
        assert model.coefficients[0] == pytest.approx(7.0)

    def test_pure_log(self):
        data = one_param_data(lambda x: 2 * np.log2(x))
        skel = search(data, X_SPACE)
        assert leading_exponents(skel)["x"] == (F(0), 1)

    def test_needs_three_distinct_values(self):
        # with two values, every LOO fold of a two-basis line is underdetermined
        for space, name in (
            (ParameterSpace(("x",), ((2.0, 4.0),)), "x"),
            (ParameterSpace(("p", "n"), (X5, (8000.0, 16000.0))), "n"),
        ):
            data = {c: 1.0 + sum(c) for c in space.grid()}
            with pytest.raises(
                InsufficientDataError, match=f"parameter '{name}' needs at least 3"
            ):
                search(data, space)


class TestFloorTies:
    """Scores below SCORE_FLOOR tie at 0, and the tie goes to the fewest bases.

    A large offset shrinks every relative error: at 1e9 the linear term is
    the only exact fit, at 1e15 every hypothesis scores below the floor.
    """

    def test_offset_above_the_floor_keeps_the_term(self):
        skel = search(one_param_data(lambda x: 1e9 + x), X_SPACE)
        assert [b.exponents for b in skel.bases[1:]] == [((F(1), 0),)]

    def test_every_score_below_the_floor_gives_the_constant(self):
        skel = search(one_param_data(lambda x: 1e15 + x), X_SPACE)
        assert skel.bases[1:] == ()

    def test_two_parameters_below_the_floor_give_the_constant(self):
        space = ParameterSpace(("p", "n"), (X5, X5))
        skel = search({c: 1e15 + c[0] * c[1] for c in space.grid()}, space)
        assert skel.bases[1:] == ()


class TestSearchMulti:
    def test_exact_bilinear(self, pn_space):
        data = {c: 1 + 0.5 * c[1] * c[0] for c in pn_space.grid()}
        model = fit_skeleton_to_time(search(data, pn_space), data)
        lead = leading_exponents(model.skeleton)
        assert lead["p"] == (F(1), 0) and lead["n"] == (F(1), 0)
        assert len(model.skeleton.bases[1:]) == 1
        assert abs(model.coefficients[0] - 1) < 1e-6
        assert abs(model.coefficients[1] - 0.5) / 0.5 < 1e-6

    def test_worked_example_shape(self, pn_space):
        # computation shape O(n + n*p)
        data = {c: 2.0 + 3e-4 * c[1] + 5e-7 * c[1] * c[0] for c in pn_space.grid()}
        lead = leading_exponents(search(data, pn_space))
        assert lead["n"][0] == F(1)
        assert lead["p"][0] == F(1)
        oracle = exhaustive_oracle(data, "multi_restricted", pn_space)
        assert leading_exponents(oracle.skeleton) == lead

    def test_constant(self, pn_space):
        data = {c: 42.0 for c in pn_space.grid()}
        model = fit_skeleton_to_time(search(data, pn_space), data)
        assert model.skeleton.bases[1:] == ()
        assert model.coefficients[0] == pytest.approx(42.0)

    def test_rejects_partial_grid(self, pn_space):
        for space in (X_SPACE, pn_space):
            data = {c: 1.0 for c in space.grid()[:-1]}
            with pytest.raises(ValidationError):
                search(data, space)

    def test_rejects_m_above_three(self):
        space = ParameterSpace(
            ("a", "b", "c", "d"), tuple((2.0, 4.0, 8.0) for _ in range(4))
        )
        data = {c: 1.0 for c in space.grid()}
        with pytest.raises(ValidationError):
            search(data, space)


def _random_single_dataset(rng):
    i_set, j_set = default_exponent_sets()
    grids = [X5, (32.0, 64.0, 128.0, 256.0, 512.0), (3.0, 9.0, 27.0, 81.0, 243.0)]
    x = grids[rng.integers(len(grids))]
    if rng.random() < 0.25:
        skel = skel_1p()
        true = [float(rng.uniform(1, 50))]
    else:
        while True:
            i, j = i_set[rng.integers(20)], j_set[rng.integers(3)]
            if i != 0 or j != 0:
                break
        skel = skel_1p((i, j))
        a = design_matrix(skel, np.array(x)[:, None])
        targets = 10.0 ** rng.uniform(-2, 2, size=2)
        true = (targets / np.abs(a).max(axis=0)).tolist()
    a = design_matrix(skel, np.array(x)[:, None])
    y = a @ np.array(true)
    if rng.random() < 0.5:
        y = y * (1.0 + 0.2 * rng.uniform(0, 1, size=len(y)))
    return {(v,): float(t) for v, t in zip(x, y)}


def _random_multi_target(rng, space):
    """Exact grid targets of the constant plus one random family term per
    parameter, each column scaled to a random peak in [0.01, 100]."""
    i_set, j_set = default_exponent_sets()
    terms = []
    for axis in range(space.m):
        while True:
            i, j = i_set[rng.integers(20)], j_set[rng.integers(3)]
            if i != 0 or j != 0:
                break
        exps = [(F(0), 0)] * space.m
        exps[axis] = (i, j)
        terms.append(tuple(exps))
    bases = (constant_basis(space.m),) + tuple(BasisFunction(t) for t in terms)
    a = design_matrix(Skeleton(space.names, bases), np.array(space.grid()))
    targets = 10.0 ** rng.uniform(-2, 2, size=space.m + 1)
    return a @ (targets / np.abs(a).max(axis=0))


def _matches_multi_oracle(y, space):
    data = {tuple(c): float(v) for c, v in zip(space.grid(), y)}
    got = search(data, space)
    want = exhaustive_oracle(data, "multi_restricted", space)
    return (
        leading_exponents(got) == leading_exponents(want.skeleton)
        and len(got.bases) == len(want.skeleton.bases)
    )


class TestOracleEquivalence:
    def test_single_param_hundred_datasets(self):
        rng = np.random.default_rng(2024)
        space = None
        matches = 0
        for _ in range(100):
            data = _random_single_dataset(rng)
            space = ParameterSpace(("x",), (tuple(sorted(k[0] for k in data)),))
            got = search(data, space)
            want = exhaustive_oracle(data, "single", space)
            if (
                len(got.bases) == len(want.skeleton.bases)
                and leading_exponents(got) == leading_exponents(want.skeleton)
            ):
                matches += 1
        assert matches == 100

    def test_multi_param_datasets(self, pn_space):
        rng = np.random.default_rng(77)
        matches = 0
        trials = 20
        for _ in range(trials):
            y = _random_multi_target(rng, pn_space)
            if rng.random() < 0.5:
                y = y * (1.0 + 0.1 * rng.uniform(0, 1, size=len(y)))
            matches += _matches_multi_oracle(y, pn_space)
        assert matches == trials

    def test_three_param_datasets(self):
        space = ParameterSpace(
            ("p", "n", "s"),
            (
                (128.0, 256.0, 512.0, 1024.0),
                (8000.0, 16000.0, 24000.0, 32000.0),
                (1000.0, 2000.0, 3000.0, 4000.0),
            ),
        )
        rng = np.random.default_rng(303)
        matches = 0
        trials = 10
        for k in range(trials):
            y = _random_multi_target(rng, space)
            if k % 2:
                y = y * (1.0 + 0.1 * rng.uniform(0, 1, size=len(y)))
            matches += _matches_multi_oracle(y, space)
        assert matches == trials


class TestFitSkeletonToTime:
    def bcast_skeleton(self, pn_space):
        return Skeleton(
            pn_space.names,
            (
                constant_basis(2),
                BasisFunction(((F(0), 1), (F(0), 0))),
                BasisFunction(((F(1), 0), (F(1), 0))),
            ),
        )

    def test_exact_recovery(self, pn_space):
        skel = self.bcast_skeleton(pn_space)
        data = {
            c: 0.1 + 0.01 * np.log2(c[0]) + 1e-6 * c[1] * c[0]
            for c in pn_space.grid()
        }
        model = fit_skeleton_to_time(skel, data)
        coefs = list(model.coefficients)
        assert coefs == pytest.approx([0.1, 0.01, 1e-6], rel=1e-6)

    def test_structure_survives_heavy_noise(self, pn_space):
        skel = self.bcast_skeleton(pn_space)
        rng = np.random.default_rng(4)
        data = {
            c: (0.1 + 1e-6 * c[1] * c[0]) * (1 + 0.5 * rng.random())
            for c in pn_space.grid()
        }
        model = fit_skeleton_to_time(skel, data)
        clean = fit_skeleton_to_time(
            skel, {c: 0.1 + 1e-6 * c[1] * c[0] for c in pn_space.grid()}
        )
        assert leading_exponents(model.skeleton) == leading_exponents(clean.skeleton)
        assert [b.exponents for b in model.skeleton.bases[1:]] == [
            b.exponents for b in clean.skeleton.bases[1:]
        ]


class TestDeterminism:
    def test_search_is_reproducible(self, pn_space):
        rng = np.random.default_rng(10)
        data = {
            c: float(rng.uniform(1, 2)) + 1e-5 * c[0] * c[1] for c in pn_space.grid()
        }
        assert search(data, pn_space) == search(dict(data), pn_space)

from fractions import Fraction

import numpy as np
import pytest

from oracle import exhaustive_oracle
from perfprior.dataset import ParameterSpace
from perfprior.errors import InsufficientDataError, ValidationError
from perfprior.modeler import (
    cv_score,
    fit_coefficients,
    fit_skeleton_to_time,
    search_multi,
    search_single,
    single_param_hypotheses,
)
from perfprior.pmnf import (
    BasisFunction,
    Skeleton,
    constant_basis,
    default_exponent_sets,
    design_matrix,
    leading_exponents,
    model_from_skeleton,
)

F = Fraction

X5 = (4.0, 8.0, 16.0, 32.0, 64.0)


def one_param_data(fn, values=X5):
    return {(x,): fn(x) for x in values}


def skel_1p(*expos):
    return Skeleton(("x",), (constant_basis(1),) + tuple(BasisFunction((e,)) for e in expos))


class TestFitCoefficients:
    def test_exact_quadratic(self):
        data = one_param_data(lambda x: 3 + 0.5 * x**2)
        coef, rss = fit_coefficients(skel_1p((F(2), 0)), data)
        assert abs(coef[0] - 3) / 3 < 1e-9
        assert abs(coef[1] - 0.5) / 0.5 < 1e-9
        assert rss < 1e-12

    def test_constant_mean(self):
        coef, rss = fit_coefficients(skel_1p(), {(4.0,): 7.0, (8.0,): 9.0})
        assert coef[0] == pytest.approx(8.0)
        assert rss == pytest.approx(2.0)

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
        model = search_single(data, "x")
        assert leading_exponents(model)["x"] == (F(2), 0)
        assert abs(model.constant - 3) / 3 < 1e-6
        assert abs(model.terms[0].coefficient - 0.5) / 0.5 < 1e-6
        oracle = exhaustive_oracle(data, "single", ParameterSpace(("x",), (X5,)))
        assert leading_exponents(oracle) == leading_exponents(model)

    def test_constant_data_prefers_fewer_terms(self):
        model = search_single(one_param_data(lambda x: 7.0), "x")
        assert model.terms == ()
        assert model.constant == pytest.approx(7.0)

    def test_pure_log(self):
        data = one_param_data(lambda x: 2 * np.log2(x))
        model = search_single(data, "x")
        assert leading_exponents(model)["x"] == (F(0), 1)

    def test_needs_three_distinct_values(self):
        with pytest.raises(InsufficientDataError):
            search_single({(2.0,): 1.0, (4.0,): 2.0}, "x")


class TestSearchMulti:
    def test_exact_bilinear(self, pn_space):
        data = {c: 1 + 0.5 * c[1] * c[0] for c in pn_space.grid()}
        model = search_multi(data, pn_space)
        lead = leading_exponents(model)
        assert lead["p"] == (F(1), 0) and lead["n"] == (F(1), 0)
        assert len(model.terms) == 1
        assert abs(model.constant - 1) < 1e-6
        assert abs(model.terms[0].coefficient - 0.5) / 0.5 < 1e-6

    def test_worked_example_shape(self, pn_space):
        # computation shape O(n + n*p)
        data = {c: 2.0 + 3e-4 * c[1] + 5e-7 * c[1] * c[0] for c in pn_space.grid()}
        model = search_multi(data, pn_space)
        lead = leading_exponents(model)
        assert lead["n"][0] == F(1)
        assert lead["p"][0] == F(1)
        oracle = exhaustive_oracle(data, "multi_restricted", pn_space)
        assert leading_exponents(oracle) == lead

    def test_constant(self, pn_space):
        data = {c: 42.0 for c in pn_space.grid()}
        model = search_multi(data, pn_space)
        assert model.terms == ()
        assert model.constant == pytest.approx(42.0)

    def test_rejects_partial_grid(self, pn_space):
        data = {c: 1.0 for c in pn_space.grid()[:-1]}
        with pytest.raises(ValidationError):
            search_multi(data, pn_space)

    def test_rejects_m_above_three(self):
        space = ParameterSpace(
            ("a", "b", "c", "d"), tuple((2.0, 4.0, 8.0) for _ in range(4))
        )
        data = {c: 1.0 for c in space.grid()}
        with pytest.raises(ValidationError):
            search_multi(data, space)


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


class TestOracleEquivalence:
    def test_single_param_hundred_datasets(self):
        rng = np.random.default_rng(2024)
        space = None
        matches = 0
        for _ in range(100):
            data = _random_single_dataset(rng)
            space = ParameterSpace(("x",), (tuple(sorted(k[0] for k in data)),))
            got = search_single(data, "x")
            want = exhaustive_oracle(data, "single", space)
            if (
                len(got.terms) == len(want.terms)
                and leading_exponents(got) == leading_exponents(want)
            ):
                matches += 1
        assert matches == 100

    def test_multi_param_datasets(self, pn_space):
        rng = np.random.default_rng(77)
        i_set, j_set = default_exponent_sets()
        matches = 0
        trials = 20
        for _ in range(trials):
            terms = []
            for axis in range(2):
                while True:
                    i, j = i_set[rng.integers(20)], j_set[rng.integers(3)]
                    if i != 0 or j != 0:
                        break
                exps = [(F(0), 0), (F(0), 0)]
                exps[axis] = (i, j)
                terms.append(tuple(exps))
            bases = (constant_basis(2),) + tuple(BasisFunction(t) for t in terms)
            skel = Skeleton(pn_space.names, bases)
            coords = np.array(pn_space.grid())
            a = design_matrix(skel, coords)
            targets = 10.0 ** rng.uniform(-2, 2, size=3)
            true = targets / np.abs(a).max(axis=0)
            y = a @ true
            if rng.random() < 0.5:
                y = y * (1.0 + 0.1 * rng.uniform(0, 1, size=len(y)))
            data = {tuple(c): float(v) for c, v in zip(pn_space.grid(), y)}
            got = search_multi(data, pn_space)
            want = exhaustive_oracle(data, "multi_restricted", pn_space)
            if leading_exponents(got) == leading_exponents(want) and len(
                got.terms
            ) == len(want.terms):
                matches += 1
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
        coefs = [model.constant] + [t.coefficient for t in model.terms]
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
        assert leading_exponents(model) == leading_exponents(clean)
        assert [t.exponents for t in model.terms] == [
            t.exponents for t in clean.terms
        ]


class TestDeterminism:
    def test_search_is_reproducible(self, pn_space):
        rng = np.random.default_rng(10)
        data = {
            c: float(rng.uniform(1, 2)) + 1e-5 * c[0] * c[1] for c in pn_space.grid()
        }
        assert search_multi(data, pn_space) == search_multi(dict(data), pn_space)

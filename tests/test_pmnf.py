from fractions import Fraction

import numpy as np
import pytest

from perfprior.errors import ValidationError
from perfprior.pmnf import (
    BasisFunction,
    PmnfModel,
    Skeleton,
    constant_basis,
    default_exponent_sets,
    design_matrix,
    evaluate,
    leading_exponents,
    render,
)

F = Fraction


def model(names, constant, *terms):
    """A model from its constant and (coefficient, exponents[, ranks
    fraction]) terms."""
    bases = [BasisFunction(*t[1:]) for t in terms]
    skel = Skeleton(names, (constant_basis(len(names)), *bases))
    return PmnfModel(skel, (constant, *(t[0] for t in terms)))


class TestExponentSets:
    def test_counts(self):
        i_set, j_set = default_exponent_sets()
        assert len(i_set) == 20
        assert j_set == [0, 1, 2]

    def test_contents(self):
        i_set, _ = default_exponent_sets()
        assert F(4, 5) in i_set
        assert F(11, 4) in i_set
        assert min(i_set) == 0
        assert max(i_set) == 3


class TestEvaluate:
    def test_log_model(self):
        assert evaluate(model(("p",), 0.0, (2.0, ((F(0), 1),))), (8.0,)) == 6.0

    def test_constant_model(self):
        assert evaluate(model(("x",), 5.0), (123.0,)) == 5.0

    def test_bilinear(self):
        bilinear = model(("n", "p"), 1.0, (0.5, ((F(1), 0), (F(1), 0))))
        assert evaluate(bilinear, (10.0, 4.0)) == 21.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            evaluate(model(("x",), 5.0), (1.0, 2.0))

    def test_ranks_fraction(self):
        fitted = model(("p", "n"), 1.0, (2.0, ((F(0), 0), (F(3, 4), 0)), "p"))
        assert evaluate(fitted, (4.0, 16.0)) == 13.0
        # p * n^(3/4) overflows here; the prediction still reads the column
        at = (1e200, 1e204)
        (column,) = design_matrix(fitted.skeleton, np.array([at]))[:, 1]
        assert evaluate(fitted, at) == 1.0 + 2.0 * column

    def test_monotone_in_coefficients(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            c = float(rng.uniform(0.1, 5))
            term = (c, ((F(1, 2), 1),))
            bigger = (c + 0.5, ((F(1, 2), 1),))
            at = (float(rng.uniform(2, 100)),)
            assert evaluate(model(("x",), 1.0, bigger), at) > evaluate(
                model(("x",), 1.0, term), at
            )


def basis_row(skel, at):
    """Basis values at one coordinate: a one-row design matrix."""
    return design_matrix(skel, np.array([at]))[0]


class TestEvaluateBasis:
    def test_with_ranks_fraction(self):
        skel = Skeleton(
            ("p", "n"),
            (
                constant_basis(2),
                BasisFunction(((F(0), 1), (F(0), 0))),
                BasisFunction(((F(1), 0), (F(1), 0)), ranks_fraction="p"),
            ),
        )
        values = basis_row(skel, (4.0, 10.0))
        assert values.tolist() == [1.0, 2.0, 30.0]

    def test_ranks_fraction_column_stays_finite(self):
        # p * n^(3/4) exceeds 1.8e308 although the column stays near 1e153
        basis = BasisFunction(((F(0), 0), (F(3, 4), 0)), ranks_fraction="p")
        skel = Skeleton(("p", "n"), (constant_basis(2), basis))
        p, n = np.array([1e200, 2e200]), np.array([1e204, 2e204])
        column = design_matrix(skel, np.stack([p, n], axis=1))[:, 1]
        assert column == pytest.approx(n**0.75 * (1 - 1 / p), rel=1e-14)

    def test_constant_only(self):
        skel = Skeleton(("x",), (constant_basis(1),))
        assert basis_row(skel, (9.0,)).tolist() == [1.0]

    def test_product_basis(self):
        skel = Skeleton(
            ("p", "n"),
            (constant_basis(2), BasisFunction(((F(1), 0), (F(1), 0)))),
        )
        assert basis_row(skel, (2.0, 3.0)).tolist() == [1.0, 6.0]

    def test_constant_is_one_everywhere(self):
        skel = Skeleton(("x",), (constant_basis(1), BasisFunction(((F(2), 1),))))
        rng = np.random.default_rng(0)
        for _ in range(20):
            at = (float(rng.uniform(1, 1e6)),)
            assert basis_row(skel, at)[0] == 1.0


class TestLeadingExponents:
    def test_three_parameter_mixed_term(self):
        # O(p * log2^2(p) * G^(3/4) * log2(G) * Z^(4/5))
        basis = BasisFunction(((F(1), 2), (F(3, 4), 1), (F(4, 5), 0)))
        skel = Skeleton(("p", "G", "Z"), (constant_basis(3), basis))
        assert leading_exponents(skel) == {
            "p": (F(1), 2),
            "G": (F(3, 4), 1),
            "Z": (F(4, 5), 0),
        }

    def test_constant_model(self):
        assert leading_exponents(Skeleton(("a", "b"), (constant_basis(2),))) == {
            "a": (F(0), 0),
            "b": (F(0), 0),
        }

    def test_max_over_terms(self):
        b1 = BasisFunction(((F(1), 0), (F(0), 0)))
        b2 = BasisFunction(((F(1), 0), (F(1), 0)))
        skel = Skeleton(("n", "p"), (constant_basis(2), b1, b2))
        assert leading_exponents(skel) == {"n": (F(1), 0), "p": (F(1), 0)}


class TestRender:
    def test_constant(self):
        assert render(model(("x",), 5.0)) == "5"

    def test_single_log_term(self):
        assert render(model(("p",), 0.0, (2.0, ((F(0), 1),)))) == "2 * log2(p)"

    def test_broadcast_prior_skeleton(self):
        skel = Skeleton(
            ("p", "n"),
            (
                constant_basis(2),
                BasisFunction(((F(0), 1), (F(0), 0))),
                BasisFunction(((F(1), 0), (F(1), 0))),
            ),
        )
        assert render(PmnfModel(skel, (1.0, 2.0, 3.0))) == "1 + 2 * log2(p) + 3 * p * n"

    def test_fractional_exponent(self):
        fitted = model(("p",), 1.0, (2.0, ((F(1, 2), 1),)))
        assert render(fitted) == "1 + 2 * p^(1/2) * log2(p)"

    def test_ranks_fraction_rendered(self):
        skel = Skeleton(
            ("p", "n"),
            (
                constant_basis(2),
                BasisFunction(((F(0), 1), (F(0), 0))),
                BasisFunction(((F(0), 0), (F(1), 0)), ranks_fraction="p"),
            ),
        )
        fitted = PmnfModel(skel, (1.0, 2.0, 3.0))
        assert render(fitted) == "1 + 2 * log2(p) + 3 * n * (p-1)/p"

    def test_distinct_models_render_distinct(self):
        rng = np.random.default_rng(7)
        i_set, j_set = default_exponent_sets()
        seen = {}
        for _ in range(100):
            i = i_set[rng.integers(20)]
            j = j_set[rng.integers(3)]
            if i == 0 and j == 0:
                continue
            c = round(float(rng.uniform(0.5, 5)), 3)
            text = render(model(("x",), 1.0, (c, ((i, j),))))
            key = (i, j, c)
            assert seen.get(text, key) == key
            seen[text] = key

    def test_terms_ordered_by_signature(self):
        t_big = (1.0, ((F(2), 0),))
        t_small = (1.0, ((F(1), 0),))
        a = model(("x",), 0.5, t_big, t_small)
        b = model(("x",), 0.5, t_small, t_big)
        assert render(a) == render(b) == "0.5 + 1 * x + 1 * x^2"


class TestSkeletonInvariants:
    def test_first_basis_must_be_constant(self):
        with pytest.raises(ValidationError):
            Skeleton(("x",), (BasisFunction(((F(1), 0),)),))

    def test_no_duplicate_bases(self):
        b = BasisFunction(((F(1), 0),))
        with pytest.raises(ValidationError):
            Skeleton(("x",), (constant_basis(1), b, b))

    def test_term_cannot_be_all_zero(self):
        with pytest.raises(ValidationError):
            model(("x",), 0.0, (1.0, ((F(0), 0),)))

    def test_model_rejects_duplicate_signatures(self):
        with pytest.raises(ValidationError):
            model(("x",), 0.0, (1.0, ((F(1), 0),)), (2.0, ((F(1), 0),)))

    def test_ranks_fraction_param_must_exist(self):
        with pytest.raises(ValidationError):
            Skeleton(
                ("x",),
                (constant_basis(1), BasisFunction(((F(1), 0),), ranks_fraction="q")),
            )

    def test_needs_a_parameter_name(self):
        with pytest.raises(ValidationError, match="parameter name"):
            Skeleton((), (constant_basis(0),))


class TestSkeletonModelConversion:
    def test_coefficient_count_checked(self):
        skel = Skeleton(("x",), (constant_basis(1),))
        with pytest.raises(ValidationError):
            PmnfModel(skel, [1.0, 2.0])

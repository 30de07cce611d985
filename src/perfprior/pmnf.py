"""Model normal form: sums of terms c_k * prod_l x_l^i * log2(x_l)^j.

Monomial exponents are exact rationals and log exponents are small
non-negative integers, so model structures can be compared, deduplicated,
and ordered exactly.

A skeleton is a model's structure: a list of basis functions, the constant
first. A model is a skeleton and its coefficients, one per basis. Floats
enter in one place: `_columns` turns bases into columns, unit-started for
`design_matrix` and coefficient-started for `evaluate`. A basis function
may carry a single (p-1)/p factor on the parameter that counts MPI ranks;
asymptotically it contributes exponent 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError

# (monomial exponent, log2 exponent) for one parameter
Expo = tuple[Fraction, int]


def default_exponent_sets() -> tuple[list[Fraction], list[int]]:
    """The preset search-space exponents: 20 rationals and J = {0, 1, 2}."""
    i_set = [
        Fraction(0),
        Fraction(1, 4),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(3, 4),
        Fraction(4, 5),
        Fraction(1),
        Fraction(5, 4),
        Fraction(4, 3),
        Fraction(3, 2),
        Fraction(5, 3),
        Fraction(7, 4),
        Fraction(2),
        Fraction(9, 4),
        Fraction(7, 3),
        Fraction(5, 2),
        Fraction(8, 3),
        Fraction(11, 4),
        Fraction(3),
    ]
    return i_set, [0, 1, 2]


def expo_to_json(exponents: Sequence[Expo]) -> list:
    """The JSON form of exponent pairs: [["3/2", 1], ...]."""
    return [[str(i), j] for i, j in exponents]


@dataclass(frozen=True)
class BasisFunction:
    """A coefficient-free product of parameter factors."""

    exponents: tuple[Expo, ...]
    ranks_fraction: str | None = None

    def __post_init__(self):
        exponents = tuple((Fraction(i), int(j)) for i, j in self.exponents)
        object.__setattr__(self, "exponents", exponents)

    @property
    def is_constant(self) -> bool:
        return self.ranks_fraction is None and all(
            i == 0 and j == 0 for i, j in self.exponents
        )

    def signature(self) -> tuple:
        """Total-order key: (sum i, sum j, pairs, factor)."""
        total_i = sum((i for i, _ in self.exponents), Fraction(0))
        total_j = sum(j for _, j in self.exponents)
        return (total_i, total_j, self.exponents, self.ranks_fraction or "")


def constant_basis(n_params: int) -> BasisFunction:
    return BasisFunction(((Fraction(0), 0),) * n_params)


@dataclass(frozen=True)
class Skeleton:
    """Basis list, the constant first, over named parameters: one exponent
    pair per parameter, ranks fractions on named parameters, no basis twice."""

    space_names: tuple[str, ...]
    bases: tuple[BasisFunction, ...]

    def __post_init__(self):
        object.__setattr__(self, "space_names", tuple(self.space_names))
        object.__setattr__(self, "bases", tuple(self.bases))
        if not self.space_names:
            raise ValidationError("skeleton needs at least one parameter name")
        if not self.bases:
            raise ValidationError("skeleton needs at least the constant basis")
        if not self.bases[0].is_constant:
            raise ValidationError("first basis function must be the constant")
        n_const = sum(1 for b in self.bases if b.is_constant)
        if n_const != 1:
            raise ValidationError("constant basis must appear exactly once")
        for b in self.bases:
            if len(b.exponents) != len(self.space_names):
                raise ValidationError("basis exponent count does not match parameters")
            rf = b.ranks_fraction
            if rf is not None and rf not in self.space_names:
                raise ValidationError(f"ranks fraction parameter {rf!r} not in space")
        if len(set(self.bases)) != len(self.bases):
            raise ValidationError("duplicate basis function in skeleton")

    @property
    def size(self) -> int:
        return len(self.bases)


@dataclass(frozen=True)
class PmnfModel:
    """A fitted model: a skeleton and one coefficient per basis, the
    constant's first."""

    skeleton: Skeleton
    coefficients: tuple[float, ...]

    def __post_init__(self):
        coefficients = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coefficients)
        if len(coefficients) != self.skeleton.size:
            raise ValidationError("coefficient count does not match basis count")


def monomial_values(
    exponents: Sequence[Expo], coords: np.ndarray, logs: np.ndarray, start: float = 1.0
) -> np.ndarray:
    """start * prod_l x_l^i_l * log2(x_l)^j_l on every row of an (N, m)
    float array, multiplied left to right.

    logs is np.log2(coords), computed once for all monomials on coords.
    """
    col = np.full(coords.shape[0], start)
    for l, (i, j) in enumerate(exponents):
        if i:
            col = col * coords[:, l] ** float(i)
        if j:
            col = col * logs[:, l] ** j
    return col


def _columns(
    bases: Sequence[BasisFunction],
    names: Sequence[str],
    coords,
    starts: Sequence[float],
) -> np.ndarray:
    """One column per basis (one row per coordinate): start, times the
    monomial, times ((p - 1.0) / p) for a ranks fraction on p. Dividing
    first keeps the fraction finite wherever the column is."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != len(names):
        raise ValidationError("coordinate array does not match parameter count")
    logs = np.log2(coords)
    a = np.empty((coords.shape[0], len(bases)))
    for c, b in enumerate(bases):
        col = monomial_values(b.exponents, coords, logs, starts[c])
        if b.ranks_fraction is not None:
            p = coords[:, names.index(b.ranks_fraction)]
            col = col * ((p - 1.0) / p)
        a[:, c] = col
    return a


def design_matrix(skel: Skeleton, coords: np.ndarray) -> np.ndarray:
    """Design matrix (one row per coordinate) for fitting the skeleton."""
    return _columns(skel.bases, skel.space_names, coords, [1.0] * len(skel.bases))


def evaluate(model: PmnfModel, at: Sequence[float]) -> float:
    """Evaluate the model at one coordinate (values aligned with names): the
    sum of each basis's column, started from its coefficient."""
    skel = model.skeleton
    row = _columns(skel.bases, skel.space_names, [at], model.coefficients)[0]
    total = row[0]  # the constant's column is exactly its coefficient
    for v in row[1:]:
        total += v  # in basis order; np.sum would add pairwise
    return float(total)


def leading_from_terms(
    term_exponents: Iterable[Sequence[Expo]], n_params: int
) -> tuple[Expo, ...]:
    """Per-parameter leading (i, j): max i, then max j among terms at max i."""
    lead: list[Expo] = [(Fraction(0), 0)] * n_params
    terms = list(term_exponents)
    for l in range(n_params):
        if not terms:
            continue
        i_star = max(t[l][0] for t in terms)
        j_star = max(t[l][1] for t in terms if t[l][0] == i_star)
        lead[l] = (i_star, j_star)
    return tuple(lead)


def leading_exponents(skel: Skeleton) -> dict[str, Expo]:
    """Leading (monomial, log) exponent per parameter of any model fitted to
    the skeleton; constants give (0, 0)."""
    n_params = len(skel.space_names)
    lead = leading_from_terms((b.exponents for b in skel.bases[1:]), n_params)
    return dict(zip(skel.space_names, lead))


def _format_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _format_exponent(i: Fraction) -> str:
    if i.denominator == 1:
        return str(i.numerator)
    return f"({i.numerator}/{i.denominator})"


def _format_factors(
    exponents: Sequence[Expo], names: Sequence[str], ranks_fraction: str | None
) -> list[str]:
    parts = []
    for name, (i, j) in zip(names, exponents):
        if i == 1:
            parts.append(name)
        elif i != 0:
            parts.append(f"{name}^{_format_exponent(i)}")
        if j == 1:
            parts.append(f"log2({name})")
        elif j != 0:
            parts.append(f"log2({name})^{j}")
    if ranks_fraction is not None:
        parts.append(f"({ranks_fraction}-1)/{ranks_fraction}")
    return parts


def render(model: PmnfModel) -> str:
    """Canonical human-readable form, terms ordered by basis signature."""
    skel, coefficients = model.skeleton, model.coefficients
    parts = []
    if coefficients[0] != 0 or skel.size == 1:
        parts.append(_format_number(coefficients[0]))
    terms = zip(skel.bases[1:], coefficients[1:])
    for b, c in sorted(terms, key=lambda term: term[0].signature()):
        factors = _format_factors(b.exponents, skel.space_names, b.ranks_fraction)
        parts.append(" * ".join([_format_number(c)] + factors))
    return " + ".join(parts)

"""Model normal form: sums of terms c_k * prod_l x_l^i * log2(x_l)^j.

Monomial exponents are exact rationals and log exponents are small
non-negative integers, so model structures can be compared, deduplicated,
and ordered exactly. Floats enter in one place, `_columns`, which turns
bases (for `design_matrix`) and terms (for `evaluate`) into value columns.

A skeleton is the coefficient-free counterpart of a model: a list of basis
functions whose coefficients get fitted later. Basis functions (and terms
of fitted skeleton models) may carry a single (p-1)/p factor on the
parameter that counts MPI ranks; asymptotically it contributes exponent 0.
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


def _coerce_exponents(exponents: Iterable) -> tuple[Expo, ...]:
    out = []
    for pair in exponents:
        i, j = pair
        out.append((Fraction(i), int(j)))
    return tuple(out)


def expo_to_json(exponents: Sequence[Expo]) -> list:
    """The JSON form of exponent pairs: [["3/2", 1], ...]."""
    return [[str(i), j] for i, j in exponents]


def _is_zero(exponents: Sequence[Expo]) -> bool:
    return all(i == 0 and j == 0 for i, j in exponents)


def exponent_signature(
    exponents: Sequence[Expo], ranks_fraction: str | None = None
) -> tuple:
    """Total-order key for one term/basis: (sum i, sum j, pairs, factor)."""
    total_i = sum((i for i, _ in exponents), Fraction(0))
    total_j = sum(j for _, j in exponents)
    return (total_i, total_j, tuple(exponents), ranks_fraction or "")


def _check_factors(
    parts: Sequence, names: Sequence[str], kind: str, duplicate: str
) -> None:
    """Check terms or bases against the parameter names: one exponent pair
    per parameter, ranks fractions on named parameters, no structure twice."""
    for part in parts:
        if len(part.exponents) != len(names):
            raise ValidationError(f"{kind} exponent count does not match parameters")
        if part.ranks_fraction is not None and part.ranks_fraction not in names:
            raise ValidationError(
                f"ranks fraction parameter {part.ranks_fraction!r} not in space"
            )
    sigs = [part.signature() for part in parts]
    if len(set(sigs)) != len(sigs):
        raise ValidationError(duplicate)


@dataclass(frozen=True)
class Term:
    """One model term: coefficient times a product of parameter factors."""

    coefficient: float
    exponents: tuple[Expo, ...]
    ranks_fraction: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "exponents", _coerce_exponents(self.exponents))
        object.__setattr__(self, "coefficient", float(self.coefficient))
        if _is_zero(self.exponents) and self.ranks_fraction is None:
            raise ValidationError("term with all-zero exponents is the constant")

    def signature(self) -> tuple:
        return exponent_signature(self.exponents, self.ranks_fraction)


@dataclass(frozen=True)
class PmnfModel:
    """A fitted model: constant plus terms over named parameters."""

    constant: float
    terms: tuple[Term, ...]
    space_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(self, "space_names", tuple(self.space_names))
        object.__setattr__(self, "constant", float(self.constant))
        if not self.space_names:
            raise ValidationError("model needs at least one parameter name")
        _check_factors(
            self.terms, self.space_names, "term", "duplicate term structure in model"
        )


@dataclass(frozen=True)
class BasisFunction:
    """A coefficient-free product of parameter factors."""

    exponents: tuple[Expo, ...]
    ranks_fraction: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "exponents", _coerce_exponents(self.exponents))

    @property
    def is_constant(self) -> bool:
        return _is_zero(self.exponents) and self.ranks_fraction is None

    def signature(self) -> tuple:
        return exponent_signature(self.exponents, self.ranks_fraction)


def constant_basis(n_params: int) -> BasisFunction:
    return BasisFunction(((Fraction(0), 0),) * n_params)


@dataclass(frozen=True)
class Skeleton:
    """Basis list, the constant first, over named parameters."""

    space_names: tuple[str, ...]
    bases: tuple[BasisFunction, ...]

    def __post_init__(self):
        object.__setattr__(self, "space_names", tuple(self.space_names))
        object.__setattr__(self, "bases", tuple(self.bases))
        if not self.bases:
            raise ValidationError("skeleton needs at least the constant basis")
        if not self.bases[0].is_constant:
            raise ValidationError("first basis function must be the constant")
        n_const = sum(1 for b in self.bases if b.is_constant)
        if n_const != 1:
            raise ValidationError("constant basis must appear exactly once")
        _check_factors(
            self.bases, self.space_names, "basis", "duplicate basis function in skeleton"
        )

    @property
    def size(self) -> int:
        return len(self.bases)


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
    parts: Sequence, names: Sequence[str], coords, starts: Sequence[float]
) -> np.ndarray:
    """One column per basis or term (one row per coordinate): start, times
    the monomial, times ((p - 1.0) / p) for a ranks fraction on p. Dividing
    first keeps the fraction finite wherever the column is."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != len(names):
        raise ValidationError("coordinate array does not match parameter count")
    logs = np.log2(coords)
    a = np.empty((coords.shape[0], len(parts)))
    for c, part in enumerate(parts):
        col = monomial_values(part.exponents, coords, logs, starts[c])
        if part.ranks_fraction is not None:
            p = coords[:, names.index(part.ranks_fraction)]
            col = col * ((p - 1.0) / p)
        a[:, c] = col
    return a


def design_matrix(skel: Skeleton, coords: np.ndarray) -> np.ndarray:
    """Design matrix (one row per coordinate) for fitting the skeleton."""
    return _columns(skel.bases, skel.space_names, coords, [1.0] * len(skel.bases))


def evaluate(model: PmnfModel, at: Sequence[float]) -> float:
    """Evaluate the model at one coordinate (values aligned with names): the
    constant plus each term's column, started from its coefficient."""
    starts = [t.coefficient for t in model.terms]
    total = model.constant
    for v in _columns(model.terms, model.space_names, [at], starts)[0]:
        total += v  # in term order; np.sum would add pairwise
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


def leading_exponents(model: PmnfModel) -> dict[str, Expo]:
    """Leading (monomial, log) exponent per parameter; constants give (0, 0)."""
    lead = leading_from_terms((t.exponents for t in model.terms), len(model.space_names))
    return dict(zip(model.space_names, lead))


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
    """Canonical human-readable form, terms ordered by exponent signature."""
    parts = []
    if model.constant != 0 or not model.terms:
        parts.append(_format_number(model.constant))
    for t in sorted(model.terms, key=Term.signature):
        factors = _format_factors(t.exponents, model.space_names, t.ranks_fraction)
        parts.append(" * ".join([_format_number(t.coefficient)] + factors))
    return " + ".join(parts)


def model_from_skeleton(
    skel: Skeleton, coefficients: Sequence[float]
) -> PmnfModel:
    """Bind fitted coefficients to a skeleton, giving a model."""
    if len(coefficients) != len(skel.bases):
        raise ValidationError("coefficient count does not match basis count")
    terms = [
        Term(float(c), b.exponents, b.ranks_fraction)
        for c, b in zip(coefficients[1:], skel.bases[1:])
    ]
    return PmnfModel(float(coefficients[0]), tuple(terms), skel.space_names)


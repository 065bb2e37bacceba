"""Least-squares fitting of global polynomial forecast maps.

A forecast map sends phase-space point i to the series value at index
i + (m-1)*p + 1 (the newest component of point i + 1).  The map is a
linear combination of basis monomials in the point's m components, fit
by ordinary least squares over a training region, optionally averaged
across k contiguous folds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .algebra import MonomialBasis, enumerate_monomials
from .embedding import PhaseSpace, TimeSeries

# Fits whose singular-value ratio s_min/s_max falls below this are
# reported as rank-deficient instead of returning an arbitrary
# minimum-norm solution.
RANK_TOLERANCE = 1e-12


class FitError(RuntimeError):
    """Base class for fitting failures."""


class UnderdeterminedSystemError(FitError):
    """Fewer usable training rows than basis monomials."""


class RankDeficiencyError(FitError):
    """The design matrix is numerically rank deficient."""


@dataclass(frozen=True, eq=False)
class PolynomialMap:
    """A fitted scalar polynomial in the embedding coordinates."""

    basis: MonomialBasis
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coefficients, dtype=float)
        if coeffs.shape != (len(self.basis),):
            raise ValueError(
                f"coefficient vector has shape {coeffs.shape}, expected "
                f"({len(self.basis)},)"
            )
        object.__setattr__(self, "coefficients", coeffs)

    def predict(self, point: Sequence[float]) -> float:
        columns = self.basis.design_columns(np.asarray(point))
        return float((columns @ self.coefficients)[0])

    def predict_many(self, points: np.ndarray) -> np.ndarray:
        return self.basis.design_columns(points) @ self.coefficients


@dataclass(frozen=True)
class FitConfig:
    """Fit settings.

    ``training_range`` is a 0-based half-open slice (start, stop) over
    series indices, or None to use every index; a row (point) is usable
    when the point itself starts inside the range and its forecast target
    also falls inside it.
    """

    degree: int = 2
    include_constant: bool = False
    folds: int = 10
    training_range: Tuple[int, int] | None = None

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError(f"degree must be >= 1, got {self.degree}")
        if self.folds < 1:
            raise ValueError(f"folds must be >= 1, got {self.folds}")
        if self.training_range is not None:
            start, stop = self.training_range
            if start < 0 or stop <= start:
                raise ValueError(
                    f"training range ({start}, {stop}) must satisfy "
                    f"0 <= start < stop"
                )


def usable_point_indices(
    space: PhaseSpace,
    series: TimeSeries,
    training_range: Tuple[int, int] | None = None,
) -> np.ndarray:
    """Point indices whose delay window and forecast target both lie in range."""
    start, stop = (0, len(series)) if training_range is None else training_range
    stop = min(stop, len(series))
    span = space.params.window_span
    # point i spans series indices i .. i+span and targets i+span+1
    first = max(start, 0)
    last = stop - span - 2  # largest i with target <= stop-1
    if last < first:
        return np.empty(0, dtype=int)
    return np.arange(first, min(last, space.point_count - 1) + 1)


def build_design_matrix(
    space: PhaseSpace,
    basis: MonomialBasis,
    series: TimeSeries,
    point_indices: np.ndarray | None = None,
    target_lag_offset: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Design matrix and target vector for a least-squares fit.

    Row j evaluates every basis monomial at point ``point_indices[j]``;
    the target is the series value at that point's forecast index, pulled
    back by ``target_lag_offset`` lags (0 fits the standard one-step
    forecast component).
    """
    if basis.variable_count != space.params.dimension:
        raise ValueError(
            f"basis is over {basis.variable_count} variables, embedding "
            f"dimension is {space.params.dimension}"
        )
    if point_indices is None:
        point_indices = usable_point_indices(space, series)
    point_indices = np.asarray(point_indices, dtype=int)
    if len(point_indices) == 0:
        raise UnderdeterminedSystemError("no usable training rows")
    targets = (
        point_indices
        + space.params.window_span
        + 1
        - target_lag_offset * space.params.lag
    )
    if targets.min() < 0 or targets.max() >= len(series):
        raise ValueError(
            f"forecast targets fall outside the series (indices "
            f"{targets.min()}..{targets.max()}, series length {len(series)})"
        )
    matrix = basis.design_columns(space.points[point_indices])
    return matrix, series.values[targets]


def fit_least_squares(matrix: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Solve min ||A c - t|| for the coefficient vector c.

    Raises UnderdeterminedSystemError when rows < columns and
    RankDeficiencyError when the singular-value ratio falls below
    RANK_TOLERANCE.
    """
    matrix = np.asarray(matrix, dtype=float)
    targets = np.asarray(targets, dtype=float)
    rows, cols = matrix.shape
    if rows < cols:
        raise UnderdeterminedSystemError(
            f"{rows} rows cannot determine {cols} coefficients"
        )
    coeffs, _, _, singular = np.linalg.lstsq(matrix, targets, rcond=None)
    if singular[0] == 0.0 or singular[-1] / singular[0] < RANK_TOLERANCE:
        raise RankDeficiencyError(
            f"design matrix is rank deficient (singular-value ratio "
            f"{0.0 if singular[0] == 0.0 else singular[-1] / singular[0]:.3e})"
        )
    return coeffs


def contiguous_folds(row_count: int, folds: int) -> list:
    """Split row positions 0..row_count-1 into contiguous folds.

    Folds are as even as possible; the first row_count % folds folds get
    one extra row.
    """
    if folds < 1:
        raise ValueError(f"folds must be >= 1, got {folds}")
    if folds > row_count:
        raise ValueError(
            f"cannot split {row_count} rows into {folds} non-empty folds"
        )
    return np.array_split(np.arange(row_count), folds)


def fit_kfold(
    series: TimeSeries,
    space: PhaseSpace,
    config: FitConfig,
    target_lag_offset: int = 0,
) -> PolynomialMap:
    """Fit the forecast map, averaging coefficients over contiguous folds.

    Each fold is held out in turn, the map is fit on the complement, and
    the final coefficients are the arithmetic mean of the per-fold
    vectors.  With folds=1 this is a single plain least-squares fit.  The
    design matrix is built once over all usable rows, and each fold solves
    the subset of its rows that the fold keeps.
    """
    m = space.params.dimension
    rows = usable_point_indices(space, series, config.training_range)
    # count the basis before building it, which takes minutes at a high degree
    terms = math.comb(config.degree + m, m) - (not config.include_constant)
    if len(rows) < terms:
        raise UnderdeterminedSystemError(
            f"{len(rows)} usable rows cannot determine {terms} "
            f"coefficients (degree {config.degree}, constant "
            f"{config.include_constant})"
        )
    basis = enumerate_monomials(m, config.degree, config.include_constant)
    parts = contiguous_folds(len(rows), config.folds)
    matrix, targets = build_design_matrix(
        space, basis, series, rows, target_lag_offset
    )
    if config.folds == 1:
        return PolynomialMap(basis, fit_least_squares(matrix, targets))
    per_fold = []
    for k, part in enumerate(parts):
        keep = np.ones(len(rows), dtype=bool)
        keep[part] = False
        try:
            per_fold.append(fit_least_squares(matrix[keep], targets[keep]))
        except FitError as exc:
            raise type(exc)(f"fold {k + 1} of {config.folds}: {exc}") from exc
    return PolynomialMap(basis, np.mean(per_fold, axis=0))

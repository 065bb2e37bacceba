"""Delay-coordinate reconstruction of scalar time series.

From a series x(0), x(1), ... and embedding parameters (lag p,
dimension m), point i of the reconstructed phase space is

    point_i = (x(i), x(i + p), ..., x(i + (m-1)*p))

so components run from oldest to newest.  All indices are 0-based
internally; user-facing entry numbers (CLI, reports) are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """A finite scalar series sampled at equal intervals."""

    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1:
            raise ValueError(f"series must be 1-dimensional, got shape {values.shape}")
        if len(values) < 1:
            raise ValueError("series must contain at least one value")
        if not np.all(np.isfinite(values)):
            raise ValueError("series contains non-finite values")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class EmbeddingParams:
    """Delay-embedding lag ``p`` and dimension ``m`` (both in samples)."""

    lag: int
    dimension: int

    def __post_init__(self):
        if self.lag < 1:
            raise ValueError(f"lag must be >= 1, got {self.lag}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")

    @property
    def window_span(self) -> int:
        """Distance in samples between a point's oldest and newest component."""
        return (self.dimension - 1) * self.lag


@dataclass(frozen=True, eq=False)
class PhaseSpace:
    """Delay vectors of a series: ``points`` has shape (count, dimension)."""

    params: EmbeddingParams
    points: np.ndarray

    @property
    def point_count(self) -> int:
        return len(self.points)


def reconstruct(series: TimeSeries, params: EmbeddingParams) -> PhaseSpace:
    """Embed ``series`` into delay coordinates.

    Produces len(series) - (m-1)*p points; the series must be at least
    (m-1)*p + 1 samples long.
    """
    span = params.window_span
    n = len(series)
    if n < span + 1:
        raise ValueError(
            f"series of length {n} is too short for lag {params.lag} and "
            f"dimension {params.dimension}; need at least {span + 1} samples"
        )
    count = n - span
    cols = [
        series.values[j * params.lag : j * params.lag + count]
        for j in range(params.dimension)
    ]
    return PhaseSpace(params, np.column_stack(cols))

"""Delay-coordinate embedding of scalar series."""

import numpy as np
import pytest

from polycast import (
    EmbeddingParams,
    PhaseSpace,
    TimeSeries,
    reconstruct,
)


def test_time_series_validation():
    with pytest.raises(ValueError):
        TimeSeries(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        TimeSeries(np.array([]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        TimeSeries(np.array([1.0, np.inf]))
    s = TimeSeries([1, 2, 3], name="x1")
    assert s.values.dtype == np.float64
    assert len(s) == 3


def test_embedding_params_validation():
    with pytest.raises(ValueError):
        EmbeddingParams(0, 3)
    with pytest.raises(ValueError):
        EmbeddingParams(6, 0)
    assert EmbeddingParams(6, 3).window_span == 12
    assert EmbeddingParams(1, 1).window_span == 0
    assert EmbeddingParams(4, 2).window_span == 4


def test_reconstruct_worked_example():
    # series 1..10, lag 2, dimension 3: span 4, so 6 points, components
    # oldest to newest.
    series = TimeSeries(np.arange(1.0, 11.0))
    space = reconstruct(series, EmbeddingParams(2, 3))
    assert space.point_count == 6
    expected = np.array(
        [
            [1, 3, 5],
            [2, 4, 6],
            [3, 5, 7],
            [4, 6, 8],
            [5, 7, 9],
            [6, 8, 10],
        ],
        dtype=float,
    )
    assert np.array_equal(space.points, expected)


def test_reconstruct_dimension_one_is_identity_column():
    series = TimeSeries(np.array([5.0, 6.0, 7.0]))
    space = reconstruct(series, EmbeddingParams(3, 1))
    assert space.points.shape == (3, 1)
    assert np.array_equal(space.points[:, 0], series.values)


def test_reconstruct_point_count_formula():
    rng = np.random.default_rng(0)
    series = TimeSeries(rng.normal(size=600))
    space = reconstruct(series, EmbeddingParams(6, 3))
    assert space.point_count == 588
    assert space.points.shape == (588, 3)


def test_reconstruct_too_short():
    series = TimeSeries(np.ones(12))
    with pytest.raises(ValueError, match="too short"):
        reconstruct(series, EmbeddingParams(6, 3))
    # exactly span + 1 samples gives a single point
    space = reconstruct(TimeSeries(np.arange(13.0)), EmbeddingParams(6, 3))
    assert space.point_count == 1
    assert np.array_equal(space.points[0], [0.0, 6.0, 12.0])


def test_points_gather_lagged_samples():
    # point i is the series at i, i + p, ..., i + (m-1)p
    rng = np.random.default_rng(1)
    series = TimeSeries(rng.normal(size=100))
    space = reconstruct(series, EmbeddingParams(5, 4))
    for i in (0, 7, space.point_count - 1):
        assert np.array_equal(space.points[i], series.values[i + 5 * np.arange(4)])


def test_rows_shift_by_one_sample():
    # consecutive points are the same window advanced one sample
    rng = np.random.default_rng(2)
    series = TimeSeries(rng.normal(size=50))
    space = reconstruct(series, EmbeddingParams(3, 4))
    for i in range(space.point_count - 1):
        assert np.array_equal(
            space.points[i + 1], series.values[i + 1 + 3 * np.arange(4)]
        )


def test_forecast_target_is_newest_component_of_next_point():
    rng = np.random.default_rng(3)
    series = TimeSeries(rng.normal(size=80))
    params = EmbeddingParams(6, 3)
    space = reconstruct(series, params)
    for i in range(space.point_count - 1):
        # the forecast target of point i is series index i + (m-1)p + 1
        t = i + params.window_span + 1
        assert series.values[t] == space.points[i + 1, -1]

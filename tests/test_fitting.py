"""Least-squares forecast-map fitting and fold averaging."""

import itertools

import numpy as np
import pytest

from polycast import (
    EmbeddingParams,
    FitConfig,
    FitError,
    PolynomialMap,
    RANK_TOLERANCE,
    RankDeficiencyError,
    TimeSeries,
    UnderdeterminedSystemError,
    build_design_matrix,
    contiguous_folds,
    enumerate_monomials,
    fit_kfold,
    fit_least_squares,
    lorenz_series,
    reconstruct,
    usable_point_indices,
)

from conftest import TRAIN_RANGE
from helpers import (
    MAP9_A_TERMS,
    MAP9_B_TERMS,
    quadratic_delay_series,
    reference_fit_kfold,
)


def _map_from_terms(terms):
    basis = enumerate_monomials(3, 2, include_constant=False)
    coeffs = np.array([terms[m] for m in basis.monomials])
    return PolynomialMap(basis, coeffs)


def test_fit_config_validation():
    with pytest.raises(ValueError):
        FitConfig(degree=0)
    with pytest.raises(ValueError):
        FitConfig(folds=0)
    with pytest.raises(ValueError):
        FitConfig(training_range=(5, 5))
    with pytest.raises(ValueError):
        FitConfig(training_range=(-1, 5))


def test_usable_rows_default_pipeline(default_series, default_space):
    rows = usable_point_indices(default_space, default_series, TRAIN_RANGE)
    assert len(rows) == 127
    assert rows[0] == 0 and rows[-1] == 126


def test_usable_rows_whole_series(default_series, default_space):
    # point i targets i + span + 1, so the last point has no target
    rows = usable_point_indices(default_space, default_series)
    assert len(rows) == default_space.point_count - 1


def test_usable_rows_clamped_and_empty():
    series = TimeSeries(np.arange(10.0))
    space = reconstruct(series, EmbeddingParams(2, 3))
    rows = usable_point_indices(space, series, (0, 99))
    assert np.array_equal(rows, usable_point_indices(space, series))
    assert len(usable_point_indices(space, series, (0, 5))) == 0


def test_design_matrix_hand_example():
    # lag 1, dimension 1, degree 1 with constant on series (1, 2, 3):
    # rows are (1, value), targets the next value.
    series = TimeSeries(np.array([1.0, 2.0, 3.0]))
    space = reconstruct(series, EmbeddingParams(1, 1))
    basis = enumerate_monomials(1, 1, include_constant=True)
    matrix, targets = build_design_matrix(space, basis, series)
    assert np.array_equal(matrix, [[1.0, 1.0], [1.0, 2.0]])
    assert np.array_equal(targets, [2.0, 3.0])


def test_design_matrix_column_count(default_series, default_space):
    with_c = enumerate_monomials(3, 2, True)
    without_c = enumerate_monomials(3, 2, False)
    m1, _ = build_design_matrix(default_space, with_c, default_series)
    m2, _ = build_design_matrix(default_space, without_c, default_series)
    assert m1.shape[1] == 10
    assert m2.shape[1] == 9


def test_design_matrix_target_lag_offset(default_series, default_space):
    basis = enumerate_monomials(3, 2, False)
    rows = np.arange(20, 40)
    span = default_space.params.window_span
    lag = default_space.params.lag
    for offset in (0, 1, 2):
        _, targets = build_design_matrix(
            default_space, basis, default_series, rows, offset
        )
        expected = default_series.values[rows + span + 1 - offset * lag]
        assert np.array_equal(targets, expected)


def test_design_matrix_validation(default_series, default_space):
    wrong = enumerate_monomials(2, 2, False)
    with pytest.raises(ValueError):
        build_design_matrix(default_space, wrong, default_series)
    basis = enumerate_monomials(3, 2, False)
    with pytest.raises(UnderdeterminedSystemError):
        build_design_matrix(
            default_space, basis, default_series, np.empty(0, dtype=int)
        )
    # last point's target falls past the series end
    last = default_space.point_count - 1
    with pytest.raises(ValueError):
        build_design_matrix(
            default_space, basis, default_series, np.array([last])
        )
    # large offsets would index before the series start
    with pytest.raises(ValueError):
        build_design_matrix(
            default_space, basis, default_series, np.array([0]),
            target_lag_offset=3,
        )


def test_design_matrix_overflow_is_a_fit_error(default_series):
    # the squares of 1e201 overflow; the fit stops before LAPACK sees inf
    series = TimeSeries(default_series.values * 1e200)
    space = reconstruct(series, EmbeddingParams(6, 3))
    basis = enumerate_monomials(3, 2, False)
    with pytest.raises(FitError, match=r"^degree-2 monomials overflow on a "
                       r"series whose largest magnitude is 1\.68e\+201$"):
        build_design_matrix(space, basis, series)
    with pytest.raises(FitError, match="overflow"):
        fit_kfold(series, space, FitConfig(training_range=TRAIN_RANGE))
    # degree 1 stays finite and fits
    fit_kfold(series, space, FitConfig(degree=1, training_range=TRAIN_RANGE))


def test_lstsq_identity_and_mean():
    assert np.allclose(
        fit_least_squares(np.eye(2), np.array([3.0, -1.0])), [3.0, -1.0]
    )
    # a single constant column fits the target mean
    ones = np.ones((5, 1))
    t = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
    assert fit_least_squares(ones, t)[0] == pytest.approx(t.mean(), rel=1e-14)


def test_lstsq_underdetermined():
    with pytest.raises(UnderdeterminedSystemError):
        fit_least_squares(np.ones((2, 3)), np.ones(2))


def test_lstsq_rank_deficient():
    col = np.array([1.0, 2.0, 3.0])
    with pytest.raises(RankDeficiencyError):
        fit_least_squares(np.column_stack([col, col]), np.ones(3))
    with pytest.raises(RankDeficiencyError):
        fit_least_squares(np.zeros((3, 2)), np.ones(3))


def test_lstsq_rank_tolerance_boundary():
    # a matrix built from chosen singular values, just either side of the bound
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    t = rng.normal(size=6)
    wide = (u * [1.0, 0.5, 2.0 * RANK_TOLERANCE]) @ v.T
    assert np.all(np.isfinite(fit_least_squares(wide, t)))
    narrow = (u * [1.0, 0.5, 0.5 * RANK_TOLERANCE]) @ v.T
    with pytest.raises(RankDeficiencyError, match="ratio 5.0"):
        fit_least_squares(narrow, t)


def test_lstsq_residual_orthogonal_to_columns():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(50, 9))
    t = rng.normal(size=50)
    c = fit_least_squares(A, t)
    r = A @ c - t
    assert np.linalg.norm(A.T @ r) <= 1e-8 * np.linalg.norm(A.T @ t)


def test_lstsq_row_permutation_invariant():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(50, 9))
    t = rng.normal(size=50)
    c1 = fit_least_squares(A, t)
    perm = rng.permutation(50)
    c2 = fit_least_squares(A[perm], t[perm])
    assert np.max(np.abs(c1 - c2)) <= 1e-10


def test_contiguous_folds():
    parts = contiguous_folds(10, 3)
    assert [list(p) for p in parts] == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert np.array_equal(np.concatenate(parts), np.arange(10))
    assert [len(p) for p in contiguous_folds(9, 3)] == [3, 3, 3]
    with pytest.raises(ValueError):
        contiguous_folds(2, 3)
    with pytest.raises(ValueError):
        contiguous_folds(5, 0)


def test_fit_recovers_exact_quadratic_map_any_fold_count():
    # A series generated by an exact quadratic delay map must be fit back
    # to the generating coefficients regardless of the fold count.
    terms = {(0, 0, 1): 3.9, (0, 0, 2): -3.9}
    rng = np.random.default_rng(17)
    lag, dim = 3, 3
    init = rng.uniform(0.2, 0.8, size=(dim - 1) * lag + 1)
    series = TimeSeries(quadratic_delay_series(terms, lag, dim, 150, init))
    space = reconstruct(series, EmbeddingParams(lag, dim))
    for folds in (1, 4, 10):
        cfg = FitConfig(degree=2, include_constant=False, folds=folds)
        fmap = fit_kfold(series, space, cfg)
        for mono, coeff in zip(fmap.basis.monomials, fmap.coefficients):
            assert coeff == pytest.approx(terms.get(mono, 0.0), abs=1e-8)


def test_fit_kfold_matches_naive_average(default_series, default_space,
                                         default_map):
    # the per-fold rebuild agrees bit for bit, refusals included
    config = FitConfig(degree=2, include_constant=False, folds=10,
                       training_range=TRAIN_RANGE)
    assert np.array_equal(
        default_map.coefficients,
        reference_fit_kfold(default_series, default_space, config),
    )
    series = lorenz_series(samples=1500)
    space = reconstruct(series, default_space.params)
    for degree, constant, length in itertools.product(
        range(1, 7), (False, True), (300, 1400)
    ):
        config = FitConfig(degree=degree, include_constant=constant, folds=10,
                           training_range=(0, length))
        for offset in range(3):
            try:
                want = reference_fit_kfold(series, space, config, offset)
            except FitError as exc:
                with pytest.raises(type(exc)) as info:
                    fit_kfold(series, space, config, offset)
                assert str(info.value) == str(exc)
                continue
            got = fit_kfold(series, space, config, offset).coefficients
            assert np.array_equal(got, want)


def test_fit_kfold_single_fold_is_plain_fit(default_series, default_space):
    cfg1 = FitConfig(degree=2, include_constant=False, folds=1,
                     training_range=TRAIN_RANGE)
    fmap = fit_kfold(default_series, default_space, cfg1)
    basis = enumerate_monomials(3, 2, False)
    rows = usable_point_indices(default_space, default_series, TRAIN_RANGE)
    matrix, targets = build_design_matrix(
        default_space, basis, default_series, rows
    )
    assert np.array_equal(fmap.coefficients, fit_least_squares(matrix, targets))


def test_fit_kfold_underdetermined(default_series, default_space):
    cfg = FitConfig(degree=5, include_constant=True, folds=1,
                    training_range=(0, 40))
    with pytest.raises(UnderdeterminedSystemError):
        fit_kfold(default_series, default_space, cfg)


def test_fit_kfold_row_count_boundary(default_series, default_space):
    # degree 1 without the constant has 3 terms over m = 3; the range
    # (0, 15) leaves points 0 and 1, and (0, 16) adds point 2
    cfg = FitConfig(degree=1, include_constant=False, folds=1,
                    training_range=(0, 15))
    with pytest.raises(UnderdeterminedSystemError, match=(
            r"^2 usable rows cannot determine 3 coefficients "
            r"\(degree 1, constant False\)$")):
        fit_kfold(default_series, default_space, cfg)
    cfg = FitConfig(degree=1, include_constant=False, folds=1,
                    training_range=(0, 16))
    assert len(fit_kfold(default_series, default_space, cfg).coefficients) == 3


def test_fit_kfold_names_failing_fold():
    # every fold complement of a constant series is rank deficient
    series = TimeSeries(np.full(10, 2.5))
    space = reconstruct(series, EmbeddingParams(1, 1))
    cfg = FitConfig(degree=1, include_constant=True, folds=3)
    with pytest.raises(RankDeficiencyError, match=r"fold 1 of 3"):
        fit_kfold(series, space, cfg)


def test_polynomial_map_validation_and_predict():
    basis = enumerate_monomials(2, 1, True)
    with pytest.raises(ValueError):
        PolynomialMap(basis, np.ones(2))
    fmap = PolynomialMap(basis, np.array([1.0, 2.0, 3.0]))
    assert fmap.predict((1.0, 1.0)) == pytest.approx(6.0, rel=1e-15)
    pts = np.array([[0.0, 0.0], [1.0, -1.0]])
    assert np.allclose(fmap.predict_many(pts), [1.0, 0.0])
    assert fmap.predict((0.0, 0.0)) == 1.0


def test_reference_map_a_at_ones():
    # with every variable 1 the map value is the plain coefficient sum
    fmap = _map_from_terms(MAP9_A_TERMS)
    expected = sum(MAP9_A_TERMS.values())
    assert fmap.predict((1.0, 1.0, 1.0)) == pytest.approx(expected, rel=1e-9)
    assert expected == pytest.approx(0.972407647294, abs=1e-12)


def test_reference_map_b_fixes_origin():
    fmap = _map_from_terms(MAP9_B_TERMS)
    assert fmap.predict((0.0, 0.0, 0.0)) == 0.0

"""Forecast records, surveys, and error metrics."""

import math
import warnings

import numpy as np
import pytest

from polycast import (
    DifferenceTable,
    EmbeddingParams,
    FitConfig,
    ForecastRecord,
    FLAG_NEAR_ZERO_ACTUAL,
    FLAG_NO_CORRECTION_NEEDED,
    FLAG_NO_PLATEAU,
    LOG_RATIO_CAP,
    NEAR_ZERO_THRESHOLD,
    NoPlateauError,
    PolynomialMap,
    SurveyReport,
    TimeSeries,
    enumerate_monomials,
    corrected_forecast,
    equally_spaced,
    error_window,
    find_plateau,
    fit_kfold,
    forecast_improved,
    log_ratio_series,
    percentage_error,
    reconstruct,
    survey,
)

from helpers import (
    ACTUAL_A,
    ACTUAL_B,
    GF_A,
    GF_B,
    GF_ERR_A,
    GF_ERR_B,
    IGF_B,
    IGF_ERR_B,
)


def test_percentage_error_worked_values():
    assert percentage_error(ACTUAL_A, GF_A) == pytest.approx(GF_ERR_A, abs=1e-6)
    assert percentage_error(ACTUAL_B, GF_B) == pytest.approx(GF_ERR_B, abs=1e-6)
    for igf, err in zip(IGF_B, IGF_ERR_B):
        assert percentage_error(ACTUAL_B, igf) == pytest.approx(err, abs=1e-6)


def test_percentage_error_properties():
    assert percentage_error(0.0, 1.0) == math.inf
    assert percentage_error(2.0, 2.0) == 0.0
    assert percentage_error(-4.0, -5.0) == pytest.approx(25.0, rel=1e-14)
    # scale invariance
    assert percentage_error(3.0, 2.5) == pytest.approx(
        percentage_error(300.0, 250.0), rel=1e-12
    )


def test_error_window_alignment(pipeline):
    series, space, fmap = pipeline
    point, window = 200, 40
    actuals, forecasts = error_window(fmap, series, space, point, window)
    assert len(actuals) == len(forecasts) == window + 1
    span = space.params.window_span
    for j, row in enumerate(range(point - window, point + 1)):
        assert actuals[j] == series.values[row + span + 1]
        # batch and single-point evaluation may differ in the last bit
        assert forecasts[j] == pytest.approx(
            fmap.predict(space.points[row]), rel=1e-12
        )
    with pytest.raises(ValueError):
        error_window(fmap, series, space, 39, 40)


def test_error_window_accepts_exactly_the_forecast_points(pipeline):
    # a forecast accepts points window..point_count - 2 (anchors 54..600)
    series, space, fmap = pipeline
    last = space.point_count - 2
    actuals, forecasts = error_window(fmap, series, space, last, 40)
    assert len(actuals) == len(forecasts) == 41
    assert actuals[-1] == series.values[-1]
    for point in (space.point_count - 1, 39):
        with pytest.raises(ValueError, match=r"valid anchors: 54\.\.600\)"):
            error_window(fmap, series, space, point, 40)


def test_forecast_record_bookkeeping(pipeline):
    series, space, fmap = pipeline
    point = 316
    span = space.params.window_span
    rec = forecast_improved(fmap, series, space, point)
    assert rec.entry == point + span + 2 == 330
    assert rec.gf_forecast == fmap.predict(space.points[point + 1])
    assert rec.actual == series.values[point + span + 2]
    assert rec.gf_error_pct == percentage_error(rec.actual, rec.gf_forecast)
    assert rec.igf_error_pct == percentage_error(rec.actual, rec.igf_forecast)
    assert rec.k_star is not None and rec.k_star >= 0
    assert not rec.flags


def test_forecast_beyond_series_end_has_no_actual(pipeline):
    series, space, fmap = pipeline
    point = space.point_count - 2  # targets exactly the first unseen entry
    rec = forecast_improved(fmap, series, space, point)
    assert rec.actual is None
    assert rec.gf_error_pct is None and rec.igf_error_pct is None
    assert math.isfinite(rec.igf_forecast)


def test_forecast_improved_validation(pipeline):
    series, space, fmap = pipeline
    with pytest.raises(ValueError):
        forecast_improved(fmap, series, space, 100, window=20, n_cap=30)
    with pytest.raises(ValueError):
        forecast_improved(fmap, series, space, space.point_count - 1)
    with pytest.raises(ValueError):
        forecast_improved(fmap, series, space, 10)  # window part out of range


def test_future_values_do_not_change_forecast(pipeline):
    # corrupting every entry after the forecast target leaves the record
    # bit-identical: nothing downstream of the anchor is consulted
    series, space, fmap = pipeline
    span = space.params.window_span
    for point in (200, 316):
        target = point + span + 2
        doctored = series.values.copy()
        doctored[target + 1 :] = 1e6
        d_series = TimeSeries(doctored)
        d_space = reconstruct(d_series, space.params)
        a = forecast_improved(fmap, series, space, point)
        b = forecast_improved(fmap, d_series, d_space, point)
        assert a.gf_forecast == b.gf_forecast
        assert a.igf_forecast == b.igf_forecast
        assert a.k_star == b.k_star
        assert a.actual == b.actual


def _identity_forecaster():
    # predicts the newest window component; exact on constant series
    basis = enumerate_monomials(3, 1, include_constant=False)
    return PolynomialMap(basis, np.array([0.0, 0.0, 1.0]))


def test_perfect_errors_short_circuit_correction():
    series = TimeSeries(np.full(120, 3.25))
    space = reconstruct(series, EmbeddingParams(6, 3))
    fmap = _identity_forecaster()
    rec = forecast_improved(fmap, series, space, 60)
    assert FLAG_NO_CORRECTION_NEEDED in rec.flags
    assert rec.k_star is None
    assert rec.igf_forecast == rec.gf_forecast == 3.25
    assert rec.gf_error_pct == 0.0


def test_survey_of_perfect_forecasts():
    series = TimeSeries(np.full(120, 3.25))
    space = reconstruct(series, EmbeddingParams(6, 3))
    report = survey(_identity_forecaster(), series, space, (60, 70, 80))
    assert all(FLAG_NO_CORRECTION_NEEDED in r.flags for r in report.records)
    assert report.mean_gf_error_pct == 0.0
    assert report.mean_igf_error_pct == 0.0
    # both errors zero: the log ratio is a capped zero
    assert all(p.value == 0.0 and p.capped for p in report.log_ratio)


def test_near_zero_actual_flagged_and_excludable(pipeline):
    series, space, fmap = pipeline
    point = 250
    span = space.params.window_span
    doctored = series.values.copy()
    doctored[point + span + 2] = 0.0
    d_series = TimeSeries(doctored)
    d_space = reconstruct(d_series, space.params)
    rec = forecast_improved(fmap, d_series, d_space, point)
    assert FLAG_NEAR_ZERO_ACTUAL in rec.flags
    assert rec.gf_error_pct == math.inf

    report = survey(fmap, d_series, d_space, (rec.entry, 330, 340))
    assert FLAG_NEAR_ZERO_ACTUAL in report.records[0].flags
    assert math.isinf(report.mean_gf_error_pct)
    assert len(report.records) == 3


def test_near_zero_threshold_is_exclusive(pipeline):
    # an actual of exactly NEAR_ZERO_THRESHOLD is not near zero; the next
    # float below it is.  The anchor's window ends before its target, so
    # only the actual and the errors may change.
    series, space, fmap = pipeline
    entry = 330
    plain = survey(fmap, series, space, (entry,)).records[0]
    for actual, flagged in ((NEAR_ZERO_THRESHOLD, False),
                            (np.nextafter(NEAR_ZERO_THRESHOLD, 0.0), True)):
        doctored = series.values.copy()
        doctored[entry] = actual
        d_series = TimeSeries(doctored)
        rec = survey(fmap, d_series, reconstruct(d_series, space.params),
                     (entry,)).records[0]
        assert rec.actual == actual
        assert (FLAG_NEAR_ZERO_ACTUAL in rec.flags) is flagged
        assert rec[:4] == plain[:4]


def test_no_plateau_fallback_flag():
    # Against a zero map the error window is the raw actuals.  Planting
    # eps(P-j) = 2^-j there makes every anchor delta exactly 2^-k (each
    # difference of adjacent powers of two is float-exact), so the
    # magnitudes fall forever and no plateau exists.
    from polycast import NoPlateauError

    span, point, window = 12, 52, 40
    series_vals = np.full(70, 0.5)
    rows = np.arange(point - window, point + 1)
    series_vals[rows + span + 1] = 2.0 ** -np.arange(window, -1, -1)
    series = TimeSeries(series_vals)
    space = reconstruct(series, EmbeddingParams(6, 3))
    fmap = PolynomialMap(
        enumerate_monomials(3, 1, include_constant=False), np.zeros(3)
    )
    with pytest.raises(NoPlateauError, match="anchor 66"):
        forecast_improved(fmap, series, space, point)
    rec = forecast_improved(
        fmap, series, space, point, fallback_on_no_plateau=True
    )
    assert FLAG_NO_PLATEAU in rec.flags
    assert rec.k_star is None
    assert rec.igf_forecast == rec.gf_forecast
    # the survey survives the same anchor by falling back per record
    report = survey(fmap, series, space, (point + span + 2,))
    assert FLAG_NO_PLATEAU in report.records[0].flags


def test_log_ratio_series_values():
    def rec(entry, gf, igf):
        return ForecastRecord(
            entry=entry, gf_forecast=0.0, igf_forecast=0.0, k_star=0,
            actual=1.0, gf_error_pct=gf, igf_error_pct=igf,
        )

    points = log_ratio_series(
        [
            rec(1, math.e ** 2, 1.0),
            rec(2, 1.0, 0.0),
            rec(3, 0.0, 1.0),
            rec(4, 0.0, 0.0),
            rec(5, 1e30, 1e-30),
            ForecastRecord(entry=6, gf_forecast=0.0, igf_forecast=0.0,
                           k_star=None),
        ]
    )
    assert len(points) == 5  # the record without errors is skipped
    assert points[0].value == pytest.approx(2.0, rel=1e-12)
    assert not points[0].capped
    assert points[1] == (2, LOG_RATIO_CAP, True)
    assert points[2] == (3, -LOG_RATIO_CAP, True)
    assert points[3] == (4, 0.0, True)
    assert points[4] == (5, LOG_RATIO_CAP, True)


def test_log_ratio_clips_a_finite_ratio_below_the_cap():
    record = ForecastRecord(entry=7, gf_forecast=0.0, igf_forecast=0.0,
                            k_star=0, actual=1.0, gf_error_pct=1e-30,
                            igf_error_pct=1e30)
    assert log_ratio_series([record]) == ((7, -LOG_RATIO_CAP, True),)


def test_log_ratio_cap_is_inclusive():
    # ln(e^50) is exactly LOG_RATIO_CAP, and ln(e^-50) exactly its
    # negative: a ratio at the cap is kept as it is, not clipped
    assert math.log(math.exp(LOG_RATIO_CAP)) == LOG_RATIO_CAP

    def rec(entry, gf, igf):
        return ForecastRecord(entry, 0.0, 0.0, 0, 1.0, gf, igf)

    at_cap = math.exp(LOG_RATIO_CAP)
    assert log_ratio_series([rec(1, at_cap, 1.0), rec(2, 1.0, at_cap)]) == (
        (1, LOG_RATIO_CAP, False), (2, -LOG_RATIO_CAP, False),
    )


def test_log_ratio_of_two_infinite_errors_is_nan():
    # an actual of exactly 0 makes both errors infinite; the ratio is
    # undefined and is neither clipped nor marked capped
    (point,) = log_ratio_series([ForecastRecord(
        8, 0.0, 0.0, 0, 0.0, math.inf, math.inf)])
    assert point.entry == 8 and math.isnan(point.value) and not point.capped


def test_equally_spaced():
    assert equally_spaced(300, 500, 10) == range(300, 501, 10)
    assert tuple(equally_spaced(5, 5, 3)) == (5,)
    assert tuple(equally_spaced(5, 4, 1)) == ()
    with pytest.raises(ValueError):
        equally_spaced(1, 10, 0)
    # a range, so a huge span costs nothing until it is read
    assert len(equally_spaced(1, 10**12, 1)) == 10**12


def test_survey_entry_validation(pipeline):
    series, space, fmap = pipeline
    with pytest.raises(ValueError):
        survey(fmap, series, space, (40,))  # window would start before 0
    with pytest.raises(ValueError):
        survey(fmap, series, space, (series.values.size + 14,))


def test_survey_preserves_order_and_aggregates(pipeline):
    series, space, fmap = pipeline
    entries = (400, 330, 370)
    report = survey(fmap, series, space, entries)
    assert tuple(rec.entry for rec in report.records) == entries
    gf_errs = [rec.gf_error_pct for rec in report.records]
    igf_errs = [rec.igf_error_pct for rec in report.records]
    assert report.mean_gf_error_pct == pytest.approx(np.mean(gf_errs), rel=1e-12)
    assert report.mean_igf_error_pct == pytest.approx(np.mean(igf_errs), rel=1e-12)


def test_survey_means_skip_records_without_an_actual(pipeline):
    # entry 600 is the series' last: its forecast target lies past the
    # end, so it has no actual and no error, and no part in the means
    series, space, fmap = pipeline
    report = survey(fmap, series, space, (330, len(series)))
    known, unknown = report.records
    assert unknown.actual is None and unknown.gf_error_pct is None
    assert report.mean_gf_error_pct == known.gf_error_pct
    assert report.mean_igf_error_pct == known.igf_error_pct
    assert [point.entry for point in report.log_ratio] == [330]


def test_survey_report_derives_its_aggregates_from_its_records(pipeline):
    series, space, fmap = pipeline
    report = survey(fmap, series, space, equally_spaced(330, 530, 10))
    again = SurveyReport(report.records)
    assert again == report
    assert again.mean_gf_error_pct == float(
        np.mean([rec.gf_error_pct for rec in report.records]))
    assert again.log_ratio == log_ratio_series(report.records)
    assert again.log_ratio is again.log_ratio  # computed once


def test_survey_deterministic(pipeline):
    series, space, fmap = pipeline
    entries = equally_spaced(330, 430, 10)
    a = survey(fmap, series, space, entries)
    b = survey(fmap, series, space, entries)
    assert a.records == b.records


def _reference_forecast(fmap, series, space, point, window=40, n_cap=30):
    """(gf, igf, k*, flags) from a literal per-anchor correction."""
    span = space.params.window_span
    entry = point + span + 2
    actuals, forecasts = error_window(fmap, series, space, point, window)
    eps = actuals - forecasts
    gf = fmap.predict(space.points[point + 1])
    igf, k_star, flags = gf, None, set()
    if np.all(eps == 0.0):
        flags.add(FLAG_NO_CORRECTION_NEEDED)
    else:
        table = DifferenceTable(eps)
        try:
            k_star = find_plateau(table.magnitudes(n_cap), n_cap=n_cap).k_star
        except NoPlateauError:
            flags.add(FLAG_NO_PLATEAU)
        else:
            igf = corrected_forecast(gf, table, k_star)
    if entry < len(series) and abs(series.values[entry]) < NEAR_ZERO_THRESHOLD:
        flags.add(FLAG_NEAR_ZERO_ACTUAL)
    return gf, igf, k_star, frozenset(flags)


def _valid_points(space, window=40):
    return range(window, space.point_count - 1)


def _assert_survey_matches_reference(fmap, series, space, points):
    span = space.params.window_span
    report = survey(fmap, series, space, [p + span + 2 for p in points])
    assert len(report.records) == len(points)
    for point, rec in zip(points, report.records):
        gf, igf, k_star, flags = _reference_forecast(fmap, series, space, point)
        assert rec.entry == point + span + 2
        assert rec.k_star == k_star
        assert rec.flags == flags
        assert rec.gf_forecast == pytest.approx(gf, rel=1e-12)
        assert rec.igf_forecast == pytest.approx(igf, rel=1e-12)
    return report


def test_survey_matches_per_anchor_reference(pipeline):
    series, space, fmap = pipeline
    points = list(_valid_points(space))
    assert len(points) == 547
    # contiguous; farther apart than the window; reversed; duplicated
    for layout in (
        points,
        points[::43],
        points[::-1],
        points[200:260] + points[230:250] + points[::97],
    ):
        _assert_survey_matches_reference(fmap, series, space, layout)

    # One batch mixing perfect windows (inside the first constant stretch)
    # with imperfect ones.  Once the ramp levels off again, an anchor's own
    # error is 0 while its window still holds the ramp's errors.
    ramp = 2.0 + np.arange(1, 61) ** 1.5
    values = np.concatenate([np.full(100, 2.0), ramp, np.full(40, ramp[-1])])
    series = TimeSeries(values)
    space = reconstruct(series, EmbeddingParams(6, 3))
    report = _assert_survey_matches_reference(
        _identity_forecaster(), series, space, list(_valid_points(space))
    )
    perfect = [rec for rec in report.records if rec.entry <= 100]
    assert perfect and len(perfect) < len(report.records)
    assert report.records[-1].k_star is not None
    for rec in report.records:
        if rec.entry <= 100:
            assert rec.k_star is None
            assert rec.flags == {FLAG_NO_CORRECTION_NEEDED}
        else:
            assert FLAG_NO_CORRECTION_NEEDED not in rec.flags


def test_forecast_improved_is_bit_identical_to_reference(pipeline):
    series, space, fmap = pipeline
    for point in _valid_points(space):
        rec = forecast_improved(
            fmap, series, space, point, fallback_on_no_plateau=True
        )
        assert (rec.gf_forecast, rec.igf_forecast, rec.k_star, rec.flags) == (
            _reference_forecast(fmap, series, space, point)
        )


def test_tie_stops_the_batched_search():
    # every error is -0.5, so |Delta^1| = |Delta^2| = 0: the tie stops the
    # search at k* = 1 and the correction lands exactly on the series
    series = TimeSeries(np.full(120, 3.25))
    space = reconstruct(series, EmbeddingParams(6, 3))
    fmap = PolynomialMap(
        enumerate_monomials(3, 1, include_constant=True),
        np.array([0.5, 0.0, 0.0, 1.0]),
    )
    offset = space.params.window_span + 2  # entry = point + offset
    report = survey(fmap, series, space, (60, 74, 90))
    single = forecast_improved(fmap, series, space, 60 - offset)
    for rec in report.records + (single,):
        assert (rec.gf_forecast, rec.igf_forecast, rec.k_star, rec.flags) == (
            _reference_forecast(fmap, series, space, rec.entry - offset)
        ) == (3.75, 3.25, 1, frozenset())


def test_survey_does_not_look_ahead(pipeline):
    # changing the value one mid-block anchor forecasts leaves that
    # anchor's forecasts and every earlier record bit-identical
    series, space, fmap = pipeline
    entries = equally_spaced(330, 400, 1)
    anchor = 360
    doctored = series.values.copy()
    doctored[anchor] = 123.456  # the 0-based index of the forecast target
    d_series = TimeSeries(doctored)
    a = survey(fmap, series, space, entries)
    b = survey(fmap, d_series, reconstruct(d_series, space.params), entries)
    for ra, rb in zip(a.records, b.records):
        if ra.entry < anchor:
            assert ra == rb
        elif ra.entry == anchor:
            assert (ra.gf_forecast, ra.igf_forecast, ra.k_star) == (
                rb.gf_forecast, rb.igf_forecast, rb.k_star
            )
            assert rb.actual == 123.456


def test_non_finite_error_window_is_rejected():
    # the map overflows to inf on every point, so every error window is -inf
    series = TimeSeries(np.full(120, 10.0))
    space = reconstruct(series, EmbeddingParams(6, 3))
    basis = enumerate_monomials(3, 1, include_constant=False)
    fmap = PolynomialMap(basis, np.array([0.0, 0.0, 1e308]))
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            forecast_improved(fmap, series, space, 60)
        with pytest.raises(ValueError, match="non-finite"):
            survey(fmap, series, space, (60, 74, 90))


def test_non_finite_error_outside_every_window_is_ignored(pipeline):
    # A spike of 1e200 overflows the degree-2 map to inf at the points that
    # hold it.  Anchors 100 and 320 are more than a window apart, and the
    # spike's errors lie between their windows, so neither reads them.
    series, space, fmap = pipeline
    values = series.values.copy()
    values[200] = 1e200
    s_series = TimeSeries(values)
    s_space = reconstruct(s_series, space.params)
    span = space.params.window_span
    # the map's own overflow warns as it always has; any other warning fails
    with np.errstate(over="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        report = survey(fmap, s_series, s_space, (100, 320))
        reference = [
            _reference_forecast(fmap, s_series, s_space, entry - span - 2)
            for entry in (100, 320)
        ]
        with pytest.raises(ValueError, match="at anchor 210 contains non-finite"):
            survey(fmap, s_series, s_space, (100, 210, 320))
        # Point 200, the newest whose error is non-finite, is the oldest
        # error in anchor 254's window and lies one before anchor 255's.
        with pytest.raises(ValueError, match="at anchor 254 contains non-finite"):
            survey(fmap, s_series, s_space, (100, 254))
        with pytest.raises(ValueError, match="at anchor 254 contains non-finite"):
            forecast_improved(fmap, s_series, s_space, 254 - span - 2)
        edge = survey(fmap, s_series, s_space, (100, 255)).records[1]
        reference.append(
            _reference_forecast(fmap, s_series, s_space, 255 - span - 2)
        )
    for rec, (gf, igf, k_star, flags) in zip([*report.records, edge], reference):
        assert (rec.k_star, rec.flags) == (k_star, flags)
        assert k_star is not None
        assert rec.gf_forecast == pytest.approx(gf, rel=1e-12)
        assert rec.igf_forecast == pytest.approx(igf, rel=1e-12)


def test_forecast_record_is_an_immutable_named_tuple():
    rec = ForecastRecord(entry=330, gf_forecast=1.5, igf_forecast=1.25, k_star=2)
    assert (rec.actual, rec.gf_error_pct, rec.igf_error_pct) == (None,) * 3
    assert rec.flags == frozenset()
    with pytest.raises(AttributeError):
        rec.k_star = 3
    twin = ForecastRecord(330, 1.5, 1.25, 2)
    assert hash(rec) == hash(twin) and len({rec, twin}) == 1
    assert rec == (330, 1.5, 1.25, 2, None, None, None, frozenset())
    assert repr(rec) == (
        "ForecastRecord(entry=330, gf_forecast=1.5, igf_forecast=1.25, "
        "k_star=2, actual=None, gf_error_pct=None, igf_error_pct=None, "
        "flags=frozenset())"
    )


def test_survey_empty_entries(pipeline):
    series, space, fmap = pipeline
    report = survey(fmap, series, space, ())
    assert report.records == ()
    assert math.isnan(report.mean_gf_error_pct)
    assert math.isnan(report.mean_igf_error_pct)


def test_most_records_improve_on_chaotic_series(pipeline):
    series, space, fmap = pipeline
    report = survey(fmap, series, space, equally_spaced(330, 530, 10))
    assert len(report.records) == 21
    improved = sum(
        1 for rec in report.records if rec.igf_error_pct < rec.gf_error_pct
    )
    assert improved >= 0.9 * len(report.records)


def test_smooth_series_pipeline_other_lag_and_windows():
    # end-to-end at lag 10, dimension 3 on a smooth two-tone series; the
    # correction must run at more than one window size
    t = np.arange(400) * 0.05
    series = TimeSeries(np.sin(t) + 0.4 * np.sin(2.713 * t + 1.0))
    space = reconstruct(series, EmbeddingParams(10, 3))
    fmap = fit_kfold(
        series, space, FitConfig(2, False, 10, training_range=(0, 200))
    )
    for window in (30, 45):
        report = survey(
            fmap, series, space, equally_spaced(260, 380, 20), window=window
        )
        assert len(report.records) == 7
        assert all(rec.k_star is not None for rec in report.records)
        assert report.mean_igf_error_pct < report.mean_gf_error_pct

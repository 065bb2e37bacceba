"""Forecast evaluation: single corrected forecasts, surveys over many
anchors, and error metrics.

Entries are labelled 1-based for reporting.  A record's ``entry`` is the
anchor: the last series entry whose value the forecaster may use.  The
forecast itself targets the next entry, and ``actual`` (when the series
extends that far) is that next entry's true value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence, Tuple

import numpy as np

from .correction import NoPlateauError
from .embedding import PhaseSpace, TimeSeries
from .fitting import PolynomialMap

FLAG_NO_PLATEAU = "no_plateau"
FLAG_NO_CORRECTION_NEEDED = "no_correction_needed"
FLAG_NEAR_ZERO_ACTUAL = "near_zero_actual"

# Actuals at least this close to zero make percentage error unstable;
# such records are flagged rather than rejected.
NEAR_ZERO_THRESHOLD = 1e-9

# Log error ratios are clipped to +/- this when one error is zero.
LOG_RATIO_CAP = 50.0


def percentage_error(actual: float, forecast: float) -> float:
    """100 * |(actual - forecast) / actual|; infinite when actual is 0."""
    if actual == 0.0:
        return math.inf
    return 100.0 * abs((actual - forecast) / actual)


@dataclass(frozen=True)
class ForecastRecord:
    """One forecast of the entry after ``entry``, raw and corrected.

    ``k_star`` is None when no correction was applied (perfect error
    window or no plateau found); ``actual`` and both errors are None when
    the forecast target lies beyond the series end.
    """

    entry: int
    gf_forecast: float
    igf_forecast: float
    k_star: int | None
    actual: float | None = None
    gf_error_pct: float | None = None
    igf_error_pct: float | None = None
    flags: frozenset = frozenset()


def error_window(
    fmap: PolynomialMap,
    series: TimeSeries,
    space: PhaseSpace,
    point_index: int,
    window: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Actuals and map forecasts for points point_index-window..point_index.

    These are the inputs of the correction's difference table: entry j of
    either array belongs to the forecast made from point
    point_index - window + j.
    """
    if point_index - window < 0:
        raise ValueError(
            f"correction window of size {window} extends before the series "
            f"start at point {point_index}"
        )
    rows = np.arange(point_index - window, point_index + 1)
    span = space.params.window_span
    forecasts = fmap.predict_many(space.points[rows])
    actuals = series.values[rows + span + 1]
    return actuals, forecasts


def _forecast_batch(
    fmap: PolynomialMap,
    series: TimeSeries,
    space: PhaseSpace,
    points: np.ndarray,
    window: int,
    n_cap: int,
    fallback_on_no_plateau: bool,
) -> Tuple[ForecastRecord, ...]:
    """Raw and corrected forecasts at every anchor point in ``points``.

    The map is evaluated once over the block of points the error windows
    cover.  The last n_cap + 1 errors of each window are differenced
    row-wise, one order at a time, until every anchor has its plateau
    order k*: the smallest k with |Delta^k eps| <= |Delta^(k+1) eps|.
    The IGF forecast adds the anchor deltas of orders 0..k* to the GF
    forecast in order, as corrected_forecast does.
    """
    if not 1 <= n_cap <= window:
        raise ValueError(f"n_cap {n_cap} must lie in 1..window {window}")
    if len(points) == 0:
        return ()
    span = space.params.window_span
    entries = points + span + 2  # 1-based anchor labels
    first, last = int(points.min()), int(points.max())
    if first < window or last >= space.point_count - 1:
        bad = entries[(points < window) | (points >= space.point_count - 1)][0]
        raise ValueError(
            f"anchor entry {bad} does not admit a correction window of size "
            f"{window} and a forecast point inside the series"
        )
    # Point r forecasts series index r + span + 1.  Each anchor's window
    # holds the errors of points anchor - window .. anchor.
    lo = first - window
    errors = series.values[lo + span + 1 : last + span + 2] - fmap.predict_many(
        space.points[lo : last + 1]
    )
    eps = errors[(points - first)[:, None] + np.arange(window + 1)]
    gf = fmap.predict_many(space.points[points + 1])
    if not np.isfinite(eps).all():
        bad = entries[~np.isfinite(eps).all(axis=1)][0]
        raise ValueError(
            f"epsilon window at anchor {bad} contains non-finite values"
        )

    perfect = (eps == 0.0).all(axis=1)
    diffs = eps[:, -(n_cap + 1) :]
    deltas = [diffs[:, -1]]
    mags = [np.abs(deltas[0])]
    searching = ~perfect  # magnitudes still falling
    for _ in range(n_cap):
        diffs = diffs[:, 1:] - diffs[:, :-1]
        deltas.append(diffs[:, -1])
        mags.append(np.abs(deltas[-1]))
        searching[mags[-2] <= mags[-1]] = False
        if not searching.any():
            break
    if searching.any() and not fallback_on_no_plateau:
        raise NoPlateauError(
            f"no plateau at anchor {entries[searching][0]}: magnitudes fall "
            f"through order {n_cap} without |Delta^k| <= |Delta^(k+1)| "
            f"(cap {n_cap})"
        )
    mags = np.array(mags)
    k_star = np.where(
        perfect | searching, -1, (mags[:-1] <= mags[1:]).argmax(axis=0)
    )
    # Row j of the running sums is gf + Delta^0 + ... + Delta^(j-1), so
    # row k* + 1 is the IGF forecast and row 0 (k* = -1) is gf.
    sums = np.cumsum(np.array([gf] + deltas), axis=0)
    igf = sums[k_star + 1, np.arange(len(points))]

    records = []
    for entry, gf_i, igf_i, k, is_perfect, no_plateau in zip(
        entries.tolist(), gf.tolist(), igf.tolist(), k_star.tolist(),
        perfect.tolist(), searching.tolist(),
    ):
        flags = set()
        if is_perfect:
            flags.add(FLAG_NO_CORRECTION_NEEDED)
        elif no_plateau:
            flags.add(FLAG_NO_PLATEAU)
        actual = gf_err = igf_err = None
        if entry < len(series):  # the forecast target's 0-based index
            actual = float(series.values[entry])
            if abs(actual) < NEAR_ZERO_THRESHOLD:
                flags.add(FLAG_NEAR_ZERO_ACTUAL)
            gf_err = percentage_error(actual, gf_i)
            igf_err = percentage_error(actual, igf_i)
        records.append(
            ForecastRecord(
                entry=entry,
                gf_forecast=gf_i,
                igf_forecast=igf_i,
                k_star=None if k < 0 else k,
                actual=actual,
                gf_error_pct=gf_err,
                igf_error_pct=igf_err,
                flags=frozenset(flags),
            )
        )
    return tuple(records)


def forecast_improved(
    fmap: PolynomialMap,
    series: TimeSeries,
    space: PhaseSpace,
    point_index: int,
    window: int = 40,
    n_cap: int = 30,
    fallback_on_no_plateau: bool = False,
) -> ForecastRecord:
    """Forecast the entry after point ``point_index``'s newest component.

    The raw (GF) forecast evaluates the map at point point_index + 1; the
    improved (IGF) forecast adds the plateau-order partial sum of the
    difference table built over the previous ``window`` + 1 forecast
    errors.  Raises NoPlateauError when the magnitudes never stop falling
    within ``n_cap`` orders, unless ``fallback_on_no_plateau`` is set, in
    which case the record carries the raw forecast and a flag.  This is
    a survey of one anchor.
    """
    return _forecast_batch(
        fmap, series, space, np.array([point_index]), window, n_cap,
        fallback_on_no_plateau,
    )[0]


class LogRatioPoint(NamedTuple):
    entry: int
    value: float
    capped: bool


def log_ratio_series(
    records: Sequence[ForecastRecord], cap: float = LOG_RATIO_CAP
) -> Tuple[LogRatioPoint, ...]:
    """ln(gf_error / igf_error) per record with known errors.

    A zero error on either side would give an infinite ratio; those
    values are clipped to +/- ``cap`` and marked capped.
    """
    out = []
    for rec in records:
        if rec.gf_error_pct is None or rec.igf_error_pct is None:
            continue
        gf, igf = rec.gf_error_pct, rec.igf_error_pct
        if igf == 0.0 and gf == 0.0:
            point = LogRatioPoint(rec.entry, 0.0, True)
        elif igf == 0.0:
            point = LogRatioPoint(rec.entry, cap, True)
        elif gf == 0.0:
            point = LogRatioPoint(rec.entry, -cap, True)
        else:
            raw = math.log(gf / igf)
            if raw > cap:
                point = LogRatioPoint(rec.entry, cap, True)
            elif raw < -cap:
                point = LogRatioPoint(rec.entry, -cap, True)
            else:
                point = LogRatioPoint(rec.entry, raw, False)
        out.append(point)
    return tuple(out)


@dataclass(frozen=True)
class SurveyReport:
    """Forecasts over a set of anchors plus aggregate percentage errors."""

    records: Tuple[ForecastRecord, ...]
    mean_gf_error_pct: float
    mean_igf_error_pct: float
    log_ratio: Tuple[LogRatioPoint, ...]


def equally_spaced(start: int, stop: int, step: int) -> Tuple[int, ...]:
    """Anchor entries start, start+step, ... up to and including stop."""
    if step < 1:
        raise ValueError(f"step must be >= 1, got {step}")
    return tuple(range(start, stop + 1, step))


def survey(
    fmap: PolynomialMap,
    series: TimeSeries,
    space: PhaseSpace,
    entries: Iterable[int],
    window: int = 40,
    n_cap: int = 30,
    include_near_zero: bool = True,
) -> SurveyReport:
    """Run corrected forecasts at many anchors and aggregate the errors.

    ``entries`` are 1-based anchor entries; every one must admit a full
    correction window and an in-range forecast point.  All anchors are
    evaluated in one batch, and records follow the input order.
    Per-anchor plateau failures become flagged records rather than
    aborting the survey.  Means cover records with known actuals,
    excluding near-zero actuals when ``include_near_zero`` is false.
    """
    points = np.array(list(entries), dtype=int) - space.params.window_span - 2
    records = _forecast_batch(
        fmap, series, space, points, window, n_cap, fallback_on_no_plateau=True
    )

    included = [
        rec
        for rec in records
        if rec.gf_error_pct is not None
        and (include_near_zero or FLAG_NEAR_ZERO_ACTUAL not in rec.flags)
    ]
    if included:
        mean_gf = float(np.mean([rec.gf_error_pct for rec in included]))
        mean_igf = float(np.mean([rec.igf_error_pct for rec in included]))
    else:
        mean_gf = mean_igf = math.nan
    return SurveyReport(
        records=records,
        mean_gf_error_pct=mean_gf,
        mean_igf_error_pct=mean_igf,
        log_ratio=log_ratio_series(records),
    )

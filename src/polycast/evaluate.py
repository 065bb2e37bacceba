"""Forecast evaluation: single corrected forecasts, surveys over many
anchors, and error metrics.

Entries are labelled 1-based for reporting.  A record's ``entry`` is the
anchor: the last series entry whose value the forecaster may use.  The
forecast itself targets the next entry, and ``actual`` (when the series
extends that far) is that next entry's true value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence, Tuple

import numpy as np

from .correction import NoPlateauError, correct_block
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


class ForecastRecord(NamedTuple):
    """One forecast of the entry after ``entry``, raw and corrected.

    ``k_star`` is None when no correction was applied (perfect error
    window or no plateau found); ``actual`` and both errors are None when
    the forecast target lies beyond the series end.  Records are named
    tuples: immutable, hashable, and equal to the plain tuple of their
    fields.
    """

    entry: int
    gf_forecast: float
    igf_forecast: float
    k_star: int | None
    actual: float | None = None
    gf_error_pct: float | None = None
    igf_error_pct: float | None = None
    flags: frozenset = frozenset()


# A record's flags by bit code: 1 no correction needed, 2 no plateau
# (correct_block's codes), 4 near-zero actual.  Each set is built in that
# order, so equal sets also print alike.
_FLAG_ORDER = (FLAG_NO_CORRECTION_NEEDED, FLAG_NO_PLATEAU, FLAG_NEAR_ZERO_ACTUAL)
_FLAG_SETS = tuple(
    frozenset(flag for bit, flag in enumerate(_FLAG_ORDER) if code >> bit & 1)
    for code in range(8)
)


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


def check_anchors(
    entries: Iterable[int], first: int, last: int, space: PhaseSpace, window: int
) -> None:
    """Refuse anchor entries without a full correction window of size
    ``window`` or a forecast point inside the series.  ``first`` and
    ``last`` are the least and greatest entry; ``entries`` is read only to
    name the first refused one, so a long ascending range costs nothing."""
    span = space.params.window_span
    lo, hi = window + span + 2, space.point_count + span
    if lo <= first and last <= hi:
        return
    bad = next(entry for entry in entries if not lo <= entry <= hi)
    raise ValueError(
        f"anchor entry {bad} does not admit a correction window of size "
        f"{window} and a forecast point inside the series (valid anchors: "
        f"{lo}..{hi})"
    )


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
    cover, giving one error block, which correct_block turns into the
    IGF forecasts of every anchor.
    """
    if not 1 <= n_cap <= window:
        raise ValueError(f"n_cap {n_cap} must lie in 1..window {window}")
    if len(points) == 0:
        return ()
    span = space.params.window_span
    entries = points + span + 2  # 1-based anchor labels
    first, last = int(points.min()), int(points.max())
    if first < window or last >= space.point_count - 1:
        check_anchors(entries, first + span + 2, last + span + 2, space, window)
    # Point r forecasts series index r + span + 1.  Each anchor's window
    # holds the errors of points anchor - window .. anchor, which sit at
    # errors[at - window : at + 1].
    lo = first - window
    errors = series.values[lo + span + 1 : last + span + 2] - fmap.predict_many(
        space.points[lo : last + 1]
    )
    at = points - lo
    gf = fmap.predict_many(space.points[points + 1])
    finite = np.isfinite(errors)
    if not finite.all():
        bad_before = np.concatenate(([0], np.cumsum(~finite)))
        bad_window = bad_before[at + 1] > bad_before[at - window]
        if bad_window.any():
            raise ValueError(
                f"epsilon window at anchor {entries[bad_window][0]} contains "
                f"non-finite values"
            )
        # Outside every window: never read, but would spread through the
        # differencing.
        errors = np.where(finite, errors, 0.0)
    igf, k_star, codes = correct_block(gf, errors, at, window, n_cap)
    codes = codes.tolist()
    if not fallback_on_no_plateau and 2 in codes:
        raise NoPlateauError(
            f"no plateau at anchor {entries[codes.index(2)]}: magnitudes fall "
            f"through order {n_cap} without |Delta^k| <= |Delta^(k+1)| "
            f"(cap {n_cap})"
        )

    # The forecast target's 0-based index is the anchor's entry.
    n = len(series)
    actuals = series.values[np.minimum(entries, n - 1)]
    records = []
    for entry, gf_i, igf_i, k, code, actual in zip(
        entries.tolist(), gf.tolist(), igf.tolist(), k_star.tolist(), codes,
        actuals.tolist(),
    ):
        if entry < n:
            if abs(actual) < NEAR_ZERO_THRESHOLD:
                code |= 4
            gf_err = percentage_error(actual, gf_i)
            igf_err = percentage_error(actual, igf_i)
        else:
            actual = gf_err = igf_err = None
        records.append(ForecastRecord(
            entry, gf_i, igf_i, None if k < 0 else k, actual, gf_err, igf_err,
            _FLAG_SETS[code],
        ))
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


def log_ratio_series(records: Sequence[ForecastRecord]) -> Tuple[LogRatioPoint, ...]:
    """ln(gf_error / igf_error) per record with known errors.

    A zero error on either side would give an infinite ratio; those
    values are clipped to +/- ``LOG_RATIO_CAP`` and marked capped.
    """
    out = []
    for rec in records:
        if rec.gf_error_pct is None or rec.igf_error_pct is None:
            continue
        gf, igf = rec.gf_error_pct, rec.igf_error_pct
        if igf == 0.0 and gf == 0.0:
            point = LogRatioPoint(rec.entry, 0.0, True)
        elif igf == 0.0:
            point = LogRatioPoint(rec.entry, LOG_RATIO_CAP, True)
        elif gf == 0.0:
            point = LogRatioPoint(rec.entry, -LOG_RATIO_CAP, True)
        else:
            raw = math.log(gf / igf)
            if raw > LOG_RATIO_CAP:
                point = LogRatioPoint(rec.entry, LOG_RATIO_CAP, True)
            elif raw < -LOG_RATIO_CAP:
                point = LogRatioPoint(rec.entry, -LOG_RATIO_CAP, True)
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
) -> SurveyReport:
    """Run corrected forecasts at many anchors and aggregate the errors.

    ``entries`` are 1-based anchor entries; every one must admit a full
    correction window and an in-range forecast point.  All anchors are
    evaluated in one batch, and records follow the input order.
    Per-anchor plateau failures become flagged records rather than
    aborting the survey.  Means cover every record with a known actual,
    near-zero actuals included, so a mean can be ``inf``.
    """
    points = np.array(list(entries), dtype=int) - space.params.window_span - 2
    records = _forecast_batch(
        fmap, series, space, points, window, n_cap, fallback_on_no_plateau=True
    )

    included = [rec for rec in records if rec.gf_error_pct is not None]
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

"""Command-line interface.

Subcommands: generate, embed, fit, forecast, survey.  Settings come from
(in increasing precedence) built-in defaults, a --config file, the
POLYCAST_OUTPUT_DIR environment variable, --set key=value overrides, and
dedicated flags.  Exit codes: 0 success, 2 no plateau found, 3 I/O or
configuration problem, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence, Tuple

import numpy as np

from .algebra import monomial_label
from .evaluate import (
    FLAG_NO_CORRECTION_NEEDED,
    check_anchors,
    equally_spaced,
    error_window,
    forecast_improved,
    survey,
)
from .config import RunConfig, load_config
from .correction import DifferenceTable, NoPlateauError
from .dynamics import BlowupError, LorenzParams, lorenz_series
from .embedding import EmbeddingParams, PhaseSpace, TimeSeries, reconstruct
from .fitting import FitConfig, FitError, PolynomialMap, fit_kfold, usable_point_indices
from . import io as pio

EXIT_OK = 0
EXIT_NO_PLATEAU = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="configuration file")
    common.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override one configuration key (repeatable)",
    )
    common.add_argument("--output-dir", metavar="DIR", help="output directory")

    parser = argparse.ArgumentParser(
        prog="polycast",
        description="Global polynomial forecasting with difference-table correction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="write the source series CSV")
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("embed", parents=[common], help="write the delay-embedded phase space CSV")
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("fit", parents=[common], help="fit the forecast map and save it")
    p.set_defaults(handler=cmd_fit)

    p = sub.add_parser("forecast", parents=[common], help="corrected forecast at one anchor entry")
    p.add_argument("--entry", type=int, metavar="E", help="1-based anchor entry")
    p.set_defaults(handler=cmd_forecast)

    p = sub.add_parser("survey", parents=[common], help="corrected forecasts over a range of anchors")
    p.set_defaults(handler=cmd_survey)

    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    env_dir = os.environ.get("POLYCAST_OUTPUT_DIR")
    if env_dir:
        config = config.with_settings({"output.dir": env_dir})
    overrides = {}
    for item in args.overrides:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        overrides[key.strip()] = value.strip()
    if overrides:
        config = config.with_settings(overrides)
    if args.output_dir:
        config = config.with_settings({"output.dir": args.output_dir})
    if getattr(args, "entry", None) is not None:
        config = config.with_settings({"forecast.entry": str(args.entry)})
    return config


def _load_series(config: RunConfig) -> TimeSeries:
    if config.input == "lorenz":
        return lorenz_series(
            LorenzParams(config.sigma, config.r, config.b),
            samples=config.steps,
            delta_t=config.dt,
            initial_state=(config.x1, config.x2, config.x3),
            substeps=config.substeps,
        )
    return pio.read_series_csv(config.input)


def _load_map(config: RunConfig) -> PolynomialMap:
    path = config.output_path("map")
    fmap = pio.load_map(path)
    if fmap.basis.variable_count != config.dimension:
        raise ValueError(
            f"{path}: the map is over {fmap.basis.variable_count} variables "
            f"but embedding.dimension is {config.dimension}"
        )
    return fmap


def _embed(config: RunConfig, series: TimeSeries) -> PhaseSpace:
    return reconstruct(series, EmbeddingParams(config.lag, config.dimension))


def _training_range(config: RunConfig, series: TimeSeries) -> Tuple[int, int]:
    """Resolve 1-based inclusive train bounds to a 0-based half-open range."""
    stop = config.train_stop
    if stop == 0:
        stop = 140 if config.input == "lorenz" else math.ceil(len(series) / 4)
        stop = min(stop, len(series))
    if not 1 <= config.train_start < stop <= len(series):
        raise ValueError(
            f"training range {config.train_start}..{stop} is invalid for a "
            f"series of {len(series)} entries"
        )
    return config.train_start - 1, stop


def _fit_config(config: RunConfig, series: TimeSeries) -> FitConfig:
    return FitConfig(
        degree=config.degree,
        include_constant=config.include_constant,
        folds=config.folds,
        training_range=_training_range(config, series),
    )


def cmd_generate(config: RunConfig, args: argparse.Namespace) -> int:
    if config.input != "lorenz":
        raise ValueError(
            "generate needs the built-in generator; set input = lorenz "
            f"(input is currently {config.input!r})"
        )
    series = _load_series(config)
    path = config.output_path("series")
    pio.write_series_csv(path, series)
    print(
        f"generated {len(series)} samples of x1 "
        f"(sigma={config.sigma:.6g}, r={config.r:.6g}, b={config.b:.6g}, "
        f"dt={config.dt:.6g}, substeps={config.substeps}) -> {path}"
    )
    return EXIT_OK


def cmd_embed(config: RunConfig, args: argparse.Namespace) -> int:
    series = _load_series(config)
    space = _embed(config, series)
    path = config.output_path("phase_space")
    pio.write_phase_space_csv(path, space)
    print(
        f"embedded {len(series)} samples into {space.point_count} points "
        f"(lag={config.lag}, dimension={config.dimension}) -> {path}"
    )
    return EXIT_OK


def cmd_fit(config: RunConfig, args: argparse.Namespace) -> int:
    series = _load_series(config)
    space = _embed(config, series)
    fit_config = _fit_config(config, series)
    if not 1 <= config.outputs <= config.dimension:
        raise ValueError(
            f"fit.outputs must lie in 1..{config.dimension}, got {config.outputs}"
        )
    rows = len(usable_point_indices(space, series, fit_config.training_range))
    total = 0
    for offset in range(config.outputs):
        fmap = fit_kfold(series, space, fit_config, target_lag_offset=offset)
        path = config.output_path("map")
        if offset:
            root, ext = os.path.splitext(path)
            path = f"{root}_lag{offset}{ext}"
        pio.save_map(path, fmap)
        total += len(fmap.basis)
        label = "next entry" if offset == 0 else f"next entry - {offset} lag(s)"
        print(f"map for {label} ({len(fmap.basis)} coefficients) -> {path}")
        for mono, coeff in zip(fmap.basis.monomials, fmap.coefficients):
            print(f"  {monomial_label(mono):<12s} {coeff:.17g}")
    print(
        f"fitted {total} coefficients on {rows} training rows "
        f"(degree={config.degree}, constant={str(config.include_constant).lower()}, "
        f"folds={config.folds})"
    )
    return EXIT_OK


def cmd_forecast(config: RunConfig, args: argparse.Namespace) -> int:
    if config.forecast_entry == 0:
        raise ValueError("forecast needs an anchor entry (--entry or forecast.entry)")
    series = _load_series(config)
    space = _embed(config, series)
    fmap = _load_map(config)
    entry = config.forecast_entry
    point = entry - space.params.window_span - 2
    record = forecast_improved(
        fmap, series, space, point, window=config.window, n_cap=config.n_cap
    )
    _, train_stop = _training_range(config, series)
    if entry <= train_stop:
        print(
            f"warning: anchor entry {entry} lies inside the training range "
            f"(in-sample forecast)",
            file=sys.stderr,
        )
    actuals, forecasts = error_window(fmap, series, space, point, config.window)
    table = DifferenceTable(actuals - forecasts)
    magnitudes = table.magnitudes(config.n_cap)
    delta_path = config.output_path("delta_table")
    pio.write_delta_table_csv(delta_path, magnitudes)
    print(f"anchor entry {entry} (forecasting entry {entry + 1})")
    print(f"gf_forecast  {record.gf_forecast:.17g}")
    print(f"k_star       {record.k_star}")
    print(f"igf_forecast {record.igf_forecast:.17g}")
    if record.actual is not None:
        print(f"actual       {record.actual:.17g}")
        print(f"gf_error_pct  {record.gf_error_pct:.17g}")
        print(f"igf_error_pct {record.igf_error_pct:.17g}")
    if FLAG_NO_CORRECTION_NEEDED in record.flags:
        print("no correction needed: recent forecasts match the actuals")
    if record.flags:
        print(f"flags: {'|'.join(sorted(record.flags))}")
    print(f"difference magnitudes -> {delta_path}")
    return EXIT_OK


def cmd_survey(config: RunConfig, args: argparse.Namespace) -> int:
    series = _load_series(config)
    space = _embed(config, series)
    fmap = _load_map(config)
    entries = equally_spaced(config.survey_start, config.survey_stop, config.survey_step)
    if entries:
        check_anchors(entries, entries[0], entries[-1], space, config.window)
    report = survey(
        fmap,
        series,
        space,
        entries,
        window=config.window,
        n_cap=config.n_cap,
    )
    report_path = config.output_path("report")
    log_ratio_path = config.output_path("log_ratio")
    pio.write_report_csv(report_path, report.records)
    pio.write_log_ratio_csv(log_ratio_path, report.log_ratio)
    print(
        f"surveyed {len(report.records)} anchors "
        f"({config.survey_start}..{config.survey_stop} step {config.survey_step})"
    )
    if report.records:
        print(f"mean gf_error_pct  {report.mean_gf_error_pct:.6g}")
        print(f"mean igf_error_pct {report.mean_igf_error_pct:.6g}")
    flagged = [rec for rec in report.records if rec.flags]
    for rec in flagged:
        print(f"  entry {rec.entry}: {'|'.join(sorted(rec.flags))}")
    print(f"report -> {report_path}")
    print(f"log ratios -> {log_ratio_path}")
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _resolve_config(args)
        return args.handler(config, args)
    except NoPlateauError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_PLATEAU
    except (BlowupError, FitError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

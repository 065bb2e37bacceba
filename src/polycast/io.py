"""Plain-text persistence: CSV series, phase spaces, reports, and the
term-per-line map format.

All floating-point values are written with 17 significant digits so that
files round-trip bit-for-bit; identical inputs always produce identical
bytes.
"""

from __future__ import annotations

import csv
import os
from pathlib import Path
from typing import Sequence, Tuple

import numpy as np

from .algebra import enumerate_monomials, grlex_key
from .evaluate import ForecastRecord, SurveyReport
from .embedding import PhaseSpace, TimeSeries
from .fitting import PolynomialMap


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _open_out(path):
    path = Path(path)
    if path.parent != Path(""):
        os.makedirs(path.parent, exist_ok=True)
    return open(path, "w", newline="")


def write_series_csv(path, series: TimeSeries) -> None:
    """Write columns ``i,x`` with i counting samples from 0."""
    with _open_out(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", series.name or "x"])
        for i, value in enumerate(series.values):
            writer.writerow([i, _fmt(value)])


def read_series_csv(path) -> TimeSeries:
    """Read a scalar series from a CSV file.

    Accepts any CSV whose last column is numeric: an optional header row
    is skipped, values are taken from the last column, and the series
    name is the header of that column when present.
    """
    values = []
    name = ""
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or all(not cell.strip() for cell in row):
                continue
            cell = row[-1].strip()
            try:
                values.append(float(cell))
            except ValueError:
                if values:
                    raise ValueError(
                        f"non-numeric value {cell!r} in {path}"
                    ) from None
                name = cell  # header row
    if not values:
        raise ValueError(f"no numeric rows found in {path}")
    return TimeSeries(np.array(values), name=name)


def write_phase_space_csv(path, space: PhaseSpace) -> None:
    with _open_out(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["i"] + [f"x{j + 1}" for j in range(space.params.dimension)]
        )
        for i, point in enumerate(space.points):
            writer.writerow([i] + [_fmt(v) for v in point])


def write_report_csv(path, report: SurveyReport) -> None:
    """One row per forecast record; empty cells where values are unknown."""
    with _open_out(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "entry",
                "actual",
                "gf_forecast",
                "igf_forecast",
                "k_star",
                "gf_error_pct",
                "igf_error_pct",
                "flags",
            ]
        )
        for rec in report.records:
            writer.writerow(
                [
                    rec.entry,
                    "" if rec.actual is None else _fmt(rec.actual),
                    _fmt(rec.gf_forecast),
                    _fmt(rec.igf_forecast),
                    "" if rec.k_star is None else rec.k_star,
                    "" if rec.gf_error_pct is None else _fmt(rec.gf_error_pct),
                    "" if rec.igf_error_pct is None else _fmt(rec.igf_error_pct),
                    "|".join(sorted(rec.flags)),
                ]
            )


def write_log_ratio_csv(path, report: SurveyReport) -> None:
    with _open_out(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["entry", "log_ratio"])
        for point in report.log_ratio:
            writer.writerow([point.entry, _fmt(point.value)])


def write_delta_table_csv(path, magnitudes: Sequence[float]) -> None:
    """Write the |Delta^k eps| column, k from 0, for correction diagnostics."""
    with _open_out(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "abs_delta_k"])
        for k, mag in enumerate(magnitudes):
            writer.writerow([k, _fmt(mag)])


def save_map(path, fmap: PolynomialMap) -> None:
    """Write a fitted map: a header line plus one ``coefficient exponents``
    line per basis monomial in graded-lexicographic order."""
    basis = fmap.basis
    with _open_out(path) as fh:
        fh.write(
            f"# degree={basis.max_degree} m={basis.variable_count} "
            f"constant={'true' if basis.include_constant else 'false'}\n"
        )
        for mono, coeff in zip(basis.monomials, fmap.coefficients):
            fh.write(_fmt(coeff) + " " + " ".join(str(e) for e in mono) + "\n")


def load_map(path) -> PolynomialMap:
    """Read a map written by save_map.

    Term lines may appear in any order; monomials missing from the file
    take coefficient zero, and unknown or repeated monomials are rejected.
    """
    with open(path) as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if not lines or not lines[0].startswith("#"):
        raise ValueError(f"{path}: missing header line")
    header = {}
    for token in lines[0].lstrip("#").split():
        key, _, value = token.partition("=")
        header[key] = value
    try:
        degree = int(header["degree"])
        m = int(header["m"])
        constant = {"true": True, "false": False}[header["constant"].lower()]
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed header {lines[0]!r}") from exc
    basis = enumerate_monomials(m, degree, constant)
    index = {mono: i for i, mono in enumerate(basis.monomials)}
    coeffs = np.zeros(len(basis))
    seen = set()
    for line in lines[1:]:
        parts = line.split()
        try:
            coeff = float(parts[0])
            mono = tuple(int(e) for e in parts[1:])
        except ValueError:
            raise ValueError(f"{path}: malformed term line {line!r}") from None
        if len(mono) != m:
            raise ValueError(f"{path}: malformed term line {line!r}")
        if mono not in index:
            raise ValueError(
                f"{path}: monomial {mono} is not in the declared basis"
            )
        if mono in seen:
            raise ValueError(f"{path}: monomial {mono} appears more than once")
        seen.add(mono)
        coeffs[index[mono]] = coeff
    return PolynomialMap(basis, coeffs)

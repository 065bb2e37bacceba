"""Plain-text persistence: CSV series, phase spaces, reports, and the
term-per-line map format.

All floating-point values are written with 17 significant digits so that
files round-trip bit-for-bit; identical inputs always produce identical
bytes.
"""

from __future__ import annotations

import csv
import math
import os
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .algebra import enumerate_monomials, monomial_count
from .evaluate import ForecastRecord, LogRatioPoint
from .embedding import PhaseSpace, TimeSeries
from .fitting import PolynomialMap


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _open_out(path):
    path = Path(path)
    if path.parent != Path(""):
        os.makedirs(path.parent, exist_ok=True)
    return open(path, "w", newline="")


def _cell(value):
    """Floats with 17 significant digits and flag sets joined with ``|`` in
    sorted order; anything else as csv writes it, None as an empty cell."""
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, frozenset):
        return "|".join(sorted(value))
    return value


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _open_out(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)


def write_series_csv(path, series: TimeSeries) -> None:
    """Write columns ``i,x`` with i counting samples from 0."""
    _write_csv(path, ["i", series.name or "x"], enumerate(series.values))


def read_series_csv(path) -> TimeSeries:
    """Read a scalar series from a CSV file.

    Accepts any CSV whose last column is numeric: an optional header row
    is skipped, values are taken from the last column, and the series
    name is the header of that column when present.
    """
    values = []
    name = ""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"cannot read {path} as CSV text: {exc}") from None
    for number, row in enumerate(rows, 1):
        if not row or all(not cell.strip() for cell in row):
            continue
        cell = row[-1].strip()
        try:
            value = float(cell)
        except ValueError:
            if values:
                raise ValueError(f"non-numeric value {cell!r} in {path}") from None
            name = cell  # header row
            continue
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {cell!r} in {path}, row {number}")
        values.append(value)
    if not values:
        raise ValueError(f"no numeric rows found in {path}")
    return TimeSeries(np.array(values), name=name)


def write_phase_space_csv(path, space: PhaseSpace) -> None:
    header = ["i"] + [f"x{j + 1}" for j in range(space.params.dimension)]
    rows = ((i, *point) for i, point in enumerate(space.points))
    _write_csv(path, header, rows)


_REPORT_COLUMNS = ("entry", "actual", "gf_forecast", "igf_forecast", "k_star",
                   "gf_error_pct", "igf_error_pct", "flags")


def write_report_csv(path, records: Iterable[ForecastRecord]) -> None:
    """One row per forecast record; empty cells where values are unknown."""
    rows = map(attrgetter(*_REPORT_COLUMNS), records)
    _write_csv(path, _REPORT_COLUMNS, rows)


def write_log_ratio_csv(path, points: Iterable[LogRatioPoint]) -> None:
    rows = map(attrgetter("entry", "value"), points)
    _write_csv(path, ["entry", "log_ratio"], rows)


def write_delta_table_csv(path, magnitudes: Sequence[float]) -> None:
    """Write the |Delta^k eps| column, k from 0, for correction diagnostics."""
    _write_csv(path, ["k", "abs_delta_k"], enumerate(magnitudes))


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

    The file lists every monomial of the basis its header declares, one
    term line each, in any order.  Repeated monomials and a term-line
    count other than the basis size are rejected before the basis is
    built, so a header that declares a huge basis fails at once; unknown
    monomials are rejected too.
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
        size = monomial_count(m, degree, constant)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed header {lines[0]!r}") from exc
    terms = {}
    for line in lines[1:]:
        parts = line.split()
        try:
            coeff = float(parts[0])
            mono = tuple(int(e) for e in parts[1:])
        except ValueError:
            raise ValueError(f"{path}: malformed term line {line!r}") from None
        if len(mono) != m:
            raise ValueError(f"{path}: malformed term line {line!r}")
        if mono in terms:
            raise ValueError(f"{path}: monomial {mono} appears more than once")
        terms[mono] = coeff
    if len(terms) != size:
        raise ValueError(
            f"{path}: the header declares {size} terms but the file has "
            f"{len(terms)} term lines"
        )
    basis = enumerate_monomials(m, degree, constant)
    known = set(basis.monomials)
    for mono in terms:
        if mono not in known:
            raise ValueError(
                f"{path}: monomial {mono} is not in the declared basis"
            )
    coeffs = np.array([terms[mono] for mono in basis.monomials])
    return PolynomialMap(basis, coeffs)

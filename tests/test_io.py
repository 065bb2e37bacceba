"""CSV and map-file round trips."""

import csv
import math
import signal

import numpy as np
import pytest

from polycast import (
    EmbeddingParams,
    ForecastRecord,
    LogRatioPoint,
    PolynomialMap,
    SurveyReport,
    TimeSeries,
    enumerate_monomials,
    load_map,
    lorenz_series,
    read_series_csv,
    reconstruct,
    save_map,
    write_delta_table_csv,
    write_log_ratio_csv,
    write_phase_space_csv,
    write_report_csv,
    write_series_csv,
)


def test_series_round_trip_bitwise(tmp_path):
    series = lorenz_series(samples=50)
    path = tmp_path / "series.csv"
    write_series_csv(path, series)
    back = read_series_csv(path)
    assert back.name == "x1"
    assert np.array_equal(back.values, series.values)


def test_series_write_creates_directories(tmp_path):
    path = tmp_path / "a" / "b" / "series.csv"
    write_series_csv(path, TimeSeries([1.0, 2.0]))
    assert path.exists()


def test_series_csv_format(tmp_path):
    path = tmp_path / "s.csv"
    write_series_csv(path, TimeSeries([0.5, -1.25], name="x1"))
    assert path.read_bytes() == b"i,x1\r\n0,0.5\r\n1,-1.25\r\n"


def test_write_uses_17_significant_digits(tmp_path):
    value = 1.0 / 3.0
    path = tmp_path / "s.csv"
    write_series_csv(path, TimeSeries([value]))
    text = path.read_text()
    assert "0.33333333333333331" in text
    assert read_series_csv(path).values[0] == value


def test_read_series_tolerates_extra_columns_and_header(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("time,voltage\n0,1.5\n1,2.5\n\n2,3.5\n")
    series = read_series_csv(path)
    assert series.name == "voltage"
    assert np.array_equal(series.values, [1.5, 2.5, 3.5])
    bare = tmp_path / "bare.csv"
    bare.write_text("4.0\n5.0\n")
    assert np.array_equal(read_series_csv(bare).values, [4.0, 5.0])


def test_read_series_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("header\n")
    with pytest.raises(ValueError, match="no numeric rows"):
        read_series_csv(empty)
    bad = tmp_path / "bad.csv"
    bad.write_text("x\n1.0\noops\n")
    with pytest.raises(ValueError, match="non-numeric"):
        read_series_csv(bad)
    with pytest.raises(OSError):
        read_series_csv(tmp_path / "missing.csv")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
def test_read_series_names_file_and_row_of_non_finite_value(tmp_path, cell):
    path = tmp_path / "holes.csv"
    path.write_text(f"i,x\n0,1.5\n\n1,{cell}\n2,2.5\n")
    with pytest.raises(ValueError) as info:
        read_series_csv(path)
    assert str(info.value) == f"non-finite value {cell!r} in {path}, row 4"


@pytest.mark.parametrize("tail, reason", [
    (bytes(range(128, 256)), "'utf-8' codec can't decode byte 0x80"),
    (b"2," + b"9" * 200_000 + b"\n", "field larger than field limit"),
], ids=["binary", "wide_field"])
def test_read_series_names_file_it_cannot_parse(tmp_path, tail, reason):
    path = tmp_path / "blob.csv"
    path.write_bytes(b"i,x\n0,1.5\n" + tail)
    with pytest.raises(ValueError) as info:
        read_series_csv(path)
    assert str(info.value).startswith(f"cannot read {path} as CSV text: {reason}")


def test_trajectory_and_phase_space_csv(tmp_path):
    space = reconstruct(TimeSeries(np.arange(10.0)), EmbeddingParams(2, 3))
    ppath = tmp_path / "space.csv"
    write_phase_space_csv(ppath, space)
    lines = ppath.read_text().splitlines()
    assert lines[0] == "i,x1,x2,x3"
    assert lines[1] == "0,0,2,4"
    assert len(lines) == 1 + space.point_count


def _report():
    records = (
        ForecastRecord(
            entry=330, gf_forecast=-0.5, igf_forecast=-0.75, k_star=5,
            actual=-0.8, gf_error_pct=37.5, igf_error_pct=6.25,
        ),
        ForecastRecord(
            entry=600, gf_forecast=1.5, igf_forecast=1.5, k_star=None,
            flags=frozenset({"no_plateau"}),
        ),
    )
    points = (LogRatioPoint(330, math.log(6.0), False),)
    return SurveyReport(records, 37.5, 6.25, points)


def test_report_csv(tmp_path):
    path = tmp_path / "report.csv"
    write_report_csv(path, _report())
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "entry,actual,gf_forecast,igf_forecast,k_star,"
        "gf_error_pct,igf_error_pct,flags"
    )
    assert lines[1] == "330,-0.80000000000000004,-0.5,-0.75,5,37.5,6.25,"
    # unknown actual and k_star become empty cells, flags are joined
    assert lines[2] == "600,,1.5,1.5,,,,no_plateau"


def test_log_ratio_csv(tmp_path):
    path = tmp_path / "lr.csv"
    write_log_ratio_csv(path, _report())
    lines = path.read_text().splitlines()
    assert lines[0] == "entry,log_ratio"
    assert lines[1].startswith("330,1.79175946922805")


def test_delta_table_csv(tmp_path):
    path = tmp_path / "delta.csv"
    write_delta_table_csv(path, [4.0, 2.0, 1.0])
    assert path.read_text().splitlines() == [
        "k,abs_delta_k", "0,4", "1,2", "2,1",
    ]


# Each writer's table built around one cell value; None stands for an
# unknown value where the table can hold one.
_WRITERS = {
    "series": lambda path, v: write_series_csv(path, TimeSeries([v])),
    "phase_space": lambda path, v: write_phase_space_csv(
        path, reconstruct(TimeSeries([v, 1.0, 2.0]), EmbeddingParams(1, 2))
    ),
    "report": lambda path, v: write_report_csv(path, SurveyReport(
        (ForecastRecord(330, v, v, None, v, v, v),), v, v, ()
    )),
    "log_ratio": lambda path, v: write_log_ratio_csv(path, SurveyReport(
        (), 0.0, 0.0, (LogRatioPoint(330, v, False),)
    )),
    "delta_table": lambda path, v: write_delta_table_csv(path, [v]),
}


@pytest.mark.parametrize("name", sorted(_WRITERS))
def test_writers_share_one_cell_rule(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    value = 0.1 + 0.2  # needs all 17 significant digits
    _WRITERS[name](path, value)
    data = path.read_bytes()
    assert data.endswith(b"\r\n") and b"\n" not in data.replace(b"\r\n", b"")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert float(rows[1][1]) == value
    if name in ("series", "phase_space"):
        return  # series values are finite floats; nothing is unknown
    _WRITERS[name](path, None)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][1] == ""


def test_numpy_float32_cells_keep_17_digits(tmp_path):
    path = tmp_path / "delta_table.csv"
    value = np.float32(0.1)
    write_delta_table_csv(path, [value])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][1] == format(float(value), ".17g")


def test_map_round_trip_bitwise(tmp_path, default_map):
    path = tmp_path / "map.txt"
    save_map(path, default_map)
    back = load_map(path)
    assert back.basis.monomials == default_map.basis.monomials
    assert np.array_equal(back.coefficients, default_map.coefficients)


def test_map_file_format(tmp_path):
    basis = enumerate_monomials(2, 1, include_constant=True)
    fmap = PolynomialMap(basis, np.array([0.25, -1.0, 3.0]))
    path = tmp_path / "map.txt"
    save_map(path, fmap)
    assert path.read_text() == (
        "# degree=1 m=2 constant=true\n"
        "0.25 0 0\n"
        "-1 1 0\n"
        "3 0 1\n"
    )


def test_load_map_rejects_missing_terms(tmp_path):
    # a map file lists every monomial of its declared basis
    path = tmp_path / "map.txt"
    path.write_text("# degree=2 m=3 constant=false\n2.5 0 0 1\n")
    with pytest.raises(ValueError) as exc:
        load_map(path)
    assert str(exc.value) == (
        f"{path}: the header declares 9 terms but the file has 1 term lines"
    )


def test_load_map_huge_declared_basis_fails_at_once(tmp_path):
    # the term lines must be counted before a 10.8 million-term basis is built
    path = tmp_path / "map.txt"
    path.write_text("# degree=400 m=3 constant=false\n")

    def too_slow(signum, frame):
        pytest.fail("load_map on a degree-400 header took more than 5 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="declares 10827400 terms but the file "
                           "has 0 term lines"):
            load_map(path)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_load_map_errors(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("1.0 0 0\n")
    with pytest.raises(ValueError, match="header"):
        load_map(path)
    for header in ("degree=two m=3", "degree=-1 m=3", "degree=2 m=0"):
        path.write_text(f"# {header} constant=false\n")
        with pytest.raises(ValueError, match="malformed header"):
            load_map(path)
    path.write_text("# degree=1 m=3 constant=false\n1.0 0 0\n")
    with pytest.raises(ValueError, match="term line"):
        load_map(path)
    path.write_text(
        "# degree=1 m=3 constant=false\n1.0 1 0 0\n1.0 0 1 0\n1.0 0 0 2\n"
    )
    with pytest.raises(ValueError, match=r"\(0, 0, 2\) is not in the declared basis"):
        load_map(path)
    for line in ("abc 0 0 1", "1.0 0 x 1", "1.0 0 0.5 1"):
        path.write_text(f"# degree=1 m=3 constant=false\n{line}\n")
        with pytest.raises(ValueError) as exc:
            load_map(path)
        assert str(exc.value) == f"{path}: malformed term line {line!r}"


def test_load_map_rejects_duplicate_monomial(tmp_path):
    # a repeated term line would otherwise silently keep the last value
    path = tmp_path / "map.txt"
    path.write_text(
        "# degree=1 m=3 constant=false\n1.0 0 0 1\n2.0 0 1 0\n3.0 0 0 1\n"
    )
    with pytest.raises(ValueError, match=r"monomial \(0, 0, 1\) appears more than once"):
        load_map(path)

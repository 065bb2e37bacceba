"""Golden run: the default CLI session against frozen outputs.

``series.csv`` is pinned by SHA-256: the Lorenz generator uses only IEEE
additions and multiplications, so its bytes hold on any host.  So is
``phase_space.csv``, which only copies series values.
The default ``survey.csv`` is frozen in ``golden/survey.csv``; k* and
flags must match exactly, and forecasts within 1e-9 relative, because
least-squares bits may differ between BLAS builds.  The largest forecast
deviation is printed so that drift shows even when it passes.
"""

import csv
import hashlib
from pathlib import Path

import pytest

from polycast.cli import EXIT_OK, main

GOLDEN_SURVEY = Path(__file__).parent / "golden" / "survey.csv"
SERIES_SHA256 = "7110f519d05c39b719e4fadeb6aed42a0b386074013bc83e427f24a3a818aeea"
PHASE_SPACE_SHA256 = "3a634a56415937529d1b8b6347b02a995c1a42367b12ff9d7b963f4762fbab01"
FORECAST_RTOL = 1e-9


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("POLYCAST_OUTPUT_DIR", raising=False)
    return tmp_path


def _rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_default_series_sha256(tmp_path):
    assert main(["generate"]) == EXIT_OK
    digest = hashlib.sha256((tmp_path / "out" / "series.csv").read_bytes()).hexdigest()
    assert digest == SERIES_SHA256


def test_default_phase_space_sha256(tmp_path):
    assert main(["embed"]) == EXIT_OK
    data = (tmp_path / "out" / "phase_space.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == PHASE_SPACE_SHA256


def test_default_survey_matches_golden(tmp_path):
    assert main(["fit"]) == EXIT_OK
    assert main(["survey"]) == EXIT_OK
    got = _rows(tmp_path / "out" / "survey.csv")
    want = _rows(GOLDEN_SURVEY)
    assert [r["entry"] for r in got] == [r["entry"] for r in want]
    worst = 0.0
    for g, w in zip(got, want):
        assert (g["k_star"], g["flags"]) == (w["k_star"], w["flags"]), g["entry"]
        for column in ("actual", "gf_forecast", "igf_forecast"):
            a, b = float(g[column]), float(w[column])
            assert abs(a - b) <= FORECAST_RTOL * abs(b), (g["entry"], column)
            worst = max(worst, abs(a - b))
    print(f"golden survey: {len(got)} anchors, k* and flags exact, "
          f"max |delta| of forecasts {worst:.3g}")

"""Command-line interface: subcommands, precedence, exit codes."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polycast as pc
import polycast.io as pio
from polycast.config import KEYS
from polycast.cli import (
    EXIT_IO,
    EXIT_NO_PLATEAU,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
)

from helpers import quadratic_delay_series


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("POLYCAST_OUTPUT_DIR", raising=False)
    return tmp_path


def _series_lines(path):
    return path.read_text().splitlines()


def test_generate_default_row_count(tmp_path, capsys):
    assert main(["generate", "--set", "lorenz.steps=50"]) == EXIT_OK
    lines = _series_lines(tmp_path / "out" / "series.csv")
    assert len(lines) == 51
    assert "generated 50 samples" in capsys.readouterr().out


def test_generate_single_row(tmp_path):
    assert main(["generate", "--set", "lorenz.steps=1"]) == EXIT_OK
    assert len(_series_lines(tmp_path / "out" / "series.csv")) == 2


def test_generate_without_convection_decays(tmp_path):
    # r = 0 puts the system below the instability; amplitudes shrink
    assert main(["generate", "--set", "lorenz.r=0",
                 "--set", "lorenz.steps=200"]) == EXIT_OK
    values = pio.read_series_csv(tmp_path / "out" / "series.csv").values
    early = np.max(np.abs(values[:100]))
    late = np.max(np.abs(values[100:]))
    assert late < early


def test_generate_requires_builtin_input(capsys):
    assert main(["generate", "--set", "input=data.csv"]) == EXIT_IO
    assert "input = lorenz" in capsys.readouterr().err


def test_generate_blowup_is_numerical_failure(capsys):
    rc = main(["generate", "--set", "lorenz.dt=10",
               "--set", "lorenz.substeps=1", "--set", "lorenz.steps=50"])
    assert rc == EXIT_NUMERICAL
    assert "diverged" in capsys.readouterr().err


def test_embed_point_count(tmp_path, capsys):
    assert main(["embed", "--set", "lorenz.steps=100"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "embedded 100 samples into 88 points" in out
    lines = _series_lines(tmp_path / "out" / "phase_space.csv")
    assert len(lines) == 89


def _coefficient_table(stdout):
    table = {}
    for line in stdout.splitlines():
        if line.startswith("  "):
            label, value = line.split()
            table[label] = float(value)
    return table


def test_fit_recovers_synthetic_quadratic_coefficients(tmp_path, capsys):
    terms = {(0, 0, 1): 3.9, (0, 0, 2): -3.9}
    rng = np.random.default_rng(17)
    init = rng.uniform(0.2, 0.8, size=7)
    series = pc.TimeSeries(quadratic_delay_series(terms, 3, 3, 150, init), name="x")
    pio.write_series_csv(tmp_path / "logi.csv", series)
    rc = main(["fit", "--set", "input=logi.csv", "--set", "embedding.lag=3",
               "--set", "fit.train_stop=150"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    table = _coefficient_table(out)
    assert len(table) == 9
    assert table["x3"] == pytest.approx(3.9, abs=1e-6)
    assert table["x3^2"] == pytest.approx(-3.9, abs=1e-6)
    for label in ("x1", "x2", "x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2"):
        assert label in table
    assert table["x1"] == pytest.approx(0.0, abs=1e-6)
    assert "fitted 9 coefficients" in out
    # the saved map round-trips the printed values
    fmap = pio.load_map(tmp_path / "out" / "map.txt")
    for mono, coeff in zip(fmap.basis.monomials, fmap.coefficients):
        assert coeff == pytest.approx(terms.get(mono, 0.0), abs=1e-6)


def test_fit_three_outputs_reports_168_coefficients(tmp_path, capsys):
    rng = np.random.default_rng(12)
    series = pc.TimeSeries(rng.uniform(-1, 1, size=100), name="x")
    pio.write_series_csv(tmp_path / "rand.csv", series)
    rc = main(["fit", "--set", "input=rand.csv", "--set", "embedding.lag=1",
               "--set", "fit.degree=5", "--set", "fit.constant=true",
               "--set", "fit.outputs=3", "--set", "fit.train_stop=100"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "fitted 168 coefficients" in out
    for name in ("map.txt", "map_lag1.txt", "map_lag2.txt"):
        fmap = pio.load_map(tmp_path / "out" / name)
        assert len(fmap.basis) == 56


def test_fit_outputs_keep_a_dotted_directory(tmp_path, capsys):
    rc = main(["fit", "--set", "output.map=results.v2/map",
               "--set", "fit.outputs=2"])
    assert rc == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "results.v2").iterdir()) == [
        "map", "map_lag1"]
    assert "-> results.v2/map_lag1\n" in capsys.readouterr().out


@pytest.mark.parametrize("setting, text", [
    ("fit.train_start=599",
     "training range 599..140 is invalid for a series of 600 entries"),
    ("fit.outputs=4", "fit.outputs must lie in 1..3, got 4"),
])
def test_fit_refuses_bad_training_settings(capsys, setting, text):
    assert main(["fit", "--set", setting]) == EXIT_IO
    assert capsys.readouterr().err == f"error: {text}\n"


def test_fit_huge_degree_refused_without_building_the_basis(capsys):
    # the row count must be checked before a 10.8 million-term basis is built
    def too_slow(signum, frame):
        pytest.fail("fit at degree 400 took more than 5 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        rc = main(["fit", "--set", "fit.degree=400"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == EXIT_NUMERICAL
    assert ("127 usable rows cannot determine 10827400 coefficients "
            "(degree 400, constant False)" in capsys.readouterr().err)


def test_survey_huge_declared_map_basis_is_io_error(tmp_path, capsys):
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "map.txt").write_text("# degree=400 m=3 constant=false\n")

    def too_slow(signum, frame):
        pytest.fail("survey on a degree-400 map header took more than 5 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(5)
    try:
        rc = main(["survey"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert rc == EXIT_IO
    assert ("declares 10827400 terms but the file has 0 term lines"
            in capsys.readouterr().err)


def test_fit_rank_deficiency_is_numerical_failure(tmp_path, capsys):
    pio.write_series_csv(tmp_path / "const.csv",
                         pc.TimeSeries(np.full(20, 2.5), name="x"))
    rc = main(["fit", "--set", "input=const.csv", "--set", "embedding.lag=1",
               "--set", "embedding.dimension=1", "--set", "fit.degree=2",
               "--set", "fit.folds=2"])
    assert rc == EXIT_NUMERICAL
    assert "rank deficient" in capsys.readouterr().err


def test_fit_degree_7_refusal_names_the_fold(capsys):
    assert main(["fit", "--set", "fit.degree=7"]) == EXIT_NUMERICAL
    assert ("fold 1 of 10: 114 rows cannot determine 119 coefficients"
            in capsys.readouterr().err)


def _fit_default(tmp_path):
    assert main(["fit"]) == EXIT_OK


def test_forecast_matches_library_record(tmp_path, capsys):
    _fit_default(tmp_path)
    capsys.readouterr()
    assert main(["forecast", "--entry", "330"]) == EXIT_OK
    out = capsys.readouterr().out
    printed = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] in (
            "gf_forecast", "igf_forecast", "k_star", "actual",
            "gf_error_pct", "igf_error_pct",
        ):
            printed[parts[0]] = parts[1]
    series = pc.lorenz_series()
    space = pc.reconstruct(series, pc.EmbeddingParams(6, 3))
    fmap = pio.load_map(tmp_path / "out" / "map.txt")
    rec = pc.forecast_improved(fmap, series, space, 330 - 14)
    assert float(printed["gf_forecast"]) == rec.gf_forecast
    assert float(printed["igf_forecast"]) == rec.igf_forecast
    assert int(printed["k_star"]) == rec.k_star
    assert float(printed["actual"]) == rec.actual
    # the delta-magnitude dump covers orders 0..n_cap
    lines = _series_lines(tmp_path / "out" / "delta_table.csv")
    assert lines[0] == "k,abs_delta_k"
    assert len(lines) == 32


def test_forecast_warns_in_sample(tmp_path, capsys):
    _fit_default(tmp_path)
    assert main(["forecast", "--entry", "100"]) == EXIT_OK
    assert "in-sample" in capsys.readouterr().err
    # the default train_stop is entry 140: the last in-sample anchor
    assert main(["forecast", "--entry", "140"]) == EXIT_OK
    assert "anchor entry 140 lies inside the training range" in capsys.readouterr().err
    assert main(["forecast", "--entry", "141"]) == EXIT_OK
    assert "in-sample" not in capsys.readouterr().err


def test_forecast_requires_entry(tmp_path, capsys):
    _fit_default(tmp_path)
    capsys.readouterr()
    assert main(["forecast"]) == EXIT_IO
    assert "anchor entry" in capsys.readouterr().err


def test_forecast_entry_out_of_range(tmp_path, capsys):
    # window 40 and span 12 on 600 entries: anchors 54..600 are valid
    _fit_default(tmp_path)
    capsys.readouterr()
    for entry in (9000, 601, 53, 20):
        assert main(["forecast", "--entry", str(entry)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "valid anchors: 54..600" in err
        assert "in-sample" not in err
    for entry in (54, 600):
        assert main(["forecast", "--entry", str(entry)]) == EXIT_OK
        capsys.readouterr()


def test_single_valid_anchor(tmp_path, capsys):
    # 54 entries leave exactly one anchor for window 40 and span 12
    _fit_default(tmp_path)
    capsys.readouterr()
    short = ["--set", "lorenz.steps=54"]
    assert main(["forecast", "--entry", "54", *short]) == EXIT_OK
    assert "anchor entry 54 (forecasting entry 55)" in capsys.readouterr().out
    assert main(["forecast", "--entry", "53", *short]) == EXIT_IO
    assert "(valid anchors: 54..54)" in capsys.readouterr().err


@pytest.mark.parametrize("setting, entries, needed", [
    ("lorenz.steps=53", 53, 54),
    ("correction.window=100000", 600, 100014),
])
def test_no_valid_anchor_is_named(tmp_path, capsys, setting, entries, needed):
    _fit_default(tmp_path)
    capsys.readouterr()
    window = setting.split("=")[1] if setting.startswith("correction") else "40"
    text = (f"error: no anchor entry admits a correction window of size "
            f"{window}: the series has {entries} entries and needs at least "
            f"{needed}\n")
    for command in (["survey"], ["forecast", "--entry", "330"]):
        assert main([*command, "--set", setting]) == EXIT_IO
        assert capsys.readouterr().err == text


def test_forecast_missing_map(tmp_path, capsys):
    assert main(["forecast", "--entry", "330"]) == EXIT_IO


def test_forecast_no_plateau_exit_code(tmp_path, capsys):
    # geometric decay against a zero map: |Delta^k| falls by x0.111 per
    # order, so the search exhausts its cap
    values = 0.9 ** np.arange(60)
    pio.write_series_csv(tmp_path / "geo.csv", pc.TimeSeries(values, name="x"))
    basis = pc.enumerate_monomials(1, 1, include_constant=False)
    pio.save_map(tmp_path / "geo_map.txt", pc.PolynomialMap(basis, np.zeros(1)))
    rc = main(["forecast", "--entry", "41", "--set", "input=geo.csv",
               "--set", "embedding.lag=1", "--set", "embedding.dimension=1",
               "--set", "correction.window=10", "--set", "correction.n_cap=8",
               "--set", "output.map=geo_map.txt"])
    assert rc == EXIT_NO_PLATEAU
    assert "no plateau" in capsys.readouterr().err


def test_forecast_perfect_map_message(tmp_path, capsys):
    series = pc.TimeSeries(np.full(120, 3.25), name="x")
    pio.write_series_csv(tmp_path / "const.csv", series)
    basis = pc.enumerate_monomials(3, 1, include_constant=False)
    pio.save_map(tmp_path / "id_map.txt",
                 pc.PolynomialMap(basis, np.array([0.0, 0.0, 1.0])))
    rc = main(["forecast", "--entry", "80", "--set", "input=const.csv",
               "--set", "output.map=id_map.txt"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "no correction needed" in out
    assert "gf_forecast  3.25" in out


def test_survey_report_rows(tmp_path, capsys):
    _fit_default(tmp_path)
    capsys.readouterr()
    assert main(["survey"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "surveyed 21 anchors" in out
    assert "mean gf_error_pct" in out
    report = _series_lines(tmp_path / "out" / "survey.csv")
    assert len(report) == 22
    assert (tmp_path / "out" / "log_ratio.csv").exists()


def test_survey_huge_range_refused_before_enumerating(tmp_path):
    # 10^8 anchors would need gigabytes; the range is checked against the
    # series first, in a child capped at 1.5 GB of address space and 5 s
    _fit_default(tmp_path)
    child = (
        "import resource, signal, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))\n"
        "signal.alarm(5)\n"
        "from polycast.cli import main\n"
        "sys.exit(main(['survey', '--set', 'survey.stop=1000000000']))\n"
    )
    src = str(Path(pc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    env.pop("POLYCAST_OUTPUT_DIR", None)
    done = subprocess.run([sys.executable, "-c", child], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_IO, done.stderr
    assert ("anchor entry 610 does not admit a correction window of size 40 "
            "and a forecast point inside the series (valid anchors: 54..600)"
            in done.stderr)


_SERIES_FILE_CHILD = """
import contextlib, io, json, sys, traceback
from polycast.cli import main
runs = []
for name in sys.argv[1:]:
    for command in (["fit", "--set", "output.map=refit.txt"],
                    ["forecast", "--entry", "330"], ["survey"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(err):
            try:
                rc = main([*command, "--set", "input=" + name])
            except Exception:
                traceback.print_exc()
                rc = 1
        runs.append((name, command[0], rc, err.getvalue()))
print(json.dumps(runs))
"""

# file -> (exit code of fit, of forecast and survey, text of the last
# stderr line of fit, of forecast and survey)
_SERIES_FILES = {
    "empty.csv": (EXIT_IO, EXIT_IO, "no numeric rows", "no numeric rows"),
    "header.csv": (EXIT_IO, EXIT_IO, "no numeric rows", "no numeric rows"),
    "constant.csv": (EXIT_NUMERICAL, EXIT_OK, "rank deficient", None),
    "short20.csv": (EXIT_NUMERICAL, EXIT_IO, "0 usable rows",
                    "no anchor entry admits"),
    "short150.csv": (EXIT_OK, EXIT_IO, None, "valid anchors: 54..150"),
    "nan.csv": (EXIT_IO, EXIT_IO, "'nan' in nan.csv, row 6",
                "'nan' in nan.csv, row 6"),
    "binary.csv": (EXIT_IO, EXIT_IO, "cannot read binary.csv as CSV text",
                   "cannot read binary.csv as CSV text"),
    "huge.csv": (EXIT_NUMERICAL, EXIT_IO, "degree-2 monomials overflow",
                 "contains non-finite values"),
    "tiny.csv": (EXIT_NUMERICAL, EXIT_OK, "rank deficient", None),
}


def test_series_file_table(tmp_path, default_series):
    # fit, forecast and survey on each hostile series file, in one child
    # process so that warnings print as they would for a user
    _fit_default(tmp_path)
    values = default_series.values
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "header.csv").write_text("i,x1\n")
    for name, column in (("constant.csv", np.full(600, 1.5)),
                         ("short20.csv", values[:20]),
                         ("short150.csv", values[:150]),
                         ("nan.csv", values),
                         ("huge.csv", values * 1e200),
                         ("tiny.csv", values * 1e-300)):
        pio.write_series_csv(tmp_path / name, pc.TimeSeries(column, name="x1"))
    lines = (tmp_path / "nan.csv").read_text().splitlines(keepends=True)
    lines[5] = "4,nan\n"
    (tmp_path / "nan.csv").write_text("".join(lines))
    (tmp_path / "binary.csv").write_bytes(bytes(range(256)))

    src = str(Path(pc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    env.pop("POLYCAST_OUTPUT_DIR", None)
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(
        [sys.executable, "-c", _SERIES_FILE_CHILD, *_SERIES_FILES],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0 and not done.stderr, done.stderr
    runs = json.loads(done.stdout)
    assert len(runs) == 3 * len(_SERIES_FILES)
    for name, command, rc, err in runs:
        fit_rc, use_rc, fit_text, use_text = _SERIES_FILES[name]
        want_rc, want_text = (fit_rc, fit_text) if command == "fit" else (
            use_rc, use_text)
        assert (rc, "Traceback" in err) == (want_rc, False), (name, command, err)
        if rc != EXIT_OK:
            last = err.splitlines()[-1]
            assert last.startswith("error: ") and want_text in last, (
                name, command, err)


_SETTINGS_CHILD = """
import contextlib, io, json, resource, signal, sys, traceback
from polycast.cli import main


class Overran(BaseException):
    pass


def overran(signum, frame):
    raise Overran


resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))
signal.signal(signal.SIGALRM, overran)
runs = []
for key, value in json.loads(sys.argv[1]):
    for command in (["fit", "--set", "output.map=refit.txt"],
                    ["forecast", "--entry", "330"], ["survey"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(err):
            signal.alarm(5)
            try:
                rc = main([*command, "--set", f"{key}={value}"])
            except Overran:
                rc = "overran"
            except Exception:
                traceback.print_exc()
                rc = 1
            finally:
                signal.alarm(0)
        runs.append((key, value, command[0], rc, err.getvalue()))
print(json.dumps(runs))
"""

_HOSTILE_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e308", "1000000000", "")
# The generator's time and memory grow with lorenz.steps x lorenz.substeps,
# as the README says; 10^9 of either is a long run the user asked for.
_LONG_RUNS = {("lorenz.steps", "1000000000"), ("lorenz.substeps", "1000000000")}


def test_hostile_settings_table(tmp_path):
    # every key but the file names, with each hostile value, through fit,
    # forecast and survey in one child capped at 1.5 GB and 5 s per run
    _fit_default(tmp_path)
    settings = [
        (key, value) for key in KEYS
        if key != "input" and not key.startswith("output.")
        for value in _HOSTILE_VALUES if (key, value) not in _LONG_RUNS
    ]
    src = str(Path(pc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    env.pop("POLYCAST_OUTPUT_DIR", None)
    env.pop("PYTHONWARNINGS", None)
    done = subprocess.run(
        [sys.executable, "-c", _SETTINGS_CHILD, json.dumps(settings)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0 and not done.stderr, done.stderr
    runs = json.loads(done.stdout)
    assert len(runs) == 3 * len(settings)
    for key, value, command, rc, err in runs:
        assert rc in (EXIT_OK, EXIT_NO_PLATEAU, EXIT_IO, EXIT_NUMERICAL), (
            key, value, command, rc, err)
        assert "Traceback" not in err and "Warning" not in err, (
            key, value, command, err)


def test_survey_reproducible_byte_for_byte(tmp_path):
    for name in ("run_a", "run_b"):
        assert main(["fit", "--output-dir", name]) == EXIT_OK
        assert main(["survey", "--output-dir", name]) == EXIT_OK
    for file in ("map.txt", "survey.csv", "log_ratio.csv"):
        a = (tmp_path / "run_a" / file).read_bytes()
        b = (tmp_path / "run_b" / file).read_bytes()
        assert a == b


def test_unknown_set_key(capsys):
    assert main(["generate", "--set", "lorenz.sgima=10"]) == EXIT_IO
    assert "unknown configuration key" in capsys.readouterr().err


def test_malformed_set(capsys):
    assert main(["generate", "--set", "lorenz.sigma"]) == EXIT_IO
    assert "KEY=VALUE" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert main(["generate", "--config", "nope.cfg"]) == EXIT_IO


def test_precedence_chain(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output.dir = from_config\nlorenz.steps = 60\n")

    # config file alone
    assert main(["generate", "--config", str(cfg)]) == EXIT_OK
    assert len(_series_lines(tmp_path / "from_config" / "series.csv")) == 61

    # environment beats the config file
    monkeypatch.setenv("POLYCAST_OUTPUT_DIR", "from_env")
    assert main(["generate", "--config", str(cfg)]) == EXIT_OK
    assert (tmp_path / "from_env" / "series.csv").exists()

    # --set beats the environment and the config file
    assert main(["generate", "--config", str(cfg),
                 "--set", "output.dir=from_set",
                 "--set", "lorenz.steps=70"]) == EXIT_OK
    assert len(_series_lines(tmp_path / "from_set" / "series.csv")) == 71

    # the dedicated flag beats everything
    assert main(["generate", "--config", str(cfg),
                 "--set", "output.dir=from_set",
                 "--output-dir", "from_flag"]) == EXIT_OK
    assert (tmp_path / "from_flag" / "series.csv").exists()


def test_jobs_setting_rejected(tmp_path, capsys):
    # surveys run as one batch; the former worker-count setting is an
    # unknown key and the flag an unknown argument
    cfg = tmp_path / "old.cfg"
    cfg.write_text("jobs = 3\n")
    assert main(["survey", "--config", str(cfg)]) == EXIT_IO
    assert "unknown configuration key 'jobs'" in capsys.readouterr().err
    assert main(["survey", "--set", "jobs=3"]) == EXIT_IO
    with pytest.raises(SystemExit) as exc:
        main(["survey", "--jobs", "3"])
    assert exc.value.code == 2


def test_survey_duplicate_map_line_is_io_error(tmp_path, capsys):
    assert main(["fit"]) == EXIT_OK
    path = tmp_path / "out" / "map.txt"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + [lines[1]]) + "\n")
    assert main(["survey"]) == EXIT_IO
    err = capsys.readouterr().err
    assert err.startswith("error:") and "more than once" in err
    assert "Traceback" not in err

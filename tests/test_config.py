"""Configuration parsing and dotted-key overrides."""

import re
from pathlib import Path

import pytest

from polycast.config import (
    KEYS,
    RunConfig,
    load_config,
    parse_config_text,
)


def test_defaults():
    cfg = RunConfig()
    assert cfg.input == "lorenz"
    assert cfg.output_dir == "out"
    assert (cfg.sigma, cfg.r, cfg.b) == (10.0, 28.0, 8.0 / 3.0)
    assert (cfg.dt, cfg.steps, cfg.substeps) == (0.01, 600, 10)
    assert (cfg.lag, cfg.dimension) == (6, 3)
    assert (cfg.degree, cfg.include_constant, cfg.folds) == (2, False, 10)
    assert (cfg.train_start, cfg.train_stop) == (1, 0)
    assert (cfg.window, cfg.n_cap) == (40, 30)
    assert (cfg.survey_start, cfg.survey_stop, cfg.survey_step) == (300, 500, 10)


def test_parse_config_text():
    text = """
    # a comment
    lorenz.r = 24.0   # trailing comment
    fit.degree=3

    fit.degree = 4
    """
    parsed = parse_config_text(text)
    assert parsed == {"lorenz.r": "24.0", "fit.degree": "4"}


def test_parse_config_text_errors():
    with pytest.raises(ValueError, match="line 2"):
        parse_config_text("lorenz.r = 24\nnonsense\n")
    with pytest.raises(ValueError, match="line 1"):
        parse_config_text("= 5\n")


def test_with_settings_coercion():
    cfg = RunConfig().with_settings(
        {
            "lorenz.r": "24.0",
            "fit.degree": "3",
            "fit.constant": "yes",
            "embedding.lag": "4",
            "input": "data.csv",
        }
    )
    assert cfg.r == 24.0
    assert cfg.degree == 3
    assert cfg.include_constant is True
    assert cfg.lag == 4
    assert cfg.input == "data.csv"
    # untouched fields keep their defaults
    assert cfg.dimension == 3


def test_with_settings_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown configuration key"):
        RunConfig().with_settings({"fit.degre": "3"})


def test_with_settings_rejects_bad_values():
    with pytest.raises(ValueError, match="fit.degree"):
        RunConfig().with_settings({"fit.degree": "two"})
    with pytest.raises(ValueError, match="fit.constant"):
        RunConfig().with_settings({"fit.constant": "maybe"})


def test_validation_of_ranges():
    with pytest.raises(ValueError, match="embedding.lag"):
        RunConfig(lag=0)
    with pytest.raises(ValueError, match="fit.folds"):
        RunConfig(folds=0)
    with pytest.raises(ValueError, match="lorenz.dt"):
        RunConfig(dt=0.0)
    with pytest.raises(ValueError, match="survey.step"):
        RunConfig(survey_step=0)


def test_resolved_paths_follow_output_dir():
    cfg = RunConfig(output_dir="run1")
    assert cfg.output_path("series") == "run1/series.csv"
    assert cfg.output_path("map") == "run1/map.txt"
    assert cfg.output_path("report") == "run1/survey.csv"
    assert cfg.output_path("log_ratio") == "run1/log_ratio.csv"
    assert cfg.output_path("delta_table") == "run1/delta_table.csv"
    assert cfg.output_path("phase_space") == "run1/phase_space.csv"
    # explicit file settings win over the directory default
    cfg = RunConfig(output_dir="run1", map_file="elsewhere/m.txt")
    assert cfg.output_path("map") == "elsewhere/m.txt"


def test_every_key_round_trips():
    # each dotted key must parse its own printed default
    cfg = RunConfig()
    for key, (field_name, parser) in KEYS.items():
        current = getattr(cfg, field_name)
        updated = cfg.with_settings({key: str(current)})
        assert getattr(updated, field_name) == current


def test_readme_key_table_lists_every_key():
    # the README table is the only other place the keys are written down
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Configuration keys", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| ")]
    listed = re.findall(r"`([^`]+)`", "\n".join(rows))
    listed.remove("lorenz")  # the value in the input row, not a key
    assert sorted(listed) == sorted(KEYS)


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("lorenz.steps = 420\ncorrection.window = 10\n")
    cfg = load_config(path)
    assert cfg.steps == 420
    assert cfg.window == 10
    with pytest.raises(OSError):
        load_config(tmp_path / "missing.cfg")

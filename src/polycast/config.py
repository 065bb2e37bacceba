"""Run configuration: ``key = value`` files with ``#`` comments.

Dotted keys group settings (``lorenz.sigma``, ``fit.degree``, ...); the
same keys are accepted by the CLI's ``--set`` overrides.  Unknown keys
are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Dict, Mapping


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _key(key: str, default, positive: bool = False, file: str = ""):
    """A field default that carries the field's dotted configuration key
    and its rules: ``positive``, or an output's default ``file`` name
    under output.dir."""
    return field(
        default=default, metadata={"key": key, "positive": positive, "file": file}
    )


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by the CLI commands.

    ``input`` is either the literal ``lorenz`` (generate the series from
    the built-in system; deterministic, so commands never need a series
    file on disk) or a path to a series CSV.  ``train_stop`` of 0 means
    automatic: 140 entries for the built-in generator, the first quarter
    of the series otherwise.  Train bounds are 1-based and inclusive.
    """

    input: str = _key("input", "lorenz")
    output_dir: str = _key("output.dir", "out")
    series_file: str = _key("output.series", "", file="series.csv")
    map_file: str = _key("output.map", "", file="map.txt")
    report_file: str = _key("output.report", "", file="survey.csv")
    log_ratio_file: str = _key("output.log_ratio", "", file="log_ratio.csv")
    delta_table_file: str = _key("output.delta_table", "", file="delta_table.csv")
    phase_space_file: str = _key("output.phase_space", "", file="phase_space.csv")
    sigma: float = _key("lorenz.sigma", 10.0)
    r: float = _key("lorenz.r", 28.0)
    b: float = _key("lorenz.b", 8.0 / 3.0)
    dt: float = _key("lorenz.dt", 0.01, positive=True)
    steps: int = _key("lorenz.steps", 600, positive=True)
    substeps: int = _key("lorenz.substeps", 10, positive=True)
    x1: float = _key("lorenz.x1", -0.3336666667)
    x2: float = _key("lorenz.x2", -0.3336666667)
    x3: float = _key("lorenz.x3", 21.9996666667)
    lag: int = _key("embedding.lag", 6, positive=True)
    dimension: int = _key("embedding.dimension", 3, positive=True)
    degree: int = _key("fit.degree", 2, positive=True)
    include_constant: bool = _key("fit.constant", False)
    folds: int = _key("fit.folds", 10, positive=True)
    train_start: int = _key("fit.train_start", 1, positive=True)
    train_stop: int = _key("fit.train_stop", 0)
    outputs: int = _key("fit.outputs", 1, positive=True)
    window: int = _key("correction.window", 40, positive=True)
    n_cap: int = _key("correction.n_cap", 30, positive=True)
    survey_start: int = _key("survey.start", 300)
    survey_stop: int = _key("survey.stop", 500)
    survey_step: int = _key("survey.step", 10, positive=True)
    forecast_entry: int = _key("forecast.entry", 0)

    def __post_init__(self):
        for f in fields(self):
            value, key = getattr(self, f.name), f.metadata["key"]
            if type(f.default) is float and not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
            if f.metadata["positive"] and value <= 0:
                rule = "positive" if type(f.default) is float else ">= 1"
                raise ValueError(f"{key} must be {rule}")

    def output_path(self, name: str) -> str:
        """The ``output.<name>`` file; when that is empty, the file's
        default name under the output directory."""
        f = self.__dataclass_fields__[f"{name}_file"]
        return getattr(self, f.name) or str(Path(self.output_dir) / f.metadata["file"])

    def with_settings(self, mapping: Mapping[str, str]) -> "RunConfig":
        """A copy with dotted-key settings applied (values given as text)."""
        updates = {}
        for key, text in mapping.items():
            try:
                field_name, parser = KEYS[key]
            except KeyError:
                raise ValueError(f"unknown configuration key {key!r}") from None
            try:
                updates[field_name] = parser(text)
            except ValueError as exc:
                raise ValueError(f"bad value for {key}: {exc}") from None
        return replace(self, **updates)


# Each key's parser follows the type of its field's default.
_PARSERS = {bool: _parse_bool, int: int, float: float, str: str.strip}

KEYS = {
    f.metadata["key"]: (f.name, _PARSERS[type(f.default)])
    for f in fields(RunConfig)
}


def parse_config_text(text: str) -> Dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment, blanks are
    skipped.  Later assignments to the same key win."""
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        out[key.strip()] = value.strip()
    return out


def load_config(path) -> RunConfig:
    """Read a configuration file on top of the defaults.  A refusal of the
    file's text, keys or values names the file."""
    try:
        return RunConfig().with_settings(parse_config_text(Path(path).read_text()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

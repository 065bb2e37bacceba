"""Run configuration: ``key = value`` files with ``#`` comments.

Dotted keys group settings (``lorenz.sigma``, ``fit.degree``, ...); the
same keys are accepted by the CLI's ``--set`` overrides.  Unknown keys
are rejected so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Dict, Mapping


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_int(text: str) -> int:
    return int(text.strip())


def _parse_float(text: str) -> float:
    return float(text.strip())


def _parse_str(text: str) -> str:
    return text.strip()


@dataclass(frozen=True)
class RunConfig:
    """Settings shared by the CLI commands.

    ``input`` is either the literal ``lorenz`` (generate the series from
    the built-in system; deterministic, so commands never need a series
    file on disk) or a path to a series CSV.  ``train_stop`` of 0 means
    automatic: 140 entries for the built-in generator, the first quarter
    of the series otherwise.  Train bounds are 1-based and inclusive.
    """

    input: str = "lorenz"
    output_dir: str = "out"
    series_file: str = ""
    map_file: str = ""
    report_file: str = ""
    log_ratio_file: str = ""
    delta_table_file: str = ""
    phase_space_file: str = ""
    sigma: float = 10.0
    r: float = 28.0
    b: float = 8.0 / 3.0
    dt: float = 0.01
    steps: int = 600
    substeps: int = 10
    x1: float = -0.3336666667
    x2: float = -0.3336666667
    x3: float = 21.9996666667
    lag: int = 6
    dimension: int = 3
    degree: int = 2
    include_constant: bool = False
    folds: int = 10
    train_start: int = 1
    train_stop: int = 0
    outputs: int = 1
    window: int = 40
    n_cap: int = 30
    survey_start: int = 300
    survey_stop: int = 500
    survey_step: int = 10
    forecast_entry: int = 0

    def __post_init__(self):
        positive = (
            "steps", "substeps", "lag", "dimension", "degree", "folds",
            "train_start", "outputs", "window", "n_cap", "survey_step",
        )
        for name in positive:
            if getattr(self, name) < 1:
                raise ValueError(f"{KEY_FOR_FIELD[name]} must be >= 1")
        if self.dt <= 0:
            raise ValueError("lorenz.dt must be positive")

    # Files default to well-known names under the output directory.

    def _out(self, override: str, default_name: str) -> str:
        return override or str(Path(self.output_dir) / default_name)

    @property
    def resolved_series_file(self) -> str:
        return self._out(self.series_file, "series.csv")

    @property
    def resolved_map_file(self) -> str:
        return self._out(self.map_file, "map.txt")

    @property
    def resolved_report_file(self) -> str:
        return self._out(self.report_file, "survey.csv")

    @property
    def resolved_log_ratio_file(self) -> str:
        return self._out(self.log_ratio_file, "log_ratio.csv")

    @property
    def resolved_delta_table_file(self) -> str:
        return self._out(self.delta_table_file, "delta_table.csv")

    @property
    def resolved_phase_space_file(self) -> str:
        return self._out(self.phase_space_file, "phase_space.csv")

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


KEYS = {
    "input": ("input", _parse_str),
    "output.dir": ("output_dir", _parse_str),
    "output.series": ("series_file", _parse_str),
    "output.map": ("map_file", _parse_str),
    "output.report": ("report_file", _parse_str),
    "output.log_ratio": ("log_ratio_file", _parse_str),
    "output.delta_table": ("delta_table_file", _parse_str),
    "output.phase_space": ("phase_space_file", _parse_str),
    "lorenz.sigma": ("sigma", _parse_float),
    "lorenz.r": ("r", _parse_float),
    "lorenz.b": ("b", _parse_float),
    "lorenz.dt": ("dt", _parse_float),
    "lorenz.steps": ("steps", _parse_int),
    "lorenz.substeps": ("substeps", _parse_int),
    "lorenz.x1": ("x1", _parse_float),
    "lorenz.x2": ("x2", _parse_float),
    "lorenz.x3": ("x3", _parse_float),
    "embedding.lag": ("lag", _parse_int),
    "embedding.dimension": ("dimension", _parse_int),
    "fit.degree": ("degree", _parse_int),
    "fit.constant": ("include_constant", _parse_bool),
    "fit.folds": ("folds", _parse_int),
    "fit.train_start": ("train_start", _parse_int),
    "fit.train_stop": ("train_stop", _parse_int),
    "fit.outputs": ("outputs", _parse_int),
    "correction.window": ("window", _parse_int),
    "correction.n_cap": ("n_cap", _parse_int),
    "survey.start": ("survey_start", _parse_int),
    "survey.stop": ("survey_stop", _parse_int),
    "survey.step": ("survey_step", _parse_int),
    "forecast.entry": ("forecast_entry", _parse_int),
}

KEY_FOR_FIELD = {field: key for key, (field, _) in KEYS.items()}


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
    """Read a configuration file on top of the defaults."""
    text = Path(path).read_text()
    return RunConfig().with_settings(parse_config_text(text))

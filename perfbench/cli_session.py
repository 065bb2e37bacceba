"""The cli_session workload: the README session as separate commands.

One session is seven ops: ``generate``, ``embed``, ``fit``, ``forecast
--entry E`` and ``survey`` on the built-in generator, with the initial
state and E chosen by the seed, then ``fit`` and ``survey`` with
``--set input=out/series.csv``.  Untraced ops are subprocesses, so they
pay for interpreter start and ``import polycast`` as a user does; a traced
run also calls ``polycast.cli.main(argv)`` in-process, with and without
spans, on the same session.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import oracle
from workloads import Workload

COMMANDS = ("generate", "embed", "fit", "forecast", "survey", "fit_csv", "survey_csv")
WRITES = {
    "generate": ("series.csv",),
    "embed": ("phase_space.csv",),
    "fit": ("map.txt",),
    "forecast": ("delta_table.csv",),
    "survey": ("survey.csv", "log_ratio.csv"),
    "fit_csv": ("map.txt",),
    "survey_csv": ("survey.csv", "log_ratio.csv"),
}
SAMPLES = 600
TRAIN_STOP = {"fit": 140, "fit_csv": 150}  # built-in default; a quarter of a CSV series
SURVEY_ENTRIES = tuple(range(300, 501, 10))
LAUNCH = "import sys; from polycast.cli import main; sys.exit(main(sys.argv[1:]))"
COMMAND_TIMEOUT_S = 60
DEFAULT_SEED = 1  # the seed whose session reference/cli.json records


def child_env(src: Path) -> dict:
    """The environment of a child interpreter that imports polycast from ``src``."""
    env = {k: v for k, v in os.environ.items() if k != "POLYCAST_OUTPUT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return env


def _floats(text: str, column: int = -1) -> np.ndarray:
    return np.array([float(line.split(",")[column]) for line in text.splitlines()[1:]])


def _parse_map(text: str):
    rows = [line.split() for line in text.splitlines()[1:] if line.strip()]
    return (
        np.array([[float(e) for e in row[1:]] for row in rows]),
        np.array([float(row[0]) for row in rows]),
    )


class CliSession(Workload):
    """One op is one session: its seven commands, each timed and checked alone."""

    pass_length = op_length = len(COMMANDS)

    def __init__(self, seed: int, root: Path, src: Path):
        super().__init__(seed)
        self.work = root / ".perfbench_work" / f"cli-{os.getpid()}"
        self.inprocess = False  # call polycast.cli.main instead of a subprocess
        rng = np.random.default_rng(self.seed)
        self.state = oracle.seeded_state(rng, 0.5)
        self.entry = int(rng.integers(150, SAMPLES))
        self.env = child_env(src)

    def argv(self, name: str) -> list:
        if name.endswith("_csv"):
            return [name[: -len("_csv")], "--set", "input=out/series.csv"]
        sets = []
        for key, value in zip(("x1", "x2", "x3"), self.state):
            sets += ["--set", f"lorenz.{key}={value!r}"]
        extra = ["--entry", str(self.entry)] if name == "forecast" else []
        return [name, *extra, *sets]

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # -- ops --------------------------------------------------------------

    def before(self, i: int) -> None:
        out = self.work / "out"
        out.mkdir(parents=True, exist_ok=True)
        for name in WRITES[COMMANDS[i % len(COMMANDS)]]:
            (out / name).unlink(missing_ok=True)

    def _subprocess(self, args):
        proc = subprocess.run(
            [sys.executable, "-c", LAUNCH, *args],
            cwd=self.work, env=self.env, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    def _inprocess(self, args):
        stdout, stderr = io.StringIO(), io.StringIO()
        here = os.getcwd()
        os.chdir(self.work)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    rc = importlib.import_module("polycast.cli").main(args)
                except SystemExit as exc:
                    rc = exc.code
        finally:
            os.chdir(here)
        return rc, stdout.getvalue()

    def op(self, i: int):
        args = self.argv(COMMANDS[i % len(COMMANDS)])
        return self._inprocess(args) if self.inprocess else self._subprocess(args)

    def compact(self, i: int, out) -> tuple:
        """Exit code, stdout and the text of every file the command writes."""
        rc, stdout = out
        files = {}
        for name in WRITES[COMMANDS[i % len(COMMANDS)]]:
            path = self.work / "out" / name
            files[name] = path.read_text() if path.exists() else None
        return rc, stdout, files

    # -- checks -----------------------------------------------------------

    def prepare_check(self) -> None:
        self.x_ref = oracle.lorenz_x1(self.state, SAMPLES)
        self.golden = oracle.load_reference("cli.json") if self.seed == DEFAULT_SEED else None
        self._x = None
        self._maps = {}

    def check(self, i: int, snap) -> str | None:
        name = COMMANDS[i % len(COMMANDS)]
        try:
            return getattr(self, f"_check_{name}")(*snap)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            return f"{name}: unreadable output ({type(exc).__name__}: {exc})"

    def _check_generate(self, rc, stdout, files):
        if rc != 0:
            self._x = None
            return f"generate exited {rc}"
        x = _floats(files["series.csv"])
        self._x = x
        if len(x) != SAMPLES or not oracle.close(x, self.x_ref).all():
            return "series.csv differs from the reference integration"
        if self.golden and not oracle.close(x, self.golden["series"]).all():
            return "series.csv differs from the reference run"
        return None

    def _check_embed(self, rc, stdout, files):
        if rc != 0:
            return f"embed exited {rc}"
        rows = np.array([[float(v) for v in line.split(",")[1:]] for line in files["phase_space.csv"].splitlines()[1:]])
        if rows.shape != (SAMPLES - oracle.SPAN, oracle.DIMENSION) or not np.array_equal(rows, oracle.embed(self._x)):
            return "phase_space.csv is not the delay embedding of series.csv"
        return None

    def _check_fit(self, rc, stdout, files, name="fit"):
        if rc != 0:
            return f"{name} exited {rc}"
        program = _parse_map(files["map.txt"])
        self._maps[name] = program
        ref = oracle.fit_oracle(self._x, 2, False, TRAIN_STOP[name])
        why = oracle.fit_mismatch(self._x, ref, program, TRAIN_STOP[name])
        if why is None and self.golden:
            want = np.array(self.golden[name])
            if not oracle.close(program[1], want).all():
                why = "coefficients differ from the reference run"
        return None if why is None else f"{name}: {why}"

    def _check_fit_csv(self, rc, stdout, files):
        return self._check_fit(rc, stdout, files, "fit_csv")

    def _forecast_oracle(self, fit_name):
        exps, coeffs = self._maps[fit_name]
        return oracle.ForecastOracle(self._x, exps, coeffs)

    def _check_forecast(self, rc, stdout, files):
        orc = self._forecast_oracle("fit")
        point = self.entry - oracle.SPAN - 2
        i = orc.index(point)
        allowed = {0, 2} if orc.ambiguous[i] else {2 if orc.k_star[i] < 0 else 0}
        if rc not in allowed:
            return f"forecast exited {rc}, expected {sorted(allowed)}"
        if self.golden and rc != self.golden["forecast"]["rc"]:
            return f"forecast exited {rc}, reference run exited {self.golden['forecast']['rc']}"
        if rc != 0:
            return None
        fields = _fields(stdout)
        k = None if fields["k_star"].strip() == "None" else int(fields["k_star"])
        gf, igf = float(fields["gf_forecast"]), float(fields["igf_forecast"])
        why = orc.mismatch(point, k, gf, igf)
        if why is None and self.golden:
            ref = self.golden["forecast"]
            if k != ref["k_star"] or not oracle.close(gf, ref["gf"]) or not oracle.close(igf, ref["igf"]):
                why = "forecast differs from the reference run"
        if why is None:
            mags = _floats(files["delta_table.csv"])
            want = orc.magnitudes[i][: len(mags)]
            noise = 8 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(self._x))))
            tol = oracle.VALUE_RTOL * (1 + want) + 3.0 * 2.0 ** np.arange(len(mags)) * noise
            if len(mags) != oracle.N_CAP + 1 or np.any(np.abs(mags - want) > tol):
                why = "delta_table.csv differs from the oracle's difference magnitudes"
        return None if why is None else f"forecast: {why}"

    def _check_survey(self, rc, stdout, files, name="survey", fit_name="fit"):
        if rc != 0:
            return f"{name} exited {rc}"
        orc = self._forecast_oracle(fit_name)
        lines = files["survey.csv"].splitlines()[1:]
        rows = [line.split(",") for line in lines]
        if tuple(int(r[0]) for r in rows) != SURVEY_ENTRIES:
            return f"{name}: survey.csv covers the wrong entries"
        golden = {r[0]: r[1:] for r in self.golden[name]} if self.golden else None
        ratios = []
        for r in rows:
            entry, k = int(r[0]), (int(r[4]) if r[4] else None)
            gf, igf = float(r[2]), float(r[3])
            why = orc.mismatch(entry - oracle.SPAN - 2, k, gf, igf)
            if why is None and golden:
                want_k, want_gf, want_igf = golden[entry]
                if k != want_k or not oracle.close(gf, want_gf) or not oracle.close(igf, want_igf):
                    why = f"entry {entry} differs from the reference run"
            if why is not None:
                return f"{name}: {why}"
            if r[5] and r[6]:
                g, c = float(r[5]), float(r[6])
                ratios.append((entry, _log_ratio(g, c)))
        logged = [(int(e), float(v)) for e, v in (line.split(",") for line in files["log_ratio.csv"].splitlines()[1:])]
        if [e for e, _ in logged] != [e for e, _ in ratios] or not oracle.close(
            [v for _, v in logged], [v for _, v in ratios]
        ).all():
            return f"{name}: log_ratio.csv does not match the survey's errors"
        return None

    def _check_survey_csv(self, rc, stdout, files):
        return self._check_survey(rc, stdout, files, "survey_csv", "fit_csv")

    def records(self, i, snap):
        """(k*, GF error %, IGF error %, no plateau) per corrected forecast."""
        rc, stdout, files = snap
        name = COMMANDS[i % len(COMMANDS)]
        if rc != 0:
            return
        if name == "forecast":
            fields = _fields(stdout)
            k = fields["k_star"]
            gf_err, igf_err = fields.get("gf_error_pct"), fields.get("igf_error_pct")
            yield (None if k == "None" else int(k)), _num(gf_err), _num(igf_err), False
        elif name.startswith("survey"):
            for line in files["survey.csv"].splitlines()[1:]:
                cells = line.split(",")
                yield _num(cells[4]), _num(cells[5]), _num(cells[6]), "no_plateau" in cells[7]


def _num(text):
    return float(text) if text else None


def _fields(stdout: str) -> dict:
    """``name value`` lines of the forecast command's report."""
    return dict(line.split(None, 1) for line in stdout.splitlines() if line[:1].isalpha() and " " in line)


def _log_ratio(gf: float, igf: float, cap: float = 50.0) -> float:
    if gf == 0.0 and igf == 0.0:
        return 0.0
    if igf == 0.0:
        return cap
    if gf == 0.0:
        return -cap
    return max(-cap, min(cap, math.log(gf / igf)))

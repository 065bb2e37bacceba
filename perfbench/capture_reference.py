#!/usr/bin/env python3
"""Record the reference outputs the benchmark compares against for its default seed.

    python3 perfbench/capture_reference.py

Run once, at the commit whose behaviour is the reference; it writes
perfbench/reference/library.json (k*, GF and IGF at every anchor that
survey_block and forecast_online can draw, for any seed) and
perfbench/reference/cli.json (the outputs of the default seed's
cli_session).  Forecasts are kept to 13 significant
digits, finer than the benchmark's tolerance.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import polycast as pc  # noqa: E402

import cli_session  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402


def _rounded(value):
    return float(format(value, ".13g"))


def library():
    wl = workloads.SurveyBlock(seed=1)  # the series and map do not depend on the seed
    wl.setup(pc)
    first = workloads.FIRST_POINT + oracle.SPAN + 2
    report = pc.survey(wl.fmap, wl.series, wl.space, range(first, wl.last_point + oracle.SPAN + 3))
    return {
        "records": [[r.entry, r.k_star, _rounded(r.gf_forecast), _rounded(r.igf_forecast)] for r in report.records],
    }


def cli():
    wl = cli_session.CliSession(cli_session.DEFAULT_SEED, HERE.parent, HERE.parent / "src")
    try:
        snaps = {}
        for i, name in enumerate(cli_session.COMMANDS):
            wl.before(i)
            snaps[name] = wl.compact(i, wl.op(i))
    finally:
        wl.close()
    ref = {"seed": cli_session.DEFAULT_SEED}
    ref["series"] = [float(v) for v in cli_session._floats(snaps["generate"][2]["series.csv"])]
    for name in ("fit", "fit_csv"):
        ref[name] = [float(v) for v in cli_session._parse_map(snaps[name][2]["map.txt"])[1]]
    rc, stdout, _ = snaps["forecast"]
    fields = cli_session._fields(stdout)
    ref["forecast"] = {"rc": rc}
    if rc == 0:
        k = fields["k_star"].strip()
        ref["forecast"].update(
            k_star=None if k == "None" else int(k),
            gf=float(fields["gf_forecast"]),
            igf=float(fields["igf_forecast"]),
        )
    for name in ("survey", "survey_csv"):
        rows = [line.split(",") for line in snaps[name][2]["survey.csv"].splitlines()[1:]]
        ref[name] = [[int(r[0]), int(r[4]) if r[4] else None, float(r[2]), float(r[3])] for r in rows]
    return ref


def main():
    out = oracle.REFERENCE_DIR
    out.mkdir(exist_ok=True)
    (out / "library.json").write_text(json.dumps(library(), separators=(",", ":")) + "\n")
    (out / "cli.json").write_text(json.dumps(cli(), separators=(",", ":")) + "\n")
    print(f"wrote {out / 'library.json'} and {out / 'cli.json'}")


if __name__ == "__main__":
    main()

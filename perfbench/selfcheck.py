#!/usr/bin/env python3
"""Short self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

For every workload it runs ``run.py`` untraced and traced for a few
seconds and checks that the result line has exactly the contract's keys,
that every metric BENCHMARK.json names is emitted and no other, that
end-to-end values are positive, that outputs were correct and
the traced replay was bit-for-bit identical to the untraced ops, that the
counts the benchmark promises repeat exactly, and that per-layer self
times account for the traced op time within the tracing overhead.  It
also checks that the benchmark fails, without a result, in a directory
holding only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = 2.0  # per run; enough for a few passes of every workload

# Structural counts at the commit that defined the benchmark.
EXACT = {
    "survey_block": {"bench.predict_rows_per_anchor": 42.0},
    "forecast_online": {"bench.predict_rows_per_anchor": 42.0},
    "fit_sweep": {"fitting.design_rows_per_fit": 9.0},
    "cli_session": {"algebra.Polynomial.evaluate.calls_per_series": 71880.0, "fitting.design_rows_per_fit": 9.0},
}


def run(workload, trace, seconds, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def check_result(workload, trace, proc, spec, problems):
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return None
    lines = proc.stdout.strip().splitlines()
    result, meta = json.loads(lines[-1]), json.loads(lines[-2])["meta"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or meta["trace_mismatches"]:
        problems.append(f"{where}: correct={result['correct']} trace mismatches={meta['trace_mismatches']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1 or not isinstance(result["failed"], int):
        problems.append(f"{where}: attempted={result['attempted']} failed={result['failed']}")
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != wanted:
        problems.append(f"{where}: missing {sorted(wanted - set(got))}, extra {sorted(set(got) - wanted)}")
    for name, entry in got.items():
        value = entry["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} = {entry}")
        elif not trace and value <= 0:
            problems.append(f"{where}: end-to-end {name} is {value}")
    return result, meta


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        check_result(wl, 0, run(wl, 0, SECONDS), spec, problems)
        traced = check_result(wl, 1, run(wl, 1, SECONDS), spec, problems)
        if traced is None:
            continue
        metrics = {k: v["value"] for k, v in traced[0]["metrics"].items()}
        for name, value in EXACT.get(wl, {}).items():
            if metrics.get(name) != value:
                problems.append(f"{wl}: {name} = {metrics.get(name)}, expected exactly {value}")
        overhead = metrics["trace.op_s_mean"] - traced[1]["untraced_op_s_mean"]
        # A replay runs seconds after its chunk, and the host's speed drifts
        # by a few percent over that time.
        if metrics["trace.unaccounted_s"] > max(overhead, 0.0) + 0.05 * metrics["trace.op_s_mean"]:
            problems.append(
                f"{wl}: layers leave {metrics['trace.unaccounted_s']:.3g} s of a traced op unaccounted, "
                f"more than the {overhead:.3g} s tracing overhead"
            )
        print(f"{wl}: checked", flush=True)

    bare = ROOT / ".perfbench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(spec["workloads"][0]["name"], 0, 1, cwd=bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("the benchmark printed a result without the package beside it")
    shutil.rmtree(bare, ignore_errors=True)

    for line in problems:
        print("FAIL", line)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

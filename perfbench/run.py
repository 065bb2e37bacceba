#!/usr/bin/env python3
"""The polycast benchmark.

    python3 perfbench/run.py --workload survey_block --seed 1 --seconds 20 --trace 0

Runs one seeded workload against the ``polycast`` package in ``src/`` of
the checkout this file sits in, checks every op's output, and prints, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` replays chunks of ops with spans around
every public function of the package and reports the per-layer metrics.
The line before the result holds the run's metadata.  Workloads and the
reasoning behind every metric are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import cli_session
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
IMPORT_SAMPLES = 3  # fresh interpreters per set-up; one import varies by 30%
# p99.9 and above follow the host's scheduling hiccups, not the program.
TAIL_LADDER = (99, 95, 90, 85, 80, 75, 70, 65, 60, 55, 50)
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
CHUNK_S = 1.0  # length of one untraced chunk that a traced run replays
LAYERS = ("algebra", "dynamics", "embedding", "fitting", "correction", "bench", "io", "config", "cli")


# -- statistics -----------------------------------------------------------------


def tail(values):
    """(percentile, value): the highest ladder percentile with TAIL_BEYOND samples above it."""
    ordered = np.sort(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= TAIL_BEYOND:
            return p, float(ordered[rank - 1])
    return 50, float(np.median(ordered))


def per_op(value, ops):
    return value / ops if ops else 0.0


# -- environment ----------------------------------------------------------------


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "polycast").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_info():
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, AttributeError):
        pass
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and line.split()[-1].startswith("/")}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                info["threads"] = int(getattr(handle, symbol)())
                return info
    return info


def measure_import(env):
    """Seconds to import polycast and numpy in a fresh interpreter (-X importtime)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import polycast"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    total = numpy_s = own_self = 0.0
    modules = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)", line)
        if not m:
            continue
        self_us, cumulative_us, name = int(m.group(1)), int(m.group(2)), m.group(4)
        if name == "polycast":
            total = cumulative_us / 1e6
        elif name == "numpy":
            numpy_s = cumulative_us / 1e6
        if name == "polycast" or name.startswith("polycast."):
            modules += 1
            own_self += self_us / 1e6
    return {"total_s": total, "numpy_s": numpy_s, "self_s": own_self, "modules": modules, "failed": proc.returncode != 0}


# -- running ops ----------------------------------------------------------------


class Ops:
    """Latencies, verdicts and forecast quality of ops run in order.

    Each output is reduced by the workload's ``compact`` and judged by its
    ``check`` as soon as the op returns, outside the timed call; outputs are
    kept only while a traced run needs them for its bit-for-bit comparison.
    """

    def __init__(self, wl, check=True):
        self.wl, self.checking = wl, check
        self.index, self.seconds = array("q"), array("d")
        self.bad = array("b")
        self.outputs = []
        self.wrong = 0
        self.reasons = []
        self.anchors = self.known = self.stars = self.no_plateau = 0
        self.star_sum = self.gf_sum = self.igf_sum = 0.0

    def run(self, i, keep=False):
        wl = self.wl
        wl.before(i)
        t0 = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception as exc:  # the op failed; it is counted, not fatal
            out = exc
        elapsed = time.perf_counter() - t0
        if not isinstance(out, Exception):
            out = wl.compact(i, out)
        self.index.append(i)
        self.seconds.append(elapsed)
        if keep:
            self.outputs.append(out)
        why = wl.check(i, out) if self.checking else None
        self.bad.append(why is not None)
        if why is not None:
            # A refusal (the program's own error for a problem it will not
            # solve) is a failed op; anything else that fails is a wrong answer.
            self.wrong += not isinstance(out, wl.refusals)
            if len(self.reasons) < 5:
                self.reasons.append(why)
        for k_star, gf_err, igf_err, no_plateau in wl.records(i, out):
            self.anchors += 1
            self.no_plateau += no_plateau
            if k_star is not None:
                self.stars += 1
                self.star_sum += k_star
            if gf_err is not None and igf_err is not None:
                self.known += 1
                self.gf_sum += gf_err
                self.igf_sum += igf_err

    def quality(self):
        return {
            "anchors": self.anchors,
            "gf_error_pct_mean": per_op(self.gf_sum, self.known),
            "igf_error_pct_mean": per_op(self.igf_sum, self.known),
            "k_star_mean": per_op(self.star_sum, self.stars),
            "no_plateau_ratio": per_op(self.no_plateau, self.anchors),
        }

    def count(self):
        """Ops attempted: a cli_session op is a whole session of commands."""
        return len(self.index) // self.wl.op_length

    def _ops(self):
        """(latency, failed) arrays with one entry per whole op."""
        n, count = self.wl.op_length, self.count()
        seconds = np.frombuffer(self.seconds, dtype=float)[: n * count].reshape(count, n)
        bad = np.frombuffer(self.bad, dtype=np.int8)[: n * count].reshape(count, n)
        return seconds.sum(axis=1), bad.any(axis=1)

    def failed(self):
        return int(self._ops()[1].sum())

    def latencies(self):
        """Latencies of every op, failed or not, so each commit times the same ops."""
        return self._ops()[0]


def run_for(ops, seconds, first=0, keep=False):
    """Run whole passes of ops from ``first`` while one more pass fits in ``seconds``.

    A pass is ``pass_length`` consecutive ops (one session, one sweep of
    every fit candidate, or a single op), so every run measures the same mix.
    At least one pass runs.  Returns the next op index.
    """
    length = ops.wl.pass_length
    deadline = time.perf_counter() + seconds
    i = first
    while True:
        t0 = time.perf_counter()
        for j in range(i, i + length):
            ops.run(j, keep)
        i += length
        now = time.perf_counter()
        if now + (now - t0) > deadline:
            return i


def make_workload(name, seed):
    if name == "cli_session":
        return cli_session.CliSession(seed, ROOT, SRC)
    return {
        "survey_block": workloads.SurveyBlock,
        "forecast_online": workloads.ForecastOnline,
        "fit_sweep": workloads.FitSweep,
    }[name](seed)


def setup_repeatedly(name, seed, pc, env):
    """Set the workload up SETUP_REPEATS times; keep the last, time each.

    One set-up is ``import polycast`` (the median of IMPORT_SAMPLES fresh
    interpreters' -X importtime figures, so interpreter start is left out)
    plus building the inputs, the set-up fit and the warm-up ops in this
    process.
    """
    samples, imports = [], []
    wl = None
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
        imported = [measure_import(env) for _ in range(IMPORT_SAMPLES)]
        t0 = time.perf_counter()
        wl = make_workload(name, seed)
        wl.setup(pc)
        samples.append(statistics.median(s["total_s"] for s in imported) + time.perf_counter() - t0)
        imports += imported
    return wl, samples, imports


# -- the two kinds of run -------------------------------------------------------


def untraced(wl, args):
    plain = Ops(wl)
    run_for(plain, args.seconds)
    return plain, {}


def traced(wl, args):
    """Alternate untraced chunks with a traced replay of the same ops.

    For cli_session a chunk is one session run in-process, preceded by the
    same session as subprocesses for the untraced per-command wall times.
    A chunk is at least one whole pass of the workload.
    """
    tracer = spans.Tracer()
    cli = args.workload == "cli_session"
    plain, replay, subproc = Ops(wl), Ops(wl, check=False), Ops(wl)
    deadline = time.perf_counter() + args.seconds
    i = mismatches = 0
    while True:
        first = len(plain.index)
        if cli:
            wl.inprocess = False
            run_for(subproc, 0, first=i)
            wl.inprocess = True
        run_for(plain, CHUNK_S, first=i, keep=True)
        chunk = plain.index[first:]
        tracer.install()
        try:
            for j in chunk:
                tracer.begin_op(j)
                try:
                    replay.run(j, keep=True)
                finally:
                    tracer.end_op()
        finally:
            tracer.uninstall()
            wl.inprocess = False
        mismatches += sum(not workloads.same(a, b) for a, b in zip(plain.outputs, replay.outputs))
        plain.outputs.clear()
        replay.outputs.clear()
        i = chunk[-1] + 1
        if time.perf_counter() >= deadline:
            break
    tracer.dump(OUT / f"{args.workload}-seed{args.seed}.spans.npz")
    return plain, {"tracer": tracer, "replay": replay, "subprocess": subproc, "mismatches": mismatches}


# -- metrics --------------------------------------------------------------------


def layer_metrics(plain, extra, imports, failure_ratio):
    tracer, replay = extra["tracer"], extra["replay"]
    summary = tracer.summary()
    ops = replay.count()
    quality = replay.quality()
    anchors = quality["anchors"]

    def key(name, column="calls"):
        return summary.get(name, {}).get(column, 0.0)

    m = {}
    for layer in LAYERS:
        rows = [v for k, v in summary.items() if spans.layer_of(k) == layer]
        m[f"{layer}.calls"] = per_op(sum(r["calls"] for r in rows), ops)
        m[f"{layer}.self_s"] = per_op(sum(r["self_s"] for r in rows), ops)
        m[f"{layer}.errors"] = per_op(sum(r["raised"] for r in rows), ops)
    good = [s for s in imports if not s["failed"]]
    m["import.calls"] = statistics.median(s["modules"] for s in good) if good else 0.0
    m["import.self_s"] = statistics.median(s["self_s"] for s in good) if good else 0.0
    m["import.errors"] = float(len(imports) - len(good))
    m["import.total_s"] = statistics.median(s["total_s"] for s in good) if good else 0.0
    m["import.numpy_s"] = statistics.median(s["numpy_s"] for s in good) if good else 0.0

    evaluate = key("algebra.Polynomial.evaluate")
    m["algebra.Polynomial.evaluate.calls"] = per_op(evaluate, ops)
    m["algebra.Polynomial.evaluate.calls_per_series"] = per_op(evaluate, key("dynamics.lorenz_series"))
    m["algebra.VectorField.evaluate.calls"] = per_op(key("algebra.VectorField.evaluate"), ops)
    m["dynamics.rk4_integrate.self_s"] = per_op(key("dynamics.rk4_integrate", "self_s"), ops)
    m["dynamics.rk4_stages"] = per_op(key("dynamics.rk4_integrate", "amount"), ops)
    m["embedding.reconstruct.self_s"] = per_op(key("embedding.reconstruct", "self_s"), ops)
    c = tracer.counters
    m["fitting.build_design_matrix.calls"] = per_op(key("fitting.build_design_matrix"), ops)
    m["fitting.design_rows_per_fit"] = per_op(c["fit_built_rows"], c["fit_usable_rows"])
    m["fitting.fit_least_squares.calls"] = per_op(key("fitting.fit_least_squares"), ops)
    m["fitting.fit_least_squares.self_s"] = per_op(key("fitting.fit_least_squares", "self_s"), ops)
    m["fitting.lstsq_flops"] = per_op(key("fitting.fit_least_squares", "amount"), ops)
    m["fitting.sv_ratio_min"] = min(tracer.sv_ratios) if tracer.sv_ratios else 0.0
    m["fitting.PolynomialMap.predict_many.rows"] = per_op(key("fitting.PolynomialMap.predict_many", "amount"), ops)
    m["bench.forecast_improved.calls"] = per_op(key("bench.forecast_improved"), ops)
    m["bench.forecast_improved.self_s"] = per_op(key("bench.forecast_improved", "self_s"), ops)
    m["bench.error_window.calls"] = per_op(key("bench.error_window"), ops)
    m["bench.predict_rows_per_anchor"] = per_op(c["bench_rows"], anchors)
    m["bench.anchors_per_s"] = per_op(plain.anchors, sum(plain.seconds))
    m["bench.gf_error_pct_mean"] = quality["gf_error_pct_mean"]
    m["bench.igf_error_pct_mean"] = quality["igf_error_pct_mean"]
    m["correction.DifferenceTable.row.calls"] = per_op(key("correction.DifferenceTable.row"), ops)
    m["correction.find_plateau.calls"] = per_op(key("correction.find_plateau"), ops)
    m["correction.find_plateau.self_s"] = per_op(key("correction.find_plateau", "self_s"), ops)
    m["correction.rows_per_anchor"] = per_op(c["difference_rows"], anchors)
    m["correction.no_plateau_ratio"] = quality["no_plateau_ratio"]
    m["correction.k_star_mean"] = quality["k_star_mean"]
    m["io.bytes_written"] = per_op(c["bytes_written"], ops)
    m["io.bytes_read"] = per_op(c["bytes_read"], ops)
    m["io.write_s"] = per_op(c["written_s"], ops)
    m["io.read_s"] = per_op(c["read_s"], ops)
    sub = extra["subprocess"]
    for name in cli_session.COMMANDS:
        walls = [t for j, t in zip(sub.index, sub.seconds) if cli_session.COMMANDS[j % len(cli_session.COMMANDS)] == name]
        m[f"cli.{name}.wall_s"] = statistics.median(walls) if walls else 0.0
    m["op_failure_ratio"] = failure_ratio
    traced_mean = per_op(sum(replay.seconds), ops)
    layer_self = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.overhead_s"] = float(np.median(replay.latencies()) - np.median(plain.latencies()))
    m["trace.op_s_mean"] = traced_mean
    m["trace.unaccounted_s"] = traced_mean - layer_self
    modules = {k: {"calls": per_op(v["calls"], ops), "self_s": per_op(v["self_s"], ops)} for k, v in summary.items()}
    return m, modules


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli_session", "survey_block", "forecast_online", "fit_sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "polycast" / "__init__.py").is_file():
        print(f"error: no polycast package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = cli_session.child_env(SRC)

    import polycast as pc

    if Path(pc.__file__).resolve().parent != SRC / "polycast":
        print(f"error: imported polycast from {pc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = time.perf_counter()
    wl, setup_samples, imports = setup_repeatedly(args.workload, args.seed, pc, env)
    try:
        wl.prepare_check()
        plain, extra = (traced if args.trace else untraced)(wl, args)
    finally:
        wl.close()
    runs = [plain] + ([extra["subprocess"]] if args.trace and args.workload == "cli_session" else [])
    attempted = sum(r.count() for r in runs)
    failed = sum(r.failed() for r in runs)
    mismatches = extra.get("mismatches", 0)
    import_failed = any(s["failed"] for s in imports)
    correct = sum(r.wrong for r in runs) == 0 and mismatches == 0 and not import_failed
    reasons = ["import polycast failed in a fresh interpreter"] * import_failed
    reasons = (reasons + [why for r in runs for why in r.reasons])[:5]

    seconds = plain.latencies()
    phase = sum(plain.seconds)
    failure_ratio = failed / attempted
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "samples": {"setup_s": len(setup_samples), "op_s": len(seconds), "ops": plain.count()},
        "op_failure_ratio": failure_ratio,
        "failures": reasons,
        "trace_mismatches": mismatches,
        "wall_s": time.perf_counter() - start,
    }
    if args.trace:
        metrics, modules = layer_metrics(plain, extra, imports, failure_ratio)
        meta["modules"] = modules
        meta["traced_ops"] = extra["replay"].count()
        meta["untraced_op_s_mean"] = per_op(sum(plain.seconds), plain.count())
    else:
        tail_p, tail_s = tail(seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "op_s.p50": float(np.median(seconds)),
            "op_s.tail": tail_s,
            "ops_per_s": plain.count() / phase,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        meta["tail_percentile"] = tail_p
        meta["anchors_per_s"] = per_op(plain.anchors, phase)
        meta.update(plain.quality())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "result": result}, indent=1)
    )
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans around polycast's public functions and methods, taken from outside.

``Tracer.install`` wraps every public function and method that a module
of the package defines, keyed ``<layer>.<qualified name>`` where the layer
is the module's short name, and rebinds the aliases that sibling modules
and the package itself import with ``from .x import y``.  Each call
appends one span (name, start, end, parent span, op id, raised) to flat
arrays held in memory; ``summary`` turns them into per-key counts and
self times.  Nothing inside the package is edited, so a function a later
change removes simply reports zero calls and a renamed module reports
under its new name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT = "benchmark.op"
HOOK = "trace.hook"
# Forecast evaluation lives in bench.py today; the planned rename to
# evaluate.py keeps reporting under the same layer.
LAYER_ALIASES = {"evaluate": "bench"}


def layer_of(key: str) -> str:
    return key.split(".", 1)[0]


class Tracer:
    def __init__(self, package: str = "polycast"):
        self.package = package
        self.keys: list[str] = []
        self._key_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.amount = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.counters: dict[str, float] = defaultdict(float)
        self.sv_ratios: list[float] = []
        self._solved: list = []  # fold matrices whose conditioning end_op measures
        self._tables: dict[int, list] = {}
        self._bench_ids: set[int] = set()
        self._fit_id = self._key_id("fitting.fit_kfold")
        self._installed: list[tuple] = []
        self._wrapped = self._build_wrappers()

    # -- span recording ---------------------------------------------------

    def _key_id(self, key: str) -> int:
        if key not in self._key_ids:
            self._key_ids[key] = len(self.keys)
            self.keys.append(key)
            if layer_of(key) == "bench":
                self._bench_ids.add(self._key_ids[key])
        return self._key_ids[key]

    def _open(self, key_id: int) -> int:
        idx = len(self.start)
        self.name.append(key_id)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.start.append(0.0)
        self.end.append(0.0)
        self.raised.append(0)
        self.amount.append(0.0)
        self.stack.append(idx)
        return idx

    def begin_op(self, op_id: int) -> None:
        self.current_op = op_id
        self.start[self._open(self._key_id(ROOT))] = perf_counter()

    def end_op(self) -> None:
        """Close the op's span, then do the counting that is too slow for a hook."""
        idx = self.stack.pop()
        self.end[idx] = perf_counter()
        for _, top in self._tables.values():
            self.counters["difference_rows"] += top + 1
        self._tables.clear()
        for matrix in self._solved:
            sv = np.linalg.svd(matrix, compute_uv=False)
            self.sv_ratios.append(float(sv[-1] / sv[0]) if sv[0] else 0.0)
        self._solved.clear()
        self.current_op = -1

    def _wrap(self, key: str, fn):
        key_id = self._key_id(key)
        hook = HOOKS.get(key)
        if hook is None and layer_of(key) == "io":
            hook = _io_hook(key.split(".", 1)[1])
        hook_id = self._key_id(HOOK)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(key_id)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            except BaseException:
                tracer.raised[idx] = 1
                result = None
                raise
            finally:
                t1 = perf_counter()
                tracer.stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                if hook is not None:
                    h = tracer._open(hook_id)
                    tracer.start[h] = perf_counter()
                    hook(tracer, idx, args, kwargs, result, ok)
                    tracer.stack.pop()
                    tracer.end[h] = perf_counter()

        return traced

    # -- installation -----------------------------------------------------

    def _modules(self):
        pkg = importlib.import_module(self.package)
        mods = [pkg]
        for info in pkgutil.iter_modules(pkg.__path__):
            mods.append(importlib.import_module(f"{self.package}.{info.name}"))
        return mods

    def _build_wrappers(self):
        """(owner, attribute, original, replacement) for every traced callable."""
        plan = []
        by_function = {}
        modules = self._modules()
        for mod in modules[1:]:
            short = mod.__name__.rsplit(".", 1)[1]
            layer = LAYER_ALIASES.get(short, short)
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self._wrap(f"{layer}.{name}", obj)
                    by_function[id(obj)] = (obj, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("_"):
                            continue
                        key = f"{layer}.{obj.__name__}.{attr}"
                        if isinstance(member, (staticmethod, classmethod)):
                            replacement = type(member)(self._wrap(key, member.__func__))
                        elif inspect.isfunction(member):
                            replacement = self._wrap(key, member)
                        else:
                            continue
                        plan.append((obj, attr, member, replacement))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in by_function:
                    original, wrapped = by_function[id(obj)]
                    if obj is original:
                        plan.append((mod, name, original, wrapped))
        return plan

    def install(self) -> None:
        for owner, attr, _, replacement in self._wrapped:
            setattr(owner, attr, replacement)
        self._installed = self._wrapped

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        """Per key: calls, self_s, raised and amount, over all spans."""
        n = len(self.start)
        if n == 0:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.keys)
        cols = {
            "calls": np.bincount(name, minlength=k),
            "self_s": np.bincount(name, weights=own, minlength=k),
            "raised": np.bincount(name, weights=np.frombuffer(self.raised, dtype=np.int8), minlength=k),
            "amount": np.bincount(name, weights=np.frombuffer(self.amount, dtype=float), minlength=k),
        }
        return {
            key: {col: float(values[i]) for col, values in cols.items()}
            for i, key in enumerate(self.keys)
            if cols["calls"][i]
        }

    def dump(self, path) -> None:
        """Write every span as columns of an .npz file, with the key table."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            keys=np.array(self.keys),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            raised=np.frombuffer(self.raised, dtype=np.int8),
        )


# -- hooks: counts taken at the layer boundary ------------------------------


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


def _design_columns(tracer, idx, args, kwargs, result, ok):
    points = np.asarray(_arg(args, kwargs, 1, "points"))
    rows = 1 if points.ndim == 1 else len(points)
    tracer.amount[idx] = rows
    under_bench = False
    for s in tracer.stack[1:]:
        key_id = tracer.name[s]
        if key_id == tracer._fit_id:
            tracer.amount[s] += rows
        under_bench = under_bench or key_id in tracer._bench_ids
    if under_bench:
        tracer.counters["bench_rows"] += rows


def _predict_many(tracer, idx, args, kwargs, result, ok):
    points = np.asarray(_arg(args, kwargs, 1, "points"))
    tracer.amount[idx] = 1 if points.ndim == 1 else len(points)


def _fit_least_squares(tracer, idx, args, kwargs, result, ok):
    matrix = np.asarray(_arg(args, kwargs, 0, "matrix"), dtype=float)
    rows, cols = matrix.shape
    tracer.amount[idx] = 2.0 * rows * cols * cols
    if rows >= cols:
        tracer._solved.append(matrix)


def _fit_kfold(tracer, idx, args, kwargs, result, ok):
    if not ok:
        return
    series, space, config = (_arg(args, kwargs, i, n) for i, n in enumerate(("series", "space", "config")))
    start, stop = config.training_range or (0, len(series))
    span = space.params.window_span
    last = min(min(stop, len(series)) - span - 2, space.point_count - 1)
    tracer.counters["fit_usable_rows"] += max(0, last - start + 1)
    tracer.counters["fit_built_rows"] += tracer.amount[idx]


def _rk4_integrate(tracer, idx, args, kwargs, result, ok):
    steps = _arg(args, kwargs, 3, "steps")
    substeps = _arg(args, kwargs, 4, "substeps") or 1
    tracer.amount[idx] = 4.0 * steps * substeps


def _difference_row(tracer, idx, args, kwargs, result, ok):
    table = args[0]
    k = int(_arg(args, kwargs, 1, "k"))
    entry = tracer._tables.setdefault(id(table), [table, -1])
    entry[1] = max(entry[1], k)


def _io_hook(name: str):
    if name.startswith(("write_", "save_")):
        kind = "written"
    elif name.startswith(("read_", "load_")):
        kind = "read"
    else:
        return None

    def hook(tracer, idx, args, kwargs, result, ok):
        path = _arg(args, kwargs, 0, "path")
        if ok and path is not None and os.path.exists(path):
            size = os.path.getsize(path)
            tracer.amount[idx] = size
            tracer.counters[f"bytes_{kind}"] += size
        tracer.counters[f"{kind}_s"] += tracer.end[idx] - tracer.start[idx]

    return hook


HOOKS = {
    "algebra.MonomialBasis.design_columns": _design_columns,
    "fitting.PolynomialMap.predict_many": _predict_many,
    "fitting.fit_least_squares": _fit_least_squares,
    "fitting.fit_kfold": _fit_kfold,
    "dynamics.rk4_integrate": _rk4_integrate,
    "correction.DifferenceTable.row": _difference_row,
}


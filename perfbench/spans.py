"""Span tracing of the `seqweak` package from outside it.

`Tracer` wraps every public module-level function of the package modules,
plus a few methods, and rebinds each wrapper in every package module that
holds the function (so `montecarlo.branch_decompose`, imported from
`oracle`, is traced too).  `install()` and `uninstall()` swap the bindings,
so untraced commands run the original code.

A span records its name, start, end, parent span and op id in flat arrays
that stay in memory until `dump()`.  Work counts that need a function's
arguments or result are computed after the op ends, outside every span.
`layer_metrics()` turns the spans of a set of ops into per-layer numbers.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("algebra", "circuitio", "circuitmodel", "cli", "counterfactual",
           "montecarlo", "oracle", "pointer", "weakvalue")
METHODS = (("circuitmodel", "Circuit", "__post_init__"),
           ("circuitio", "CircuitDocument", "to_circuit"),
           ("circuitio", "CircuitDocument", "insertion_set"),
           ("pointer", "PointerProfile", "eval"),
           ("pointer", "PointerProfile", "gaussian"),
           ("pointer", "PointerProfile", "tabulated"),
           ("pointer", "MomentSpec", "parse"))


def _spectrum_size(a) -> int:
    vals = np.linalg.eigvalsh(np.asarray(a))
    tol = 1e-8 * (vals[-1] - vals[0] + 1.0)
    return 1 + int(np.sum(np.diff(vals) > tol))


def batch_bytes(obj) -> int:
    """Memory held by a returned batch: array buffers, or for a list of
    records the deep size of one record of each shape times its count."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, list):
        counts: dict = {}
        for rec in obj:
            key = tuple(len(x) if isinstance(x, tuple) else -1 for x in rec)
            counts.setdefault(key, [rec, 0])[1] += 1
        return sys.getsizeof(obj) + sum(n * _deep_size(rec) for rec, n in counts.values())
    fields = getattr(obj, "__dict__", None) or {}
    return sum(batch_bytes(v) for v in fields.values() if isinstance(v, (np.ndarray, list)))


def _deep_size(obj) -> int:
    if isinstance(obj, tuple):
        return sys.getsizeof(obj) + sum(_deep_size(x) for x in obj)
    return sys.getsizeof(obj)


# Work counts per traced function: name -> f(args, kwargs, result) -> dict.
HOOKS = {
    "circuitio.load": lambda a, k, r: {"bytes_in": os.path.getsize(a[0] if a else k["path"])},
    "oracle.branch_decompose": lambda a, k, r: {"branches": math.prod(r.shape)},
    "oracle.exact_moment": lambda a, k, r: {
        "pair_terms": 2 * math.prod(_spectrum_size(obs) for _, obs in a[0].stages) ** 2},
    "weakvalue.weak_value_table": lambda a, k, r: {"entries": len(r.entries)},
    "weakvalue.weak_value_numerator": lambda a, k, r: {
        "matvecs": len(a[0].stages) + 1 + len(a[1])},
    "circuitmodel.transition_amplitude": lambda a, k, r: {"matvecs": len(a[0].stages) + 1},
    "montecarlo.sample_runs": lambda a, k, r: {"out_bytes": batch_bytes(r)},
    "montecarlo.estimate_moment": lambda a, k, r: {"n_success": r.n_success,
                                                   "n_total": r.n_total},
}


class Tracer:
    def __init__(self, package: str = "seqweak"):
        self.names: list[str] = []
        self.name_col = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: list[tuple[int, str, int]] = []  # span, type, exception serial
        self.work: dict[int, dict] = {}
        self.hook_errors = 0
        self.current_op = -1
        self._stack: list[int] = []
        self._pending: list = []
        self._exc_serial: dict[int, int] = {}   # id(exception) -> serial, per op
        self._exc_alive: list[BaseException] = []
        self._next_serial = 0
        self._bindings: list[tuple[object, str, object, object]] = []
        self._plan(package)

    # -- wrapping -----------------------------------------------------------
    def _plan(self, package: str):
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        holders = [m for name, m in sys.modules.items()
                   if m is not None and (name == package or name.startswith(package + "."))]
        for holder in holders:
            for attr, obj in list(vars(holder).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._bindings.append((holder, attr, obj, wrappers[id(obj)]))
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            raw = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._bindings.append((cls, meth, raw, wrapped))

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name_col.append(name_id)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.end[idx] = clock()
                stack.pop()
                tracer._record_error(idx, exc)
                raise
            tracer.end[idx] = clock()
            stack.pop()
            if hook is not None:
                tracer._pending.append((idx, hook, args, kwargs, result))
            return result

        return span

    def _record_error(self, idx: int, exc: BaseException):
        """One serial per exception object, so an exception that passes
        through several spans of a module counts once for it."""
        if id(exc) not in self._exc_serial:
            self._exc_serial[id(exc)] = self._next_serial
            self._next_serial += 1
            self._exc_alive.append(exc)  # keeps id() unique within the op
        self.errors.append((idx, type(exc).__name__, self._exc_serial[id(exc)]))

    def install(self):
        for holder, attr, _, wrapper in self._bindings:
            setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original, _ in self._bindings:
            setattr(holder, attr, original)

    # -- ops ----------------------------------------------------------------
    def begin_op(self, op_id: int):
        self.current_op = op_id
        self.install()

    def end_op(self):
        """Uninstall the wrappers and compute the deferred work counts."""
        self.uninstall()
        self.current_op = -1
        self._stack.clear()
        for idx, hook, args, kwargs, result in self._pending:
            try:
                self.work[idx] = hook(args, kwargs, result)
            except Exception:  # an API change must not stop the run
                self.hook_errors += 1
        self._pending.clear()
        self._exc_serial.clear()
        self._exc_alive.clear()

    def first_error(self, op_id: int) -> str | None:
        """Type of the exception raised deepest inside the op, if any: the
        innermost span exits first, so it is the op's first error entry."""
        return next((t for idx, t, _ in self.errors if self.op[idx] == op_id), None)

    # -- output -------------------------------------------------------------
    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name_col, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def dump(self, path: Path):
        """Write the spans (one .npz of columns) and their side tables."""
        np.savez(path.with_suffix(".npz"), **self.arrays())
        side = {"names": self.names, "errors": self.errors,
                "work": {str(k): v for k, v in self.work.items()},
                "hook_errors": self.hook_errors}
        path.with_suffix(".json").write_text(json.dumps(side))


# --------------------------------------------------------------- aggregation

def load(path: Path) -> tuple[dict, dict]:
    with np.load(path.with_suffix(".npz")) as z:
        cols = {k: z[k] for k in z.files}
    side = json.loads(path.with_suffix(".json").read_text())
    side["work"] = {int(k): v for k, v in side["work"].items()}
    return cols, side


def layer_metrics(cols: dict, side: dict, timed_ops: set, all_ops: set,
                  cycles: int) -> dict:
    """Per-layer numbers per workload cycle from the spans of ``timed_ops``;
    error counts come from all ops, known-limit probes included."""
    names = side["names"]
    name, parent, op = cols["name"], cols["parent"], cols["op"]
    dur = (cols["end"] - cols["start"]) * 1000.0
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_ms = dur - child
    timed = np.isin(op, list(timed_ops))
    module = np.array([n.split(".", 1)[0] for n in names])[name]
    per = max(cycles, 1)

    def spans_of(*fns):
        ids = [i for i, n in enumerate(names) if n in fns]
        return timed & np.isin(name, ids)

    def total(mask, values=dur):
        return float(np.sum(values[mask])) / per

    def work(key, mask=timed):
        return sum(w.get(key, 0) for i, w in side["work"].items() if mask[i]) / per

    m = {}
    for mod in MODULES:
        m[f"{mod}.self_ms"] = total(timed & (module == mod), self_ms)
        serials = {s for idx, _, s in side["errors"]
                   if int(op[idx]) in all_ops and names[name[idx]].split(".", 1)[0] == mod}
        m[f"{mod}.errors"] = len(serials)

    exact = spans_of("oracle.exact_moment")
    m["oracle.exact_calls"] = int(np.sum(exact)) / per
    m["oracle.exact_ms"] = total(exact)
    m["oracle.exact_self_ms"] = total(exact, self_ms)
    m["oracle.branch_ms"] = total(spans_of("oracle.branch_decompose"))
    m["oracle.kernel_ms"] = total(spans_of("oracle.site_kernels"))
    m["oracle.branches"] = work("branches")
    m["oracle.pair_terms"] = work("pair_terms")
    eig = spans_of("algebra.eig_hermitian")
    m["algebra.eig_calls"] = int(np.sum(eig)) / per
    m["algebra.eig_ms"] = total(eig)
    m["pointer.predict_ms"] = total(spans_of("pointer.predict_moment"))
    m["pointer.moments_ms"] = total(spans_of("pointer.moments"))
    wv = spans_of("weakvalue.weak_value")
    m["weakvalue.wv_calls"] = int(np.sum(wv)) / per
    m["weakvalue.wv_ms"] = total(wv)
    table = spans_of("weakvalue.weak_value_table")
    m["weakvalue.table_ms"] = total(table)
    m["weakvalue.entries"] = work("entries")
    m["weakvalue.matvecs"] = work("matvecs", _descendants(parent, table) & timed)
    sample = spans_of("montecarlo.sample_runs")
    m["montecarlo.sample_ms"] = total(sample)
    m["montecarlo.sample_self_ms"] = total(sample, self_ms)
    m["montecarlo.estimate_ms"] = total(spans_of("montecarlo.estimate_moment"))
    n_total = work("n_total")
    m["montecarlo.accept_ratio"] = work("n_success") / n_total if n_total else 0.0
    m["montecarlo.out_mb"] = work("out_bytes") / 2**20
    m["circuitio.load_ms"] = total(spans_of("circuitio.load"))
    m["circuitio.bytes_in"] = work("bytes_in")
    m["circuitio.tab_load_ms"] = total(spans_of("circuitio.load_tabulated_profile"))
    build = spans_of("circuitmodel.Circuit.__post_init__")
    m["circuitmodel.build_calls"] = int(np.sum(build)) / per
    m["circuitmodel.build_ms"] = total(build)
    def12 = spans_of("counterfactual.is_counterfactual_histories",
                     "counterfactual.is_counterfactual_weakvalues")
    m["counterfactual.def12_ms"] = total(def12)
    def3 = spans_of("counterfactual.randomized_def3_test")
    m["counterfactual.def3_ms"] = total(def3) - total(def12 & _descendants(parent, def3))
    joint = spans_of("oracle.joint_response")
    m["oracle.joint_calls"] = int(np.sum(joint)) / per
    m["oracle.joint_ms"] = total(joint)
    m["trace.self_sum_ms"] = total(timed, self_ms)
    m["trace.spans"] = int(np.sum(timed)) / per
    m["trace.hook_errors"] = side["hook_errors"]
    return m


def _descendants(parent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Spans strictly below any span in ``mask``."""
    out = np.zeros(len(parent), dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        up = anc >= 0
        out[up] |= mask[anc[up]]
        anc[up] = parent[anc[up]]
    return out

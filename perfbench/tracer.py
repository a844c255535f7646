"""In-memory span tracer that wraps gaugekit's public functions from outside.

Nothing under ``src/`` changes. ``install`` replaces every binding of a
wrapped function in every loaded ``gaugekit`` module (callers look names up
in their own module namespace, e.g. ``pipeline`` calls the
``gauge_equivalence_solver`` it imported from ``scattering``), plus a few
methods on their classes. ``uninstall`` restores the originals.

A span records name, start, end, parent span index and op id. Spans are only
recorded while ``active`` is set, i.e. inside a traced op; answer checks and
input generation run with tracing off.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("angular", "fields", "tomography", "scattering", "pipeline", "cli")

# methods that carry per-layer metrics: (layer, class, method, span name)
METHODS = (
    ("scattering", "ScatteringKernel", "value_grid", "scattering.value_grid"),
    ("tomography", "GaugeScalar", "evaluate", "tomography.GaugeScalar.evaluate"),
)


def _n_rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return 1
    return int(shape[0]) if len(shape) > 1 else 1


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.counts = defaultdict(float)  # "<name>.<counter>" -> total
        self.active = False
        self.op = None
        self._stack = []
        self._restore = []

    # ---------------- spans ----------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, amount: float) -> None:
        if self.active:
            self.counts[key] += amount

    # ---------------- wrapping ----------------

    def _wrap(self, name: str, fn, extra=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name
            if name == "scattering.gauge_equivalence_solver":
                kind = "sphere" if type(args[0]).__name__.startswith("Sphere") else "plane"
                label = f"{name}.{kind}"
            idx = tracer.open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if extra is not None:
                extra(tracer, label, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module and METHODS."""
        for layer in LAYERS:
            importlib.import_module(f"gaugekit.{layer}")
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "gaugekit" or n.startswith("gaugekit."))]
        for layer in LAYERS:
            mod = sys.modules[f"gaugekit.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn, _EXTRA.get(f"{layer}.{attr}"))
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is fn:
                            self._restore.append((m, bound, fn))
                            setattr(m, bound, wrapper)
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"gaugekit.{layer}"], cls_name)
            fn = cls.__dict__[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(name, fn, _EXTRA.get(name)))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # ---------------- aggregation ----------------

    def self_times(self) -> list:
        """Self time of each span: its duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [(s[2] - s[1]) - child[i] for i, s in enumerate(self.spans)]

    def per_name(self) -> dict:
        """{name: {"calls", "s", "self_s"}} over all recorded spans."""
        selfs = self.self_times()
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += selfs[i]
        return dict(out)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"name": n, "start": s, "end": e, "parent": p, "op": op}
                for n, s, e, p, op in self.spans]
        path.write_text(json.dumps({"spans": rows, "counts": dict(self.counts)}))


# ---------------- counts recorded at the wrapped boundaries ----------------

def _count_points(tracer, label, args, kwargs, out):
    pts = kwargs.get("points", args[1] if len(args) > 1 else None)
    tracer.add(f"{label}.points", _n_rows(pts))


def _count_sinogram(tracer, label, args, kwargs, out):
    n_nodes = kwargs.get("n_nodes", args[4] if len(args) > 4 else 384)
    tracer.add(f"{label}.points", out.values.size * n_nodes)


def _count_value_grid(tracer, label, args, kwargs, out):
    tracer.add(f"{label}.bytes", out.nbytes)


def _count_emit(tracer, label, args, kwargs, out):
    tracer.add(f"{label}.bytes", sum(Path(p).stat().st_size for p in out))


_EXTRA = {
    "fields.curl": _count_points,
    "tomography.forward_sinogram": _count_sinogram,
    "scattering.value_grid": _count_value_grid,
    "pipeline.emit_report": _count_emit,
}


def counting_callable(tracer: Tracer, func):
    """Wrap a generator-built field callable so calls and points are counted."""

    @functools.wraps(func)
    def counted(p):
        tracer.add("fields.potential.calls", 1)
        tracer.add("fields.potential.points", _n_rows(p))
        return func(p)

    return counted

"""Span tracing of the six stablesemi modules, installed from outside ``src/``.

``Tracer.installed()`` wraps every public function of each module wherever
that function object is bound (module globals, the package namespace and the
CLI's scenario table), plus ``apply``/``adjoint_apply`` of every model class
and ``HVector`` construction.  Each call records a span (name, start, end,
parent) in flat in-memory arrays; ``layer_metrics`` derives the per-layer
counts and times from them after the pass, and ``save`` writes them out.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("hilbert", "semigroups", "constructions", "diagnostics", "metrics", "cli")
APPLY_METHODS = ("apply", "adjoint_apply")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.wold_iterations = 0

    def wrap(self, name: str, fn, after=None):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def _count_wold(self, result):
        self.wold_iterations += result.iterations

    @contextlib.contextmanager
    def installed(self):
        pkg = importlib.import_module("stablesemi")
        mods = {m: importlib.import_module(f"stablesemi.{m}") for m in MODULES}
        wrapped = {}  # id(original function) -> (original, wrapper)
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    after = self._count_wold if (mname, attr) == ("constructions", "wold_decompose") else None
                    wrapped[id(obj)] = (obj, self.wrap(f"{mname}.{attr}", obj, after))

        undo = []

        def rebind(target, attr, new):
            undo.append((target, attr, getattr(target, attr)))
            setattr(target, attr, new)

        for mod in (pkg, *mods.values()):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    rebind(mod, attr, hit[1])
        scenarios = mods["cli"].SCENARIOS
        saved_scenarios = dict(scenarios)
        for key, (fn, defaults) in saved_scenarios.items():
            scenarios[key] = (wrapped[id(fn)][1], defaults)
        for cls in vars(mods["semigroups"]).values():
            if inspect.isclass(cls) and issubclass(cls, mods["semigroups"].SemigroupModel):
                for meth in APPLY_METHODS:
                    if meth in cls.__dict__:
                        rebind(cls, meth, self.wrap(f"semigroups.{cls.__name__}.{meth}",
                                                    cls.__dict__[meth]))
        hv = mods["hilbert"].HVector
        rebind(hv, "__post_init__", self.wrap("hilbert.HVector", hv.__dict__["__post_init__"]))
        try:
            yield self
        finally:
            for target, attr, old in reversed(undo):
                setattr(target, attr, old)
            scenarios.update(saved_scenarios)

    # --- analysis ------------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return name, parent, start, end

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        name, parent, start, end = self.arrays()
        dur = end - start
        n = dur.size
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child
        modules = [s.split(".")[0] for s in self.names]
        self_by_module = np.bincount(
            np.array([MODULES.index(m) for m in modules], dtype=int)[name],
            weights=self_time, minlength=len(MODULES)) if n else np.zeros(len(MODULES))

        def mask(pred) -> np.ndarray:
            return np.isin(name, [i for i, s in enumerate(self.names) if pred(s)])

        def outermost(m: np.ndarray) -> np.ndarray:
            """Spans in m with no ancestor in m, so nested calls count once."""
            p = parent.copy()
            covered = np.zeros(n, dtype=bool)
            up = p >= 0
            covered[up] = m[p[up]]
            while up.any():  # pointer doubling over the ancestor chain
                covered[up] |= covered[p[up]]
                p[up] = p[p[up]]
                up = p >= 0
            return m & ~covered

        def calls(name_: str) -> float:
            return float(mask(lambda s: s == name_).sum())

        def inclusive(name_: str) -> float:
            return float(dur[outermost(mask(lambda s: s == name_))].sum())

        def self_s(mod: str) -> float:
            return float(self_by_module[MODULES.index(mod)])

        is_apply = mask(lambda s: s.startswith("semigroups.") and s.rsplit(".", 1)[-1] in APPLY_METHODS)
        count, sec = "count", "s"
        return {
            "hilbert.hvector_new": (calls("hilbert.HVector"), count),
            "hilbert.aligned_calls": (calls("hilbert.align"), count),
            "hilbert.pad_calls": (calls("hilbert.pad_to_grid"), count),
            "hilbert.self_s": (self_s("hilbert"), sec),
            "semigroups.apply_calls": (float(is_apply.sum()), count),
            "semigroups.apply_s": (float(dur[outermost(is_apply)].sum()), sec),
            "semigroups.one_step_matrix_s": (inclusive("semigroups.one_step_matrix"), sec),
            "semigroups.self_s": (self_s("semigroups"), sec),
            "constructions.wold_calls": (calls("constructions.wold_decompose"), count),
            "constructions.wold_iterations": (float(self.wold_iterations), count),
            "constructions.wold_s": (inclusive("constructions.wold_decompose"), sec),
            "constructions.quantize_calls": (calls("constructions.quantize_symbol"), count),
            "constructions.self_s": (self_s("constructions"), sec),
            "diagnostics.classify_s": (inclusive("diagnostics.classify"), sec),
            "diagnostics.correlation_calls": (calls("diagnostics.correlation"), count),
            "diagnostics.correlation_s": (inclusive("diagnostics.correlation"), sec),
            "diagnostics.self_s": (self_s("diagnostics"), sec),
            "metrics.metric_unitary_s": (inclusive("metrics.metric_unitary"), sec),
            "metrics.metric_isometric_s": (inclusive("metrics.metric_isometric"), sec),
            "metrics.self_s": (self_s("metrics"), sec),
            "cli.run_scenario_s": (inclusive("cli.run_scenario"), sec),
            "cli.write_outputs_s": (inclusive("cli.write_outputs"), sec),
            "cli.self_s": (self_s("cli"), sec),
            "trace.spans": (float(n), count),
        }

    def save(self, path: Path) -> None:
        name, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start=start, end=end)

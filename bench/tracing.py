"""Span tracing of wol's layers, installed from outside at run time.

A layer is one module of ``wol``.  Its entry points are the module's
public functions (generators excepted: a span around one would close
before any work is done), the constructors and ``__post_init__`` hooks
of its public classes, and their cached properties (``WeakInterval.
elements`` is the interval BFS).  Plain methods and properties are
accessors and stay untraced; their time counts to the caller.

``Tracer.install`` replaces every reference to an entry point held in a
``wol`` module namespace by a wrapper and ``uninstall`` puts the
originals back, so no file under ``src/`` changes and an untraced run
executes the original code.  A call opens a span only when it crosses
from one layer into another; a call that stays inside a layer runs
unwrapped in effect, so its cost is part of the enclosing span.

Spans are kept in memory as columns (name, parent, op id, start, end)
and written out at the end.  A layer's busy time is self time: span
duration minus the duration of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from collections import Counter
from functools import cached_property
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = (
    "permutations",
    "posets",
    "diagrams",
    "descent_diagrams",
    "classes",
    "tableaux",
    "hecke",
    "cli",
)
MODULE_BUILDERS = (
    "module_B",
    "module_Bbar",
    "module_M",
    "module_SPIT",
    "twist_theta_chi",
    "module_from_json",
)
INTERTWINERS = ("signed_intertwiner", "intertwiner_from_dp_iso")


class Tracer:
    """Per-layer spans and counters for one traced run."""

    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.col_name = array("i")
        self.col_parent = array("i")
        self.col_op = array("i")
        self.col_start = array("d")
        self.col_end = array("d")
        self.calls = [0] * len(LAYERS)
        self.busy = [0.0] * len(LAYERS)
        self.errors = [0] * len(LAYERS)
        self.counts: Counter = Counter()
        # Seconds spent in the tracer's own re-run of check_relations; it
        # is taken out of every span open at the time.
        self.paused = 0.0
        self._stack: list[list] = []
        self._plan: list[tuple[object, str, object]] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Put the wrappers in place; the first call builds them."""
        if not self._plan:
            self._build_plan()
        for owner, attr, wrapper in self._plan:
            self._restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _build_plan(self) -> None:
        import wol  # noqa: F401  (loads every layer module)

        modules = [sys.modules["wol"]] + [
            m for k, m in sorted(sys.modules.items()) if k.startswith("wol.")
        ]
        self._check_relations = sys.modules["wol.hecke"].check_relations
        for layer_index, layer in enumerate(LAYERS):
            mod = sys.modules[f"wol.{layer}"]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapper = self._wrap(obj, f"{layer}.{name}", layer_index,
                                         self._observer(layer, name))
                    for m in modules:
                        for key, value in vars(m).items():
                            if value is obj:
                                self._plan.append((m, key, wrapper))
                elif inspect.isclass(obj):
                    self._plan_class(obj, f"{layer}.{name}", layer_index, mod.__file__)

    def _plan_class(self, cls, qualname: str, layer_index: int, source: str) -> None:
        for attr in ("__init__", "__post_init__"):
            fn = cls.__dict__.get(attr)
            # a dataclass-generated __init__ has no source file of its own
            if inspect.isfunction(fn) and fn.__code__.co_filename == source:
                self._plan.append(
                    (cls, attr, self._wrap(fn, f"{qualname}.{attr}", layer_index)))
        for attr, value in vars(cls).items():
            if isinstance(value, cached_property) and not attr.startswith("_"):
                observe = None
                if (qualname, attr) == ("permutations.WeakInterval", "elements"):
                    observe = self._count_len("permutations.elements")
                self._plan.append((value, "func", self._wrap(
                    value.func, f"{qualname}.{attr}", layer_index, observe)))

    # -- observers: work counts at layer boundaries --------------------

    def _count_len(self, key: str):
        def observe(result, duration):
            self.counts[key] += len(result)
        return observe

    def _observer(self, layer: str, name: str):
        if (layer, name) == ("posets", "linear_extensions_L"):
            return self._count_len("posets.linear_extensions")
        if (layer, name) == ("diagrams", "enumerate_ST"):
            return self._count_len("diagrams.tableaux")
        if (layer, name) == ("diagrams", "count_ST"):
            def observe(result, duration):
                self.counts["diagrams.tableaux"] += result
            return observe
        if (layer, name) == ("classes", "equiv_class"):
            def observe(result, duration):
                self.counts["classes.members"] += result.size
            return observe
        if layer == "hecke" and name in MODULE_BUILDERS:
            twist = name == "twist_theta_chi"
            return lambda result, duration: self._observe_module(result, duration, twist)
        if layer == "hecke" and name in INTERTWINERS:
            def observe(result, duration):
                if duration is not None:
                    self.counts["hecke.intertwiner_s"] += duration
            return observe
        return None

    def _observe_module(self, M, duration, twist: bool) -> None:
        counts = self.counts
        counts["hecke.modules"] += 1
        counts["hecke.dim_sum"] += M.dim
        counts["hecke.generator_bytes"] += sum(A.nbytes for A in M.pis)
        if twist and duration is not None:
            counts["hecke.twist_s"] += duration
        start = perf_counter()
        self._check_relations(M)
        spent = perf_counter() - start
        counts["hecke.relations_s"] += spent
        self.paused += spent

    # -- the span wrapper ----------------------------------------------

    def _wrap(self, fn, name: str, layer: int, observe=None):
        name_id = len(self.names)
        self.names.append(name)
        self.name_layer.append(layer)
        stack = self._stack
        col_name, col_parent, col_op = self.col_name, self.col_parent, self.col_op
        col_start, col_end = self.col_start, self.col_end
        calls, busy, errors = self.calls, self.busy, self.errors
        tracer = self

        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(result, None)
                return result
            index = len(col_end)
            col_name.append(name_id)
            col_parent.append(stack[-1][0] if stack else -1)
            col_op.append(tracer.op)
            frame = [index, layer, 0.0, tracer.paused]
            stack.append(frame)
            start = perf_counter()
            col_start.append(start)
            col_end.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                col_end[index] = end
                stack.pop()
                duration = end - start - (tracer.paused - frame[3])
                calls[layer] += 1
                busy[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
            if observe is not None:
                observe(result, duration)
            return result

        return functools.update_wrapper(traced, fn)

    # -- results -------------------------------------------------------

    @property
    def spans(self) -> int:
        return len(self.col_end)

    def layer_totals(self) -> dict[str, float]:
        """calls, busy seconds and errors of each layer, and the counters."""
        out: dict[str, float] = {}
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.calls"] = self.calls[k]
            out[f"{layer}.busy_s"] = self.busy[k]
            out[f"{layer}.errors"] = self.errors[k]
        out.update(self.counts)
        return out

    def write(self, path: Path) -> None:
        """Spans as numpy columns plus the name table, in one .npz file."""
        np.savez(
            path,
            names=np.array(json.dumps({"names": self.names, "layers": [
                LAYERS[k] for k in self.name_layer]})),
            name=np.frombuffer(self.col_name, dtype=np.int32),
            parent=np.frombuffer(self.col_parent, dtype=np.int32),
            op=np.frombuffer(self.col_op, dtype=np.int32),
            start=np.frombuffer(self.col_start, dtype=np.float64),
            end=np.frombuffer(self.col_end, dtype=np.float64),
        )

"""Span tracing around bvsynth's layer entry points, from outside the package.

``Tracer.install`` replaces each entry point with a wrapper that records one
span per call: name, start, end, parent span, instance id and, for
enumeration searches, the engine's ``inspected`` / ``evaluations`` counters
before and after.  Cyclic-GC pauses, observed through ``gc.callbacks``,
become spans of their own under whatever span was running.  Spans stay in
memory until the run ends.

A missing entry point is an error: a renamed layer must not read as zero.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
import types

# (module, attribute path) of every wrapped entry point.  The public API is
# wrapped on the package, because that is where callers look it up.
ENTRY_POINTS = [
    ("bvsynth", "parse_problem"),
    ("bvsynth", "solve_problem"),
    ("bvsynth", "emit_solution"),
    ("bvsynth.solver", "map_terminals"),
    ("bvsynth.solver", "build_tree"),
    ("bvsynth.solver", "tree_to_expr"),
    ("bvsynth.solver", "verify_solution"),
    ("bvsynth.unify", "find_condition"),
    ("bvsynth.enumeration", "EnumerationState.enumerate_until"),
]

# Span record fields.
NAME, START, END, PARENT, INSTANCE, BEFORE, AFTER = range(7)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.instance = -1
        self.gc_gen2 = 0

    def _open(self, name: str, before=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        # Building the record may run a collection, whose span must land
        # first; nothing between the append and the push allocates.
        record = [name, 0.0, 0.0, parent, self.instance, before, None]
        self.spans.append(record)
        idx = len(self.spans) - 1
        self.stack.append(idx)
        record[START] = time.perf_counter()
        return idx

    def _close(self, idx: int, after=None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[AFTER] = after
        self.stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def wrap_search(self, fn):
        def traced(engine, *args, **kwargs):
            idx = self._open("enumerate_until", (engine.inspected, engine.evaluations))
            try:
                return fn(engine, *args, **kwargs)
            finally:
                self._close(idx, (engine.inspected, engine.evaluations))

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._open("gc")
            if info["generation"] == 2:
                self.gc_gen2 += 1
        elif self.stack and self.spans[self.stack[-1]][NAME] == "gc":
            self._close(self.stack[-1])

    def install(self) -> None:
        for module_name, path in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
                if owner is None:
                    sys.exit(f"traced entry point {module_name}.{path} no longer exists")
            fn = getattr(owner, attr, None)
            if not callable(fn):
                sys.exit(f"traced entry point {module_name}.{path} no longer exists")
            if attr == "enumerate_until":
                setattr(owner, attr, self.wrap_search(fn))
            else:
                setattr(owner, attr, self.wrap(attr, fn))
        gc.callbacks.append(self._on_gc)


_OPAQUE = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.MethodType,
    types.GeneratorType,
    types.FrameType,
    types.CodeType,
)


def deep_size(root) -> int:
    """Bytes of the data reachable from ``root``, counting shared objects once.

    Code, classes, modules and generator frames are not data and are skipped.
    """
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _OPAQUE):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total

"""In-memory span tracing of the eofbounds layers.

Each layer is one module of the package.  Its functions are wrapped by
name, and every module namespace that binds the same function object gets
the wrapper too, because `from .geof import geof` copies the binding into
`bounds`.  Spans nest on a stack; a span's self time is its duration minus
the durations of the spans it directly encloses.  Spans are aggregated in
memory per function and per layer; nothing is written while ops run.
"""

from __future__ import annotations

import functools
import sys
import time
import types

LAYERS = ("cli", "bounds", "geof", "entanglement", "states", "symplectic")

#: Functions whose results are kept for checks after the run.
CAPTURE = {("geof", "geof"), ("bounds", "natural_bounds"), ("bounds", "searched_upper_bound")}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [start, child time] per open span
        self.calls: dict[tuple[str, str], int] = {}
        self.total: dict[tuple[str, str], float] = {}
        self.self_time: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.captured: dict[tuple[str, str], list] = {key: [] for key in CAPTURE}

    def wrap(self, layer: str, name: str, func):
        key = (layer, name)
        self.calls[key] = 0
        self.total[key] = 0.0
        stack, calls, total, self_time = self.stack, self.calls, self.total, self.self_time
        captured = self.captured.get(key)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                calls[key] += 1
                total[key] += duration
                self_time[layer] += duration - frame[1]
            if captured is not None:
                captured.append((args, duration, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions in every eofbounds namespace that binds them.

        A layer's functions are its public ones plus any private one that
        another module imports, such as states._spectrum_from_invariants in
        cli; other private helpers count as their caller's self time.
        """
        namespaces = [m for n, m in sys.modules.items()
                      if (n == "eofbounds" or n.startswith("eofbounds.")) and m is not None]
        bound_elsewhere: set[int] = set()
        for ns in namespaces:
            for obj in vars(ns).values():
                if isinstance(obj, types.FunctionType) and obj.__module__ != ns.__name__:
                    bound_elsewhere.add(id(obj))
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"eofbounds.{layer}"]
            for name, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__
                        and (not name.startswith("_") or id(obj) in bound_elsewhere)):
                    wrappers[id(obj)] = self.wrap(layer, name, obj)
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrappers and isinstance(obj, types.FunctionType):
                    setattr(ns, name, wrappers[id(obj)])

    def calls_of(self, layer: str, name: str) -> int:
        return self.calls.get((layer, name), 0)

    def ms_of(self, layer: str, name: str) -> float:
        return 1e3 * self.total.get((layer, name), 0.0)

"""Spans around calls into geoleak's layers, installed from outside the library.

Inside ``with tracer:`` every public function of the five layer modules, and
every public method of the classes they define, is replaced by a wrapper that
records one span per call: name, start, end, parent span and op id. A
function is replaced under every name any geoleak module binds it to, so a
call through `from .geodesy import haversine_distance` in `lbs_sim` is traced
the same as one through `geodesy` itself. Leaving the block puts the
originals back; entering it again reinstalls the same wrappers. Spans are
kept in compact arrays and written out by `save()`.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("geodesy", "lbs_sim", "obfuscation", "attack", "harness")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = -1
        self.counters: Counter = Counter()
        self._population: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._patches: list[tuple[object, str, object, object]] = []  # owner, name, original, wrapper
        self._after = {
            "lbs_sim.World.add_user": self._count_user,
            "lbs_sim.World.query_nearby": self._count_screen,
            "attack.intersect_constraints": self._count_cells,
        }

    # -- counters taken where the work happens ----------------------------

    def _count_user(self, args, result) -> None:
        world = args[0]
        self._population[world] = self._population.get(world, 0) + 1

    def _count_screen(self, args, result) -> None:
        self.counters["lbs_sim.World.query_nearby.rows"] += len(result.entries)
        self.counters["lbs_sim.World.query_nearby.considered"] += self._population.get(args[0], 0) - 1

    def _count_cells(self, args, result) -> None:
        self.counters["attack.intersect_constraints.cells"] += result.occupied.size
        self.counters["attack.intersect_constraints.occupied"] += int(np.count_nonzero(result.occupied))

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        if not self._patches:
            self._discover()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def _discover(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "geoleak" or n.startswith("geoleak.")]
        for layer in LAYERS:
            mod = sys.modules[f"geoleak.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for m in modules:
                        for bound, value in vars(m).items():
                            if value is obj:
                                self._patches.append((m, bound, obj, wrapper))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    for name, member in vars(obj).items():
                        if name.startswith("_"):
                            continue
                        span = f"{layer}.{obj.__name__}.{name}"
                        if isinstance(member, (classmethod, staticmethod)):
                            wrapper = type(member)(self._wrap(span, member.__func__))
                        elif inspect.isfunction(member):
                            wrapper = self._wrap(span, member)
                        else:
                            continue
                        self._patches.append((obj, name, member, wrapper))

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        after = self._after.get(name)
        tracer, clock = self, time.perf_counter
        name_ids, parents, ops, starts, ends = self.name_id, self.parent, self.op, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            idx = len(starts)
            name_ids.append(nid)
            parents.append(parent)
            ops.append(tracer.op_id)
            ends.append(0.0)
            tracer.current = idx
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = parent
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- results ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name. A span's self time is its
        duration minus the durations of its direct children, which nest
        inside it and never overlap in a single thread."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name_id, minlength=k)
        self_s = np.bincount(name_id, weights=own, minlength=k)
        return (
            {n: int(c) for n, c in zip(self.names, calls)},
            {n: float(s) for n, s in zip(self.names, self_s)},
        )

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

"""Spans and call counts around rld's public functions, from outside the package.

A function is patched in every ``rld`` module namespace that holds it, so
by-name imports (``from .walks import advance`` in ``lattice``) are traced
as well as attribute calls.  Nothing under ``src/`` is edited.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable


def _engine_label(*args, **kwargs) -> str:
    return str(kwargs.get("engine", args[1] if len(args) > 1 else "?"))


# (layer, function, span label) for every traced boundary.  ``cli`` only
# parses arguments and calls ``benchmark``, so it has no entry.
TRACED = (
    ("model", "load_scenario", None),
    ("walks", "advance", None),
    ("lattice", "lattice_terminal_subgradient", None),
    ("lattice", "build_lattice", None),
    ("lattice", "solve_lattice", None),
    ("ctapprox", "ct_terminal_subgradient", None),
    ("storage", "delivery_costs_batch", None),
    ("storage", "subgradient_estimates_batch", None),
    ("storage", "simulate_delivery", None),
    ("rng", "run_generator", None),
    ("rng", "draw_policy_paths", None),
    ("dispatch", "build_terminal_model", _engine_label),
    ("dispatch", "solve_delta_offsets", None),
    ("dispatch", "solve_thresholds_backward", None),
    ("dispatch", "three_sigma_schedule", None),
    ("dispatch", "simulate_policy_batch", None),
    ("dispatch", "ideal_costs_batch", None),
    ("benchmark", "run_benchmark", None),
    ("benchmark", "solve_schedule", None),
    ("benchmark", "evaluate_policies", None),
)


class Patches:
    """Replaces functions in every loaded ``rld`` namespace; undone by restore()."""

    def __init__(self, package: str = "rld"):
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def _namespaces(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def replace(self, module: str, name: str, make: Callable[[Callable], Callable]) -> None:
        original = getattr(sys.modules[f"{self.package}.{module}"], name)
        replacement = make(original)
        for ns in self._namespaces():
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, replacement)
                    self._undo.append((ns, attr, original))

    def restore(self) -> None:
        for ns, attr, original in reversed(self._undo):
            setattr(ns, attr, original)
        self._undo.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """In-memory spans: name, start, end and parent span index (-1 at the root).

    One thread, sequential calls: a span's children never overlap, so its
    self time is its duration minus the sum of its children's durations.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, label: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name if label is None else f"{name}[{label(*args, **kwargs)}]")
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(math.nan)
            self._stack.append(idx)
            self.starts.append(self.clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = self.clock()
                self._stack.pop()
        return traced

    def install(self, patches: Patches, traced=TRACED) -> None:
        for module, name, label in traced:
            patches.replace(module, name,
                            lambda fn, n=f"{module}.{name}", lb=label: self.wrap(n, fn, lb))

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        dur = self.durations()
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += dur[i]
        return [d - c for d, c in zip(dur, covered)]

    def parent_name(self, idx: int) -> str | None:
        p = self.parents[idx]
        return self.names[p] if p >= 0 else None

    def summary(self) -> dict[str, LayerStat]:
        out: dict[str, LayerStat] = {}
        for name, dur, own in zip(self.names, self.durations(), self.self_times()):
            stat = out.setdefault(name, LayerStat())
            stat.calls += 1
            stat.total_s += dur
            stat.self_s += own
        return out

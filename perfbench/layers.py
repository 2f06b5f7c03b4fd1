"""Fold a cProfile run of the simulator into per-layer cost.

A layer is a package under ``src/repro`` (``network``, ``gptp``, ...),
except that ``sim/trace.py`` counts as ``trace`` and
``experiments/fidelity.py`` as ``fidelity``. Three numbers per layer:

* ``self_s`` -- profiled self time of the layer's functions. Time spent in
  stdlib and builtin functions is charged to the layer that called them,
  split over their callers in proportion to the time each caller caused.
* ``calls`` -- calls of Python functions defined in the layer.
* ``events`` -- callbacks the kernel dispatched that belong to the layer.
  The dispatching loops live in ``sim/kernel.py``; a ``sim/process.py``
  periodic-task wrapper is looked through to the action it runs, and a
  builtin callback counts under ``sim``. The counts sum to the kernel's
  own dispatch counter, which the benchmark checks.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

#: Layers reported for every workload, in report order.
SIM_LAYERS = (
    "sim", "trace", "network", "gptp", "clocks", "core", "hypervisor",
    "faults", "measurement", "monitoring", "chaos", "security", "fidelity",
    "experiments", "analysis",
)

#: The benchmark's own frames, and time no ``src/repro`` frame caused.
OUTSIDE = "harness"
HARNESS_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

_SPLIT_MODULES = {("sim", "trace.py"): "trace",
                  ("experiments", "fidelity.py"): "fidelity"}
_DISPATCHERS = {"run_until", "run", "step", "_dispatch"}
_KERNEL_BUILTINS = ("heappop", "heappush")
_TASK_WRAPPERS = {"_tick_periodic", "_tick"}

Func = Tuple[str, int, str]


def layer_of_file(filename: str, src_root: str) -> str:
    """Layer name for a source file, or ``""`` for stdlib and builtins."""
    if filename.startswith(HARNESS_DIR):
        return OUTSIDE
    repro_root = os.path.join(src_root, "repro") + os.sep
    if not filename.startswith(repro_root):
        return ""
    parts = filename[len(repro_root):].split(os.sep)
    if len(parts) == 1:
        return parts[0][:-3] if parts[0].endswith(".py") else parts[0]
    return _SPLIT_MODULES.get((parts[0], parts[-1]), parts[0])


class LayerFolder:
    """Per-layer totals from ``cProfile.Profile.stats`` after ``create_stats``."""

    def __init__(self, stats: Dict[Func, tuple], src_root: str) -> None:
        self.stats = stats
        self.src_root = os.path.abspath(src_root)
        self._layer: Dict[Func, str] = {}
        self._charge: Dict[Func, Dict[str, float]] = {}

    def layer(self, func: Func) -> str:
        name = self._layer.get(func)
        if name is None:
            name = layer_of_file(func[0], self.src_root)
            self._layer[func] = name
        return name

    def _is(self, func: Func, module: str, names) -> bool:
        return (self.layer(func) == "sim"
                and func[0].endswith(os.sep + module) and func[2] in names)

    # ------------------------------------------------------------------
    def _shares(self, func: Func, visiting: frozenset) -> Dict[str, float]:
        """How a non-layer function's self time splits over layers.

        Callers already on the path (recursion, as in the json encoder)
        are skipped: their time reaches a layer through the other callers.
        An empty result means no caller outside the cycle.
        """
        if not visiting and func in self._charge:
            return self._charge[func]
        callers = self.stats[func][4] if func in self.stats else {}
        weights: Dict[str, float] = {}
        inner = visiting | {func}
        for caller, (_cc, nc, tt, _ct) in callers.items():
            weight = tt if tt > 0 else nc * 1e-12
            if weight <= 0 or caller in inner:
                continue
            owner = self.layer(caller)
            if owner:
                weights[owner] = weights.get(owner, 0.0) + weight
            elif caller not in self.stats:
                weights[OUTSIDE] = weights.get(OUTSIDE, 0.0) + weight
            else:
                for name, share in self._shares(caller, inner).items():
                    weights[name] = weights.get(name, 0.0) + weight * share
        total = sum(weights.values())
        shares = ({name: w / total for name, w in weights.items()}
                  if total > 0 else {})
        if not visiting:
            self._charge[func] = shares or {OUTSIDE: 1.0}
            return self._charge[func]
        return shares

    def self_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for func, (_cc, _nc, tt, _ct, _callers) in self.stats.items():
            owner = self.layer(func)
            if owner:
                totals[owner] = totals.get(owner, 0.0) + tt
                continue
            for name, share in self._shares(func, frozenset()).items():
                totals[name] = totals.get(name, 0.0) + tt * share
        return totals

    def calls(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for func, (_cc, nc, _tt, _ct, _callers) in self.stats.items():
            owner = self.layer(func)
            if owner:
                totals[owner] = totals.get(owner, 0) + nc
        return totals

    # ------------------------------------------------------------------
    def events(self) -> Dict[str, int]:
        """Kernel-dispatched callbacks per owning layer."""
        totals: Dict[str, int] = {}

        def add(func: Func, count: int) -> None:
            owner = self.layer(func) or "sim"  # builtin or foreign callback
            totals[owner] = totals.get(owner, 0) + count

        for func, (_cc, _nc, _tt, _ct, callers) in self.stats.items():
            dispatched = sum(
                stat[1] for caller, stat in callers.items()
                if self._is(caller, "kernel.py", _DISPATCHERS)
            )
            if not dispatched:
                continue
            if self._is(func, "kernel.py", _DISPATCHERS):
                continue  # the loop handing an entry to _dispatch
            if func[0] == "~" and any(b in func[2] for b in _KERNEL_BUILTINS):
                continue  # the loop's own heap operations
            if self._is(func, "process.py", _TASK_WRAPPERS):
                continue  # looked through below
            add(func, dispatched)
        # Periodic-task wrappers: charge the action each tick runs.
        for func, (_cc, _nc, _tt, _ct, callers) in self.stats.items():
            if self.layer(func) == "sim" and func[0].endswith(
                    os.sep + "process.py"):
                continue
            ran = sum(
                stat[1] for caller, stat in callers.items()
                if self._is(caller, "process.py", _TASK_WRAPPERS)
            )
            if ran:
                add(func, ran)
        return totals

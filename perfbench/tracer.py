"""Outside-in layer tracer: wraps public callables of ``repro`` layers.

Nothing inside ``src/`` changes.  :class:`LayerTracer` replaces each
target callable with a thin wrapper for the duration of a ``with``
block and restores the originals afterwards.  Module-level functions
are imported by name all over the package (``repro.api`` does ``from
repro.workloads.specs import build_structure``), so a function target
is rebound on *every* loaded ``repro.*`` module whose attribute holds
the original object; a method target is patched on its class (and on
every loaded subclass that overrides it).

Each wrapper keeps a thread-local stack so that a call's *self time* is
its duration minus the time spent in wrapped callees.  Self time and
call counts roll up by layer; ``api`` (``Session.run``) is the root, so
``1 - api self / api inclusive`` is the share of request time that the
wrapped layers account for (``trace.coverage``).  High-frequency
targets (layout wiring, the round kernel) are counted only; every other
call is kept as a span (id, parent, request, layer, name, start,
duration) and written as JSONL by :meth:`LayerTracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

#: (layer, "module:qualname", keep spans).  Layer names follow the
#: ``repro`` package that does the work; ``sim.*`` splits the simulator
#: into layout wiring, compilation and the round kernel.
TARGETS: Tuple[Tuple[str, str, bool], ...] = (
    ("api", "repro.api:Session.run", True),
    ("workloads.build", "repro.workloads.specs:build_structure", True),
    ("grid.index", "repro.grid.structure:AmoebotStructure.grid_index", False),
    ("grid.index", "repro.grid.compiled:GridIndex.derive", True),
    ("sim.wire", "repro.sim.circuits:CircuitLayout.assign", False),
    ("sim.wire", "repro.sim.circuits:CircuitLayout.declare", False),
    ("sim.wire", "repro.sim.circuits:CircuitLayout.assign_global", False),
    ("sim.wire", "repro.sim.circuits:CircuitLayout.derive", False),
    ("sim.wire", "repro.sim.circuits:CircuitLayout.derive_for", False),
    ("sim.wire", "repro.sim.circuits:CircuitLayout.exchange_pins", False),
    ("sim.wire", "repro.sim.circuits:CircuitLayout.release", False),
    ("sim.wire", "repro.sim.circuits:CircuitLayout.reassign", False),
    ("sim.compile", "repro.sim.circuits:CircuitLayout.freeze", False),
    ("sim.round", "repro.sim.engine:CircuitEngine.run_round", False),
    ("sim.round", "repro.sim.engine:CircuitEngine.run_round_indexed", False),
    ("pasc", "repro.pasc.runner:run_pasc", True),
    ("portals", "repro.portals.portals:PortalSystem.__init__", True),
    ("portals", "repro.portals.portals:portal_sides", True),
    ("portals", "repro.portals.primitives:portal_root_and_prune", True),
    ("portals", "repro.portals.primitives:portal_elect", True),
    ("portals", "repro.portals.primitives:portal_centroids", True),
    ("portals", "repro.portals.primitives:portal_centroid_decomposition", True),
    ("ett", "repro.ett.technique:run_ett", True),
    ("ett", "repro.ett.technique:run_etts_parallel", True),
    ("ett", "repro.ett.tour:build_euler_tour", True),
    ("ett", "repro.ett.election:elect_first_marked_many", True),
    ("ett", "repro.ett.election:elect_first_marked", True),
    ("primitives", "repro.primitives.root_prune:root_and_prune", True),
    ("primitives", "repro.primitives.centroid:q_centroids", True),
    ("primitives", "repro.primitives.decomposition:centroid_decomposition", True),
    ("primitives", "repro.primitives.election:elect", True),
    ("spf", "repro.spf.api:solve_spf", True),
    ("spf", "repro.spf.spt:shortest_path_tree", True),
    ("spf", "repro.spf.forest:shortest_path_forest", True),
    ("spf", "repro.spf.merge:merge_forests", True),
    ("spf", "repro.spf.propagate:propagate_forest", True),
    ("spf", "repro.spf.regions:RegionDecomposition.__init__", True),
    ("spf", "repro.spf.line:line_forest", True),
    ("motion", "repro.motion.routing:route_tokens", True),
    ("dynamics", "repro.dynamics.maintain:DynamicSPF.__init__", True),
    ("dynamics", "repro.dynamics.maintain:DynamicSPF.apply", True),
    ("dynamics", "repro.dynamics.edits:generate_churn", True),
    ("experiments.store", "repro.experiments.store:ResultStore.add", True),
    ("experiments.store", "repro.experiments.store:ResultStore.get", True),
)

ROOT = "repro.api:Session.run"
#: Layers reported as ``<layer>.self_s``, in report order.
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


def _resolve(target: str):
    """``(owner, attribute, original)`` for a ``module:qualname`` target."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if path else getattr(owner, attr)


class LayerTracer:
    """Self time, inclusive time and call counts per wrapped callable."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        n = len(targets)
        self.self_s = [0.0] * n
        self.incl_s = [0.0] * n
        self.calls = [0] * n
        self.spans: List[Tuple[int, int, int, int, float, float]] = []
        self.request = -1
        self._ids = 0
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- installation ---------------------------------------------------
    def __enter__(self) -> "LayerTracer":
        for index, (_, target, keep) in enumerate(self.targets):
            owner, attr, original = _resolve(target)
            if isinstance(owner, type):
                # A subclass override is a separate function: wrap it too.
                for cls in [owner, *_subclasses(owner)]:
                    fn = cls.__dict__.get(attr)
                    if fn is not None:
                        self._patch(cls, attr, self._wrap(fn, index, keep))
            else:
                wrapper = self._wrap(original, index, keep)
                for module in list(sys.modules.values()):
                    name = getattr(module, "__name__", "")
                    if not name.startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, index: int, keep: bool):
        perf = time.perf_counter
        self_s, incl_s, calls, spans = self.self_s, self.incl_s, self.calls, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][2] == index and stack[-1][3] is not fn:
                # A wrapped override calling ``super()``: one call, not two.
                return fn(*args, **kwargs)
            span_id = parent = 0
            if keep:
                self._ids += 1
                span_id = self._ids
                parent = next((f[1] for f in reversed(stack) if f[1]), 0)
            # [time in wrapped callees, span id (0 = not kept), target, fn]
            frame = [0.0, span_id, index, fn]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                self_s[index] += duration - frame[0]
                incl_s[index] += duration
                calls[index] += 1
                if stack:
                    stack[-1][0] += duration
                if keep:
                    spans.append((span_id, parent, self.request, index, start, duration))

        return wrapper

    # -- results --------------------------------------------------------
    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _, _), value in zip(self.targets, self.self_s):
            out[layer] += value
        return out

    def layer_calls(self, layer: str) -> int:
        return sum(
            count
            for (name, _, _), count in zip(self.targets, self.calls)
            if name == layer
        )

    def inclusive_s(self, target: str) -> float:
        return sum(
            value
            for (_, name, _), value in zip(self.targets, self.incl_s)
            if name == target
        )

    def coverage(self) -> float:
        """Share of ``Session.run`` time spent inside wrapped callees."""
        total = self.inclusive_s(ROOT)
        if not total:
            return 0.0
        own = sum(
            value
            for (_, name, _), value in zip(self.targets, self.self_s)
            if name == ROOT
        )
        return 1.0 - own / total

    def dump(self, path: Path) -> int:
        """Write every kept span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span_id, parent, request, index, start, duration in self.spans:
                layer, target, _ = self.targets[index]
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "request": request,
                            "layer": layer,
                            "name": target.split(":")[1],
                            "start_s": round(start - self._origin, 6),
                            "duration_s": round(duration, 6),
                        }
                    )
                    + "\n"
                )
        return len(self.spans)


def _subclasses(cls: type) -> List[type]:
    out, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        out.append(sub)
        todo.extend(sub.__subclasses__())
    return out

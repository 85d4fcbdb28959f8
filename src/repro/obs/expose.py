"""Exposition: Prometheus text validation, process views, snapshots.

Three pieces sit here because they face *outward*:

* :func:`validate_prometheus_text` — a strict-enough checker for the
  text exposition format 0.0.4 that both the unit tests and the CI
  scrape step run against a live daemon's ``GET /metrics`` body.
* :func:`register_process_views` — wires the process-global stat
  objects (``LAYOUT_STATS``, ``GRID_STATS``, backend info, the cyclic
  garbage collector) onto a registry as pull-model views.  Lives here
  (not in :mod:`repro.obs.metrics`) so the metrics core stays
  import-free of the simulator.
* :class:`MetricsSnapshotter` — a daemon thread appending one
  JSON-per-line registry snapshot at a fixed interval, which the
  solver service points into its ResultStore directory.
"""

from __future__ import annotations

import gc
import json
import os
import re
import threading
import time
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

_COMMENT_RE = re.compile(r"^#\s+(HELP|TYPE)\s+([a-zA-Z_:][a-zA-Z0-9_:]*)\s+(.*)$")
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"  # metric name
    r"(\{[^{}]*\})?"  # optional labels
    r" ([-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))"  # value
    r"( [0-9]+)?$"  # optional timestamp
)
_LABELS_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def _family_of(sample_name: str, types: Dict[str, str]) -> str:
    """The declared family a sample belongs to (histogram suffixes fold)."""
    if sample_name in types:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if types.get(base) == "histogram":
                return base
    return sample_name


def validate_prometheus_text(text: str) -> List[str]:
    """Problems with a Prometheus text-format body (empty list = valid).

    Checks line syntax, ``# TYPE`` declarations (known type, at most
    one per family, declared before its samples), and the histogram
    invariants per labelset: cumulative non-decreasing buckets, an
    ``le="+Inf"`` bucket present and equal to the ``_count`` sample.
    """
    problems: List[str] = []
    types: Dict[str, str] = {}
    seen_samples: Dict[str, bool] = {}
    # family -> labelkey -> list of (le, cumulative), plus counts/sums
    buckets: Dict[str, Dict[tuple, List[tuple]]] = {}
    counts: Dict[str, Dict[tuple, float]] = {}

    if text and not text.endswith("\n"):
        problems.append("body must end with a newline")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            match = _COMMENT_RE.match(line)
            if match is None:
                continue  # free-form comments are legal
            keyword, name, rest = match.groups()
            if keyword == "TYPE":
                if name in types:
                    problems.append(f"line {lineno}: duplicate TYPE for {name}")
                if name in seen_samples:
                    problems.append(
                        f"line {lineno}: TYPE {name} after its samples"
                    )
                if rest.strip() not in _TYPES:
                    problems.append(
                        f"line {lineno}: unknown type {rest.strip()!r}"
                    )
                types[name] = rest.strip()
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name, label_blob, value_str, _ts = match.groups()
        labels: Dict[str, str] = {}
        if label_blob:
            labels = dict(_LABELS_RE.findall(label_blob))
        family = _family_of(name, types)
        seen_samples[family] = True
        if types.get(family) == "histogram":
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            value = float(value_str.replace("Inf", "inf"))
            if name.endswith("_bucket"):
                le = labels.get("le")
                if le is None:
                    problems.append(f"line {lineno}: bucket without le label")
                else:
                    buckets.setdefault(family, {}).setdefault(key, []).append(
                        (le, value)
                    )
            elif name.endswith("_count"):
                counts.setdefault(family, {})[key] = value

    for family, per_series in buckets.items():
        for key, series in per_series.items():
            les = [le for le, _ in series]
            values = [v for _, v in series]
            if "+Inf" not in les:
                problems.append(f"{family}{dict(key)}: missing le=\"+Inf\" bucket")
                continue
            if values != sorted(values):
                problems.append(
                    f"{family}{dict(key)}: bucket counts not cumulative"
                )
            inf_value = dict(series)["+Inf"]
            count = counts.get(family, {}).get(key)
            if count is not None and count != inf_value:
                problems.append(
                    f"{family}{dict(key)}: _count {count} != +Inf bucket {inf_value}"
                )
    return problems


def gc_info() -> Dict[str, object]:
    """The cyclic garbage collector's counters, flattened for a view.

    Per generation ``g``: ``gen<g>_collections``, ``gen<g>_collected``
    and ``gen<g>_uncollectable`` from :func:`gc.get_stats`; plus
    ``pause_depth``, the number of cold executions currently holding
    automatic collection paused (0 when idle).
    """
    from repro.api import gc_pause_depth

    fields: Dict[str, object] = {"pause_depth": gc_pause_depth()}
    for generation, stats in enumerate(gc.get_stats()):
        for name, value in stats.items():
            fields[f"gen{generation}_{name}"] = value
    return fields


def register_process_views(registry: MetricsRegistry) -> MetricsRegistry:
    """Attach the process-global stat views to ``registry`` (idempotent).

    ``layout_stats`` / ``grid_stats`` / ``backend`` / ``gc`` become
    pull-model views: the stat globals keep their attribute API and the
    registry reads ``to_dict()`` only at collection time.  Returns the
    registry for chaining.
    """
    from repro.backend import backend_info
    from repro.grid.compiled import GRID_STATS
    from repro.sim.circuits import LAYOUT_STATS

    registry.register_view("layout_stats", LAYOUT_STATS.to_dict, "repro_layout")
    registry.register_view("grid_stats", GRID_STATS.to_dict, "repro_grid")
    registry.register_view("backend", backend_info, "repro_backend")
    registry.register_view("gc", gc_info, "repro_gc")
    return registry


class MetricsSnapshotter:
    """Appends periodic JSONL registry snapshots to a file.

    One line per interval::

        {"ts": 1754640000.0, "metrics": {"instruments": ..., "views": ...}}

    A final snapshot is written on :meth:`stop`, so even a short-lived
    daemon leaves at least one line behind.  The thread is a daemon
    thread — an abandoned snapshotter never blocks interpreter exit.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        path: os.PathLike,
        interval_s: float = 30.0,
    ):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s}")
        self.registry = registry
        self.path = path
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "MetricsSnapshotter":
        """Start the snapshot loop (no-op if already running)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name="repro-metrics-snapshot", daemon=True
            )
            self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._write()

    def _write(self) -> None:
        line = json.dumps(
            {"ts": round(time.time(), 3), "metrics": self.registry.to_dict()},
            sort_keys=True,
        )
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")

    def stop(self) -> None:
        """Stop the loop and write one final snapshot (idempotent)."""
        thread = self._thread
        self._thread = None
        self._stop.set()
        if thread is not None:
            thread.join(timeout=10)
            self._write()

"""In-process workloads: one client, a fresh ``Session`` per request."""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from perfbench.measure import (
    WORK_DIR,
    Outcome,
    emit,
    environment,
    SpeedMonitor,
    load_pins,
    peak_rss_mb,
    pin_of,
    probe_setup,
    ratio,
    setup_seconds,
    summarize,
)
from perfbench.tracer import ROOT as TRACE_ROOT
from perfbench.tracer import LayerTracer
from repro.api import Session, SolveRequest
from repro.sim.circuits import LAYOUT_STATS
from repro.verify.forest_checker import check_forest

#: Tiny requests run once before timing so that lazy imports (numpy,
#: scipy, the scheduler and dynamics packages) are not charged to the
#: first measured request.
WARMUP = (
    SolveRequest(shape="hexagon:3", k=2, l=4, seed=1),
    SolveRequest(shape="hexagon:3", k=2, l=4, seed=1, scheduler="random:1"),
    SolveRequest(kind="route", shape="hexagon:3", k=2, l=4, seed=1),
    SolveRequest(
        kind="churn", shape="hexagon:3", k=1, l=0, seed=1, churn="growth",
        churn_steps=2,
    ),
)

#: In trace mode the untraced pass gets this share of ``--seconds``; the
#: traced pass repeats the same requests at roughly 1.3x the cost.
UNTRACED_SHARE = 1 / 2.3


@dataclass
class Record:
    """What one executed request left behind (the report is dropped)."""

    request: SolveRequest
    #: ``time.monotonic()`` stamps around ``Session().run``.
    start: float
    end: float
    pin: Optional[List[int]] = None
    digest: int = 0
    backend: str = ""
    repair: Optional[Dict[str, object]] = None
    #: The latency in reference seconds (see ``measure.SpeedMonitor``).
    ref_s: float = 0.0

    @property
    def elapsed_s(self) -> float:
        return self.end - self.start


def _check(report, outcome: Outcome, pins) -> None:
    """Oracle-check the forest and compare the pins; never timed."""
    structure = report.structure
    destinations = structure.nodes if report.l == 0 else report.destinations
    violations = check_forest(
        structure, report.sources, destinations, report.forest.parent
    )
    if violations:
        outcome.mismatch(f"{report.key[:12]} ({report.shape}): {violations[0]}")
    outcome.check_pin(pins, report.key, pin_of(report))


def drive(
    requests: List[SolveRequest],
    outcome: Outcome,
    pins,
    tracer: Optional[LayerTracer] = None,
) -> List[Record]:
    """Closed loop, one client: run ``requests`` one after another, each
    on a fresh ``Session``, checking every answer outside the timing."""
    records: List[Record] = []
    for index, request in enumerate(requests):
        if tracer is not None:
            tracer.request = index
        outcome.attempted += 1
        start = time.monotonic()
        try:
            report = Session().run(request)
        except Exception as exc:  # noqa: BLE001 - counted, run continues
            end = time.monotonic()
            outcome.error(type(exc).__name__)
            records.append(Record(request, start, end))
            continue
        end = time.monotonic()
        _check(report, outcome, pins)
        records.append(
            Record(
                request,
                start,
                end,
                pin=pin_of(report),
                digest=hash(frozenset(report.forest.parent.items())),
                backend=report.backend,
                repair=report.repair,
            )
        )
        del report
    return records


def _ok(records: List[Record]) -> List[Record]:
    return [r for r in records if r.pin is not None]


def run_in_process(workload, seed: int, seconds: float, trace: bool) -> int:
    from perfbench.workloads import requests_for

    # A run is a whole number of cycles sized from ``--seconds``, so that
    # one seed always measures the same requests.  A traced run spends
    # about ``UNTRACED_SHARE`` of it untraced, then repeats those requests.
    budget = seconds * UNTRACED_SHARE if trace else seconds
    requests = requests_for(workload.name, seed)
    requests = requests[: workload.cycles_for(budget) * workload.cycle]
    pins = load_pins()
    outcome = Outcome()
    traced: List[Record] = []
    with SpeedMonitor() as speed:
        probes = probe_setup()
        for request in WARMUP:
            Session().run(request)
        hits0, misses0 = LAYOUT_STATS.cache_hits, LAYOUT_STATS.cache_misses
        plain = drive(requests, outcome, pins)
        layout_hits = LAYOUT_STATS.cache_hits - hits0
        layout_misses = LAYOUT_STATS.cache_misses - misses0
        if trace:
            with LayerTracer() as tracer:
                traced = drive(requests, outcome, pins, tracer)
    setup = setup_seconds(speed, probes)
    for record in plain + traced:
        record.ref_s = speed.reference(record.start, record.end)
    lines = [f"workload {workload.name} seed {seed} trace {int(trace)}"]
    if not trace:
        ok = _ok(plain)
        wall = sum(r.elapsed_s for r in plain)
        busy = sum(r.ref_s for r in plain)
        rounds = sum(r.pin[0] for r in ok)
        lines += [
            f"requests: {len(plain)} in {len(plain) // workload.cycle} cycles, "
            f"{rounds} rounds, {busy:.3f} reference s ({wall:.3f} s wall)",
            f"request latency, reference s: {summarize([r.ref_s for r in plain])}",
            f"request latency, wall s: {summarize([r.elapsed_s for r in plain])}",
            f"wall rounds_per_s = {ratio(rounds, wall):.6g} 1/s",
            f"jobs_per_s = {ratio(len(ok), busy):.6g} 1/s",
            f"failed_ratio = {ratio(outcome.failed, outcome.attempted):.6g} ratio",
            f"backends: {dict(Counter(r.backend for r in ok))}",
        ]
        metrics = {
            "setup_s": (setup["setup_s"], "s"),
            "rounds_per_s": (ratio(rounds, busy), "1/s"),
            "req_p50_s": (statistics.median(r.ref_s for r in plain), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        emit(outcome, metrics, lines)
        return 0 if outcome.wrong == 0 else 1

    for a, b in zip(plain, traced):
        if (a.pin, a.digest) != (b.pin, b.digest):
            outcome.mismatch(f"{a.request.key()[:12]}: traced run differs from untraced")
    count = len(traced)
    plain_s = sum(r.ref_s for r in plain)
    traced_s = sum(r.ref_s for r in traced)
    # Layer times are wall seconds inside the traced pass; report them
    # per request, in reference seconds at the pass's mean host speed.
    scale = ratio(traced_s, sum(r.elapsed_s for r in traced)) / count
    layers = tracer.layer_self_s()
    per = {layer: value * scale for layer, value in layers.items()}
    repairs = [r.repair for r in _ok(plain) if r.repair]
    patched = sum(r["repairs_patch"] for r in repairs)
    full = sum(r["repairs_full"] for r in repairs)
    scheduled = [r.pin[2] for r in _ok(plain) if r.request.scheduler]
    env = environment()
    env["backends"] = dict(Counter(r.backend for r in _ok(plain)))
    WORK_DIR.mkdir(exist_ok=True)
    stem = WORK_DIR / f"trace-{workload.name}-{seed}"
    spans = tracer.dump(stem.with_suffix(".jsonl"))
    root_s = tracer.inclusive_s(TRACE_ROOT)
    summary = {
        "environment": env,
        "requests": count,
        "session_run_s": root_s,
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "layers": {
            layer: {"self_s": layers[layer], "share": ratio(layers[layer], root_s)}
            for layer in layers
        },
        "targets": [
            {"layer": layer, "target": target, "calls": calls, "self_s": own,
             "inclusive_s": incl}
            for (layer, target, _), calls, own, incl in zip(
                tracer.targets, tracer.calls, tracer.self_s, tracer.incl_s
            )
        ],
    }
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    lines += [f"environment: {json.dumps(env)}",
              f"traced {count} requests: {plain_s:.3f} reference s untraced, "
              f"{traced_s:.3f} traced; {spans} spans in {stem.with_suffix('.jsonl').name}",
              "layer self time (share of Session.run):"]
    lines += [
        f"  {layer:<18} {layers[layer]:9.4f} s  {ratio(layers[layer], root_s):6.1%}"
        for layer in sorted(layers, key=layers.get, reverse=True)
    ]
    metrics = {
        "sim.wire_s": (per["sim.wire"], "s/req"),
        "sim.wire_calls": (tracer.layer_calls("sim.wire") / count, "calls/req"),
        "sim.compile_s": (per["sim.compile"], "s/req"),
        "sim.freeze_calls": (tracer.layer_calls("sim.compile") / count, "calls/req"),
        "sim.round_s": (per["sim.round"], "s/req"),
        "sim.round_calls": (tracer.layer_calls("sim.round") / count, "calls/req"),
        "sim.layout_hit_ratio": (ratio(layout_hits, layout_hits + layout_misses), "ratio"),
        "pasc.self_s": (per["pasc"], "s/req"),
        "portals.self_s": (per["portals"], "s/req"),
        "ett.self_s": (per["ett"], "s/req"),
        "primitives.self_s": (per["primitives"], "s/req"),
        "spf.self_s": (per["spf"], "s/req"),
        "motion.self_s": (per["motion"], "s/req"),
        "workloads.build_s": (per["workloads.build"], "s/req"),
        "grid.index_s": (per["grid.index"], "s/req"),
        "grid.index_calls": (tracer.layer_calls("grid.index") / count, "calls/req"),
        "dynamics.repair_s": (
            tracer.inclusive_s("repro.dynamics.maintain:DynamicSPF.apply") * scale,
            "s/req",
        ),
        "dynamics.patch_ratio": (ratio(patched, patched + full), "ratio"),
        "sched.activations": (scheduled[0] if scheduled else 0, "count"),
        "api.self_s": (per["api"], "s/req"),
        "experiments.store_s": (per["experiments.store"], "s/req"),
        "setup.import_s": (setup["import_s"], "s"),
        "trace.coverage": (tracer.coverage(), "ratio"),
        "trace.overhead_pct": (100.0 * (ratio(traced_s, plain_s) - 1.0), "%"),
    }
    emit(outcome, metrics, lines)
    return 0 if outcome.wrong == 0 else 1

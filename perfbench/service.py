"""``service-mixed``: a ``repro serve`` daemon driven by two HTTP clients.

The daemon runs as a subprocess (``--workers 2``, a fresh JSONL store
under ``.perfbench/``).  Two closed-loop client threads take operations
from the seeded stream in order, each through a plain
:class:`~repro.service.ServiceClient` with no retry policy, so every
failed, shed or timed-out job is counted, grouped by error type.

Known failure at the commit the benchmark was defined on: when two
workers run requests on one structure at the same time they share one
``LayoutCache``, and ``CompiledLayout.members_csr`` publishes
``_starts`` before ``_members``; the second worker can then fail with a
bare ``AssertionError``.  Immediate repeats in the stream make this
visible; the stream is deliberately not changed to avoid it.
"""

from __future__ import annotations

import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.measure import (
    ROOT,
    WORK_DIR,
    Outcome,
    child_env,
    emit,
    load_pins,
    median_or_zero,
    probe_setup,
    ratio,
    summarize,
)
from repro.service import JobSpec, ServiceClient, ServiceError

#: Daemons spawned per run for ``setup_s`` (spawn to first healthy
#: ``/healthz``); the last one serves the workload.
DAEMON_SPAWNS = 3
CLIENTS = 2
WORKERS = 2


class Daemon:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, store: Path):
        self.store = store
        self.log = store.with_suffix(".log").open("w", encoding="utf-8")
        self.client: Optional[ServiceClient] = None
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(WORKERS), "--store", str(store),
             "--log-level", "warning"],
            stdout=subprocess.PIPE,
            stderr=self.log,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )
        try:
            banner = self.proc.stdout.readline()
            port = int(banner.split("http://")[1].split()[0].rsplit(":", 1)[1])
            self.client = ServiceClient(port=port, timeout=120.0)
            deadline = time.monotonic() + 60
            while not self._healthy():
                if time.monotonic() > deadline or self.proc.poll() is not None:
                    raise RuntimeError(f"daemon never became healthy: {banner!r}")
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.spawn_s = time.perf_counter() - start

    def _healthy(self) -> bool:
        try:
            return bool(self.client.health().get("ok"))
        except ServiceError:
            return False

    def peak_rss_mb(self) -> float:
        """The daemon's ``VmHWM`` (peak resident set)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            if self.client is not None:
                try:
                    self.client.shutdown()
                except ServiceError:
                    pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        self.log.close()


def _drive(client: ServiceClient, ops, seconds: float):
    """Two closed-loop clients sharing one ordered operation stream."""
    results: List[Tuple[int, float, Optional[dict], str]] = []
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter()

    def worker() -> None:
        while True:
            with lock:
                index = cursor[0]
                if index >= len(ops) or time.perf_counter() - start >= seconds:
                    return
                cursor[0] += 1
            began = time.perf_counter()
            try:
                payload, error = client.run(JobSpec(request=ops[index])), ""
            except ServiceError as exc:
                payload, error = None, f"HTTP {exc.status}: {type(exc).__name__}"
            elapsed = time.perf_counter() - began
            if payload is not None and payload.get("state") != "done":
                error = str(payload.get("error") or payload.get("state"))
                error = error.split(":")[0]
            with lock:
                results.append((index, elapsed, payload, error))

    threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results, time.perf_counter() - start


def run_service(workload, seed: int, seconds: float, trace: bool) -> int:
    from perfbench.workloads import requests_for

    ops = requests_for(workload.name, seed)
    pins = load_pins()
    run_dir = WORK_DIR / f"service-{seed}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    spawns: List[float] = []
    daemon: Optional[Daemon] = None
    try:
        for i in range(DAEMON_SPAWNS):
            if daemon is not None:
                daemon.stop()
            daemon = Daemon(run_dir / f"store-{i}.jsonl")
            spawns.append(daemon.spawn_s)
        results, wall = _drive(daemon.client, ops, seconds)
        stats = daemon.client.stats()
        rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(run_dir, ignore_errors=True)

    outcome = Outcome(attempted=len(results))
    seen: Dict[str, list] = {}
    cold, warm, server, waited = [], [], [], []
    executed_rounds = 0
    for index, elapsed, payload, error in sorted(results, key=lambda r: r[0]):
        if error:
            outcome.error(error)
            continue
        result = payload["result"]
        got = [result["rounds"], result["forest_members"], result["activations"]]
        key = result["key"]
        outcome.check_pin(pins, key, got)
        if seen.setdefault(key, got) != got:
            outcome.mismatch(f"{key[:12]}: {got} differs from an earlier answer {seen[key]}")
        (warm if result["cached"] else cold).append(elapsed)
        if not result["cached"]:
            executed_rounds += result["rounds"]
        job_s = payload.get("elapsed_s") or 0.0
        server.append(job_s)
        waited.append(elapsed - job_s)
    done = len(cold) + len(warm)
    session = stats.get("session", {})
    distinct = len({ops[i].key() for i, *_ in results})
    lines = [
        f"workload {workload.name} seed {seed} trace {int(trace)}",
        f"operations: {len(results)} in {wall:.3f} s by {CLIENTS} clients, "
        f"{WORKERS} daemon workers, {distinct} distinct requests",
        f"cold latency s: {summarize(cold)}",
        f"warm latency s: {summarize(warm)}",
        f"failed_ratio = {ratio(outcome.failed, outcome.attempted):.6g} ratio",
        f"daemon stats: session={session} jobs={stats.get('jobs')}",
    ]
    structure_hits = session.get("structure_hits", 0)
    structure_ratio = ratio(structure_hits, structure_hits + session.get("structures_built", 0))
    if trace:
        import_s = statistics.median(i for *_, i in probe_setup())
        metrics = {
            "api.structure_hit_ratio": (structure_ratio, "ratio"),
            "api.exec_per_key": (ratio(session.get("executed", 0), distinct), "ratio"),
            "service.server_p50_s": (median_or_zero(server), "s"),
            "service.wait_http_p50_s": (median_or_zero(waited), "s"),
            "setup.import_s": (import_s, "s"),
        }
    else:
        metrics = {
            "setup_s": (statistics.median(spawns), "s"),
            "rounds_per_s": (ratio(executed_rounds, wall), "1/s"),
            "req_p50_s": (median_or_zero(cold + warm), "s"),
            "jobs_per_s": (ratio(done, wall), "1/s"),
            "cold_p50_s": (median_or_zero(cold), "s"),
            "warm_p50_s": (median_or_zero(warm), "s"),
            "failed_ratio": (ratio(outcome.failed, outcome.attempted), "ratio"),
            "peak_rss_mb": (rss, "MB"),
        }
    emit(outcome, metrics, lines)
    return 0 if outcome.wrong == 0 else 1

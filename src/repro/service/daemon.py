"""The solver daemon core: one hot session, a queue, a worker pool.

:class:`SolverService` is the transport-free heart of ``repro serve``:
it owns a single long-lived :class:`~repro.api.Session` (hot structure
LRU, shared layout cache, persistent result store) and executes
submitted :class:`~repro.service.jobs.JobSpec` s on a pool of worker
threads.  The HTTP layer (:mod:`repro.service.http`) is a thin shell
over this class; tests and benchmarks drive it in-process.

Determinism: a job's randomness comes entirely from the seeds inside
its spec (``SolveRequest.seed``, per-trial campaign seeds), never from
which worker picks it up or in what order — so a job's result is a pure
function of its content key, which is what makes the store-backed cache
and killed-daemon resume sound.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
import traceback
from typing import Dict, Iterator, List, Optional

from repro.api import Session, SolveReport
from repro.obs import (
    MetricsRegistry,
    MetricsSnapshotter,
    Tracer,
    register_process_views,
    use_tracer,
)
from repro.resilience import Cancelled, CancellationToken
from repro.service.jobs import JobSpec

logger = logging.getLogger("repro.service.daemon")

_QUEUED, _RUNNING, _DONE, _FAILED, _CANCELLED, _TIMEOUT, _SHED = (
    "queued",
    "running",
    "done",
    "failed",
    "cancelled",
    "timeout",
    "shed",
)


class ServiceClosed(RuntimeError):
    """Raised by :meth:`SolverService.submit` after shutdown began."""


class ServiceOverloaded(RuntimeError):
    """The bounded job queue is full and the work has no warm result.

    Carries the shed :class:`Job` (terminal state ``shed``) and a
    ``retry_after_s`` hint derived from observed job latency — the HTTP
    layer maps this to ``429`` + ``Retry-After``.
    """

    def __init__(self, message: str, retry_after_s: int, job: "Job"):
        super().__init__(message)
        self.retry_after_s = retry_after_s
        self.job = job


class Job:
    """Runtime record of one submitted job: state, result, event stream.

    Events are JSON-ready dicts buffered in order; :meth:`events` is a
    blocking iterator over them (this is what the HTTP layer streams as
    chunked JSONL).  Terminal states are ``done``, ``failed``,
    ``cancelled``, ``timeout``, and ``shed``; :attr:`finished` is set
    exactly once, on entry to a terminal state.
    """

    def __init__(self, job_id: str, spec: JobSpec):
        self.id = job_id
        self.spec = spec
        self.key = spec.key()
        self.state = _QUEUED
        self.result: Optional[dict] = None
        self.error: Optional[str] = None
        self.submitted_s = time.time()
        self.started_s: Optional[float] = None
        self.elapsed_s: Optional[float] = None
        #: Cooperative cancellation handle, armed at submission when the
        #: spec carries a deadline (so queue wait counts against it).
        self.token: Optional[CancellationToken] = None
        self.finished = threading.Event()
        #: Span records of this job's execution (set on completion;
        #: served by ``GET /jobs/<id>/trace``).
        self.trace: Optional[List[dict]] = None
        self._events: List[dict] = []
        self._cond = threading.Condition()

    # -- event stream ---------------------------------------------------
    def emit(self, event: dict) -> None:
        """Append one progress event and wake blocked streamers."""
        with self._cond:
            self._events.append(dict(event))
            self._cond.notify_all()

    def events(
        self, start: int = 0, timeout: Optional[float] = None
    ) -> Iterator[dict]:
        """Yield events from ``start`` until the job reaches a terminal
        state and the buffer is drained.

        ``timeout`` bounds each *wait* for the next event (not the whole
        stream); on expiry the iterator stops early.
        """
        index = start
        while True:
            with self._cond:
                while index >= len(self._events):
                    if self.finished.is_set():
                        return
                    if not self._cond.wait(timeout=timeout):
                        return
                event = self._events[index]
            index += 1
            yield event

    def _finish(self, state: str) -> None:
        with self._cond:
            self.state = state
            if self.started_s is not None:
                self.elapsed_s = round(time.time() - self.started_s, 6)
            self.finished.set()
            self._cond.notify_all()

    # -- views ----------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-ready status view (the ``GET /jobs/<id>`` body)."""
        out = {
            "id": self.id,
            "key": self.key,
            "kind": self.spec.kind,
            "state": self.state,
            "events": len(self._events),
            "submitted_s": round(self.submitted_s, 3),
        }
        if self.elapsed_s is not None:
            out["elapsed_s"] = self.elapsed_s
        if self.error is not None:
            out["error"] = self.error
        return out


class SolverService:
    """Queue + worker pool over one shared :class:`~repro.api.Session`.

    Parameters
    ----------
    session:
        The hot session; built from ``store`` when omitted.
    store:
        Result store (or JSONL path) for the default session — this is
        what makes a restarted daemon resume finished work.
    workers:
        Worker thread count (jobs execute concurrently up to this).
    max_queue:
        Bound on queued-but-unstarted jobs.  At the bound, cold
        submissions are shed (:class:`ServiceOverloaded` → HTTP 429)
        while warm cache hits are still served inline — degraded, not
        down.  The bound is enforced by a depth counter rather than
        ``Queue(maxsize=...)`` so shutdown sentinels never block.
    metrics_interval:
        When positive and the result store is file-backed, a
        :class:`~repro.obs.MetricsSnapshotter` appends one registry
        snapshot per interval to ``metrics.jsonl`` next to the store.
    """

    def __init__(
        self,
        session: Optional[Session] = None,
        store: Optional[object] = None,
        workers: int = 2,
        max_queue: int = 64,
        metrics_interval: float = 0.0,
    ):
        if workers < 1:
            raise ValueError(f"workers must be positive, got {workers}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        self.session = session if session is not None else Session(store=store)
        self.store = self.session.store
        self.workers = workers
        self.max_queue = max_queue
        self._queue: "queue.Queue[Optional[Job]]" = queue.Queue()
        self._depth = 0  # queued-but-unstarted jobs, guarded by _lock
        self._jobs: "Dict[str, Job]" = {}
        self._seq = 0
        self._lock = threading.Lock()
        self._closed = False
        self.started_s = time.time()
        #: Per-service metrics registry: process-global stat views plus
        #: this service's own instruments.  Private per instance so
        #: parallel test daemons never share counter state.
        self.metrics = register_process_views(MetricsRegistry())
        self.metrics.register_view(
            "session", self.session.stats.to_dict, "repro_session"
        )
        self._jobs_total = self.metrics.counter(
            "repro_jobs_total", "Jobs reaching a terminal state, by state."
        )
        #: Bounded replacement for the historical unbounded per-job
        #: latency list: exponential buckets, fixed memory forever.
        self._job_latency = self.metrics.histogram(
            "repro_job_latency_seconds",
            "Completed job wall-clock latency, by kind and cache outcome.",
        )
        self._sheds_total = self.metrics.counter(
            "repro_sheds_total", "Cold submissions shed at a full queue."
        )
        self._timeouts_total = self.metrics.counter(
            "repro_timeouts_total", "Jobs cancelled at their deadline."
        )
        self._trial_retries_total = self.metrics.counter(
            "repro_trial_retries_total",
            "Campaign trials retried after a worker-process crash.",
        )
        self._quarantined_total = self.metrics.counter(
            "repro_quarantined_total",
            "Campaign trials quarantined after exhausting their retry budget.",
        )
        self._snapshotter: Optional[MetricsSnapshotter] = None
        store_path = getattr(self.store, "path", None)
        if metrics_interval > 0 and store_path is not None:
            self._snapshotter = MetricsSnapshotter(
                self.metrics,
                store_path.parent / "metrics.jsonl",
                interval_s=metrics_interval,
            ).start()
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()
        logger.info(
            "service started", extra={"workers": workers, "store": str(store_path)}
        )

    # ------------------------------------------------------------------
    # submission & queries
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Queue one job; returns its :class:`Job` immediately.

        Job ids are ``<key12>-<seq>``: the content-hash prefix makes
        identical work visibly identical across submissions, the
        sequence number keeps ids unique when the same spec is
        submitted twice.

        Backpressure: with :attr:`max_queue` jobs already waiting, a
        submission whose result is warm in the store is served inline
        (the degraded mode keeps cache hits cheap and available), and
        anything cold is shed — the job finishes in state ``shed`` and
        :class:`ServiceOverloaded` tells the caller when to retry.
        """
        if not isinstance(spec, JobSpec):
            raise TypeError(f"submit() takes a JobSpec, got {type(spec).__name__}")
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is shutting down")
            self._seq += 1
            job = Job(f"{spec.key()[:12]}-{self._seq}", spec)
            self._jobs[job.id] = job
            full = self._depth >= self.max_queue
            if not full:
                self._depth += 1
        if full:
            warm = self._serve_warm(job)
            if warm is not None:
                return warm
            retry_after = self._retry_after_s()
            job.error = (
                f"queue full ({self.max_queue} jobs waiting); "
                f"retry in ~{retry_after}s"
            )
            job.emit(
                {"event": "shed", "id": job.id, "retry_after_s": retry_after}
            )
            job._finish(_SHED)
            self._jobs_total.inc(state=_SHED)
            self._sheds_total.inc()
            logger.warning(
                "job shed",
                extra={"job": job.id, "kind": spec.kind, "retry_after_s": retry_after},
            )
            raise ServiceOverloaded(job.error, retry_after, job)
        deadline = spec.effective_deadline_s
        if deadline is not None:
            job.token = CancellationToken(deadline_s=deadline)
        job.emit({"event": "queued", "id": job.id, "key": job.key})
        logger.info(
            "job accepted",
            extra={"job": job.id, "kind": spec.kind, "key": job.key},
        )
        self._queue.put(job)
        return job

    def _serve_warm(self, job: Job) -> Optional[Job]:
        """Serve a cache hit inline on the caller's thread, or ``None``.

        Used only when the queue is full: a warm result costs one store
        lookup, so degraded mode answers it directly from the record
        instead of shedding — the cache-hit path must survive overload.
        """
        spec = job.spec
        if spec.request is None or spec.fresh:
            return None
        try:
            record = self.store.get(job.key)
        except Exception:  # noqa: BLE001 - a flaky store is a cache miss
            return None
        if record is None or record.get("record") != SolveReport.RECORD:
            return None
        job.state = _RUNNING
        job.started_s = time.time()
        result = dict(record)
        result["cached"] = True
        job.result = result
        job.emit({"event": "cached", "key": job.key, "rounds": record.get("rounds")})
        job._finish(_DONE)
        if job.elapsed_s is not None:
            self._job_latency.observe(
                job.elapsed_s, kind=spec.kind, cached="true"
            )
        self._jobs_total.inc(state=_DONE)
        return job

    def _retry_after_s(self) -> int:
        """Retry hint for shed callers: observed p50 scaled by backlog."""
        p50 = 0.0
        if self._job_latency.total_count():
            p50 = self._job_latency.quantile(0.50) or 0.0
        base = p50 if p50 > 0 else 1.0
        estimate = base * max(1.0, self._depth / max(1, self.workers))
        return int(min(60, max(1, round(estimate))))

    def health(self) -> dict:
        """Load-aware health: ``ok`` | ``degraded`` | ``overloaded``.

        ``degraded`` begins at half queue depth (cold work still
        accepted, but latency is climbing); ``overloaded`` means cold
        submissions are being shed and only warm hits are served.  The
        boolean ``ok`` stays true while cold work is accepted.
        """
        with self._lock:
            depth = self._depth
            closed = self._closed
        if closed or depth >= self.max_queue:
            status = "overloaded"
        elif depth * 2 >= self.max_queue:
            status = "degraded"
        else:
            status = "ok"
        return {
            "ok": status != "overloaded",
            "status": status,
            "queue_depth": depth,
            "queue_limit": self.max_queue,
            "workers": self.workers,
        }

    def queue_position(self, job_id: str) -> Optional[int]:
        """Queued jobs ahead of this one (``None`` once it leaves the queue)."""
        with self._lock:
            ahead = 0
            for jid, other in self._jobs.items():
                if jid == job_id:
                    return ahead if other.state == _QUEUED else None
                if other.state == _QUEUED:
                    ahead += 1
        raise KeyError(job_id)

    def job(self, job_id: str) -> Job:
        """The job with this id (raises ``KeyError`` if unknown)."""
        with self._lock:
            return self._jobs[job_id]

    def jobs(self) -> List[dict]:
        """Snapshots of every known job, in submission order."""
        with self._lock:
            return [job.snapshot() for job in self._jobs.values()]

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job reaches a terminal state (or timeout)."""
        job = self.job(job_id)
        job.finished.wait(timeout=timeout)
        return job

    def stats(self) -> dict:
        """JSON-ready service health: jobs, caches, latencies, backend, GC.

        Every sub-document is pulled through the metrics registry's
        views (the single collection path ``/metrics`` also renders),
        so ``/stats`` and the Prometheus exposition can never drift
        apart.  The latency summary is derived from the bounded
        histogram — no per-job samples are retained.
        """
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        views = self.metrics.views_dict()
        health = self.health()
        return {
            "uptime_s": round(time.time() - self.started_s, 3),
            "workers": self.workers,
            "status": health["status"],
            "queue": {
                "depth": health["queue_depth"],
                "limit": health["queue_limit"],
            },
            "jobs": states,
            "session": views["session"],
            "store": {"records": len(self.store)},
            "layout_stats": views["layout_stats"],
            "grid_stats": views["grid_stats"],
            "backend": views["backend"],
            "gc": views["gc"],
            "latency": self._latency_summary(),
        }

    def _latency_summary(self) -> dict:
        """p50/p99 over completed jobs (histogram-derived), by outcome."""
        hist = self._job_latency
        out: dict = {"completed": hist.total_count()}
        if out["completed"]:
            out["p50_s"] = hist.quantile(0.50)
            out["p99_s"] = hist.quantile(0.99)
        warm = hist.count(cached="true")
        cold = hist.count(cached="false")
        if warm:
            out["warm"] = {"count": warm, "p50_s": hist.quantile(0.50, cached="true")}
        if cold:
            out["cold"] = {"count": cold, "p50_s": hist.quantile(0.50, cached="false")}
        return out

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:  # shutdown sentinel
                return
            with self._lock:
                self._depth -= 1
            if job.finished.is_set():  # cancelled while queued
                continue
            if job.token is not None and (
                job.token.cancelled or job.token.expired
            ):
                # The deadline elapsed while the job sat in the queue:
                # time it out without charging a worker at all.
                job.started_s = time.time()
                self._timeout(job, Cancelled("deadline expired in queue"))
                continue
            job.state = _RUNNING
            job.started_s = time.time()
            job.emit({"event": "running", "id": job.id})
            logger.info(
                "job started",
                extra={"job": job.id, "kind": job.spec.kind, "key": job.key},
            )
            tracer = Tracer()
            try:
                with use_tracer(tracer):
                    if job.spec.request is not None:
                        report = self.session.run(
                            job.spec.request,
                            resume=not job.spec.fresh,
                            on_event=job.emit,
                            token=job.token,
                        )
                        job.result = report.to_dict()
                        cached = report.cached
                    else:
                        job.result = self._run_campaign(job)
                        cached = False
                job.trace = tracer.records()
                job._finish(_DONE)
                if job.elapsed_s is not None:
                    self._job_latency.observe(
                        job.elapsed_s,
                        kind=job.spec.kind,
                        cached="true" if cached else "false",
                    )
                self._jobs_total.inc(state=_DONE)
                logger.info(
                    "job finished",
                    extra={
                        "job": job.id,
                        "kind": job.spec.kind,
                        "latency_s": job.elapsed_s,
                        "cached": cached,
                    },
                )
            except Cancelled as exc:
                job.trace = tracer.records()
                self._timeout(job, exc)
            except Exception as exc:  # noqa: BLE001 - jobs must not kill workers
                job.error = f"{type(exc).__name__}: {exc}"
                job.trace = tracer.records()
                job.emit(
                    {
                        "event": "error",
                        "id": job.id,
                        "error": job.error,
                        "traceback": traceback.format_exc(limit=8),
                    }
                )
                job._finish(_FAILED)
                self._jobs_total.inc(state=_FAILED)
                logger.error(
                    "job failed",
                    extra={"job": job.id, "kind": job.spec.kind, "error": job.error},
                )

    def _timeout(self, job: Job, exc: Cancelled) -> None:
        """Finish ``job`` in state ``timeout``, keeping partial progress."""
        job.error = f"{type(exc).__name__}: {exc}"
        job.result = {
            "record": "timeout",
            "key": job.key,
            "deadline_s": job.spec.effective_deadline_s,
            "partial": dict(exc.partial),
        }
        job.emit(
            {
                "event": "timeout",
                "id": job.id,
                "error": job.error,
                "partial": dict(exc.partial),
            }
        )
        job._finish(_TIMEOUT)
        self._jobs_total.inc(state=_TIMEOUT)
        self._timeouts_total.inc()
        logger.warning(
            "job timed out",
            extra={
                "job": job.id,
                "kind": job.spec.kind,
                "deadline_s": job.spec.effective_deadline_s,
            },
        )

    def _run_campaign(self, job: Job) -> dict:
        """Execute a campaign job against the shared result store."""
        from repro.experiments import (
            CampaignRunner,
            CampaignSpec,
            get_campaign,
        )

        spec = job.spec.campaign
        campaign = (
            get_campaign(spec)
            if isinstance(spec, str)
            else CampaignSpec.from_dict(spec)
        )

        def progress(trial, result, done, total):
            job.emit(
                {
                    "event": "trial",
                    "key": trial.key(),
                    "done": done,
                    "total": total,
                    "rounds": result.rounds,
                }
            )

        runner = CampaignRunner(store=self.store, workers=job.spec.workers)
        report = runner.run(
            campaign,
            resume=not job.spec.fresh,
            progress=progress,
            token=job.token,
        )
        if report.retries:
            self._trial_retries_total.inc(amount=report.retries)
        if report.quarantined:
            self._quarantined_total.inc(amount=len(report.quarantined))
        return {
            "record": "campaign-report",
            "campaign": report.campaign,
            "trials": report.total,
            "executed": report.executed,
            "cache_hits": report.cache_hits,
            "retries": report.retries,
            "quarantined": len(report.quarantined),
            "elapsed_s": report.elapsed_s,
        }

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def shutdown(self, wait: bool = True) -> dict:
        """Stop accepting work, cancel queued jobs, drain the pool.

        In-flight jobs run to completion (worker threads cannot be
        interrupted mid-solve and a half-written result is worse than a
        late one); queued-but-unstarted jobs flip to ``cancelled``.
        With ``wait=True`` blocks until every worker has exited.
        Idempotent.  Returns ``{"cancelled": <count>}``.
        """
        with self._lock:
            already = self._closed
            self._closed = True
            pending = [j for j in self._jobs.values() if j.state == _QUEUED]
        cancelled = 0
        if not already:
            for job in pending:
                job.emit({"event": "cancelled", "id": job.id})
                job._finish(_CANCELLED)
                self._jobs_total.inc(state=_CANCELLED)
                cancelled += 1
            for _ in self._threads:
                self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join()
        if not already:
            if self._snapshotter is not None:
                self._snapshotter.stop()
            logger.info("service stopped", extra={"cancelled": cancelled})
        return {"cancelled": cancelled}

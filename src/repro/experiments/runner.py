"""Campaign execution: expand specs into trials, run them in parallel.

The runner is deliberately split in two layers:

* :func:`execute_trial` — a pure, module-level function from
  :class:`TrialSpec` to :class:`TrialResult`.  Being top-level makes it
  picklable, so the same function body runs inline (``workers <= 1``)
  and inside :class:`~concurrent.futures.ProcessPoolExecutor` workers.
* :class:`CampaignRunner` — orchestration: cache lookups against a
  :class:`~repro.experiments.store.ResultStore`, worker fan-out, and
  progress reporting.

Determinism: a trial's source/destination sampling seed is derived from
its content hash (:meth:`TrialSpec.sampling_seed`), never from runner
state, so serial and parallel runs produce bit-identical records.
"""

from __future__ import annotations

import logging
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.spec import ALL_NODES, CampaignSpec, TrialSpec, expand_trials
from repro.experiments.store import ResultStore
from repro.grid.coords import Node
from repro.grid.oracle import structure_diameter
from repro.grid.structure import AmoebotStructure
from repro.obs import Tracer, trace_span, use_tracer
from repro.resilience import CancellationToken, RetryPolicy
from repro.sim.circuits import LayoutCache
from repro.sim.engine import CircuitEngine
from repro.workloads.samplers import sample_sources_destinations, spread_nodes
from repro.workloads.specs import build_structure

logger = logging.getLogger("repro.experiments.runner")

#: ``record`` marker of the structured failure records a quarantined
#: trial leaves in the store.  Resume treats them as *not* cached — a
#: later run re-attempts the trial — but campaign reports surface them
#: so a poisoned trial is an accountable line item, not a lost abort.
QUARANTINE_RECORD = "quarantined-trial"

#: Directory per-trial span traces are spooled into, or ``None`` (off).
#: A module global (not runner state) because trials execute in worker
#: *processes*: the pool initializer sets it in each worker, and every
#: worker appends to its own ``trials-<pid>.jsonl`` — no cross-process
#: file contention, no pickling of tracer objects.
_TRACE_DIR: Optional[str] = None


def _set_trace_dir(path: Optional[str]) -> None:
    """Install the trace spool directory (process-pool initializer)."""
    global _TRACE_DIR
    _TRACE_DIR = path

#: Process-wide layout cache shared by every trial a worker executes.
#: Keys are scoped by the trial structure's node set, so trials over the
#: same shape (different seeds, algorithms, or endpoint placements) reuse
#: one frozen-and-compiled layout per wiring fingerprint instead of
#: rebuilding and recompiling it per trial.  Bounded LRU: long campaigns
#: with many distinct shapes cannot pin unbounded layout memory.
_WORKER_LAYOUTS = LayoutCache(maxsize=128)


def _trial_engine(structure: AmoebotStructure, scheduler: str = "") -> CircuitEngine:
    """An engine whose layout cache is shared across the worker's trials.

    A non-empty ``scheduler`` spec selects the event-driven
    :class:`~repro.sched.ActivationEngine` (activation counts and
    scheduler time become part of the trial record).
    """
    layouts = _WORKER_LAYOUTS.scoped(frozenset(structure.nodes))
    if scheduler:
        from repro.sched import ActivationEngine

        return ActivationEngine(structure, scheduler=scheduler, layouts=layouts)
    return CircuitEngine(structure, layouts=layouts)


@dataclass
class TrialResult:
    """Everything measured for one executed trial."""

    key: str
    scenario: str
    shape: str
    n: int
    k: int
    l: int
    seed: int
    algorithm: str
    resolved: str
    placement: str
    rounds: int
    forest_members: int
    elapsed_s: float
    diameter: Optional[int] = None
    sections: Dict[str, int] = field(default_factory=dict)
    cached: bool = False
    # Scheduler-axis extras (new keys appended to the record; every
    # pre-existing key above is untouched, so old stores keep loading).
    scheduler: str = ""
    activations: Optional[int] = None
    sched_time: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """Flatten into the JSON-ready record the store persists."""
        return {
            "key": self.key,
            "scenario": self.scenario,
            "shape": self.shape,
            "n": self.n,
            "k": self.k,
            "l": self.l,
            "seed": self.seed,
            "algorithm": self.algorithm,
            "resolved": self.resolved,
            "placement": self.placement,
            "rounds": self.rounds,
            "forest_members": self.forest_members,
            "elapsed_s": self.elapsed_s,
            "diameter": self.diameter,
            "sections": dict(self.sections),
            "cached": self.cached,
            "scheduler": self.scheduler,
            "activations": self.activations,
            "sched_time": self.sched_time,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TrialResult":
        """Rebuild from a stored record, ignoring unknown fields."""
        known = {
            "key", "scenario", "shape", "n", "k", "l", "seed", "algorithm",
            "resolved", "placement", "rounds", "forest_members", "elapsed_s",
            "diameter", "sections", "cached", "scheduler", "activations",
            "sched_time",
        }
        kwargs = {name: data[name] for name in known if name in data}
        return cls(**kwargs)  # type: ignore[arg-type]


def _pick_endpoints(
    structure: AmoebotStructure, trial: TrialSpec
) -> Tuple[List[Node], List[Node]]:
    """Choose sources and destinations per the trial's placement policy."""
    ordered = sorted(structure.nodes)
    n = len(ordered)
    if trial.k > n:
        raise ValueError(
            f"trial {trial.key()}: k = {trial.k} exceeds structure size {n}"
        )
    want_all = trial.l == ALL_NODES
    if not want_all and trial.k + trial.l > n:
        # Reject rather than silently truncate: a record claiming l
        # destinations must have been measured with exactly l.
        raise ValueError(
            f"trial {trial.key()}: cannot pick {trial.k}+{trial.l} "
            f"disjoint nodes from {n}"
        )

    if trial.placement == "extremes":
        sources = ordered[: trial.k]
        destinations = list(ordered) if want_all else ordered[n - trial.l:]
    elif trial.placement == "spread":
        sources = spread_nodes(structure, trial.k)
        if want_all:
            destinations = list(ordered)
        else:
            chosen = set(sources)
            destinations = [u for u in ordered if u not in chosen][: trial.l]
    else:  # random
        if want_all:
            rng = random.Random(trial.sampling_seed())
            sources = rng.sample(ordered, trial.k)
            destinations = list(ordered)
        else:
            sources, destinations = sample_sources_destinations(
                structure, trial.k, trial.l, seed=trial.sampling_seed()
            )
    if not destinations:
        raise ValueError(f"trial {trial.key()}: no destinations (l = {trial.l})")
    return sources, destinations


def _execute_churn_trial(
    trial: TrialSpec,
    structure: AmoebotStructure,
    sources: List[Node],
    destinations: List[Node],
) -> Tuple[int, int, Dict[str, int], int, Optional[float]]:
    """Initial solve + churn/repair loop.

    Returns ``(members, rounds, extras, activations, sched_time)``.

    The dynamics engine owns its layout cache (the structure mutates
    every batch, so the worker-wide shape-keyed cache does not apply).
    Churn is seeded from the trial's content hash, so records are
    reproducible across runs and worker counts.
    """
    from repro.api import Session
    from repro.dynamics import DynamicSPF, generate_churn

    # A per-trial session: churn mutates the structure, so nothing is
    # shareable beyond the engine policy (scheduler spec, backend).
    dyn = DynamicSPF(
        structure,
        sources,
        destinations if trial.l != ALL_NODES else None,
        session=Session(scheduler=trial.scheduler),
    )
    script = generate_churn(
        structure,
        trial.churn,
        steps=trial.churn_steps,
        batch_size=trial.churn_batch,
        seed=trial.sampling_seed(),
        protected=dyn.protected,
    )
    stats = dyn.apply_script(script)
    extras: Dict[str, int] = {
        "edit_batches": len(stats),
        "edit_ops": sum(s.batch_ops for s in stats),
        "repairs_patch": sum(1 for s in stats if s.mode == "patch"),
        "repairs_full": sum(1 for s in stats if s.mode == "full"),
        "repair_rounds": sum(s.rounds for s in stats),
        "wave_rounds": sum(s.wave_rounds for s in stats),
        "dirty_nodes": sum(s.dirty for s in stats),
    }
    sched_stats = getattr(dyn.engine, "stats", None)
    sched_time = round(sched_stats.time, 6) if sched_stats is not None else None
    return (
        len(dyn.forest.members),
        dyn.engine.rounds.total,
        extras,
        dyn.engine.rounds.activations,
        sched_time,
    )


def execute_trial(trial: TrialSpec) -> TrialResult:
    """Run one trial and measure rounds, forest size and wall time.

    When a trace spool directory is installed (``--trace-dir``), the
    whole trial runs under a span tracer whose records are appended —
    tagged with the trial key — to this process's
    ``trials-<pid>.jsonl`` in that directory.
    """
    if _TRACE_DIR is None:
        return _run_trial(trial)
    tracer = Tracer()
    with use_tracer(tracer):
        with trace_span(
            "trial",
            scenario=trial.scenario,
            shape=trial.shape,
            seed=trial.seed,
            algorithm=trial.algorithm,
        ) as span:
            result = _run_trial(trial)
            span.set(rounds=result.rounds)
    tracer.dump(
        os.path.join(_TRACE_DIR, f"trials-{os.getpid()}.jsonl"),
        append=True,
        extra={"trial": trial.key()},
    )
    return result


def _run_trial(trial: TrialSpec) -> TrialResult:
    """The untraced trial body (see :func:`execute_trial`)."""
    with trace_span("build", shape=trial.shape):
        structure = build_structure(trial.shape)
        sources, destinations = _pick_endpoints(structure, trial)
    resolved = trial.algorithm
    start = time.perf_counter()

    if trial.churn:
        with trace_span("rounds", algorithm="dynamic") as churn_span:
            (
                members, total_rounds, extras, activations, sched_time,
            ) = _execute_churn_trial(trial, structure, sources, destinations)
            churn_span.set(rounds=total_rounds)
        elapsed = time.perf_counter() - start
        sections: Dict[str, int] = dict(extras)
        return TrialResult(
            key=trial.key(),
            scenario=trial.scenario,
            shape=trial.shape,
            n=len(structure),
            k=trial.k,
            l=trial.l,
            seed=trial.seed,
            algorithm=trial.algorithm,
            resolved="dynamic",
            placement=trial.placement,
            rounds=total_rounds,
            forest_members=members,
            elapsed_s=round(elapsed, 6),
            diameter=(
                structure_diameter(structure) if trial.measure_diameter else None
            ),
            sections=sections,
            scheduler=trial.scheduler,
            activations=activations,
            sched_time=sched_time,
        )

    engine = _trial_engine(structure, trial.scheduler)
    with trace_span("rounds", algorithm=trial.algorithm) as rounds_span:
        if trial.algorithm == "auto":
            from repro.spf.api import solve_spf

            solution = solve_spf(structure, sources, destinations, engine=engine)
            members = len(solution.forest.members)
            resolved = solution.algorithm
        elif trial.algorithm == "spt":
            from repro.spf.spt import shortest_path_tree

            spt = shortest_path_tree(engine, structure, sources[0], destinations)
            members = len(spt.members)
        elif trial.algorithm == "forest":
            from repro.spf.forest import shortest_path_forest

            forest = shortest_path_forest(
                engine,
                structure,
                sources,
                destinations if trial.l != ALL_NODES else None,
            )
            members = len(forest.members)
        elif trial.algorithm == "sequential":
            from repro.baselines.sequential_merge import sequential_merge_forest

            forest = sequential_merge_forest(engine, structure, sources)
            members = len(forest.members)
        elif trial.algorithm == "wave":
            from repro.baselines.bfs_wave import bfs_wave_forest

            forest = bfs_wave_forest(
                engine, structure, set(sources), set(destinations)
            )
            members = len(forest.members)
        else:  # pragma: no cover - spec validation rejects this earlier
            raise ValueError(f"unknown algorithm {trial.algorithm!r}")
        rounds_span.set(algorithm=resolved, rounds=engine.rounds.total)

    elapsed = time.perf_counter() - start
    sched_stats = getattr(engine, "stats", None)
    return TrialResult(
        key=trial.key(),
        scenario=trial.scenario,
        shape=trial.shape,
        n=len(structure),
        k=trial.k,
        l=trial.l,
        seed=trial.seed,
        algorithm=trial.algorithm,
        resolved=resolved,
        placement=trial.placement,
        rounds=engine.rounds.total,
        forest_members=members,
        elapsed_s=round(elapsed, 6),
        diameter=structure_diameter(structure) if trial.measure_diameter else None,
        sections=dict(engine.rounds.breakdown()),
        scheduler=trial.scheduler,
        activations=engine.rounds.activations,
        sched_time=(
            round(sched_stats.time, 6) if sched_stats is not None else None
        ),
    )


@dataclass
class CampaignReport:
    """Outcome of one :meth:`CampaignRunner.run` invocation."""

    campaign: str
    results: List[TrialResult]
    executed: int
    cache_hits: int
    elapsed_s: float
    #: Structured failure records of trials that exhausted their retry
    #: budget (see :data:`QUARANTINE_RECORD`); empty on a clean run.
    quarantined: List[Dict[str, object]] = field(default_factory=list)
    #: Trial re-executions after worker crashes or in-worker errors.
    retries: int = 0

    @property
    def total(self) -> int:
        """Total trials in the campaign (executed + cached + quarantined)."""
        return len(self.results) + len(self.quarantined)

    def records(self) -> List[Dict[str, object]]:
        """All results as plain dicts (aggregate-ready)."""
        return [r.to_dict() for r in self.results]

    def summary(self) -> str:
        """One human-readable line: totals, cache hits, wall time."""
        line = (
            f"campaign {self.campaign!r}: {self.total} trials, "
            f"{self.executed} executed, {self.cache_hits} cache hits "
            f"({self.elapsed_s:.2f}s)"
        )
        if self.retries or self.quarantined:
            line += (
                f" [{self.retries} retries, "
                f"{len(self.quarantined)} quarantined]"
            )
        return line


ProgressFn = Callable[[TrialSpec, TrialResult, int, int], None]


class CampaignRunner:
    """Expands a campaign and executes its trials, possibly in parallel.

    Parameters
    ----------
    store:
        Result store consulted for cached trials and appended to as
        trials complete.  Defaults to a fresh in-memory store.
    workers:
        ``<= 1`` runs inline; otherwise a ``ProcessPoolExecutor`` with
        that many workers.  Results are identical either way.
    trace_dir:
        When set, every trial runs under a span tracer and each worker
        process appends its trials' spans to ``trials-<pid>.jsonl`` in
        this directory (created if missing).  ``None`` (default) runs
        the uninstrumented path.
    retry:
        Retry budget for crashed or erroring trials
        (:class:`~repro.resilience.RetryPolicy`; ``attempts`` is total
        tries per trial).  A trial that exhausts the budget is
        *quarantined*: a structured failure record lands in the store
        and on :attr:`CampaignReport.quarantined`, and the rest of the
        campaign keeps running — a dead worker process
        (``BrokenProcessPool``) no longer aborts anything.
    trial_fn:
        The trial executor (module-level, hence picklable).  Chaos
        tests swap in fault-injecting wrappers; everyone else keeps
        :func:`execute_trial`.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: int = 1,
        trace_dir: Optional[os.PathLike] = None,
        retry: Optional[RetryPolicy] = None,
        trial_fn: Callable[[TrialSpec], TrialResult] = execute_trial,
    ):
        self.store = store if store is not None else ResultStore()
        self.workers = max(1, int(workers))
        self.trace_dir = str(trace_dir) if trace_dir else None
        if self.trace_dir:
            os.makedirs(self.trace_dir, exist_ok=True)
        self.retry = retry if retry is not None else RetryPolicy(
            attempts=3, base_delay_s=0.05, max_delay_s=0.5
        )
        self.trial_fn = trial_fn
        #: Store writes that failed (results are kept in memory and the
        #: campaign continues; see :meth:`_store_add`).
        self.store_failures = 0

    def run(
        self,
        campaign: CampaignSpec,
        resume: bool = True,
        progress: Optional[ProgressFn] = None,
        token: Optional[CancellationToken] = None,
    ) -> CampaignReport:
        """Execute every trial of ``campaign`` not already in the store.

        With ``resume=False`` cached records are ignored (and
        overwritten in the store's in-memory view; the JSONL log keeps
        both, last write wins on reload).  Quarantine records never
        count as cached — a re-run re-attempts those trials.

        ``token`` is checked at trial boundaries: a deadline or cancel
        raises :class:`~repro.resilience.Cancelled` mid-campaign, with
        everything completed so far already persisted in the store.
        """
        trials = expand_trials(campaign.trials())
        started = time.perf_counter()
        cached: Dict[str, TrialResult] = {}
        todo: List[TrialSpec] = []
        for trial in trials:
            record = self.store.get(trial.key()) if resume else None
            if record is not None and record.get("record") is None:
                # Cached results keep their originally recorded scenario
                # label, so the report always matches the store contents
                # (a hit may come from another campaign's scenario).
                # Marked records (quarantine entries) are not results.
                result = TrialResult.from_dict(record)
                result.cached = True
                cached[trial.key()] = result
            else:
                todo.append(trial)

        fresh, quarantined, retries = self._execute(
            todo, progress, total=len(trials), done=len(cached), token=token
        )

        results: List[TrialResult] = []
        for trial in trials:
            key = trial.key()
            if key in cached:
                results.append(cached[key])
            elif key in fresh:
                results.append(fresh[key])
            # else: quarantined — reported separately, not a result
        return CampaignReport(
            campaign=campaign.name,
            results=results,
            executed=len(fresh),
            cache_hits=len(cached),
            elapsed_s=round(time.perf_counter() - started, 6),
            quarantined=quarantined,
            retries=retries,
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _store_add(self, record: Dict[str, object]) -> None:
        """Persist one record, tolerating store faults.

        A failed write costs a cache entry (and a resume point), never
        the in-memory result — campaigns outlive flaky disks.
        """
        try:
            self.store.add(record)
        except Exception:  # noqa: BLE001 - persistence is best-effort here
            self.store_failures += 1
            logger.warning(
                "store write failed for %s", record.get("key"), exc_info=True
            )

    def _quarantine(
        self, trial: TrialSpec, exc: BaseException, attempts: int
    ) -> Dict[str, object]:
        """Build + persist the structured failure record for one trial."""
        record = {
            "key": trial.key(),
            "record": QUARANTINE_RECORD,
            "scenario": trial.scenario,
            "shape": trial.shape,
            "seed": trial.seed,
            "algorithm": trial.algorithm,
            "error": f"{type(exc).__name__}: {exc}",
            "attempts": attempts,
        }
        self._store_add(record)
        logger.warning(
            "trial quarantined after %d attempts: %s (%s)",
            attempts,
            trial.key(),
            record["error"],
        )
        return record

    def _retry_delay(self, failures: int) -> float:
        """Backoff before re-attempting a trial that failed ``failures`` times."""
        delays = self.retry.delays()
        if not delays:
            return 0.0
        return delays[min(failures - 1, len(delays) - 1)]

    def _execute(
        self,
        todo: Sequence[TrialSpec],
        progress: Optional[ProgressFn],
        total: int,
        done: int,
        token: Optional[CancellationToken] = None,
    ) -> Tuple[Dict[str, TrialResult], List[Dict[str, object]], int]:
        out: Dict[str, TrialResult] = {}
        quarantined: List[Dict[str, object]] = []
        retries = 0
        if not todo:
            return out, quarantined, retries

        def record(trial: TrialSpec, result: TrialResult, done: int) -> None:
            # Persist immediately so an interrupted campaign resumes
            # from the last completed trial, not from scratch.
            out[trial.key()] = result
            self._store_add(result.to_dict())
            if progress is not None:
                progress(trial, result, done, total)

        budget = self.retry.attempts

        if self.workers == 1:
            previous = _TRACE_DIR
            _set_trace_dir(self.trace_dir or previous)
            try:
                for trial in todo:
                    if token is not None:
                        token.check(trials_done=done)
                    failures = 0
                    while True:
                        try:
                            result = self.trial_fn(trial)
                        except Exception as exc:  # noqa: BLE001
                            failures += 1
                            if failures >= budget:
                                done += 1
                                quarantined.append(
                                    self._quarantine(trial, exc, failures)
                                )
                                break
                            retries += 1
                            time.sleep(self._retry_delay(failures))
                            continue
                        done += 1
                        record(trial, result, done)
                        break
            finally:
                _set_trace_dir(previous)
            return out, quarantined, retries

        # Parallel execution, crash-tolerant.  Optimistic pass: fan the
        # whole batch over one pool.  If a worker process dies the pool
        # is broken and attribution is impossible (every outstanding
        # future raises BrokenProcessPool regardless of guilt) — so the
        # survivors move to a careful isolation pass, one fresh
        # single-worker pool per trial, where a crash is unambiguous.
        # Only solo crashes and in-worker exceptions charge a trial's
        # retry budget; being collateral of someone else's crash never
        # quarantines an innocent trial.
        failures: Dict[str, int] = {t.key(): 0 for t in todo}
        last_error: Dict[str, BaseException] = {}
        pending: List[TrialSpec] = list(todo)
        while pending:
            if token is not None:
                token.check(trials_done=done)
            batch = pending
            pending = []
            broke = False
            settled: set = set()
            with ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_set_trace_dir,
                initargs=(self.trace_dir,),
            ) as pool:
                futures = {}
                for trial in batch:
                    try:
                        futures[pool.submit(self.trial_fn, trial)] = trial
                    except BrokenProcessPool:
                        # A worker died mid-submission: the rest of the
                        # batch was never submitted.
                        broke = True
                        break
                submitted = {t.key() for t in futures.values()}
                for future in as_completed(futures):
                    trial = futures[future]
                    try:
                        result = future.result()
                    except BrokenProcessPool:
                        broke = True
                        break  # every outstanding future is doomed too
                    except Exception as exc:  # noqa: BLE001 - in-worker error
                        settled.add(trial.key())
                        failures[trial.key()] += 1
                        last_error[trial.key()] = exc
                        if failures[trial.key()] >= budget:
                            done += 1
                            quarantined.append(
                                self._quarantine(
                                    trial, exc, failures[trial.key()]
                                )
                            )
                        else:
                            retries += 1
                            pending.append(trial)
                        continue
                    settled.add(trial.key())
                    done += 1
                    record(trial, result, done)
            if not broke:
                continue
            # Isolation pass over everything the broken pool left
            # unsettled.  For a trial the pool accepted, the run here is
            # a re-execution and counts as a retry; a trial the pool
            # broke before accepting runs here for the first time.
            unsettled = [t for t in batch if t.key() not in settled]
            logger.warning(
                "worker pool broke; isolating %d unsettled trials",
                len(unsettled),
            )
            for trial in unsettled:
                if token is not None:
                    token.check(trials_done=done)
                if trial.key() in submitted:
                    retries += 1
                try:
                    with ProcessPoolExecutor(
                        max_workers=1,
                        initializer=_set_trace_dir,
                        initargs=(self.trace_dir,),
                    ) as solo:
                        result = solo.submit(self.trial_fn, trial).result()
                except Exception as exc:  # noqa: BLE001 - incl. BrokenProcessPool
                    failures[trial.key()] += 1
                    last_error[trial.key()] = exc
                    if failures[trial.key()] >= budget:
                        done += 1
                        quarantined.append(
                            self._quarantine(trial, exc, failures[trial.key()])
                        )
                    else:
                        retries += 1
                        time.sleep(self._retry_delay(failures[trial.key()]))
                        pending.append(trial)
                    continue
                done += 1
                record(trial, result, done)
        return out, quarantined, retries


def run_campaign(
    campaign: CampaignSpec,
    store: Optional[ResultStore] = None,
    workers: int = 1,
    resume: bool = True,
    progress: Optional[ProgressFn] = None,
    token: Optional[CancellationToken] = None,
) -> CampaignReport:
    """Convenience wrapper: ``CampaignRunner(store, workers).run(...)``."""
    return CampaignRunner(store=store, workers=workers).run(
        campaign, resume=resume, progress=progress, token=token
    )

"""The worker-pool batch runner: specs in, outcomes + telemetry out.

Execution model (the experiment-faabric work-queue shape, adapted):

* jobs already in the cache are reported as hits without spawning
  anything;
* the parent pre-trains (or reloads) every distinct predictor the
  batch needs, so forked workers inherit the trained models instead of
  re-training them per process;
* the remaining jobs run on a :class:`~repro.exec.pool.WorkerPool` of
  at most ``jobs`` warm forked workers, each executing one spec at a
  time hermetically and replying through its pipe;
* a job that raises, or whose worker dies, is recorded and retried up
  to ``retries`` times — a crash degrades to a recorded error, never
  kills the batch;
* a job that exceeds ``timeout_s`` has its worker killed (``SIGTERM``;
  the pool forks a replacement) and is recorded as a timeout (not
  retried: a deterministic job that timed out once will time out
  again).

``jobs=1`` (the default without ``REPRO_JOBS``) executes in-process in
submission order; because every spec is hermetic, the parallel results
are byte-identical to that serial baseline.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs.events import CacheEvent, global_bus
from .cache import ResultCache, activated_cache, active_cache
from .fingerprint import model_fingerprint
from .spec import SimSpec, pool_config_from_dict, spec_key
from .pool import WorkerPool
from .worker import run_spec

__all__ = ["JobOutcome", "BatchReport", "default_jobs", "run_batch"]

ProgressCallback = Callable[[dict], None]


def default_jobs() -> int:
    """Worker count from ``REPRO_JOBS`` (defaults to 1 = serial)."""
    raw = os.environ.get("REPRO_JOBS")
    if raw is None:
        return 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_JOBS must be a positive integer, got {raw!r}"
        ) from None
    if jobs <= 0:
        raise ValueError(
            f"REPRO_JOBS must be a positive integer, got {raw!r}")
    return jobs


@dataclass
class JobOutcome:
    """What happened to one spec in a batch."""

    index: int
    spec: SimSpec
    key: str
    status: str  # "ok" | "cached" | "failed" | "timeout"
    attempts: int = 1
    wall_s: float = 0.0  # cumulative over attempts; 0 for cache hits
    error: Optional[str] = None
    result: Optional[dict] = None

    @property
    def succeeded(self) -> bool:
        return self.status in ("ok", "cached")


@dataclass
class BatchReport:
    """All outcomes plus the aggregate telemetry of one batch run."""

    outcomes: List[JobOutcome]
    jobs: int
    batch_wall_s: float
    fingerprint: str = ""
    retried: int = 0

    def _count(self, status: str) -> int:
        return sum(1 for o in self.outcomes if o.status == status)

    @property
    def executed(self) -> int:
        """Jobs that actually ran a simulation (successfully)."""
        return self._count("ok")

    @property
    def cached(self) -> int:
        return self._count("cached")

    @property
    def failed(self) -> int:
        return self._count("failed") + self._count("timeout")

    @property
    def total_job_wall_s(self) -> float:
        """CPU-side wall-clock spent inside jobs (all attempts)."""
        return sum(o.wall_s for o in self.outcomes)

    @property
    def speedup(self) -> float:
        """Aggregate job time over batch time (1.0 = no overlap)."""
        return self.total_job_wall_s / max(self.batch_wall_s, 1e-9)

    def results(self, strict: bool = True) -> list:
        """Per-spec :class:`SimulationResult`s, in submission order."""
        from ..sim.runner import SimulationResult

        failures = [o for o in self.outcomes if not o.succeeded]
        if failures and strict:
            lines = "; ".join(
                f"job {o.index} ({o.spec.label()}): {o.status}"
                f" — {o.error}" for o in failures)
            raise RuntimeError(
                f"{len(failures)} of {len(self.outcomes)} jobs failed: "
                f"{lines}")
        return [
            SimulationResult.from_dict(o.result) if o.succeeded else None
            for o in self.outcomes
        ]

    def summary(self) -> str:
        return (f"{len(self.outcomes)} jobs on {self.jobs} worker(s): "
                f"{self.executed} executed, {self.cached} cached, "
                f"{self.failed} failed ({self.retried} retries) | "
                f"wall {self.batch_wall_s:.1f}s, "
                f"job time {self.total_job_wall_s:.1f}s, "
                f"speedup {self.speedup:.1f}x")


@dataclass
class _Pending:
    index: int
    spec: SimSpec
    key: str
    attempt: int = 0
    wall_s: float = 0.0  # accumulated over failed attempts


def _result_loadable(artifact: dict) -> bool:
    """True when the cached result payload deserializes today."""
    from ..sim.runner import RESULT_SCHEMAS

    result = artifact.get("result")
    return (isinstance(result, dict)
            and result.get("schema") in RESULT_SCHEMAS)


def run_batch(
    specs: Sequence[SimSpec],
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    use_cache: bool = True,
    timeout_s: Optional[float] = None,
    retries: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> BatchReport:
    """Execute a batch of specs; never raises for individual jobs."""
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    if use_cache and cache is None:
        cache = active_cache()
    if not use_cache:
        cache = None
    fingerprint = model_fingerprint()
    started = time.perf_counter()
    outcomes: List[Optional[JobOutcome]] = [None] * len(specs)
    done = 0

    def emit(kind: str, outcome: JobOutcome) -> None:
        if progress is None:
            return
        progress({
            "kind": kind,
            "index": outcome.index,
            "total": len(specs),
            "done": done,
            "status": outcome.status,
            "label": outcome.spec.label(),
            "wall_s": outcome.wall_s,
            "error": outcome.error,
        })

    pending: List[_Pending] = []
    bus = global_bus()
    for index, spec in enumerate(specs):
        key = spec_key(spec, fingerprint)
        artifact = cache.get(key) if cache is not None else None
        if artifact is not None and not _result_loadable(artifact):
            # Result-schema bump since the artifact was written (the
            # spec payload hashes identically but the stored result
            # can no longer be deserialized): treat as a miss and
            # re-execute instead of crashing in BatchReport.results().
            artifact = None
        if artifact is not None:
            done += 1
            outcomes[index] = JobOutcome(index=index, spec=spec, key=key,
                                         status="cached", attempts=0,
                                         result=artifact["result"])
            if bus.enabled:
                bus.emit(CacheEvent(ts_us=bus.now(), kind="cache_hit",
                                    key=key, label=spec.label()))
            emit("cached", outcomes[index])
        else:
            if bus.enabled:
                bus.emit(CacheEvent(ts_us=bus.now(), kind="cache_miss",
                                    key=key, label=spec.label()))
            pending.append(_Pending(index=index, spec=spec, key=key))

    retried = 0
    if pending:
        # Activate the cache process-wide while warming so predictor
        # training persists/reloads through it (forked workers inherit
        # both the activation and the trained models).
        if cache is not None:
            with activated_cache(cache):
                _warm_predictors(pending)
        else:
            _warm_predictors(pending)

    def record(outcome: JobOutcome) -> None:
        nonlocal done
        done += 1
        outcomes[outcome.index] = outcome
        if (outcome.status == "ok" and cache is not None
                and outcome.result is not None):
            cache.put(outcome.key, {
                "schema": 1,
                "key": outcome.key,
                "fingerprint": fingerprint,
                "spec": outcome.spec.to_dict(),
                "result": outcome.result,
                "meta": {"wall_s": outcome.wall_s,
                         "attempts": outcome.attempts,
                         "created_unix": time.time()},
            })
        emit(outcome.status if outcome.succeeded else "failed", outcome)

    if jobs <= 1:
        retried = _run_serial(pending, retries, record)
    elif pending:
        retried = _run_pool(pending, jobs, timeout_s, retries, record)

    return BatchReport(
        outcomes=[o for o in outcomes if o is not None],
        jobs=jobs,
        batch_wall_s=time.perf_counter() - started,
        fingerprint=fingerprint,
        retried=retried,
    )


# -- predictor pre-warming ---------------------------------------------------------


def _warm_predictors(pending: Sequence[_Pending]) -> None:
    """Train/reload each distinct predictor once, in the parent.

    Forked workers then inherit the trained models through the
    process-local predictor cache instead of re-training one copy per
    worker; with an on-disk cache active the models also persist
    across batches.
    """
    from ..experiments.common import get_predictor
    from .spec import canonical_json

    seen = set()
    for item in pending:
        spec = item.spec
        if spec.policy != "concordia" or spec.training_slots is None:
            continue
        if "predictor" in spec.policy_kwargs:
            continue
        key = canonical_json({"config": spec.config,
                              "seed": spec.training_seed,
                              "slots": spec.training_slots})
        if key in seen:
            continue
        seen.add(key)
        try:
            get_predictor(pool_config_from_dict(spec.config),
                          seed=spec.training_seed,
                          num_slots=spec.training_slots)
        except Exception:  # noqa: BLE001 - the job itself will report it
            pass


# -- serial execution --------------------------------------------------------------


def _run_serial(pending: Sequence[_Pending], retries: int,
                record: Callable[[JobOutcome], None]) -> int:
    """In-process execution in submission order (no timeout support)."""
    from .spec import execute_spec

    retried = 0
    for item in pending:
        error = None
        while True:
            start = time.perf_counter()
            try:
                result = execute_spec(item.spec, attempt=item.attempt)
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                item.wall_s += time.perf_counter() - start
                error = f"{type(exc).__name__}: {exc}"
                if item.attempt < retries:
                    item.attempt += 1
                    retried += 1
                    continue
                record(JobOutcome(index=item.index, spec=item.spec,
                                  key=item.key, status="failed",
                                  attempts=item.attempt + 1,
                                  wall_s=item.wall_s, error=error))
                break
            item.wall_s += time.perf_counter() - start
            record(JobOutcome(index=item.index, spec=item.spec,
                              key=item.key, status="ok",
                              attempts=item.attempt + 1,
                              wall_s=item.wall_s, result=result))
            break
    return retried


# -- parallel execution ------------------------------------------------------------


def _run_pool(pending: Sequence[_Pending], jobs: int,
              timeout_s: Optional[float], retries: int,
              record: Callable[[JobOutcome], None]) -> int:
    """Dispatch jobs onto a warm pool until every one is recorded.

    The parent blocks in the pool's wait — zero CPU while simulations
    run, immediate wakeup on the first reply — and per-job timeouts
    bound that wait so overdue jobs are killed on schedule (the pool
    forks a replacement for the killed worker).
    """
    queue: List[_Pending] = list(pending)
    in_flight: Dict[int, Tuple[_Pending, float]] = {}  # worker -> job
    retried = 0

    def finish(item: _Pending, started: float, status: str,
               result: Optional[dict] = None,
               error: Optional[str] = None) -> None:
        """Record the job, or requeue it while retries remain."""
        nonlocal retried
        item.wall_s += time.perf_counter() - started
        if status in ("error", "died") and item.attempt < retries:
            item.attempt += 1
            retried += 1
            queue.append(item)
            return
        final = status if status in ("ok", "timeout") else "failed"
        record(JobOutcome(index=item.index, spec=item.spec, key=item.key,
                          status=final, attempts=item.attempt + 1,
                          wall_s=item.wall_s, result=result, error=error))

    with WorkerPool(min(jobs, len(queue)), run_spec) as pool:
        while queue or in_flight:
            for worker_id in pool.idle_workers()[:len(queue)]:
                item = queue.pop(0)
                pool.submit(worker_id, {"spec": item.spec.to_dict(),
                                        "attempt": item.attempt})
                in_flight[worker_id] = (item, time.perf_counter())
            wait_timeout = None
            if timeout_s is not None:
                now = time.perf_counter()
                for worker_id, (item, started) in list(in_flight.items()):
                    if now - started > timeout_s:
                        pool.kill(worker_id)
                        del in_flight[worker_id]
                        finish(item, started, "timeout",
                               error=f"job exceeded timeout ({timeout_s:g}s) "
                                     f"and was killed")
                if not in_flight:
                    continue
                wait_timeout = max(0.0, min(
                    timeout_s - (now - started)
                    for _item, started in in_flight.values()))
            for done in pool.wait(wait_timeout):
                item, started = in_flight.pop(done.worker_id)
                if done.status == "ok":
                    finish(item, started, "ok", result=done.payload)
                else:
                    finish(item, started, done.status,
                           error=done.payload["error"])
    return retried

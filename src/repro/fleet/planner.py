"""The fleet planner: shard assignment, in-flight tracking, aggregation.

The planner owns a fleet run end to end (the makespan-scheduler shape:
a work queue of shards, a warm worker pool, in-flight and idle-slot
accounting):

1. derive the per-server shards from the :class:`FleetScenario`;
2. ``jobs <= 1``: execute every shard in-process, in shard order (the
   serial baseline); otherwise dispatch shards to a warm
   :class:`~repro.exec.pool.WorkerPool` running
   :func:`~repro.fleet.worker.execute_shard`, keeping every worker
   busy while work remains and integrating idle worker-time when it
   runs dry;
3. merge the per-shard payloads into a
   :class:`~repro.fleet.report.FleetReport` — fleet tail latency from
   merged histograms, reclaimed-CPU totals, per-server utilization,
   the federated demand rollup and the sharding-invariant per-cell
   digests.

Because :func:`~repro.fleet.worker.execute_shard` is hermetic and the
report normalizes merge order, a fleet run is byte-identical (modulo
wall-clock telemetry) for any ``jobs``; and because per-cell sampling
is keyed by global cell id, the per-cell digests are further invariant
to the *shard count* itself.
"""

from __future__ import annotations

import logging
import time
from typing import Callable, List, Optional

from ..exec.pool import WorkerPool
from ..scenario import build_simulation
from .demand import ShardDemandRecorder
from .report import FleetReport, build_fleet_report
from .scenario import FleetScenario, ShardSpec
from .worker import execute_shard, shard_payload

__all__ = ["Planner"]

logger = logging.getLogger(__name__)

ProgressCallback = Callable[[dict], None]

#: A shard is flagged as a straggler (and the pool wait times out) once
#: it runs past this multiple of the median completed-shard wall time.
STRAGGLER_FACTOR = 10.0

#: Floor for the straggler threshold, so short shards on a noisy
#: machine don't trip spurious warnings.
STRAGGLER_MIN_S = 30.0


class Planner:
    """Runs one :class:`FleetScenario` and aggregates the fleet report."""

    def __init__(self, fleet: FleetScenario, jobs: int = 1,
                 progress: Optional[ProgressCallback] = None) -> None:
        self.fleet = fleet
        self.jobs = max(1, int(jobs))
        self.progress = progress

    # -- driving -----------------------------------------------------------------

    def run(self) -> FleetReport:
        shards = self.fleet.derive_shards()
        migrations = self.fleet.migrations()
        started = time.perf_counter()
        reconfig: List[dict] = []
        if migrations:
            # Mid-run migration needs every simulation paused at the
            # same slot boundary, which only the in-process lockstep
            # path can do; hermetic per-shard workers cannot exchange
            # cells mid-run.
            if self.jobs > 1:
                logger.info(
                    "reconfig timeline has %d migration(s); running "
                    "the fleet in-process (lockstep), ignoring jobs=%d",
                    len(migrations), self.jobs)
            payloads, failures, stats, reconfig = self._run_lockstep(
                shards, migrations)
        elif self.jobs <= 1:
            payloads, failures, stats = self._run_serial(shards)
        else:
            payloads, failures, stats = self._run_pool(shards)
        return build_fleet_report(
            self.fleet, payloads, failures,
            jobs=self.jobs,
            wall_s=time.perf_counter() - started,
            reconfig=reconfig,
            **stats,
        )

    def _emit(self, kind: str, shard_index: int, total: int, done: int,
              **extra) -> None:
        if self.progress is None:
            return
        event = {"kind": kind, "shard": shard_index, "total": total,
                 "done": done}
        event.update(extra)
        self.progress(event)

    def _run_serial(self, shards: List[ShardSpec]):
        """In-process execution in shard order (the jobs=1 baseline)."""
        payloads, failures = [], []
        for done, shard in enumerate(shards):
            self._emit("dispatch", shard.shard_index, len(shards), done)
            try:
                payload = execute_shard(shard.to_dict())
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                failures.append({"shard_index": shard.shard_index,
                                 "error": f"{type(exc).__name__}: {exc}"})
                self._emit("failed", shard.shard_index, len(shards),
                           done + 1, error=str(exc))
                continue
            payloads.append(payload)
            self._emit("done", shard.shard_index, len(shards), done + 1,
                       wall_s=payload["wall_s"])
        return payloads, failures, {"workers": 0, "idle_worker_s": 0.0,
                                    "max_in_flight": 1,
                                    "dispatches": len(shards)}

    def _run_lockstep(self, shards: List[ShardSpec], migrations):
        """In-process lockstep execution with mid-run cell migration.

        Every shard simulation advances to each migration's slot
        barrier; there the planner detaches the cell from the source
        (portable snapshot: exact traffic/allocation/HARQ generator
        states) and attaches it to the destination with the
        migration-cost model (state-transfer hold, predictor warm-up).
        The demand recorder's live hash travels with the cell, so the
        migrated cell's sampling digest is byte-identical to an
        unmigrated run's.  Per-server utilization and deadline-miss
        counters are read at the barrier and again at the end, giving
        each migration a before/after row in the fleet report.
        """
        fleet = self.fleet
        started = time.perf_counter()
        sims, recorders, metas = [], [], []
        for shard in shards:
            config = shard.scenario.pool_config()
            simulation = build_simulation(shard.scenario)
            recorder = ShardDemandRecorder(config.cells,
                                           config.deadline_us)
            simulation.demand_observer = recorder
            sims.append(simulation)
            recorders.append(recorder)
            metas.append({"shard_index": shard.shard_index,
                          "cell_id_base": shard.cell_id_base,
                          "cell_names": list(shard.cell_names),
                          "num_slots": shard.num_slots})
        for simulation in sims:
            simulation.start(fleet.num_slots)
        # Register every pause slot before any window fills, so no
        # generator pre-draws across a membership change.
        for event in migrations:
            sims[event.src_shard].add_window_barrier(event.at_slot)
            sims[event.dst_shard].add_window_barrier(event.at_slot)
        reconfig_rows = []
        for event in migrations:
            for simulation in sims:
                simulation.run_to_barrier(event.at_slot)
            name = fleet.resolve_cell(event.cell)
            src = sims[event.src_shard]
            dst = sims[event.dst_shard]
            row = {
                "event": event.to_dict(),
                "cell": name,
                "util_before": {
                    "src": src.metrics.vran_utilization,
                    "dst": dst.metrics.vran_utilization,
                },
                "miss_at_barrier": {
                    "src": src.metrics.slot_deadlines_missed,
                    "dst": dst.metrics.slot_deadlines_missed,
                },
            }
            snapshot = src.detach_cell(name)
            dst.attach_cell(
                snapshot,
                transfer_slots=event.transfer_slots,
                warmup_slots=event.warmup_slots,
                warmup_factor=event.warmup_factor,
            )
            recorders[event.dst_shard].attach_cell(
                name, recorders[event.src_shard].detach_cell(name))
            reconfig_rows.append(row)
            self._emit("migrate", event.src_shard, len(shards), 0,
                       cell=name, dst_shard=event.dst_shard,
                       at_slot=event.at_slot)
        for simulation in sims:
            simulation.run_to_end()
        wall_each = (time.perf_counter() - started) / max(1, len(sims))
        payloads = []
        for simulation, recorder, meta in zip(sims, recorders, metas):
            result = simulation.finish()
            payloads.append(shard_payload(
                simulation, result, recorder, meta, wall_each))
            self._emit("done", meta["shard_index"], len(shards),
                       len(payloads), wall_s=wall_each)
        for row, event in zip(reconfig_rows, migrations):
            src_p = payloads[event.src_shard]
            dst_p = payloads[event.dst_shard]
            row["util_after"] = {
                "src": src_p["vran_utilization"],
                "dst": dst_p["vran_utilization"],
            }
            # Misses accumulated after the barrier: the migration's
            # bounded transient shows up here (held DAGs released late
            # with their original deadlines).
            row["miss_after_barrier"] = {
                "src": src_p["miss_count"]
                - row["miss_at_barrier"]["src"],
                "dst": dst_p["miss_count"]
                - row["miss_at_barrier"]["dst"],
            }
        stats = {"workers": 0, "idle_worker_s": 0.0,
                 "max_in_flight": 1, "dispatches": len(shards)}
        return payloads, [], stats, reconfig_rows

    def _run_pool(self, shards: List[ShardSpec]):
        """Dispatch shards onto a warm worker pool until all report.

        A worker that dies mid-job no longer forfeits its shard: the
        pool forks a replacement and the shard is requeued once (retry
        budget 1); only a second loss records a failure.  Completed
        shard wall times feed a straggler threshold
        (``STRAGGLER_FACTOR`` x their median) that bounds every pool
        wait and logs any shard running past it.
        """
        workers = min(self.jobs, len(shards))
        queue: List[ShardSpec] = list(shards)
        in_flight = {}  # worker_id -> (ShardSpec, dispatch time)
        payloads, failures = [], []
        idle_worker_s = 0.0
        max_in_flight = 0
        done = 0
        dispatches = 0
        retried: set = set()  # shard_index values already requeued
        slow_warned: set = set()
        walls: List[float] = []  # completed shard wall times
        with WorkerPool(workers, execute_shard) as pool:
            while queue or in_flight:
                for worker_id in pool.idle_workers()[:len(queue)]:
                    shard = queue.pop(0)
                    pool.submit(worker_id, shard.to_dict())
                    in_flight[worker_id] = (shard, time.perf_counter())
                    dispatches += 1
                    max_in_flight = max(max_in_flight, len(in_flight))
                    self._emit("dispatch", shard.shard_index,
                               len(shards), done, worker=worker_id)
                # Every runnable shard is in flight; idle pool slots
                # (workers with no queued work left) accumulate here.
                timeout = None
                if walls:
                    median = sorted(walls)[len(walls) // 2]
                    timeout = max(STRAGGLER_FACTOR * median,
                                  STRAGGLER_MIN_S)
                idle = pool.alive - len(in_flight)
                wait_started = time.perf_counter()
                messages = pool.wait(timeout=timeout)
                now = time.perf_counter()
                idle_worker_s += idle * (now - wait_started)
                if timeout is not None:
                    for worker_id, (shard, started) in in_flight.items():
                        elapsed = now - started
                        if (elapsed > timeout
                                and shard.shard_index not in slow_warned):
                            slow_warned.add(shard.shard_index)
                            logger.warning(
                                "shard %d on worker %d is a straggler: "
                                "%.1fs elapsed, %.1fx the median shard "
                                "wall time", shard.shard_index,
                                worker_id, elapsed,
                                elapsed / max(median, 1e-9))
                            self._emit("straggler", shard.shard_index,
                                       len(shards), done,
                                       worker=worker_id,
                                       elapsed_s=elapsed)
                for message in messages:
                    shard, _started = in_flight.pop(message.worker_id)
                    if message.status == "ok":
                        done += 1
                        message.payload["worker"] = message.identity
                        payloads.append(message.payload)
                        walls.append(message.payload["wall_s"])
                        self._emit("done", shard.shard_index,
                                   len(shards), done,
                                   worker=message.worker_id,
                                   wall_s=message.payload["wall_s"])
                    elif (message.status == "died"
                          and shard.shard_index not in retried):
                        retried.add(shard.shard_index)
                        queue.append(shard)
                        logger.warning(
                            "worker %d died running shard %d (%s); "
                            "requeueing the shard (retry 1 of 1)",
                            message.worker_id, shard.shard_index,
                            message.payload.get("error", "no detail"))
                        self._emit("retry", shard.shard_index,
                                   len(shards), done,
                                   worker=message.worker_id,
                                   error=message.payload.get("error"))
                    else:
                        done += 1
                        failures.append({
                            "shard_index": shard.shard_index,
                            "error": message.payload.get(
                                "error", "unknown worker error"),
                        })
                        self._emit("failed", shard.shard_index,
                                   len(shards), done,
                                   worker=message.worker_id,
                                   error=message.payload.get("error"))
        return payloads, failures, {"workers": workers,
                                    "idle_worker_s": idle_worker_s,
                                    "max_in_flight": max_in_flight,
                                    "dispatches": dispatches}

"""The benchmark's three workloads, each taken from one paper experiment.

Every workload does a fixed amount of work per round.  A round has a
set-up phase (imports aside: scenario and job assembly) and a timed
phase.  ``setup(seed)`` returns the state the timed phase needs, to
which the round adds ``cores``, the cores it may spread workers over;
``run(state, jobs, capture)`` performs the timed phase and returns an
:class:`Outcome`.  ``jobs`` is 2 for the measured pass and 1 for the
traced pass, which runs batch jobs and fleet shards in-process so that
one tracer sees every span (and for its untraced ``serial`` twin).  ``capture`` is the active
:class:`spans.SimCapture`, or None when nothing is captured.

Sizes are fixed here, never scaled by ``REPRO_SCALE``; the benchmark
clears that variable anyway.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
import contextlib
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

__all__ = ["WORKLOADS", "Outcome", "JOBS"]

#: Worker processes for the measured pass (the benchmark is sized for a
#: 2-core host).
JOBS = 2

# fig11_collocated: the Fig. 11 20 MHz deployment with Redis.
FIG11_SLOTS = 800
FIG11_LOAD = 0.5

# fig08a_sweep: the Fig. 8a grid on the 20 MHz pool.
FIG08A_LOADS = (0.05, 0.25, 0.5, 0.75, 1.0)
FIG08A_SLOTS = 160
#: Profiling slots for the cold predictor fit.  Fixed, so the fit does
#: the same work whatever ``REPRO_SCALE`` says.
FIG08A_TRAINING_SLOTS = 30
#: Profiling slots for the held-out WCET check (outside the timed phase).
FIG08A_HOLDOUT_SLOTS = 40

# metro_fleet_lowload: 28 cells in 4 shards of 7, at the Fig. 8a low point.
FLEET_CELLS = 28
FLEET_SHARDS = 4
FLEET_SLOTS = 800
FLEET_LOAD = 0.05

#: Slot DAGs per FDD cell and slot: one uplink and one downlink.
DIRECTIONS = 2


@dataclass
class Outcome:
    """What one timed phase measured and checked."""

    #: name -> (start, end, on all cores) per part of the timed phase,
    #: in ``time.perf_counter`` time.  A part runs on one core unless
    #: its worker processes spread over all cores.
    phases: dict
    #: The phase that simulated the ``cell_slots``.
    slots_phase: str
    cell_slots: int
    sim: dict
    digests: dict
    #: (operation, succeeded) for every job, shard, run and output check.
    checks: list
    #: Per-layer figures that the program's own reports provide.
    layers: dict = field(default_factory=dict)
    #: Counters of the simulations of the timed phase, in run order.
    sims: list = field(default_factory=list)


@contextlib.contextmanager
def spread_over(cores, jobs: int):
    """Let the worker processes started inside use all ``cores``.

    Rounds run pinned to one core (see ``child.py``); a part of the
    timed phase with ``jobs`` > 1 worker processes widens the affinity,
    which forked workers inherit, and narrows it again afterwards.
    """
    pinned = os.sched_getaffinity(0)
    if jobs > 1:
        os.sched_setaffinity(0, cores)
    try:
        yield jobs > 1
    finally:
        os.sched_setaffinity(0, pinned)


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in values)


def _latency_checks(prefix: str, count: int, expected: int,
                    *values) -> list:
    return [(f"{prefix}: {count} slot samples, expected {expected}",
             count == expected),
            (f"{prefix}: latency figures are finite", _finite(*values))]


# -- fig11_collocated ---------------------------------------------------------------


def fig11_setup(seed: int) -> dict:
    from repro.scenario import Scenario, build_simulation

    scenario = Scenario(pool={"name": "20mhz"}, policy="concordia-noml",
                        workload="redis", load_fraction=FIG11_LOAD,
                        seed=seed)
    return {"simulation": build_simulation(scenario)}


def fig11_run(state: dict, jobs: int, capture) -> Outcome:
    from repro.exec.digest import result_digest

    simulation = state["simulation"]
    first = len(capture.records) if capture else 0
    started = time.perf_counter()
    result = simulation.run(FIG11_SLOTS)
    finished = time.perf_counter()
    latency = result.latency
    cells = len(simulation.pool_config.cells)
    expected = cells * FIG11_SLOTS * DIRECTIONS
    return Outcome(
        phases={"simulate": (started, finished, False)},
        slots_phase="simulate",
        cell_slots=latency.count,
        sim={
            "slot_latency_p50_us": latency.p50_us,
            "slot_latency_p99_us": latency.p99_us,
            "deadline_miss_fraction": latency.miss_fraction,
            "reclaimed_core_fraction": result.reclaimed_fraction,
            "slot_samples": latency.count,
        },
        digests={"result": result_digest(result)},
        checks=[("simulation run", True)] + _latency_checks(
            "fig11", latency.count, expected, latency.p50_us,
            latency.p99_us, latency.mean_us),
        sims=capture.records[first:] if capture else [],
    )


# -- fig08a_sweep -------------------------------------------------------------------


def fig08a_setup(seed: int) -> dict:
    from repro.exec.spec import SimSpec, pool_config_to_dict
    from repro.ran.config import pool_20mhz_7cells

    config = pool_20mhz_7cells()
    training_seed = seed + 1
    specs = [SimSpec(config=pool_config_to_dict(config), policy="concordia",
                     workload="mix", load_fraction=load,
                     num_slots=FIG08A_SLOTS, seed=seed,
                     training_slots=FIG08A_TRAINING_SLOTS,
                     training_seed=training_seed)
             for load in FIG08A_LOADS]
    return {"config": config, "specs": specs,
            "training_seed": training_seed,
            # A seed the fit never saw, for the held-out WCET check.
            "holdout_seed": seed + 2}


def fig08a_run(state: dict, jobs: int, capture) -> Outcome:
    from repro.exec.batch import run_batch
    from repro.exec.digest import result_digest
    from repro.experiments.common import get_predictor

    from spans import pop_captured

    first = len(capture.records) if capture else 0
    started = time.perf_counter()
    predictor = get_predictor(state["config"], seed=state["training_seed"],
                              num_slots=FIG08A_TRAINING_SLOTS)
    trained = time.perf_counter()
    with spread_over(state["cores"], jobs) as spread:
        report = run_batch(state["specs"], jobs=jobs, use_cache=False)
    finished = time.perf_counter()

    checks = [("predictor training", bool(predictor.models))]
    expected = len(state["config"].cells) * FIG08A_SLOTS * DIRECTIONS
    # The profiling run of the fit, then each job's simulation.
    sims = capture.records[first:first + 1] if capture else []
    results = []
    for outcome in report.outcomes:
        label = f"fig08a job load={outcome.spec.load_fraction}"
        checks.append((f"{label} status {outcome.status}",
                       outcome.status == "ok"))
        if outcome.result is None:
            continue
        sims.extend(pop_captured(outcome.result))
        results.append(outcome.result)
        lat = outcome.result["latency"]
        checks += _latency_checks(label, lat["count"], expected,
                                  lat["p50_us"], lat["p99_us"],
                                  lat["mean_us"])
    total = sum(r["latency"]["count"] for r in results)
    misses = sum(r["latency"]["miss_fraction"] * r["latency"]["count"]
                 for r in results)
    # Batch results carry latency summaries, not samples, so the
    # percentiles are the heaviest grid point's (load 1.0).
    heaviest = {}
    for outcome in report.outcomes:
        if (outcome.spec.load_fraction == max(FIG08A_LOADS)
                and outcome.result is not None):
            heaviest = outcome.result["latency"]
    walls = [o.wall_s for o in report.outcomes]
    return Outcome(
        phases={"train": (started, trained, False),
                "batch": (trained, finished, spread)},
        slots_phase="batch",
        cell_slots=total,
        sim={
            "slot_latency_p50_us": heaviest.get("p50_us", math.nan),
            "slot_latency_p99_us": heaviest.get("p99_us", math.nan),
            "deadline_miss_fraction": misses / max(1, total),
            "reclaimed_core_fraction": statistics.fmean(
                r["reclaimed_fraction"] for r in results)
            if results else math.nan,
            "slot_samples": heaviest.get("count", 0),
            "slot_samples_all_loads": total,
        },
        digests={"jobs": _sha([result_digest(r) for r in results])},
        checks=checks,
        layers={
            "exec.batch.wall_s": report.batch_wall_s,
            "exec.batch.job_wall_sum_s": report.total_job_wall_s,
            "exec.batch.parallel_speedup": report.speedup,
            "exec.batch.retries": report.retried,
            "exec.batch.job_walls_s": walls,
        },
        sims=sims,
    )


def fig08a_holdout(state: dict) -> dict:
    """Held-out WCET check of the predictor the timed phase trained.

    Profiles a fresh dataset under a seed training did not use and
    counts the tasks whose runtime exceeds the per-type model's WCET.
    Runs after the timed phase; the predictor comes from the process
    cache the timed phase filled.
    """
    from repro.core.training import collect_offline_dataset
    from repro.experiments.common import get_predictor

    predictor = get_predictor(state["config"], seed=state["training_seed"],
                              num_slots=FIG08A_TRAINING_SLOTS)
    dataset = collect_offline_dataset(state["config"],
                                      num_slots=FIG08A_HOLDOUT_SLOTS,
                                      seed=state["holdout_seed"])
    tasks = exceeded = 0
    for task_type in dataset.task_types():
        model = predictor.models.get(task_type)
        if model is None:
            continue
        X, y = dataset.arrays(task_type)
        selected = predictor.selected_features[task_type]
        for row, runtime in zip(X[:, selected], y):
            tasks += 1
            if runtime > model.predict(row):
                exceeded += 1
    return {"wcet_exceed_fraction": exceeded / max(1, tasks),
            "holdout_tasks": tasks}


# -- metro_fleet_lowload ------------------------------------------------------------


def fleet_setup(seed: int) -> dict:
    from repro.fleet import FleetScenario

    fleet = FleetScenario(cells=FLEET_CELLS, shards=FLEET_SHARDS,
                          cell_kind="20mhz", policy="concordia-noml",
                          workload="none", load_fraction=FLEET_LOAD,
                          seed=seed, num_slots=FLEET_SLOTS)
    fleet.derive_shards()  # validates the sharding before timing
    return {"fleet": fleet}


def fleet_run(state: dict, jobs: int, capture) -> Outcome:
    from repro.fleet import Planner

    started = time.perf_counter()
    with spread_over(state["cores"], jobs) as spread:
        report = Planner(state["fleet"], jobs=jobs).run()
    finished = time.perf_counter()
    expected = FLEET_CELLS * FLEET_SLOTS * DIRECTIONS
    checks = [(f"fleet shard {row['shard_index']}", True)
              for row in report.servers]
    checks += [(f"fleet shard {row['shard_index']} failed: {row['error']}",
                False) for row in report.failures]
    checks.append((f"fleet: {len(report.servers)} shards reported, "
                   f"expected {FLEET_SHARDS}",
                   len(report.servers) == FLEET_SHARDS))
    lat = report.latency_us
    checks += _latency_checks("fleet", report.slot_count, expected,
                              lat["p50"], lat["p99"], lat["mean"])
    walls = sorted(row["wall_s"] for row in report.servers)
    # Everything but host timings and worker placement.
    payload = report.to_dict()
    payload.pop("planner")
    payload["servers"] = [
        {k: v for k, v in row.items() if k not in ("wall_s", "worker")}
        for row in payload["servers"]]
    return Outcome(
        phases={"fleet": (started, finished, spread)},
        slots_phase="fleet",
        cell_slots=report.slot_count,
        sim={
            "slot_latency_p50_us": lat["p50"],
            "slot_latency_p99_us": lat["p99"],
            "deadline_miss_fraction": report.miss_fraction,
            "reclaimed_core_fraction": report.reclaimed_fraction,
            "slot_samples": report.slot_count,
        },
        digests={"fleet": report.fleet_digest, "report": _sha(payload)},
        checks=checks,
        layers={
            "fleet.planner.wall_s": report.wall_s,
            "fleet.planner.parallel_speedup": report.speedup,
            "fleet.planner.idle_worker_fraction": report.idle_fraction,
            "fleet.planner.straggler_ratio":
                walls[-1] / statistics.median(walls) if walls else 0.0,
        },
        sims=list(capture.shard_records) if capture else [],
    )


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], dict]
    run: Callable[[dict, int, object], Outcome]
    #: Whether the timed phase runs worker processes when ``jobs`` > 1.
    parallel: bool
    #: Extra checks outside the timed phase (returns host/sim figures).
    after: Optional[Callable[[dict], dict]] = None


WORKLOADS = {
    "fig11_collocated": Workload(fig11_setup, fig11_run, parallel=False),
    "fig08a_sweep": Workload(fig08a_setup, fig08a_run, parallel=True,
                             after=fig08a_holdout),
    "metro_fleet_lowload": Workload(fleet_setup, fleet_run, parallel=True),
}

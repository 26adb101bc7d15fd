"""One benchmark round in a fresh process.

``run.py`` starts this script once per round so that peak RSS and
module-level caches (the trained-predictor cache among them) never
carry over from one round to the next.  The round prints one JSON
object as the last line of its standard output.

The round runs pinned to one core; worker processes of a parallel part
spread over two.  Host times are measured while
:class:`speed.SpeedSampler` processes time fixed work on those cores:
right after the set-up, alone (``setup_speed``), and during the timed
phase, where each part (``phases``) gets the speed of the cores it
used.

Modes:

``setup``
    Imports and workload set-up only; reports ``setup_s``.
``measure``
    Set-up, then the timed phase with ``JOBS`` workers and nothing
    wrapped; then the workload's checks outside the timed phase.
``untraced``
    The timed phase of ``measure`` with :class:`spans.SimCapture`, so
    the execution-path counters of every simulation (``kernel_stats``,
    engine events) come back, also from worker processes.
``serial``
    The timed phase of ``measure`` with batch jobs and fleet shards
    in-process, the way the traced pass runs them: the base of the
    tracing overhead.
``traced``
    Every layer call of :func:`layer_calls` wrapped by a
    :class:`spans.Tracer`; batch jobs and fleet shards run in-process.

Usage: ``child.py WORKLOAD SEED MODE SPAWNED`` where ``SPAWNED`` is the
parent's ``time.monotonic()`` just before it started this process.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

from spans import REMAINDER, SimCapture, Tracer
from speed import SpeedSampler
from workloads import JOBS, WORKLOADS

#: Directory (relative to the checkout root) the traced pass writes its
#: spans to, one archive per workload, overwritten by each traced round.
TRACE_DIR = ".perfbench_traces"

#: Seconds the speed samplers run alone right after the set-up, to
#: give the set-up time its host speed.
SETUP_SAMPLE_S = 0.5

#: Spans of the DAG work that the window fill performs (see
#: :func:`layer_metrics`).
_FILL_CHILDREN = {"ran.traffic.draw", "ran.dag.build"}


def _dag_counts(dags) -> dict:
    return {"dags": len(dags), "tasks": sum(len(d.tasks) for d in dags)}


def layer_calls():
    """(owner, attribute, span name, counter) for each wrapped call."""
    import repro.core.features
    import repro.core.predictor
    import repro.core.training
    import repro.exec.spec
    import repro.fleet.planner
    from repro.core.predictor import ConcordiaPredictor
    from repro.core.quantile_tree import QuantileDecisionTree
    from repro.core.scheduler import ConcordiaScheduler
    from repro.ran.dag import DagBuilder
    from repro.ran.tasks import CostModel
    from repro.ran.traffic import MarkovBurstTraffic
    from repro.sim.cache import CacheInterferenceModel
    from repro.sim.engine import Engine
    from repro.sim.metrics import Metrics
    from repro.sim.pool import VranPool
    from repro.sim.runner import Simulation

    return [
        (MarkovBurstTraffic, "next_slot", "ran.traffic.draw", None),
        (MarkovBurstTraffic, "next_slots", "ran.traffic.draw", None),
        (DagBuilder, "build", "ran.dag.build", None),
        (DagBuilder, "build_many", "ran.dag.build", _dag_counts),
        (CostModel, "sample_runtimes", "ran.tasks.sample", None),
        (ConcordiaScheduler, "on_slot_start", "core.scheduler.slot_start",
         None),
        (ConcordiaScheduler, "on_tick", "core.scheduler.tick", None),
        (ConcordiaScheduler, "on_task_enqueued", "core.scheduler.task_hook",
         None),
        (ConcordiaScheduler, "on_task_started", "core.scheduler.task_hook",
         None),
        (ConcordiaScheduler, "on_task_finished", "core.scheduler.task_hook",
         None),
        (ConcordiaPredictor, "predict_task", "core.predictor.predict", None),
        (ConcordiaPredictor, "fit_offline", "core.predictor.fit", None),
        (repro.core.training, "collect_offline_dataset",
         "core.training.collect", None),
        (repro.core.predictor, "select_features", "core.features.select",
         None),
        (repro.core.features, "distance_correlation", "core.features.dcor",
         None),
        (QuantileDecisionTree, "fit", "core.quantile_tree.fit", None),
        (Simulation, "run", "sim.runner.run", None),
        (Engine, "run_until", "sim.engine.run_until", None),
        (VranPool, "release_slot", "sim.pool.release", None),
        (VranPool, "request_cores", "sim.pool.request_cores", None),
        (CacheInterferenceModel, "multipliers_for", "sim.cache.interference",
         None),
        (Metrics, "latency_summary", "sim.metrics.summary", None),
        (repro.exec.spec, "execute_spec", "exec.spec.execute", None),
        (repro.fleet.planner, "execute_shard", "fleet.worker.execute_shard",
         None),
        (repro.fleet.planner, "build_fleet_report", "fleet.report.rollup",
         None),
    ]


def layer_metrics(tracer: Tracer, sims: list) -> tuple:
    """Fold a traced pass into per-layer metrics and a wall accounting.

    Returns ``(metrics, accounting)``.  ``accounting`` maps each span
    name to its self time; together with :data:`spans.REMAINDER` (the
    remainder) they add up to the traced wall time.  The window fill
    runs inside ``Engine.run_until`` but is not a call the benchmark
    wraps; its own time is carved out of the engine loop as
    ``sim.runner.fill`` from ``Simulation.fill_wall_s``.  With the
    default engine every traffic draw and DAG build of a windowed
    simulation happens inside the fill, so the fill's self time is
    ``fill_wall_s`` minus those spans under ``run_until``.
    """
    own = tracer.self_times()
    calls = tracer.calls()
    run_spans = [index for index, record in enumerate(tracer.spans)
                 if tracer.names[record[0]] == "sim.runner.run"]
    fill_self = 0.0
    for index, counters in zip(run_spans, sims):
        if counters["kernel_stats"]["window_slots"] == 0:
            continue
        inner = tracer.child_time_within(index, "sim.engine.run_until",
                                         _FILL_CHILDREN)
        fill_self += max(0.0, counters["fill_wall_s"] - inner)
    accounting = dict(own)
    loop_self = own.get("sim.engine.run_until", 0.0) - fill_self
    accounting["sim.engine.run_until"] = loop_self
    accounting["sim.runner.fill"] = fill_self

    slots = sum(s["kernel_stats"]["slots"] for s in sims)
    events = sum(s["events"] for s in sims)
    metrics = {
        "ran.traffic.draw_s": own.get("ran.traffic.draw", 0.0),
        "ran.traffic.calls": calls["ran.traffic.draw"],
        "ran.dag.build_s": own.get("ran.dag.build", 0.0),
        "ran.dag.dags": tracer.counts["dags"],
        "ran.dag.tasks": tracer.counts["tasks"],
        "ran.tasks.sample_s": own.get("ran.tasks.sample", 0.0),
        "core.scheduler.slot_start_s":
            own.get("core.scheduler.slot_start", 0.0),
        "core.scheduler.tick_s": own.get("core.scheduler.tick", 0.0),
        "core.scheduler.ticks": calls["core.scheduler.tick"],
        "core.scheduler.task_hook_s":
            own.get("core.scheduler.task_hook", 0.0),
        "core.scheduler.task_hooks": calls["core.scheduler.task_hook"],
        "core.predictor.predict_s": own.get("core.predictor.predict", 0.0),
        "core.predictor.predictions": calls["core.predictor.predict"],
        "core.training.collect_s": own.get("core.training.collect", 0.0),
        "core.predictor.fit_s": own.get("core.predictor.fit", 0.0),
        "core.features.dcor_s": own.get("core.features.dcor", 0.0),
        "core.features.dcor_calls": calls["core.features.dcor"],
        "core.features.select_s": own.get("core.features.select", 0.0),
        "core.quantile_tree.fit_s": own.get("core.quantile_tree.fit", 0.0),
        "sim.engine.loop_self_s": loop_self,
        "sim.engine.events": events,
        "sim.engine.us_per_event": loop_self / events * 1e6 if events
        else 0.0,
        "sim.runner.fill_s": sum(s["fill_wall_s"] for s in sims),
        "sim.runner.idle_slot_share":
            sum(s["kernel_stats"]["idle_slots"] for s in sims)
            / max(1, slots),
        "sim.runner.certified_slot_share":
            sum(s["kernel_stats"]["array_slots"] for s in sims)
            / max(1, slots),
        "sim.pool.release_s": own.get("sim.pool.release", 0.0),
        "sim.pool.core_requests": calls["sim.pool.request_cores"],
        "sim.pool.ticks_batched": sum(s["ticks_batched"] for s in sims),
        "sim.cache.interference_s": own.get("sim.cache.interference", 0.0),
        "sim.metrics.summary_s": own.get("sim.metrics.summary", 0.0),
        "sim.metrics.retained_samples":
            sum(s["retained_samples"] for s in sims),
        "fleet.report.rollup_s": own.get("fleet.report.rollup", 0.0),
    }
    return metrics, accounting


def peak_rss_mb() -> float:
    """Larger of this process's and its waited-for children's peak RSS."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv: list) -> dict:
    name, seed, mode, spawned = argv[0], int(argv[1]), argv[2], float(argv[3])
    workload = WORKLOADS[name]
    capture = SimCapture() if mode in ("untraced", "traced") else None
    tracer = Tracer() if mode == "traced" else None
    jobs = 1 if mode in ("serial", "traced") else JOBS
    cpus = sorted(os.sched_getaffinity(0))[:JOBS]
    # The round itself stays on one core; only worker processes spread
    # (``workloads.spread_over``), so each part's speed can be sampled
    # on the cores it used.
    os.sched_setaffinity(0, cpus[:1])
    if capture is not None:
        capture.install()
    if tracer is not None:
        for owner, attr, span, count in layer_calls():
            tracer.wrap(owner, attr, span, count)
    state = workload.setup(seed)
    setup_s = time.monotonic() - spawned
    state["cores"] = cpus
    with SpeedSampler(cpus[:1]) as idle:
        time.sleep(SETUP_SAMPLE_S)
    report = {"workload": name, "seed": seed, "mode": mode,
              "setup_s": setup_s, "setup_speed": idle.speed()}
    if mode == "setup":
        return report
    with SpeedSampler(cpus) as busy:
        if tracer is None:
            outcome = workload.run(state, jobs, capture)
        else:
            with tracer.span(REMAINDER):
                outcome = workload.run(state, jobs, capture)
            tracer.remove()
    if capture is not None:
        capture.remove()
    phases = {}
    for part, (start, end, spread) in outcome.phases.items():
        speed = busy.speed(start, end, cpus if spread else cpus[:1])
        phases[part] = {"wall_s": end - start, "speed": speed,
                        "nominal_s": (end - start) * speed}
    timed_s = sum(p["wall_s"] for p in phases.values())
    report.update(
        phases=phases,
        slots_phase=outcome.slots_phase,
        timed_s=timed_s,
        # Mean host speed over the timed phase.
        speed=sum(p["nominal_s"] for p in phases.values()) / timed_s,
        speed_pieces=busy.pieces,
        cell_slots=outcome.cell_slots,
        sim=outcome.sim,
        digests=outcome.digests,
        checks=outcome.checks,
        layers=outcome.layers,
        sims=[{k: v for k, v in s.items() if k != "fill_wall_s"}
              for s in outcome.sims],
    )
    if tracer is not None:
        metrics, accounting = layer_metrics(tracer, outcome.sims)
        report["layers"].update(metrics)
        report["accounting"] = accounting
        report["traced_wall_s"] = tracer.total_time(REMAINDER)
        report["run_id"] = tracer.run_id
        os.makedirs(TRACE_DIR, exist_ok=True)
        tracer.save(os.path.join(TRACE_DIR, f"{name}.npz"))
    if mode == "measure":
        report["peak_rss_mb"] = peak_rss_mb()
        if workload.after is not None:
            report["after"] = workload.after(state)
    return report


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))

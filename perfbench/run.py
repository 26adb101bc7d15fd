"""Benchmark entry point: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig11_collocated --seed 7 \\
        --seconds 35 --trace 0

``--workload all`` runs the three workloads in turn.

Each round of the workload runs in a fresh process (``child.py``).
Rounds repeat while another one still fits into ``--seconds`` (at
least one round), all with the same seed, so every round must
reproduce the first round's digests.

``--trace 0`` measures the end-to-end metrics: host figures are the
median over rounds, and ``setup_s`` is the median over the rounds and
``SETUP_PROBES`` extra set-up-only processes.  Host times are reported
at nominal host speed: each raw time is multiplied by the host speed
that ``speed.SpeedSampler`` measured on the round's cores meanwhile.
Each part of the timed phase is scaled by the speed of the cores it
ran on.  The raw medians are printed alongside.  ``--trace 1`` runs, per
round, an untraced process, a traced process and, for workloads with
worker processes, an untraced process that runs the jobs in-process
like the traced one.  It checks that all give the same digests and
that the traced pass reproduces the untraced execution-path counters,
and reports the per-layer metrics (medians over rounds).

The human-readable report goes to standard output; its last line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits 2 without a result when the program's sources are
missing, and 1 when a round crashes or overruns or a metric could not
be measured.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = tuple(WORKLOADS)

#: Extra set-up-only processes per ``--trace 0`` run, for ``setup_s``.
SETUP_PROBES = 5

#: A round that takes longer than this is killed and the run fails.
ROUND_TIMEOUT_S = 120.0

#: Variables that would let a cache hit skip work or resize the runs.
CLEARED_ENV = ("REPRO_CACHE", "REPRO_SCALE", "REPRO_JOBS")

#: End-to-end metrics printed in the JSON result: name -> unit.
END_TO_END = {
    "cell_slots_per_s": "1/s",
    "round_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "slot_latency_p50_us": "us",
    "slot_latency_p99_us": "us",
    "reclaimed_core_fraction": "ratio",
}

#: Per-layer metrics printed in the JSON result: name -> unit.
PER_LAYER = {
    "ran.traffic.draw_s": "s",
    "ran.traffic.calls": "count",
    "ran.dag.build_s": "s",
    "ran.dag.dags": "count",
    "ran.dag.tasks": "count",
    "ran.tasks.sample_s": "s",
    "core.scheduler.slot_start_s": "s",
    "core.scheduler.tick_s": "s",
    "core.scheduler.ticks": "count",
    "core.scheduler.task_hook_s": "s",
    "core.scheduler.task_hooks": "count",
    "core.predictor.predict_s": "s",
    "core.predictor.predictions": "count",
    "core.training.collect_s": "s",
    "core.predictor.fit_s": "s",
    "core.features.dcor_s": "s",
    "core.features.dcor_calls": "count",
    "core.features.select_s": "s",
    "core.quantile_tree.fit_s": "s",
    "sim.engine.loop_self_s": "s",
    "sim.engine.events": "count",
    "sim.engine.us_per_event": "us",
    "sim.runner.fill_s": "s",
    "sim.runner.idle_slot_share": "ratio",
    "sim.runner.certified_slot_share": "ratio",
    "sim.pool.release_s": "s",
    "sim.pool.core_requests": "count",
    "sim.pool.ticks_batched": "count",
    "sim.cache.interference_s": "s",
    "sim.metrics.summary_s": "s",
    "sim.metrics.retained_samples": "count",
    "exec.batch.wall_s": "s",
    "exec.batch.job_wall_sum_s": "s",
    "exec.batch.parallel_speedup": "ratio",
    "exec.batch.retries": "count",
    "fleet.planner.wall_s": "s",
    "fleet.planner.parallel_speedup": "ratio",
    "fleet.planner.idle_worker_fraction": "ratio",
    "fleet.planner.straggler_ratio": "ratio",
    "fleet.report.rollup_s": "s",
    "trace.overhead_fraction": "ratio",
}

#: Per-layer metrics taken from the untraced process, whose jobs and
#: shards run on worker processes as in the measured pass.
FROM_UNTRACED = ("exec.batch.", "fleet.planner.")

#: Units of per-layer metrics that are host times, reported at nominal
#: host speed like the end-to-end ones.
TIME_UNITS = ("s", "us")

#: Execution-path counters that the traced pass must reproduce.
PATH_COUNTERS = ("kernel_stats", "events", "ticks_batched",
                 "retained_samples")


class RoundFailed(RuntimeError):
    """A round process crashed, overran or printed no result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def _wait_group_gone(pgid: int, timeout_s: float = 10.0) -> None:
    """Wait until no process of the killed round's group is left."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_round(workload: str, seed: int, mode: str) -> dict:
    """One ``child.py`` process; returns its JSON report."""
    spawned = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), workload, str(seed), mode,
         repr(spawned)],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        start_new_session=True, text=True)
    try:
        out, _ = process.communicate(timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The round's own worker processes share its session.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        _wait_group_gone(process.pid)
        raise RoundFailed(f"{workload} {mode} round overran "
                          f"{ROUND_TIMEOUT_S:.0f}s") from None
    if process.returncode != 0:
        raise RoundFailed(f"{workload} {mode} round exited with "
                          f"code {process.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RoundFailed(f"{workload} {mode} round printed no result")
    return json.loads(lines[-1])


def repeat(seconds: float, one_round) -> list:
    """Run ``one_round()`` while another round of the mean length so far
    still ends within ``seconds`` (at least once)."""
    started = time.monotonic()
    results = [one_round()]
    while True:
        elapsed = time.monotonic() - started
        if elapsed + elapsed / len(results) > seconds:
            return results
        results.append(one_round())


def host_info() -> dict:
    sys.path.insert(0, str(SRC))
    import numpy
    from repro.bench import calibrate_reference

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "calibrate_reference": calibrate_reference(),
    }


class Checks:
    """Every operation attempted, and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    def add_round(self, label: str, report: dict) -> None:
        for name, ok in report["checks"]:
            self.add(f"{label}: {name}", ok)


def _same_digests(checks: Checks, label: str, first: dict,
                  report: dict) -> None:
    checks.add(f"{label}: digests equal the first round's",
               report["digests"] == first["digests"])


def measure(workload: str, seed: int, seconds: float, checks: Checks):
    """``--trace 0``: the end-to-end metrics."""
    probes = [run_round(workload, seed, "setup")
              for _ in range(SETUP_PROBES)]
    rounds = repeat(seconds, lambda: run_round(workload, seed, "measure"))
    first = rounds[0]
    for index, report in enumerate(rounds):
        checks.add_round(f"round {index}", report)
        _same_digests(checks, f"round {index}", first, report)

    def median(key):
        return statistics.median(key(r) for r in rounds)

    def slots_phase(r):
        return r["phases"][r["slots_phase"]]

    setups = probes + rounds
    metrics = {
        "cell_slots_per_s": median(
            lambda r: r["cell_slots"] / slots_phase(r)["nominal_s"]),
        "round_s": median(
            lambda r: sum(p["nominal_s"] for p in r["phases"].values())),
        "setup_s": statistics.median(r["setup_s"] * r["setup_speed"]
                                     for r in setups),
        "peak_rss_mb": median(lambda r: r["peak_rss_mb"]),
        # Simulated figures repeat exactly for one seed (the digest
        # check above holds every round to the first).
        "slot_latency_p50_us": first["sim"]["slot_latency_p50_us"],
        "slot_latency_p99_us": first["sim"]["slot_latency_p99_us"],
        "reclaimed_core_fraction": first["sim"]["reclaimed_core_fraction"],
    }
    extra = {
        "raw_cell_slots_per_s": (median(
            lambda r: r["cell_slots"] / slots_phase(r)["wall_s"]), "1/s"),
        "raw_round_s": (median(lambda r: r["timed_s"]), "s"),
        "raw_setup_s": (statistics.median(r["setup_s"] for r in setups),
                        "s"),
        "host_speed": (median(lambda r: r["speed"]), "ratio"),
        "deadline_miss_fraction":
            (first["sim"]["deadline_miss_fraction"], "ratio"),
        "slot_samples": (first["sim"]["slot_samples"], "count"),
    }
    if "slot_samples_all_loads" in first["sim"]:
        extra["slot_samples_all_loads"] = (
            first["sim"]["slot_samples_all_loads"], "count")
    if "train" in first["phases"]:
        extra["train_s"] = (
            median(lambda r: r["phases"]["train"]["nominal_s"]), "s")
    if "after" in first:
        extra["wcet_exceed_fraction"] = (
            first["after"]["wcet_exceed_fraction"], "ratio")
        extra["holdout_tasks"] = (first["after"]["holdout_tasks"], "count")
        for index, report in enumerate(rounds):
            checks.add(f"round {index}: held-out check repeats",
                       report["after"] == first["after"])
    print(f"rounds: {len(rounds)}, set-up probes: {SETUP_PROBES}")
    for index, report in enumerate(rounds):
        print(f"  round {index}: timed {report['timed_s']:.3f}s, "
              f"set-up {report['setup_s']:.3f}s, "
              f"{report['cell_slots']} cell-slots, host speed "
              f"{report['speed']:.3f} ({report['speed_pieces']} samples)")
    print("digests: " + ", ".join(f"{k}={v}"
                                  for k, v in first["digests"].items()))
    layers = first.get("layers", {})
    if "exec.batch.job_walls_s" in layers:
        walls = ", ".join(f"{w:.2f}" for w in layers["exec.batch.job_walls_s"])
        print(f"batch job walls (s, by load): {walls}")
    return metrics, extra


def trace(workload: str, seed: int, seconds: float, checks: Checks):
    """``--trace 1``: the per-layer metrics."""

    def one_round():
        untraced = run_round(workload, seed, "untraced")
        # The traced pass runs jobs in-process; its overhead is measured
        # against an untraced pass that does the same.
        serial = (run_round(workload, seed, "serial")
                  if WORKLOADS[workload].parallel else untraced)
        return untraced, serial, run_round(workload, seed, "traced")

    rounds = repeat(seconds, one_round)
    first = rounds[0][0]
    per_round = []
    for index, (untraced, serial, traced) in enumerate(rounds):
        label = f"round {index}"
        checks.add_round(f"{label} untraced", untraced)
        checks.add_round(f"{label} traced", traced)
        _same_digests(checks, f"{label} untraced", first, untraced)
        checks.add(f"{label}: traced digests equal the untraced ones",
                   traced["digests"] == untraced["digests"])
        if serial is not untraced:
            checks.add_round(f"{label} serial", serial)
            checks.add(f"{label}: serial digests equal the untraced ones",
                       serial["digests"] == untraced["digests"])
        path = [{k: s[k] for k in PATH_COUNTERS} for s in traced["sims"]]
        path_untraced = [{k: s[k] for k in PATH_COUNTERS}
                         for s in untraced["sims"]]
        checks.add(f"{label}: traced kernel_stats and event counts equal "
                   f"the untraced ones", path == path_untraced and bool(path))
        accounting = traced["accounting"]
        wall = traced["traced_wall_s"]
        checks.add(f"{label}: layer self times plus remainder add up to "
                   f"the traced wall time",
                   abs(sum(accounting.values()) - wall) <= 1e-6 * max(1, wall))
        values = {}
        for name, unit in PER_LAYER.items():
            source = untraced if name.startswith(FROM_UNTRACED) else traced
            value = source["layers"].get(name, 0.0)
            if unit in TIME_UNITS:
                value *= source["speed"]
            values[name] = value
        values["trace.overhead_fraction"] = (
            traced["timed_s"] * traced["speed"]
            / (serial["timed_s"] * serial["speed"]) - 1)
        per_round.append(values)

    metrics = {name: statistics.median(v[name] for v in per_round)
               for name in PER_LAYER}
    last_traced = rounds[-1][2]
    wall = last_traced["traced_wall_s"]
    print(f"rounds: {len(rounds)} (untraced, serial if the workload is "
          f"parallel, and traced each); "
          f"span run id of the last traced pass: {last_traced['run_id']}")
    print("digests: " + ", ".join(f"{k}={v}"
                                  for k, v in first["digests"].items()))
    print(f"kernel_stats (traced == untraced): "
          f"{json.dumps([s['kernel_stats'] for s in last_traced['sims']])}")
    print(f"wall-time accounting of the last traced pass "
          f"({wall:.3f}s raw, jobs in-process, host speed "
          f"{last_traced['speed']:.3f}):")
    accounting = last_traced["accounting"]
    for name, seconds_ in sorted(accounting.items(), key=lambda kv: -kv[1]):
        print(f"  {name:32s} {seconds_:9.4f}s  {seconds_ / wall:6.1%}")
    print(f"  {'sum':32s} {sum(accounting.values()):9.4f}s")
    return metrics, {}


def run_workload(workload: str, args) -> tuple:
    """Measure one workload; returns ``(checks, metrics, units)``.

    Prints the workload's report; raises :class:`RoundFailed`.
    """
    print(f"== workload {workload}, seed {args.seed}, {args.seconds:g}s, "
          f"trace {args.trace}")
    checks = Checks()
    if args.trace:
        metrics, extra = trace(workload, args.seed, args.seconds, checks)
        units = PER_LAYER
    else:
        metrics, extra = measure(workload, args.seed, args.seconds, checks)
        units = END_TO_END
    failed = len(checks.failures)
    extra["failed_fraction"] = (failed / checks.attempted, "ratio")
    for name in checks.failures:
        print(f"FAILED: {name}")
    print("metrics:")
    for name, value in metrics.items():
        print(f"  {name:36s} {value!r:>24} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"  {name:36s} {value!r:>24} {unit}")
    return checks, metrics, units


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or all of them in turn (the "
                             "JSON result then names metrics "
                             "WORKLOAD/METRIC)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2

    info = host_info()
    print("host: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    if info["nproc"] < 2:
        print(f"warning: nproc={info['nproc']} < 2; the 2-worker runs "
              f"are oversubscribed and not comparable", file=sys.stderr)
        print("FLAG: nproc < 2, host figures not comparable")

    workloads = (WORKLOAD_NAMES if args.workload == "all"
                 else (args.workload,))
    attempted = failed = 0
    result = {}
    for workload in workloads:
        try:
            checks, metrics, units = run_workload(workload, args)
        except RoundFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        unmeasured = [n for n, v in metrics.items() if not math.isfinite(v)]
        if unmeasured:
            # A failed job leaves figures it should have produced unset.
            print(f"error: {workload}: no value for {', '.join(unmeasured)}",
                  file=sys.stderr)
            return 1
        attempted += checks.attempted
        failed += len(checks.failures)
        prefix = f"{workload}/" if len(workloads) > 1 else ""
        result.update({prefix + name: {"value": value, "unit": units[name]}
                       for name, value in metrics.items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

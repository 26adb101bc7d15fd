#!/usr/bin/env python
"""Fleet-path throughput benchmark and CI regression guard.

Runs a small metro fleet (default 12 x 20 MHz cells, 3 shards) through
the :mod:`repro.fleet` planner and reports throughput in simulated
**cell-slots per second** — the fleet analogue of ``repro bench``'s
slots/s.  Two modes:

* benchmarking — ``scripts/bench_fleet.py`` prints best-of-N wall and
  cell-slots/s for the serial planner path (jobs=1, so the number is a
  single-core figure comparable across machines of one class);
* CI guard — ``--check results/bench_fleet_baseline.json`` fails when
  throughput regresses more than ``--tolerance`` below the recorded
  baseline, scaled to this host by :func:`repro.bench.scaled_floor`;
  ``--write-baseline`` records the current tree.

The guard also re-checks the fleet determinism contract on every run:
the per-cell digests of the sharded run must equal the unsharded
serial run's, whatever the timing.
"""

import argparse
import json
import os
import pathlib
import platform
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"))

from repro.bench import calibrate_reference, scaled_floor  # noqa: E402
from repro.fleet import FleetScenario, Planner  # noqa: E402


def timed_fleet(cells: int, shards: int, slots: int, seed: int):
    """One serial fleet run; returns (wall_s, report)."""
    fleet = FleetScenario(cells=cells, shards=shards, num_slots=slots,
                          seed=seed)
    planner = Planner(fleet, jobs=1)
    start = time.perf_counter()
    report = planner.run()
    return time.perf_counter() - start, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cells", type=int, default=12)
    parser.add_argument("--shards", type=int, default=3)
    parser.add_argument("--slots", type=int, default=120)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeat", "--rounds", type=int, default=3,
                        dest="rounds", help="timed rounds (best-of)")
    parser.add_argument("--check", default=None,
                        help="baseline JSON to guard against")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="max fractional slowdown vs the baseline")
    parser.add_argument("--write-baseline", default=None,
                        help="record the current tree as baseline JSON")
    parser.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    args = parser.parse_args(argv)

    walls = []
    report = None
    for _ in range(args.rounds):
        wall, report = timed_fleet(args.cells, args.shards, args.slots,
                                   args.seed)
        walls.append(wall)
    best = min(walls)
    # Each cell simulates `slots` boundaries in both directions; use
    # the report's own cell-slot count so the unit stays honest.
    cell_slots = report.slot_count
    cell_slots_per_s = cell_slots / best

    _, serial = timed_fleet(args.cells, 1, args.slots, args.seed)
    digests_ok = serial.cell_digests == report.cell_digests

    payload = {
        "cells": args.cells,
        "shards": args.shards,
        "slots": args.slots,
        "seed": args.seed,
        "rounds": args.rounds,
        "wall_s_best": round(best, 3),
        "wall_s_all": [round(w, 3) for w in walls],
        "cell_slots": cell_slots,
        "cell_slots_per_s": round(cell_slots_per_s, 1),
        "p99_us": round(report.latency_us["p99"], 1),
        "digests_match_serial": digests_ok,
        "machine_reference": calibrate_reference(),
        "python": platform.python_version(),
    }

    if not args.json:
        print(f"fleet path: {args.cells} cells x {args.slots} slots "
              f"({args.shards} shards, serial planner) in {best:.2f}s "
              f"best-of-{args.rounds} "
              f"({cell_slots_per_s:,.0f} cell-slots/s)")

    status = 0
    if not digests_ok:
        print("FAIL: sharded per-cell digests differ from the "
              "unsharded serial run (determinism contract broken)",
              file=sys.stderr)
        status = 1

    if args.check:
        baseline = json.loads(pathlib.Path(args.check).read_text())
        floor = scaled_floor(baseline["cell_slots_per_s"], baseline,
                             payload["machine_reference"], args.tolerance)
        ratio = cell_slots_per_s / baseline["cell_slots_per_s"]
        payload["baseline_cell_slots_per_s"] = \
            baseline["cell_slots_per_s"]
        payload["floor_cell_slots_per_s"] = round(floor, 1)
        payload["ratio_vs_baseline"] = round(ratio, 3)
        if not args.json:
            print(f"baseline {baseline['cell_slots_per_s']:,.0f} "
                  f"cell-slots/s (machine ref "
                  f"{baseline.get('machine_reference')} vs "
                  f"{payload['machine_reference']}); "
                  f"current/baseline = {ratio:.2f}x, "
                  f"machine-scaled floor {floor:,.0f} cell-slots/s")
        if cell_slots_per_s < floor:
            print("FAIL: fleet-path throughput regressed beyond "
                  f"{args.tolerance:.0%} budget", file=sys.stderr)
            status = 1
        if status == 0 and not args.json:
            print("OK")

    if args.write_baseline:
        path = pathlib.Path(args.write_baseline)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        if not args.json:
            print(f"baseline -> {path}")

    if args.json:
        print(json.dumps(payload, indent=2))
    return status


if __name__ == "__main__":
    sys.exit(main())

"""Tests for repro.fleet: sharding, demand rollup, pool, planner, CLI.

The metro-scale invariants under test:

* shard derivation is a balanced, contiguous, globally-named partition
  whose scenarios round-trip through plain data;
* per-cell sampling digests are invariant to shard count and to the
  serial/parallel execution mode (the PR-3 interleaving-independence
  invariant lifted to fleet scale);
* the worker pool keeps forked workers warm across jobs and replaces
  a worker that dies;
* the planner aggregates per-shard payloads identically no matter who
  executed them.
"""

import json

import pytest

from repro.cli import main
from repro.core.federated import CoreDemand
from repro.exec.pool import WorkerPool
from repro.fleet import (
    FleetScenario,
    Planner,
    ShardSpec,
    combined_digest,
    execute_shard,
    histogram_percentile,
    latency_histogram,
    merge_histograms,
)
from tests.test_scenario import LEGACY_ENGINE_FIELD


class TestFleetScenario:
    def test_balanced_contiguous_shards(self):
        fleet = FleetScenario(cells=10, shards=3, num_slots=5)
        assert fleet.shard_sizes() == [4, 3, 3]
        shards = fleet.derive_shards()
        assert [s.cell_id_base for s in shards] == [0, 4, 7]
        names = [n for s in shards for n in s.cell_names]
        assert names == [fleet.cell_name(g) for g in range(10)]
        assert len(set(names)) == 10

    def test_cores_follow_reference_ratio(self):
        # 20 MHz reference server: 8 cores / 7 cells.
        fleet = FleetScenario(cells=7, shards=1, num_slots=5)
        (shard,) = fleet.derive_shards()
        assert shard.scenario.pool_config().num_cores == 8
        assert fleet.provisioned_cores == 8

    def test_shard_scenarios_carry_global_base(self):
        fleet = FleetScenario(cells=6, shards=2, num_slots=5)
        first, second = fleet.derive_shards()
        assert first.scenario.cell_id_base == 0
        assert second.scenario.cell_id_base == 3

    def test_shard_spec_roundtrip(self):
        fleet = FleetScenario(cells=4, shards=2, num_slots=5, seed=9)
        shard = fleet.derive_shards()[1]
        clone = ShardSpec.from_dict(
            json.loads(json.dumps(shard.to_dict())))
        # The pool deserializes to its inlined-dict form, so compare
        # the canonical serialized payloads, not the live objects.
        assert clone.to_dict() == shard.to_dict()
        assert clone.scenario.cell_id_base == shard.cell_id_base

    def test_fleet_roundtrip(self):
        fleet = FleetScenario(cells=12, shards=3, cell_kind="100mhz",
                              workload="redis", load_fraction=0.7,
                              seed=5, num_slots=20)
        clone = FleetScenario.from_dict(
            json.loads(json.dumps(fleet.to_dict())))
        assert clone == fleet

    @pytest.mark.parametrize("mode", ["event", "array"])
    def test_legacy_engine_field_is_rejected(self, mode):
        payload = FleetScenario(cells=4, shards=2, num_slots=5).to_dict()
        payload[LEGACY_ENGINE_FIELD] = mode
        with pytest.raises(TypeError, match=LEGACY_ENGINE_FIELD):
            FleetScenario.from_dict(payload)
        shard = FleetScenario(cells=4, shards=2,
                              num_slots=5).derive_shards()[0].to_dict()
        shard["scenario"][LEGACY_ENGINE_FIELD] = mode
        with pytest.raises(TypeError, match=LEGACY_ENGINE_FIELD):
            ShardSpec.from_dict(shard)

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetScenario(cells=0)
        with pytest.raises(ValueError):
            FleetScenario(cells=3, shards=4)
        with pytest.raises(ValueError):
            FleetScenario(cells=3, cell_kind="60ghz")
        with pytest.raises(ValueError):
            FleetScenario(cells=3, policy="no-such-policy")


class TestHistograms:
    def test_merge_matches_single_histogram(self):
        values = [100.0, 500.0, 900.0, 1500.0, 9000.0]
        whole = latency_histogram(values, 2000.0)
        merged = merge_histograms([
            latency_histogram(values[:2], 2000.0),
            latency_histogram(values[2:], 2000.0),
        ])
        assert merged == whole
        assert merged["overflow"] == 1  # 9000 > 4 x 2000

    def test_percentiles(self):
        values = [float(v) for v in range(1, 1001)]
        hist = latency_histogram(values, 2000.0)
        p50 = histogram_percentile(hist, 0.50)
        assert abs(p50 - 500.0) < hist["bin_width_us"]
        # Overflowing tail resolves to the exact maximum.
        hist = latency_histogram(values + [99999.0], 2000.0)
        assert histogram_percentile(hist, 1.0) == 99999.0
        assert histogram_percentile(hist, 0.0) >= 0.0

    def test_percentile_interpolates_through_overflow(self):
        # 990 in-range values plus 10 overflowed ones: p99.9 lands
        # inside the overflow region and must interpolate between the
        # range top and the recorded maximum — not collapse onto the
        # single worst value.
        values = [float(v) for v in range(1, 991)]  # < 8000 = range top
        values += [10000.0 + 1000.0 * i for i in range(10)]  # overflow
        hist = latency_histogram(values, 2000.0)
        assert hist["overflow"] == 10
        range_top = hist["bin_width_us"] * len(hist["counts"])
        p999 = histogram_percentile(hist, 0.999)
        assert p999 != hist["max_us"]
        assert range_top < p999 < hist["max_us"]
        # Monotone in the quantile, and q=1.0 still hits the max.
        assert p999 <= histogram_percentile(hist, 0.9999) \
            <= histogram_percentile(hist, 1.0) == hist["max_us"]

    def test_histogram_rejects_bad_latencies(self):
        for bad in (-1.0, -1e-9, float("nan"), float("inf"),
                    float("-inf")):
            with pytest.raises(ValueError):
                latency_histogram([100.0, bad], 2000.0)

    def test_merge_rejects_mixed_geometry(self):
        with pytest.raises(ValueError):
            merge_histograms([latency_histogram([], 2000.0),
                              latency_histogram([], 1500.0)])


class TestShardExecution:
    def test_execute_shard_payload(self):
        fleet = FleetScenario(cells=2, shards=1, num_slots=20, seed=4)
        (shard,) = fleet.derive_shards()
        payload = execute_shard(shard.to_dict())
        assert payload["shard_index"] == 0
        assert sorted(payload["cell_digests"]) == \
            sorted(shard.cell_names)
        assert payload["slot_count"] > 0
        demand = payload["demand"]
        assert demand["cores"] >= 1
        assert set(demand["cells"]) == set(shard.cell_names)
        # Round-trips through JSON (the pipe protocol requirement).
        json.dumps(payload)

    def test_demand_uses_federated_rule(self):
        fleet = FleetScenario(cells=2, shards=1, num_slots=20, seed=4)
        (shard,) = fleet.derive_shards()
        from repro.fleet.demand import ShardDemandRecorder
        from repro.scenario import build_simulation

        config = shard.scenario.pool_config()
        recorder = ShardDemandRecorder(config.cells, config.deadline_us)
        simulation = build_simulation(shard.scenario)
        simulation.demand_observer = recorder
        simulation.run(shard.num_slots)
        demand = recorder.shard_demand()
        assert isinstance(demand, CoreDemand)
        per_cell = [recorder.cell_demand(c.name) for c in config.cells]
        assert demand.cores == sum(d.cores for d in per_cell)


class TestShardingInvariance:
    def _digests(self, shards, jobs=1):
        fleet = FleetScenario(cells=6, shards=shards, num_slots=25,
                              seed=13)
        report = Planner(fleet, jobs=jobs).run()
        assert report.ok, report.failures
        return report.cell_digests

    def test_digests_invariant_to_shard_count(self):
        one = self._digests(shards=1)
        three = self._digests(shards=3)
        six = self._digests(shards=6)
        assert one == three == six
        assert len(one) == 6

    def test_digests_invariant_to_jobs(self):
        serial = self._digests(shards=3, jobs=1)
        parallel = self._digests(shards=3, jobs=3)
        assert serial == parallel

    def test_different_seeds_differ(self):
        a = Planner(FleetScenario(cells=2, num_slots=10, seed=1)).run()
        b = Planner(FleetScenario(cells=2, num_slots=10, seed=2)).run()
        assert a.cell_digests != b.cell_digests

    def test_combined_digest_order_independent(self):
        digests = {"b": "2", "a": "1"}
        assert combined_digest(digests) == \
            combined_digest(dict(reversed(list(digests.items()))))


class TestWorkerPool:
    def test_workers_stay_warm_across_jobs(self):
        fleet = FleetScenario(cells=4, shards=4, num_slots=5, seed=2)
        shards = fleet.derive_shards()
        with WorkerPool(1, execute_shard) as pool:
            pids, jobs_done = set(), []
            for shard in shards:
                pool.submit(0, shard.to_dict())
                (message,) = pool.wait()
                assert message.status == "ok"
                assert "worker" not in message.payload
                worker = message.identity
                pids.add(worker["pid"])
                jobs_done.append(worker["jobs_done"])
        assert len(pids) == 1  # one forked process served everything
        assert jobs_done == [1, 2, 3, 4]

    def test_error_keeps_worker_alive(self):
        fleet = FleetScenario(cells=1, shards=1, num_slots=5)
        (shard,) = fleet.derive_shards()
        bad = shard.to_dict()
        bad["scenario"] = {"schema": -1}
        with WorkerPool(1, execute_shard) as pool:
            pool.submit(0, bad)
            (message,) = pool.wait()
            assert message.status == "error"
            assert "schema" in message.payload["error"]
            # The same worker still serves good jobs afterwards.
            pool.submit(0, shard.to_dict())
            (message,) = pool.wait()
            assert message.status == "ok"

    def test_dead_worker_is_replaced(self):
        fleet = FleetScenario(cells=1, shards=1, num_slots=5)
        (shard,) = fleet.derive_shards()
        with WorkerPool(2, execute_shard) as pool:
            pool.submit(0, shard.to_dict())
            pool._workers[0].process.terminate()
            messages = pool.wait()
            died = [m for m in messages if m.status == "died"]
            assert died and died[0].worker_id == 0
            assert "without reporting" in died[0].payload["error"]
            assert pool.alive == 2
            assert sorted(pool.idle_workers()) == [0, 1]
            # A fresh fork took worker 0's place and serves the next job.
            pool.submit(0, shard.to_dict())
            (message,) = pool.wait(timeout=60.0)
            assert message.status == "ok"
            assert message.identity["pid"] != died[0].identity["pid"]
            assert message.identity["jobs_done"] == 1


class TestPlanner:
    def test_serial_and_parallel_reports_match(self):
        fleet = FleetScenario(cells=4, shards=2, num_slots=20, seed=6)
        serial = Planner(fleet, jobs=1).run().to_dict()
        parallel = Planner(fleet, jobs=2).run().to_dict()

        def strip(payload):
            payload.pop("planner")
            for row in payload["servers"]:
                row.pop("wall_s")
                row.pop("worker")
            return payload

        assert strip(serial) == strip(parallel)

    def test_report_contents(self):
        fleet = FleetScenario(cells=4, shards=2, num_slots=20, seed=6)
        report = Planner(fleet, jobs=1).run()
        assert report.ok
        assert report.slot_count == 4 * 20 * 2  # cells x slots x dirs
        assert report.provisioned_cores == fleet.provisioned_cores
        assert 0.0 <= report.reclaimed_fraction <= 1.0
        assert report.latency_us["p50"] <= report.latency_us["p99"] \
            <= report.latency_us["p999"]
        assert report.demand_cores >= len(report.cell_digests)
        assert report.fleet_digest == combined_digest(report.cell_digests)
        rendered = report.render()
        assert "tail latency" in rendered and "reclaimed CPU" in rendered
        json.dumps(report.to_dict())

    def test_progress_events(self):
        events = []
        fleet = FleetScenario(cells=2, shards=2, num_slots=5)
        Planner(fleet, jobs=1, progress=events.append).run()
        kinds = [e["kind"] for e in events]
        assert kinds.count("dispatch") == 2
        assert kinds.count("done") == 2

    def test_dead_worker_shard_is_requeued(self, monkeypatch):
        """Killing a worker mid-job must not forfeit its shard.

        The pool forks a replacement, the shard is requeued (retry
        budget 1) and completes, so the report is clean and the fleet
        digest matches the serial run byte for byte.
        """
        import repro.fleet.planner as planner_module

        class KillFirstJobPool(WorkerPool):
            killed = False

            def submit(self, worker_id, payload):
                super().submit(worker_id, payload)
                if not KillFirstJobPool.killed:
                    KillFirstJobPool.killed = True
                    self._workers[worker_id].process.terminate()

        monkeypatch.setattr(planner_module, "WorkerPool",
                            KillFirstJobPool)
        events = []
        fleet = FleetScenario(cells=4, shards=2, num_slots=10, seed=6)
        report = Planner(fleet, jobs=2, progress=events.append).run()
        assert KillFirstJobPool.killed
        assert report.ok, report.failures
        assert [e["kind"] for e in events].count("retry") == 1
        assert len(report.servers) == 2
        serial = Planner(fleet, jobs=1).run()
        assert report.fleet_digest == serial.fleet_digest
        assert report.cell_digests == serial.cell_digests


class TestFleetCli:
    def test_fleet_text_output(self, capsys):
        code = main(["fleet", "--cells", "3", "--shards", "3",
                     "--slots", "5", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet digest:" in out
        assert "3 x 20mhz cells" in out

    def test_fleet_json_verify_serial(self, capsys):
        code = main(["fleet", "--cells", "4", "--shards", "2",
                     "--jobs", "2", "--slots", "5", "--seed", "1",
                     "--json", "--verify-serial"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified_against_serial"] is True
        assert len(payload["cell_digests"]) == 4
        assert payload["planner"]["workers"] == 2

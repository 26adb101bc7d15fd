"""Tests for the metrics collectors."""

import numpy as np
import pytest

from repro.fleet.report import histogram_percentile, latency_histogram
from repro.sim.metrics import Metrics


class TestCoreTimeAccounting:
    def test_reserved_integral(self):
        metrics = Metrics(num_cores=4)
        metrics.on_reserved_change(0.0, 4)
        metrics.on_reserved_change(100.0, 2)  # 4 cores for 100 µs
        metrics.finalize(300.0)  # 2 cores for 200 µs
        assert metrics.reserved_core_time_us == pytest.approx(800.0)
        assert metrics.total_core_time_us == pytest.approx(1200.0)
        assert metrics.reclaimed_fraction == pytest.approx(1 - 800 / 1200)

    def test_busy_integral_independent(self):
        metrics = Metrics(num_cores=2)
        metrics.on_reserved_change(0.0, 2)
        metrics.on_running_change(0.0, 1)
        metrics.on_running_change(50.0, 2)
        metrics.finalize(100.0)
        assert metrics.busy_core_time_us == pytest.approx(150.0)
        assert metrics.vran_utilization == pytest.approx(150.0 / 200.0)
        assert metrics.idle_fraction_upper_bound == pytest.approx(
            1 - 150.0 / 200.0)

    def test_best_effort_complement(self):
        metrics = Metrics(num_cores=3)
        metrics.on_reserved_change(0.0, 1)
        metrics.finalize(100.0)
        assert metrics.best_effort_core_time_us == pytest.approx(200.0)


class TestLatencies:
    def test_summary_percentiles(self):
        metrics = Metrics(num_cores=1)
        for latency in np.linspace(100, 1100, 1001):
            metrics.on_slot_complete(float(latency), 1000.0)
        summary = metrics.latency_summary(1000.0)
        assert summary.count == 1001
        assert summary.p50_us == pytest.approx(600.0, rel=0.01)
        assert summary.max_us == 1100.0
        assert summary.deadline_us == 1000.0
        assert 0.0 < summary.miss_fraction < 0.15
        assert not summary.meets_four_nines

    def test_meets_five_nines(self):
        metrics = Metrics(num_cores=1)
        for __ in range(1000):
            metrics.on_slot_complete(500.0, 1000.0)
        summary = metrics.latency_summary(1000.0)
        assert summary.meets_five_nines
        assert summary.miss_fraction == 0.0

    def test_empty_summary_raises(self):
        with pytest.raises(ValueError):
            Metrics(1).latency_summary(1000.0)

    def test_overflow_interpolation_past_histogram_range(self):
        deadline = 2000.0
        range_top = 4.0 * deadline
        in_range = [100.0] * 994
        overflow = [9000.0, 9500.0, 10000.0, 11000.0, 12000.0, 20000.0]
        metrics = Metrics(4)
        for latency in in_range + overflow:
            metrics.on_slot_complete(latency, deadline)
        hist = latency_histogram(metrics.slot_latencies, deadline)
        assert hist["overflow"] == len(overflow)
        assert hist["max_us"] == 20000.0
        p999 = histogram_percentile(hist, 0.999)
        p9999 = histogram_percentile(hist, 0.9999)
        # Tail percentiles interpolate *through* the overflow region —
        # strictly between the range top and the recorded maximum, and
        # monotone in the quantile — instead of collapsing onto max_us.
        assert range_top < p999 < p9999 <= 20000.0
        needed = 0.999 * hist["count"]
        inside = min(float(hist["overflow"]),
                     needed - (hist["count"] - hist["overflow"]))
        assert p999 == range_top + (20000.0 - range_top) * (
            inside / hist["overflow"])


class TestSchedulingEvents:
    def test_wakeup_histogram_buckets(self):
        metrics = Metrics(num_cores=1)
        for latency in (0.5, 2.0, 5.0, 20.0, 100.0, 300.0):
            metrics.on_wakeup(latency)
        hist = metrics.wakeup_histogram()
        assert hist["0-1"] == 1
        assert hist["1-3"] == 1
        assert hist["3-7"] == 1
        assert hist["15-31"] == 1
        assert hist[">255"] == 1
        assert sum(hist.values()) == 6

    def test_event_counters(self):
        metrics = Metrics(num_cores=1)
        metrics.on_wakeup(1.0)
        metrics.on_yield()
        metrics.on_yield()
        assert metrics.scheduling_events == 3
        # A wakeup alone is NOT a preemption: the woken core may have
        # been idle.  Preemptions are reported separately by the pool
        # when a best-effort occupant is actually displaced.
        assert metrics.best_effort_preemptions == 0
        metrics.on_preemption()
        assert metrics.best_effort_preemptions == 1
        assert metrics.scheduling_events == 3

    def test_registry_snapshot_round_trips(self):
        metrics = Metrics(num_cores=2)
        metrics.on_wakeup(5.0)
        metrics.on_slot_complete(400.0, 500.0)
        metrics.on_slot_complete(600.0, 500.0)
        snap = metrics.snapshot()
        assert snap["counters"]["slots/completed"] == 2
        assert snap["counters"]["slots/missed"] == 1
        assert snap["counters"]["sched/wakeups"] == 1
        assert snap["gauges"]["coretime/num_cores"] == 2
        hist = snap["histograms"]["sched/wakeup_latency_us"]
        assert hist["count"] == 1
        import json
        json.dumps(snap)  # must be pure JSON

    def test_task_records_opt_in(self):
        metrics = Metrics(num_cores=1)
        metrics.on_task_complete("fft", 10.0, 9.0)
        assert metrics.task_records == []
        metrics.record_tasks = True
        metrics.on_task_complete("fft", 10.0, 9.0)
        assert metrics.task_records == [("fft", 10.0, 9.0)]

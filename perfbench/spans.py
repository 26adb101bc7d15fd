"""In-memory span tracer that wraps the simulator's public calls.

The benchmark never edits the program to trace it.  Instead a
:class:`Tracer` replaces chosen functions and methods (module
attributes or class attributes) with timing wrappers before the
workload builds its simulation, and puts the originals back afterwards
(:meth:`Tracer.remove`).  Wrapping adds time but changes no argument,
return value or call order, so the traced run must reproduce the
untraced run's digests and ``kernel_stats`` — the benchmark checks
that it does.

Every call of a wrapped function becomes one span: a name, a start
time, an end time and the index of the enclosing span.  All spans of
one traced pass share the tracer's ``run_id``.  Spans stay in memory
until the pass ends; :meth:`Tracer.self_times` then folds them into
per-name self time (a span's duration minus the time its child spans
cover), and :meth:`Tracer.save` writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import time
import uuid
from collections import Counter
from typing import Callable, Optional

__all__ = ["Tracer", "REMAINDER", "SimCapture", "pop_captured",
           "simulation_counters"]

#: Name of the span that encloses a whole traced pass; its self time is
#: the explicit remainder of the wall-time accounting (benchmark code
#: plus program code outside every wrapped call).
REMAINDER = "remainder"


class _Patcher:
    """Replaces module or class attributes and puts them back."""

    def __init__(self) -> None:
        self._patches: list = []

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def remove(self) -> None:
        """Restore every replaced attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class Tracer(_Patcher):
    """Records spans for wrapped calls; one tracer per traced pass."""

    def __init__(self) -> None:
        super().__init__()
        self.run_id = uuid.uuid4().hex[:12]
        self.names: list = []
        self._name_ids: dict = {}
        #: One ``[name_id, start, end, parent_index]`` list per call.
        self.spans: list = []
        self._stack: list = [-1]
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    # -- recording ---------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        spans, stack = self.spans, self._stack
        index = len(spans)
        record = [self._name_id(name), time.perf_counter(), 0.0, stack[-1]]
        spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str,
             count: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``owner`` is a module or a class.  ``count(result)`` may return
        a mapping of extra counters to add for each call.
        """
        original = owner.__dict__[attr]
        name_id = self._name_id(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        perf_counter = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name_id, perf_counter(), 0.0, stack[-1]]
            spans.append(record)
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if count is not None:
                counts.update(count(result))
            return result

        self._patch(owner, attr, traced)

    # -- folding -----------------------------------------------------------------

    def calls(self) -> Counter:
        """Number of spans per name."""
        names = self.names
        return Counter(names[record[0]] for record in self.spans)

    def self_times(self) -> dict:
        """Per-name self time in seconds.

        Spans nest strictly within one thread, so the time a span's
        children cover is the sum of their durations.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for record in spans:
            parent = record[3]
            if parent >= 0:
                child_time[parent] += record[2] - record[1]
        totals: dict = {}
        names = self.names
        for index, record in enumerate(spans):
            name = names[record[0]]
            own = record[2] - record[1] - child_time[index]
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def total_time(self, name: str) -> float:
        """Summed duration (children included) of every span ``name``."""
        ident = self._name_ids.get(name)
        return sum(record[2] - record[1] for record in self.spans
                   if record[0] == ident)

    def child_time_within(self, ancestor: int, parent_name: str,
                          names: set) -> float:
        """Duration of ``names`` spans whose parent is a ``parent_name``
        span, counting only spans inside span ``ancestor``.

        Spans are appended in start order, so the spans inside
        ``ancestor`` are the ones that follow it and start before it
        ends.
        """
        ids = self._name_ids
        wanted = {ids[n] for n in names if n in ids}
        parent_id = ids.get(parent_name)
        spans = self.spans
        end = spans[ancestor][2]
        total = 0.0
        for index in range(ancestor + 1, len(spans)):
            record = spans[index]
            if record[1] >= end:
                break
            if record[0] in wanted and spans[record[3]][0] == parent_id:
                total += record[2] - record[1]
        return total

    def save(self, path) -> None:
        """Write the spans as a compressed NumPy archive."""
        import numpy as np

        spans = self.spans
        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names),
            name_id=np.array([r[0] for r in spans], dtype=np.int32),
            start=np.array([r[1] for r in spans], dtype=np.float64),
            end=np.array([r[2] for r in spans], dtype=np.float64),
            parent=np.array([r[3] for r in spans], dtype=np.int32),
        )


#: Key under which :class:`SimCapture` attaches simulation counters to a
#: job or shard result payload on its way back from a worker process.
CAPTURE_KEY = "_perfbench_sims"


def simulation_counters(simulation) -> dict:
    """Execution-path counters of a finished simulation (no timings)."""
    metrics = simulation.metrics
    return {
        "kernel_stats": dict(simulation.kernel_stats),
        "events": simulation.engine.events_processed,
        "ticks_batched": simulation.pool.ticks_batched,
        "retained_samples": len(metrics.slot_latencies)
        + len(metrics.wakeup_latencies),
        "fill_wall_s": simulation.fill_wall_s,
    }


class SimCapture(_Patcher):
    """Collects :func:`simulation_counters` from every simulation run.

    ``Simulation.run`` is wrapped to record the counters in this
    process.  Batch jobs and fleet shards may run in forked worker
    processes, so their entry points (``execute_spec``,
    ``execute_shard``) are wrapped too: each attaches the counters of
    the simulations it ran to its result payload under
    :data:`CAPTURE_KEY`, and the parent takes them off again
    (:func:`pop_captured`) before anything is hashed.  Nothing is timed.
    """

    def __init__(self) -> None:
        super().__init__()
        self.records: list = []
        #: Records of the last fleet run, in shard order.
        self.shard_records: list = []

    def install(self) -> None:
        import repro.exec.spec
        import repro.exec.worker
        import repro.fleet.planner
        import repro.fleet.worker
        from repro.sim.runner import Simulation

        records = self.records
        run = Simulation.__dict__["run"]

        @functools.wraps(run)
        def captured_run(simulation, num_slots):
            result = run(simulation, num_slots)
            records.append(simulation_counters(simulation))
            return result

        self._patch(Simulation, "run", captured_run)

        def attaching(original):
            @functools.wraps(original)
            def attached(*args, **kwargs):
                first = len(records)
                payload = original(*args, **kwargs)
                payload[CAPTURE_KEY] = records[first:]
                return payload
            return attached

        for module in (repro.exec.spec, repro.exec.worker):
            self._patch(module, "execute_spec",
                        attaching(module.__dict__["execute_spec"]))
        for module in (repro.fleet.worker, repro.fleet.planner):
            self._patch(module, "execute_shard",
                        attaching(module.__dict__["execute_shard"]))

        build_report = repro.fleet.planner.__dict__["build_fleet_report"]

        @functools.wraps(build_report)
        def detaching_report(fleet, shard_payloads, *args, **kwargs):
            ordered = sorted(shard_payloads, key=lambda p: p["shard_index"])
            self.shard_records = [record for payload in ordered
                                  for record in pop_captured(payload)]
            return build_report(fleet, shard_payloads, *args, **kwargs)

        self._patch(repro.fleet.planner, "build_fleet_report",
                    detaching_report)


def pop_captured(payload: dict) -> list:
    """Take :class:`SimCapture` records off a job or shard payload."""
    return payload.pop(CAPTURE_KEY, [])

"""Construction of per-slot signal-processing DAGs (paper Fig. 1 / Fig. 16).

Every slot, each cell contributes one DAG per active direction.  The
uplink chain is::

    FFT -> ChanEst -> Equalize -> Demod -> Descramble -> RateDematch
        -> {LDPC decode groups, parallel} -> CRC check

and the downlink chain is::

    CRC attach -> {LDPC encode groups, parallel} -> RateMatch
        -> Scramble -> Modulate -> Precode -> iFFT

Codeblocks are split into groups of at most :data:`MAX_CBS_PER_TASK`
per encode/decode task so that heavy coding work parallelizes across
worker cores, exactly like FlexRAN fans codeblocks out to its pool.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .config import CellConfig
from .tasks import (
    FEATURE_INDEX,
    CostModel,
    TaskInstance,
    TaskType,
    prbs_for_bandwidth,
    slot_base_features,
)
from .ue import SlotLoad, UeAllocation

__all__ = ["DagInstance", "DagBuilder", "MAX_CBS_PER_TASK",
           "batch_predicted_paths"]

#: Maximum codeblocks bundled into one encode/decode task instance.
MAX_CBS_PER_TASK = 4

_RAND_IDX = FEATURE_INDEX["rand_probe"]
_TASK_CB_IDX = FEATURE_INDEX["task_codeblocks"]
_TASK_BYTES_IDX = FEATURE_INDEX["task_bytes"]


@dataclass(slots=True)
class DagInstance:
    """One slot's worth of dependent signal-processing tasks for a cell."""

    dag_id: int
    cell_name: str
    slot_index: int
    uplink: bool
    release_us: float
    deadline_us: float
    tasks: list = field(default_factory=list)  # topological order
    tasks_remaining: int = 0
    completion_us: Optional[float] = None
    #: Slot for the scheduling policy's per-DAG state (owned by the
    #: policy; e.g. ConcordiaScheduler's incremental work/critical-path
    #: record).  An attribute load here replaces a dict lookup in the
    #: three per-task policy hooks.  Cleared by the policy when the DAG
    #: completes and on builder-pool reuse.
    policy_state: Optional[object] = None
    #: Predictor warm-up (elastic reconfiguration): the scheduling
    #: policy multiplies its per-task WCET predictions by this factor.
    #: A freshly migrated cell's DAGs carry >1.0 while the destination
    #: predictor has no history for the cell; sampling and ground-truth
    #: runtimes are never scaled, so demand digests are unaffected.
    wcet_inflation: float = 1.0

    @property
    def finished(self) -> bool:
        return self.tasks_remaining == 0

    @property
    def latency_us(self) -> Optional[float]:
        """Slot processing latency: completion relative to release."""
        if self.completion_us is None:
            return None
        return self.completion_us - self.release_us

    def entry_tasks(self) -> list:
        return [t for t in self.tasks if t.predecessors_remaining == 0
                and t.start_time is None]

    def remaining_work_us(self, wcet: Callable[[TaskInstance], float],
                          now: float) -> float:
        """Sum of predicted-remaining WCETs over unfinished tasks."""
        total = 0.0
        for task in self.tasks:
            if task.finish_time is not None:
                continue
            estimate = wcet(task)
            if task.start_time is not None:
                estimate = max(0.0, estimate - (now - task.start_time))
            total += estimate
        return total

    def remaining_critical_path_us(self, wcet: Callable[[TaskInstance], float],
                                   now: float) -> float:
        """Longest remaining chain of predicted WCETs through the DAG.

        Tasks are stored in topological order, so a single reverse sweep
        computes the longest path to any sink.  Finished tasks contribute
        zero; running tasks contribute their remaining estimate.
        """
        if self.tasks_remaining == 0:
            return 0.0
        longest_from: dict[int, float] = {}
        best = 0.0
        for task in reversed(self.tasks):
            if task.finish_time is not None:
                cost = 0.0
            else:
                cost = wcet(task)
                if task.start_time is not None:
                    cost = max(0.0, cost - (now - task.start_time))
            tail = max(
                (longest_from.get(id(s), 0.0) for s in task.successors),
                default=0.0,
            )
            longest_from[id(task)] = cost + tail
            if cost + tail > best:
                best = cost + tail
        return best


def _link(parent: TaskInstance, child: TaskInstance) -> None:
    parent.successors.append(child)
    child.predecessors_remaining += 1


#: Below this many tasks per slot the scalar prediction path beats the
#: vectorized one (array allocation + tolist() overhead dominates).
_BATCH_PATH_CUTOFF = 24


def batch_predicted_paths(dags: list, margin: float) -> list:
    """Vectorized WCET prediction + critical-path fill for a slot batch.

    Bit-identical replacement for the scalar per-task loop in
    ``ConcordiaScheduler.on_slot_start`` when no predictor is attached:
    every task's ``predicted_wcet_us`` is ``base_cost_us * margin``
    (times the DAG's ``wcet_inflation`` as a *second* multiply when it
    is not 1.0 — same two-step rounding as the scalar code), and
    ``path_us`` is filled by the same reverse topological sweep.  The
    per-task multiplies collapse into one numpy pass over the whole
    batch; the float left-fold of ``work_us`` and the running max of
    the critical path keep the scalar path's exact operation order.

    Returns one ``(work_us, critical_us, frontier)`` triple per DAG,
    where ``frontier`` maps entry-task ids to their ``path_us``.
    """
    flat = [task for dag in dags for task in dag.tasks]
    if len(flat) < _BATCH_PATH_CUTOFF:
        # Mostly-idle slots carry a handful of tasks; numpy's array
        # fill + tolist() round trip costs more than it saves there.
        # Scalar IEEE multiplies in the same two-step order are
        # bit-identical to the vectorized pass.
        predicted = []
        for dag in dags:
            inflation = dag.wcet_inflation
            if inflation != 1.0:
                predicted.extend(task.base_cost_us * margin * inflation
                                 for task in dag.tasks)
            else:
                predicted.extend(task.base_cost_us * margin
                                 for task in dag.tasks)
    else:
        base = np.empty(len(flat))
        for i, task in enumerate(flat):
            base[i] = task.base_cost_us
        predicted_arr = base * margin
        offset = 0
        for dag in dags:
            n = len(dag.tasks)
            if dag.wcet_inflation != 1.0:
                predicted_arr[offset:offset + n] *= dag.wcet_inflation
            offset += n
        predicted = predicted_arr.tolist()
    results = []
    offset = 0
    for dag in dags:
        tasks = dag.tasks
        work = 0.0
        for task, value in zip(tasks, predicted[offset:offset + len(tasks)]):
            task.predicted_wcet_us = value
            work += value
        offset += len(tasks)
        critical = 0.0
        frontier = {}
        for task in reversed(tasks):
            tail = 0.0
            for successor in task.successors:
                if successor.path_us > tail:
                    tail = successor.path_us
            task.path_us = task.predicted_wcet_us + tail
            if task.predecessors_remaining == 0:
                frontier[task.task_id] = task.path_us
                if task.path_us > critical:
                    critical = task.path_us
        results.append((work, critical, frontier))
    return results


class DagBuilder:
    """Factory turning :class:`SlotLoad` objects into task DAGs.

    Stochastic sampling is *batched per DAG*: every build derives a
    private RNG stream keyed by ``(cell_index, slot_index, direction)``
    and draws all of the DAG's randomness (rand_probe features plus the
    :meth:`CostModel.sample_runtimes` presamples) from it in a few
    vectorized calls.  Keying by DAG identity rather than by draw order
    makes the streams independent of execution interleaving: a DAG's
    runtimes are identical whether it is built before or after its
    neighbours, which is what keeps serial and parallel experiment
    drivers byte-identical.

    Stream derivation is counter-based: ``seed_seq`` (a SeedSequence
    child of the simulation seed) generates a 128-bit Philox key once,
    and each DAG's stream sets the Philox counter to its identity
    ``(0, cell_index, slot_index, direction)``.  Distinct counters are
    distinct, never-overlapping streams by construction — the same
    independence guarantee as ``SeedSequence.spawn`` children, but
    resetting a counter costs ~2 µs where hashing a fresh SeedSequence
    plus constructing a bit generator costs ~20 µs, which matters at
    one stream per DAG on the hot path.
    """

    def __init__(self, cost_model: CostModel,
                 rng: Optional[np.random.Generator] = None,
                 seed_seq: Optional[np.random.SeedSequence] = None) -> None:
        self.cost_model = cost_model
        self.rng = rng if rng is not None else np.random.default_rng(1)
        if seed_seq is None:
            # Deterministic fallback for callers that only pass an rng.
            seed_seq = np.random.SeedSequence(int(self.rng.integers(2 ** 63)))
        self._seed_seq = seed_seq
        # One reusable Philox generator; _dag_rng re-keys its counter.
        self._philox = np.random.Philox(
            key=seed_seq.generate_state(2, np.uint64))
        self._dag_gen = np.random.Generator(self._philox)
        self._philox_template = self._philox.state
        self._task_ids = itertools.count()
        self._dag_ids = itertools.count()
        # Instance pools: completed DAGs come back via recycle_dag()
        # and are scavenged at the next build, so no hook that runs at
        # completion time can observe a reset task.  Reset happens
        # lazily at re-acquisition.
        self._task_pool: list[TaskInstance] = []
        self._dag_pool: list[DagInstance] = []
        self._retired: list[DagInstance] = []
        # Deferred per-task cost/feature parameters, collected during
        # structural construction and evaluated in one vectorized pass
        # per build_many() batch.  One row tuple per task — a single
        # list append on the per-task path — unzipped into parallel
        # columns by the batch pass.  Rows are in *creation* order,
        # which differs from the topological order of dag.tasks (e.g.
        # the uplink CRC task is created second but listed last).
        self._pend_rows: list[tuple] = []

    # -- helpers -----------------------------------------------------------

    def _dag_rng(self, cell_index: int, slot_index: int,
                 uplink: bool) -> np.random.Generator:
        """Generator positioned on one (cell, slot, direction) stream.

        Returns the builder's single reusable generator with its Philox
        counter reset to the DAG's identity — equivalent to a fresh
        ``Generator(Philox(key=key, counter=(0, cell, slot, dir)))``
        without the per-DAG construction cost.  The caller must finish
        drawing before the next ``_dag_rng`` call.
        """
        template = self._philox_template
        template["state"]["counter"][:] = (0, cell_index, slot_index,
                                           1 if uplink else 0)
        template["buffer_pos"] = 4
        template["has_uint32"] = 0
        self._philox.state = template
        return self._dag_gen

    def _new_task(
        self,
        task_type: TaskType,
        cell_name: str,
        task_codeblocks: int = 0,
        task_bytes: float = 0.0,
        snr_margin_db: float = 10.0,
        code_rate: float = 0.6,
        prb_share: float = 1.0,
        layers: int = 1,
    ) -> TaskInstance:
        """Structural task construction: identity now, numbers later.

        The cost/feature parameters are appended to the pending batch
        columns; ``base_cost_us`` and ``features`` are filled by the
        vectorized pass at the end of :meth:`build_many` (values
        bit-identical to the old per-task scalar calls).
        """
        pool = self._task_pool
        if pool:
            task = pool.pop()
            task.predecessors_remaining = 0
            task.successors.clear()
            task.dag = None
            task.enqueue_time = None
            task.start_time = None
            task.finish_time = None
            task.runtime_us = None
            task.predicted_wcet_us = None
            task.wcet_route = None
            task.path_us = 0.0
            task.task_id = next(self._task_ids)
            task.task_type = task_type
            task.memory_bound = task_type.is_memory_bound
            task.cell_name = cell_name
            task.snr_margin_db = snr_margin_db
        else:
            task = TaskInstance(
                task_id=next(self._task_ids),
                task_type=task_type,
                cell_name=cell_name,
                features=None,
                base_cost_us=0.0,
                snr_margin_db=snr_margin_db,
            )
        self._pend_rows.append(
            (task, task_type.type_code, task_codeblocks, task_bytes,
             snr_margin_db, code_rate, prb_share, layers))
        return task

    def recycle_dag(self, dag: DagInstance) -> None:
        """Mark a *completed* DAG's instances for reuse.

        Scavenging is deferred to the next build (a later slot
        boundary): completion-time hooks — the policy's finish hook,
        the final ``task_done`` record — still read intact fields.
        Callers must guarantee nothing retains the DAG's tasks past
        the slot boundary (the pool skips recycling entirely while a
        ``task_observer`` is attached).
        """
        self._retired.append(dag)

    def _drain_retired(self) -> None:
        task_pool = self._task_pool
        dag_pool = self._dag_pool
        for dag in self._retired:
            task_pool.extend(dag.tasks)
            dag.tasks = []
            dag_pool.append(dag)
        self._retired.clear()

    @staticmethod
    def _codeblock_groups(
        alloc: UeAllocation,
    ) -> list[tuple[int, float, float, float]]:
        """Split one UE's codeblocks into (#cbs, bytes, margin, rate) groups."""
        groups = []
        cbs = alloc.num_codeblocks
        if cbs == 0:
            return groups
        margin = alloc.snr_db - alloc.mcs.min_snr_db
        bytes_per_cb = alloc.tbs_bytes / cbs
        while cbs > 0:
            group = min(cbs, MAX_CBS_PER_TASK)
            groups.append(
                (group, group * bytes_per_cb, margin, alloc.mcs.code_rate)
            )
            cbs -= group
        return groups

    # -- public API ---------------------------------------------------------

    def build(self, load: SlotLoad, cell: CellConfig,
              release_us: float, deadline_us: float,
              cell_index: int = 0) -> DagInstance:
        """Build the DAG for one (cell, direction, slot).

        ``cell_index`` keys this DAG's private RNG stream together with
        the slot index and direction; callers building DAGs for several
        cells must pass distinct indices so the streams stay distinct.
        """
        return self.build_many(
            [(load, cell, release_us, deadline_us, cell_index)])[0]

    def build_many(self, jobs: list) -> list:
        """Build all DAGs of one slot in a single vectorized batch.

        ``jobs`` is a list of ``(load, cell, release_us, deadline_us,
        cell_index)`` tuples.  Structural construction (task wiring)
        runs per DAG as before, but the per-task ``base_cost_us`` and
        feature vectors are computed in one numpy pass over the whole
        batch — ~2 np calls per task *type* instead of ~7 Python-level
        calls per *task*.  RNG draws stay on each DAG's private
        counter-keyed stream in the original order (probes, then
        runtime presamples), so results are byte-identical to building
        each DAG separately.
        """
        if not jobs:
            return []
        self._drain_retired()
        self._pend_rows.clear()
        dag_tasks = []
        bases = []
        consts = []  # per-DAG (prbs, antennas, slot_bytes)
        for load, cell, _release, _deadline, _index in jobs:
            if load.uplink:
                tasks = self._build_uplink(load, cell)
            else:
                tasks = self._build_downlink(load, cell)
            dag_tasks.append(tasks)
            bases.append(slot_base_features(load, cell, load.slot_index))
            prbs = prbs_for_bandwidth(cell.bandwidth_mhz, cell.numerology)
            consts.append((float(prbs), float(cell.num_antennas),
                           float(load.total_bytes)))
        counts = np.array([len(tasks) for tasks in dag_tasks])
        const_arr = np.repeat(np.array(consts), counts, axis=0)
        (pend_tasks, codes, cbs, tbytes, margins, rates, shares,
         task_layers) = zip(*self._pend_rows)
        costs = self.cost_model.base_costs_batch(
            np.array(codes),
            prbs=const_arr[:, 0],
            antennas=const_arr[:, 1],
            slot_bytes=const_arr[:, 2],
            task_codeblocks=np.array(cbs, dtype=np.float64),
            task_bytes=np.array(tbytes),
            snr_margin_db=np.array(margins),
            code_rate=np.array(rates),
            prb_share=np.array(shares),
            layers=np.array(task_layers, dtype=np.float64),
        ).tolist()
        # One (total_tasks, NUM_FEATURES) matrix; each task's feature
        # vector is a row view.  Values match the old per-task
        # base.copy() + three scalar writes exactly.
        feats = np.repeat(np.stack(bases), counts, axis=0)
        feats[:, _TASK_CB_IDX] = cbs
        feats[:, _TASK_BYTES_IDX] = tbytes
        # list(feats) splits the matrix into row views in one C call;
        # per-row feats[i] indexing costs a Python-level __getitem__
        # per task.
        for task, row, cost in zip(pend_tasks, list(feats), costs):
            task.features = row
            task.base_cost_us = cost
        sample_runtimes = self.cost_model.sample_runtimes
        dags = []
        for job, tasks in zip(jobs, dag_tasks):
            load, cell, release_us, deadline_us, cell_index = job
            n = len(tasks)
            rng = self._dag_rng(cell_index, load.slot_index, load.uplink)
            # Probes are drawn and assigned in dag.tasks (topological)
            # order, exactly like the old scalar path.
            probes = rng.random(n).tolist()
            for task, probe in zip(tasks, probes):
                task.features[_RAND_IDX] = probe
            sample_runtimes(tasks, rng)
            dag_pool = self._dag_pool
            if dag_pool:
                dag = dag_pool.pop()
                dag.dag_id = next(self._dag_ids)
                dag.cell_name = cell.name
                dag.slot_index = load.slot_index
                dag.uplink = load.uplink
                dag.release_us = release_us
                dag.deadline_us = deadline_us
                dag.tasks = tasks
                dag.tasks_remaining = n
                dag.completion_us = None
                dag.policy_state = None
                dag.wcet_inflation = 1.0
            else:
                dag = DagInstance(
                    dag_id=next(self._dag_ids),
                    cell_name=cell.name,
                    slot_index=load.slot_index,
                    uplink=load.uplink,
                    release_us=release_us,
                    deadline_us=deadline_us,
                    tasks=tasks,
                    tasks_remaining=n,
                )
            for task in tasks:
                task.dag = dag
            dags.append(dag)
        return dags

    def _build_uplink(self, load: SlotLoad, cell: CellConfig) -> list:
        """FFT -> per-UE (ChanEst..RateDematch -> decode groups) -> CRC.

        FlexRAN processes scheduled UEs in parallel branches; the slot's
        critical path is the front-end FFT plus one UE's chain plus one
        decode group, not the sum over UEs.
        """
        name = cell.name
        new_task = self._new_task
        fft = new_task(TaskType.FFT, name)
        tasks = [fft]
        if load.idle:
            # Front-end processing runs even on empty slots (no PUSCH).
            return tasks
        crc = new_task(TaskType.CRC_CHECK, name)
        slot_bytes = max(load.total_bytes, 1)
        for alloc in load.allocations:
            share = alloc.tbs_bytes / slot_bytes
            margin = alloc.snr_db - alloc.mcs.min_snr_db
            tbs = alloc.tbs_bytes
            rate = alloc.mcs.code_rate
            layers = alloc.layers
            prev = fft
            for task_type in (TaskType.CHANNEL_ESTIMATION,
                              TaskType.EQUALIZATION,
                              TaskType.DEMODULATION,
                              TaskType.DESCRAMBLING,
                              TaskType.RATE_DEMATCH):
                task = new_task(task_type, name, 0, tbs, margin, rate,
                                share, layers)
                _link(prev, task)
                tasks.append(task)
                prev = task
            for cbs, grp_bytes, grp_margin, grp_rate in self._codeblock_groups(alloc):
                decode = new_task(TaskType.LDPC_DECODE, name, cbs,
                                  grp_bytes, grp_margin, grp_rate, share,
                                  layers)
                _link(prev, decode)
                _link(decode, crc)
                tasks.append(decode)
        tasks.append(crc)
        return tasks

    def _build_downlink(self, load: SlotLoad, cell: CellConfig) -> list:
        """CRC -> per-UE (encode groups -> RateMatch..Modulate) -> Precode -> iFFT."""
        name = cell.name
        new_task = self._new_task
        if load.idle:
            # Broadcast/control symbols still get modulated and precoded.
            mod = new_task(TaskType.MODULATION, name)
            ifft = new_task(TaskType.IFFT, name)
            _link(mod, ifft)
            return [mod, ifft]
        crc = new_task(TaskType.CRC_ATTACH, name)
        tasks = [crc]
        precode = new_task(TaskType.PRECODING, name)
        slot_bytes = max(load.total_bytes, 1)
        for alloc in load.allocations:
            share = alloc.tbs_bytes / slot_bytes
            margin = alloc.snr_db - alloc.mcs.min_snr_db
            tbs = alloc.tbs_bytes
            rate = alloc.mcs.code_rate
            layers = alloc.layers
            rate_match = new_task(TaskType.RATE_MATCH, name, 0, tbs,
                                  margin, rate, share, layers)
            for cbs, grp_bytes, grp_margin, grp_rate in self._codeblock_groups(alloc):
                encode = new_task(TaskType.LDPC_ENCODE, name, cbs,
                                  grp_bytes, grp_margin, grp_rate, share,
                                  layers)
                _link(crc, encode)
                _link(encode, rate_match)
                tasks.append(encode)
            tasks.append(rate_match)
            prev = rate_match
            for task_type in (TaskType.SCRAMBLING, TaskType.MODULATION):
                task = new_task(task_type, name, 0, tbs, margin, rate,
                                share, layers)
                _link(prev, task)
                tasks.append(task)
                prev = task
            _link(prev, precode)
        tasks.append(precode)
        ifft = new_task(TaskType.IFFT, name)
        _link(precode, ifft)
        tasks.append(ifft)
        return tasks

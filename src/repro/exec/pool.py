"""The forked worker pool behind batch jobs and fleet shards.

A :class:`WorkerPool` forks ``workers`` children once and keeps them
warm: each runs :func:`_serve`, applying one module-level job function
(``repro.exec.worker.run_spec`` for batches, the planner's
``execute_shard`` for fleets) to any number of ``("run", payload)``
commands over a duplex pipe until told to ``("stop", None)``.  Workers
fork after the caller has trained its predictors, so they inherit the
trained models instead of re-training them.

Every reply travels as ``(status, payload, identity)``: ``status`` is
``"ok"`` (``payload`` is the job's return value) or ``"error"`` (the
job raised; ``payload`` holds the message and traceback), and
``identity`` is ``{"id", "pid", "jobs_done"}`` — who served the job,
kept out of the job's own result.  The parent multiplexes replies with
:func:`multiprocessing.connection.wait`, so it burns no CPU while jobs
run and wakes on the first reply.

A worker that dies mid-job surfaces as an EOF on its pipe and comes
back from :meth:`WorkerPool.wait` as status ``"died"``; a caller can
also :meth:`~WorkerPool.kill` an overdue job.  Either way a fresh fork
takes the worker's id, so the pool always has ``workers`` live
processes.  What to do with the lost job — retry, record, requeue — is
the caller's policy, not the pool's.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait as connection_wait
from typing import Callable, Dict, List, Optional

__all__ = ["Completion", "WorkerPool"]

#: A pool job: module-level (so non-fork start methods can pickle it),
#: one plain-data payload in, one picklable result out.
Job = Callable[[dict], object]


def _mp_context():
    """Fork when available (workers inherit the parent's warm state)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


def _close_process(process) -> None:
    """Release a joined worker's Process handle (its sentinel fd).

    Long runs replace many workers; without this the sentinel pipe fd
    of every dead worker leaks until the Process object is
    garbage-collected.  A process that refused to die keeps its handle
    (``close()`` on a live process raises), which only happens on the
    hard-kill path for a wedged child.
    """
    try:
        process.close()
    except ValueError:  # still alive after terminate+join
        pass


def _serve(conn, worker_id: int, job: Job) -> None:
    """Worker entry point: apply ``job`` to each command until stopped.

    Exceptions from the job never cross the process boundary — they
    are reported as ``"error"`` replies and the worker serves on.  A
    failed receive or send means the parent is gone, and the loop
    exits.

    After each reply the worker collects the job's cyclic garbage, so
    the next job does not run on top of the last one's dead simulation
    (left to the collector's own schedule, a worker serving three of
    the five fig08a perfbench jobs peaked at 77 MB RSS, against 67 MB
    for a fresh fork per job).
    Objects inherited from the parent are frozen first: they are not
    the job's garbage, and leaving them out keeps each collection to
    milliseconds.
    """
    gc.freeze()
    served = 0
    while True:
        try:
            command, payload = conn.recv()
        except (EOFError, OSError):  # parent died or closed the pipe
            break
        if command == "stop":
            break
        try:
            status, result = "ok", job(payload)
            served += 1
        except Exception as exc:  # noqa: BLE001 - isolation boundary
            status, result = "error", {
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc(),
            }
        identity = {"id": worker_id, "pid": os.getpid(),
                    "jobs_done": served}
        try:
            conn.send((status, result, identity))
        except (BrokenPipeError, OSError):  # parent gave up on us
            break
        gc.collect()
    conn.close()


@dataclass
class Completion:
    """One reply delivered by :meth:`WorkerPool.wait`."""

    worker_id: int
    status: str  # "ok" | "error" | "died"
    payload: dict
    #: ``{"id", "pid", "jobs_done"}`` as the worker reported it; a dead
    #: worker's identity has no ``jobs_done``.
    identity: dict


@dataclass
class _Worker:
    process: multiprocessing.Process
    conn: object
    busy: bool = False


class WorkerPool:
    """``workers`` warm forked processes serving one job function."""

    def __init__(self, workers: int, job: Job) -> None:
        if workers < 1:
            raise ValueError("pool needs at least one worker")
        self._requested = workers
        self._job = job
        self._ctx = _mp_context()
        self._workers: Dict[int, _Worker] = {}

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._workers:
            raise RuntimeError("pool already started")
        for worker_id in range(self._requested):
            self._fork(worker_id)

    def shutdown(self, timeout_s: float = 5.0) -> None:
        """Stop every worker: polite ``stop``, then terminate stragglers."""
        for worker in self._workers.values():
            try:
                worker.conn.send(("stop", None))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._workers.values():
            worker.process.join(timeout=timeout_s)
            if worker.process.is_alive():
                worker.process.terminate()
            self._reap(worker)
        self._workers.clear()

    def terminate(self) -> None:
        """Hard-kill everything (Ctrl-C path)."""
        for worker in self._workers.values():
            worker.process.terminate()
        for worker in self._workers.values():
            self._reap(worker)
        self._workers.clear()

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.shutdown()
        else:
            self.terminate()

    def _fork(self, worker_id: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_serve,
            args=(child_conn, worker_id, self._job),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._workers[worker_id] = _Worker(process=process,
                                           conn=parent_conn)

    @staticmethod
    def _reap(worker: _Worker) -> Optional[int]:
        """Join a stopping worker, close its pipe; returns its exit code."""
        worker.process.join(timeout=5.0)
        worker.conn.close()
        exitcode = worker.process.exitcode
        _close_process(worker.process)
        return exitcode

    def _replace(self, worker_id: int) -> Optional[int]:
        """Reap a dead or killed worker and fork a fresh one in its place."""
        exitcode = self._reap(self._workers[worker_id])
        self._fork(worker_id)
        return exitcode

    # -- work --------------------------------------------------------------------

    @property
    def alive(self) -> int:
        return len(self._workers)

    def idle_workers(self) -> List[int]:
        return [worker_id for worker_id, worker in self._workers.items()
                if not worker.busy]

    def submit(self, worker_id: int, payload: dict) -> None:
        """Dispatch one job to an idle worker."""
        worker = self._workers[worker_id]
        if worker.busy:
            raise RuntimeError(f"worker {worker_id} is busy")
        try:
            worker.conn.send(("run", payload))
        except (BrokenPipeError, OSError):
            # The idle worker died before accepting the job; its
            # replacement takes it.
            self._replace(worker_id)
            worker = self._workers[worker_id]
            worker.conn.send(("run", payload))
        worker.busy = True

    def kill(self, worker_id: int) -> None:
        """Terminate a busy worker's job; a fresh fork takes its place."""
        self._workers[worker_id].process.terminate()
        self._replace(worker_id)

    def wait(self, timeout: Optional[float] = None) -> List[Completion]:
        """Block until >= 1 busy worker replies (or the timeout passes).

        Returns replies in worker-id order.  A worker that died without
        replying comes back as status ``"died"`` and is replaced.
        """
        busy = {worker.conn: worker_id
                for worker_id, worker in self._workers.items()
                if worker.busy}
        if not busy:
            return []
        ready = connection_wait(list(busy), timeout=timeout)
        completions = []
        for conn in sorted(ready, key=busy.__getitem__):
            worker_id = busy[conn]
            worker = self._workers[worker_id]
            try:
                status, payload, identity = conn.recv()
            except (EOFError, OSError):
                identity = {"id": worker_id, "pid": worker.process.pid}
                exitcode = self._replace(worker_id)
                completions.append(Completion(
                    worker_id=worker_id, status="died",
                    payload={"error": f"worker exited with code "
                                      f"{exitcode} without reporting"},
                    identity=identity))
                continue
            worker.busy = False
            completions.append(Completion(worker_id=worker_id,
                                          status=status, payload=payload,
                                          identity=identity))
        return completions

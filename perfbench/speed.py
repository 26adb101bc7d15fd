"""Host-speed samplers that run beside a round.

The benchmark's hosts are shared virtual machines.  Their cores slow
down by tens of percent, for seconds to minutes, when neighbours get
busy, and the guest sees no steal time for it.  The slowdown differs
between cores, so a sampler on an idle core says nothing about the
core the program runs on.

A :class:`SpeedSampler` therefore starts one process pinned to each of
the given cores.  Each process times a fixed piece of pure-Python work
every ``INTERVAL_S`` seconds, sharing its core with the program the
whole time, and keeps the start time of every piece.  For any window
of the round and set of cores, :meth:`SpeedSampler.speed` is
``NOMINAL_PIECE_S`` over the mean, across those cores, of the median
piece time in the window.  The benchmark multiplies host times by it to
report them at nominal speed.
"""

from __future__ import annotations

import multiprocessing
import os
import statistics
import time

__all__ = ["SpeedSampler", "NOMINAL_PIECE_S"]

#: Piece time on the nominal host that reported host times refer to.
NOMINAL_PIECE_S = 0.002

#: Pause between two pieces of one sampler.
INTERVAL_S = 0.04

#: Longest wait for a sampler process to start.
START_TIMEOUT_S = 30.0

_PIECE_ITERATIONS = 20_000


def _piece_seconds() -> float:
    started = time.perf_counter()
    acc = 0
    for i in range(_PIECE_ITERATIONS):
        acc += i * 3 // 7
    return time.perf_counter() - started


def _sample(cpu: int, owner: int, ready, stop, conn) -> None:
    os.sched_setaffinity(0, {cpu})
    pieces = []
    while True:
        # perf_counter is the system-wide monotonic clock on Linux, so
        # the round process can compare these start times with its own.
        started = time.perf_counter()
        pieces.append((started, _piece_seconds()))
        ready.set()
        if stop.wait(INTERVAL_S):
            break
        if os.getppid() != owner:  # the round was killed; stop with it
            return
    conn.send(pieces)
    conn.close()


class SpeedSampler:
    """Context manager that samples the speed of ``cpus`` meanwhile.

    Entering waits until every sampler has timed its first piece, so
    each core has at least one sample.  After exit, :meth:`speed`
    gives the host speed relative to nominal (1.0 = nominal, 0.8 = 20 %
    slower) over a window, and ``pieces`` the number of pieces timed.
    """

    def __init__(self, cpus) -> None:
        context = multiprocessing.get_context("spawn")
        self._stop = context.Event()
        self._samplers = []
        for cpu in sorted(cpus):
            ready = context.Event()
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_sample,
                args=(cpu, os.getpid(), ready, self._stop, sender),
                daemon=True)
            self._samplers.append((cpu, process, ready, receiver, sender))
        #: cpu -> [(start, seconds), ...]
        self.by_cpu: dict = {}
        self.pieces = 0

    def __enter__(self) -> "SpeedSampler":
        for _, process, _, _, sender in self._samplers:
            process.start()
            sender.close()
        for _, process, ready, _, _ in self._samplers:
            if not ready.wait(START_TIMEOUT_S):
                self._stop.set()
                raise RuntimeError(
                    f"speed sampler {process.pid} did not start")
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for cpu, process, _, receiver, _ in self._samplers:
            self.by_cpu[cpu] = receiver.recv()
            process.join()
            process.close()
            receiver.close()
        self.pieces = sum(len(p) for p in self.by_cpu.values())

    def speed(self, start: float = float("-inf"), end: float = float("inf"),
              cpus=None) -> float:
        """Host speed over ``[start, end)`` on ``cpus`` (default: all).

        A core with no piece inside the window (a window shorter than
        ``INTERVAL_S``) contributes all of its pieces instead.
        """
        medians = []
        for cpu in (self.by_cpu if cpus is None else cpus):
            pieces = self.by_cpu[cpu]
            inside = [d for t, d in pieces if start <= t < end]
            medians.append(statistics.median(
                inside or [d for _, d in pieces]))
        return NOMINAL_PIECE_S / statistics.fmean(medians)

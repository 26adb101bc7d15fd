"""The batch runner's pool job: one spec payload in, its result out.

:func:`run_spec` runs inside the warm workers of
:class:`~repro.exec.pool.WorkerPool`.  It never needs to catch
anything: an exception — including :class:`SpecError` from a malformed
payload — becomes the pool's ``"error"`` reply, and a hard crash (a
worker dying without replying) becomes ``"died"``; the batch runner
records or retries either.
"""

from __future__ import annotations

from .spec import SimSpec, execute_spec

__all__ = ["run_spec"]


def run_spec(payload: dict) -> dict:
    """Execute ``{"spec": ..., "attempt": n}``; returns the result payload."""
    return execute_spec(SimSpec.from_dict(payload["spec"]),
                        attempt=payload["attempt"])

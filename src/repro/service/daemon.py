"""The asyncio service daemon: claim queued jobs, execute, shut down cleanly.

``python -m repro serve --state <dir>`` runs one :class:`ServiceDaemon`
against a service state tree (see :mod:`repro.service.jobs` for the
layout).  The daemon:

* opens the tree's persistent :class:`~repro.service.store.ResultStore`
  (reaping temp files torn by crashed writers) and attaches it to the
  process-wide measurement cache, so every engine inside every job reads
  and writes the store — the mechanism behind warm restarts: a second
  daemon process serving the same submission recomputes ~nothing;
* runs ``workers`` asyncio workers, each claiming the oldest queued job
  (atomic rename — multiple daemons can share one tree) and executing it
  in a thread via :func:`~repro.service.jobs.execute_job`, so the event
  loop stays responsive for signals while the measurement pipeline runs;
* shuts down gracefully on SIGTERM/SIGINT: stops claiming, drains the
  running jobs, records final store statistics in ``daemon.json`` and
  exits 0.  ``--max-jobs`` and ``--idle-exit`` bound the run for CI and
  tests — the service smoke job uses both to get a deterministic lifetime
  without signal choreography.

Per-job isolation is inherited from :func:`execute_job`: a job failure is
recorded in its ``result.json`` and never takes the daemon down.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from pathlib import Path

from repro.service.jobs import JobSpec, ServicePaths, claim_next_job, execute_job
from repro.service.store import DEFAULT_MAX_BYTES, ResultStore

__all__ = ["DAEMON_SCHEMA", "ServiceDaemon", "serve"]

#: Schema identifier of the ``daemon.json`` liveness record.
DAEMON_SCHEMA = "atlas-daemon/1"


class ServiceDaemon:
    """One service daemon bound to a state directory.

    Parameters
    ----------
    state_dir:
        Root of the service state tree (created if missing).
    workers:
        Concurrent job threads.  A job runs in its thread, in this process:
        its engines run each batch inline, and its traced replays and slices
        stay out of the fork pools.  Raise it when jobs are queue-bound
        rather than CPU-bound.
    max_jobs:
        Stop after executing this many jobs (``None``: run until signalled).
    idle_exit_s:
        Stop after the queue has been empty, with no job running, for this
        long (``None``: wait for work indefinitely).
    store_max_bytes:
        Size bound of the persistent store's LRU eviction.
    poll_interval_s:
        Queue polling cadence of idle workers.
    """

    def __init__(
        self,
        state_dir: str | Path,
        workers: int = 1,
        max_jobs: int | None = None,
        idle_exit_s: float | None = None,
        store_max_bytes: int = DEFAULT_MAX_BYTES,
        poll_interval_s: float = 0.2,
    ) -> None:
        self.paths = ServicePaths(Path(state_dir)).ensure()
        self.workers = max(1, int(workers))
        self.max_jobs = max_jobs
        self.idle_exit_s = idle_exit_s
        self.poll_interval_s = poll_interval_s
        self.store = ResultStore(self.paths.store_dir, max_bytes=store_max_bytes, reap=True)
        self.jobs_done = 0
        self._running_jobs = 0
        self._stop = asyncio.Event()
        self._claim_lock = asyncio.Lock()
        self._last_active = time.monotonic()

    # ---------------------------------------------------------------- liveness
    def _write_daemon_record(self, status: str) -> None:
        payload = {
            "schema": DAEMON_SCHEMA,
            "pid": os.getpid(),
            "status": status,
            "workers": self.workers,
            "jobs_done": self.jobs_done,
            "store": self.store.stats.as_dict(),
            "store_entries": self.store.entry_count(),
            "store_bytes": self.store.total_bytes(),
        }
        tmp = self.paths.daemon_file.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.paths.daemon_file)

    def stop(self) -> None:
        """Request shutdown: workers stop claiming and drain their jobs."""
        self._stop.set()

    # ----------------------------------------------------------------- workers
    def _budget_exhausted(self) -> bool:
        return self.max_jobs is not None and self.jobs_done + self._running_jobs >= self.max_jobs

    async def _claim(self) -> "JobSpec | None":
        # One claimant at a time within this process; across processes the
        # queue-file rename in claim_next_job is the arbiter.
        async with self._claim_lock:
            if self._stop.is_set() or self._budget_exhausted():
                return None
            spec = claim_next_job(self.paths)
            if spec is not None:
                self._running_jobs += 1
                self._last_active = time.monotonic()
            return spec

    async def _worker(self, index: int) -> None:
        while not self._stop.is_set():
            spec = await self._claim()
            if spec is None:
                if self._budget_exhausted() and self._running_jobs == 0:
                    self.stop()
                    return
                if (
                    self.idle_exit_s is not None
                    and self._running_jobs == 0
                    and time.monotonic() - self._last_active >= self.idle_exit_s
                ):
                    self.stop()
                    return
                await asyncio.sleep(self.poll_interval_s)
                continue
            try:
                await asyncio.to_thread(execute_job, spec, self.paths, self.store)
            finally:
                self._running_jobs -= 1
                self.jobs_done += 1
                self._last_active = time.monotonic()

    # --------------------------------------------------------------------- run
    async def run(self) -> int:
        """Serve the queue until signalled or bounded out; returns 0."""
        from repro.engine.cache import attach_shared_store

        attach_shared_store(self.store)
        self._write_daemon_record("running")
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.stop)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-main thread / platform without signal support
        try:
            workers = [
                asyncio.create_task(self._worker(index)) for index in range(self.workers)
            ]
            await self._stop.wait()
            # Workers observe the stop event after their current job; drain.
            await asyncio.gather(*workers, return_exceptions=True)
        finally:
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass
            attach_shared_store(None)
            self._write_daemon_record("stopped")
        return 0


def serve(
    state_dir: str | Path,
    workers: int = 1,
    max_jobs: int | None = None,
    idle_exit_s: float | None = None,
    store_max_bytes: int = DEFAULT_MAX_BYTES,
) -> int:
    """Run a daemon to completion (the ``python -m repro serve`` backend)."""
    daemon = ServiceDaemon(
        state_dir,
        workers=workers,
        max_jobs=max_jobs,
        idle_exit_s=idle_exit_s,
        store_max_bytes=store_max_bytes,
    )
    return asyncio.run(daemon.run())

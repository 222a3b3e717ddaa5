"""The service daemon: claim queued jobs, execute them one at a time, shut down cleanly.

``python -m repro serve --state <dir>`` runs one :class:`ServiceDaemon`
against a service state tree (see :mod:`repro.service.jobs` for the
layout).  The daemon:

* opens the tree's persistent :class:`~repro.service.store.ResultStore`
  (reaping temp files torn by crashed writers) and attaches it to the
  process-wide measurement cache, so every engine inside every job reads
  and writes the store — the mechanism behind warm restarts: a second
  daemon process serving the same submission recomputes ~nothing;
* claims the oldest queued job and executes it on the main thread via
  :func:`~repro.service.jobs.execute_job`, then claims the next.  A job
  owns the process while it runs: its stdout, the counters its cost
  ledger reads and any fork pool it starts.  To run jobs side by side,
  start more daemons on the same tree: a claim is an atomic rename, so
  exactly one daemon claims each job;
* shuts down gracefully on SIGTERM/SIGINT: stops claiming, lets the
  running job finish, records final store statistics in its liveness
  record ``daemons/<pid>.json`` and exits 0.  ``--max-jobs`` and
  ``--idle-exit`` bound the run for CI and tests — the service smoke job
  uses both to get a deterministic lifetime without signal choreography.

Per-job isolation is inherited from :func:`execute_job`: a job failure is
recorded in its ``result.json`` and never takes the daemon down.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from pathlib import Path

from repro.service.jobs import ServicePaths, _atomic_write_json, claim_next_job, execute_job
from repro.service.store import DEFAULT_MAX_BYTES, ResultStore

__all__ = ["DAEMON_SCHEMA", "ServiceDaemon", "serve"]

#: Schema identifier of the ``daemons/<pid>.json`` liveness records.
DAEMON_SCHEMA = "atlas-daemon/2"


class ServiceDaemon:
    """One service daemon bound to a state directory.

    Parameters
    ----------
    state_dir:
        Root of the service state tree (created if missing).
    max_jobs:
        Stop after executing this many jobs (``None``: run until signalled).
    idle_exit_s:
        Stop after the queue has been empty, with no job running, for this
        long (``None``: wait for work indefinitely).
    store_max_bytes:
        Size bound of the persistent store's LRU eviction.
    poll_interval_s:
        Queue polling cadence while the queue is empty.
    """

    def __init__(
        self,
        state_dir: str | Path,
        max_jobs: int | None = None,
        idle_exit_s: float | None = None,
        store_max_bytes: int = DEFAULT_MAX_BYTES,
        poll_interval_s: float = 0.2,
    ) -> None:
        self.paths = ServicePaths(Path(state_dir)).ensure()
        self.max_jobs = max_jobs
        self.idle_exit_s = idle_exit_s
        self.poll_interval_s = poll_interval_s
        self.store = ResultStore(self.paths.store_dir, max_bytes=store_max_bytes, reap=True)
        self.record_file = self.paths.daemons / f"{os.getpid()}.json"
        self.jobs_done = 0
        self._stopping = False

    def _write_daemon_record(self, status: str) -> None:
        _atomic_write_json(
            self.record_file,
            {
                "schema": DAEMON_SCHEMA,
                "pid": os.getpid(),
                "status": status,
                "jobs_done": self.jobs_done,
                "store": self.store.stats.as_dict(),
                "store_entries": self.store.entry_count(),
                "store_bytes": self.store.total_bytes(),
            },
        )

    def stop(self, *_signal) -> None:
        """Request shutdown: stop claiming once the running job (if any) finishes.

        Also the SIGTERM/SIGINT handler of :meth:`run`, hence the ignored
        ``(signum, frame)`` arguments.
        """
        self._stopping = True

    def _serve_queue(self) -> None:
        idle_since = time.monotonic()
        while not self._stopping:
            if self.max_jobs is not None and self.jobs_done >= self.max_jobs:
                return
            spec = claim_next_job(self.paths)
            if spec is None:
                if self.idle_exit_s is not None and time.monotonic() - idle_since >= self.idle_exit_s:
                    return
                time.sleep(self.poll_interval_s)
                continue
            execute_job(spec, self.paths, self.store)
            self.jobs_done += 1
            idle_since = time.monotonic()

    def run(self) -> int:
        """Serve the queue until signalled or bounded out; returns 0.

        SIGTERM and SIGINT stop the daemon (:meth:`stop`) while it runs, when
        it runs on the main thread, the only one that may set signal
        handlers; the previous handlers come back when it returns.
        """
        from repro.engine.cache import attach_shared_store

        attach_shared_store(self.store)
        self._write_daemon_record("running")
        previous = {}
        if threading.current_thread() is threading.main_thread():
            for signum in (signal.SIGTERM, signal.SIGINT):
                previous[signum] = signal.signal(signum, self.stop)
        try:
            self._serve_queue()
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            attach_shared_store(None)
            self._write_daemon_record("stopped")
        return 0


def serve(
    state_dir: str | Path,
    max_jobs: int | None = None,
    idle_exit_s: float | None = None,
    store_max_bytes: int = DEFAULT_MAX_BYTES,
) -> int:
    """Run a daemon to completion (the ``python -m repro serve`` backend)."""
    daemon = ServiceDaemon(
        state_dir, max_jobs=max_jobs, idle_exit_s=idle_exit_s, store_max_bytes=store_max_bytes
    )
    return daemon.run()

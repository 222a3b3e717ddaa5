"""Fork pools that run whole, independent jobs side by side.

Two callers map whole jobs over the cores: the eval harness, one
``(case, seed)`` replay per job
(:meth:`repro.evalharness.runner.EvalRunner.run_seeds`), and
``python -m repro run`` on a multi-slice entry, one slice's stage 1→2→3
pipeline per job.  :func:`fork_map` serves both:

* it forks a fresh pool for each call and hands the workers the job
  function and the job list through the pool initializer, so only job
  indices are pickled on the way in: closures, subclasses and test
  monkeypatches reach the workers exactly as they are in the parent;
* every :class:`~repro.engine.engine.MeasurementEngine` built inside a
  worker runs its batches inline, with one worker, whatever ``max_workers``
  its caller passes (``auto`` resolves to ``vectorized``, ``sharded`` plans
  one shard): the pool already fills the cores, and a shard pool forked
  inside a pool worker would nest;
* each job's engine-telemetry delta travels back with its result and is
  folded into the parent's counters, so cost ledgers and traces read in
  the parent count the workers' measurements;
* results come back in job order.

:func:`pool_size` holds the sizing rules the two callers share.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

__all__ = ["fork_map", "in_pool_worker", "pool_size"]

Job = TypeVar("Job")
Result = TypeVar("Result")

#: The job function and job list of this process when it is a pool worker,
#: installed by the pool initializer.  The pool forks, so neither is pickled.
_WORKER: "tuple[Callable, list] | None" = None


def in_pool_worker() -> bool:
    """Whether this process is a :func:`fork_map` worker."""
    return _WORKER is not None


def pool_size(n_jobs: int, cores: int, executor_kind: str) -> int:
    """Workers of a fork pool over ``n_jobs`` jobs (1: run them in-process).

    The pool gets min(``cores``, ``n_jobs``) workers, where ``cores`` is
    the caller's bound: its usable cores, capped by any worker limit.  The
    jobs run in-process instead

    * when their engines use the ``process`` executor: it sends every batch
      of two or more requests to a process pool even with one worker, so
      each pool worker would fork a pool of its own, and such a pass never
      finishes (the workers wait on their own pools at exit);
    * on a platform without ``fork``.
    """
    if executor_kind == "process" or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return max(1, min(cores, n_jobs))


def fork_map(
    function: Callable[[Job], Result], jobs: Iterable[Job], workers: int
) -> Iterator[Result]:
    """Yield ``function(job)`` for every job, in job order.

    With ``workers`` of 2 or more, the first result requested forks a pool
    of that many processes (at most one per job) for this call; see the
    module docstring for what the workers inherit.  Text this process has
    buffered is written once: ``multiprocessing`` flushes the standard
    streams before each fork.  With fewer workers the jobs run one after
    another in this process.  A job's exception reaches the caller when
    its result is due; the jobs still running finish first, and the rest
    are cancelled.
    """
    jobs = list(jobs)
    workers = min(workers, len(jobs))
    if workers < 2:
        for job in jobs:
            yield function(job)
        return
    from repro.engine.engine import fold_engine_telemetry  # engine.py imports this module

    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(function, jobs),
    ) as pool:
        for result, telemetry in pool.map(_run_job, range(len(jobs))):
            fold_engine_telemetry(telemetry)
            yield result


def _start_worker(function: Callable, jobs: list) -> None:
    global _WORKER
    _WORKER = (function, jobs)


def _run_job(index: int) -> tuple[object, dict[str, float]]:
    """Run job ``index``; return its result and its engine-telemetry delta."""
    from repro.engine.engine import engine_telemetry

    function, jobs = _WORKER
    before = engine_telemetry()
    result = function(jobs[index])
    after = engine_telemetry()
    return result, {key: after[key] - before[key] for key in after}

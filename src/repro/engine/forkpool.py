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
* every :class:`~repro.engine.engine.MeasurementEngine`, in a worker or
  not, runs its batches inline in one vectorized pass, so this is the one
  level of parallelism and pools never nest;
* each job's delta of every :class:`Counters` set alive when the pool
  forks travels back with its result and is folded into the parent's copy,
  in job order.  Those sets are the ones a cost ledger reads: the engine
  telemetry and the :class:`~repro.engine.cache.CacheStats` and
  :class:`~repro.service.store.StoreStats` of every cache and store, so
  ledgers and traces read in the parent count the workers' measurements,
  cache hits and store traffic.  Sets created inside a worker die with it;
* results come back in job order.

Each worker works on its own forked copy of every cache: what one job puts
in memory, a job in another worker can only read back through a store.

:func:`pool_size` and :func:`available_parallelism` hold the sizing rules
the two callers share.
"""

from __future__ import annotations

import dataclasses
import itertools
import multiprocessing
import os
import weakref
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Iterator, TypeVar

__all__ = ["Counters", "available_parallelism", "fork_map", "pool_size"]

Job = TypeVar("Job")
Result = TypeVar("Result")

#: Every :class:`Counters` set alive in this process by weak reference, in
#: creation order.  A set's entry leaves when the set is collected.
_COUNTERS: "dict[int, weakref.ref[Counters]]" = {}
_COUNTER_IDS = itertools.count()

#: The job function, job list and counter sets of this process when it is a
#: pool worker, installed by the pool initializer.  The pool forks, so none
#: of them is pickled.
_WORKER: "tuple[Callable, list, list[Counters]] | None" = None


class Counters:
    """Base of the dataclasses of numeric counters that :func:`fork_map` folds.

    Every instance registers itself when it is created.  A fork pool carries
    each job's change of every registered set back to the parent and adds
    it there, field by field, so counting through a pool reads the same as
    counting in-process.
    """

    def __post_init__(self) -> None:
        """Register the new set with the fork pools of this process."""
        key = next(_COUNTER_IDS)
        _COUNTERS[key] = weakref.ref(self, lambda _, key=key, live=_COUNTERS: live.pop(key, None))

    def counts(self) -> tuple:
        """Every field's value, in field order."""
        return tuple(getattr(self, field.name) for field in dataclasses.fields(self))

    def add(self, delta: tuple) -> None:
        """Add ``delta`` (a difference of two :meth:`counts`) field by field."""
        for field, value in zip(dataclasses.fields(self), delta):
            setattr(self, field.name, getattr(self, field.name) + value)

    def reset(self) -> None:
        """Zero every counter."""
        for field in dataclasses.fields(self):
            setattr(self, field.name, 0)

    def as_dict(self) -> dict:
        """Every counter by field name."""
        return {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}


def _live_counters() -> "list[Counters]":
    """Every live :class:`Counters` set, in creation order.

    The registry is copied in one step, so sets that other threads create
    or drop meanwhile cannot break the iteration.
    """
    return [counters for counters in (ref() for ref in _COUNTERS.copy().values()) if counters is not None]


def available_parallelism() -> int:
    """CPUs usable by this process (cgroup/affinity aware where possible)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def pool_size(n_jobs: int, cores: int) -> int:
    """Workers of a fork pool over ``n_jobs`` jobs (1: run them in-process).

    The pool gets min(``cores``, ``n_jobs``) workers, where ``cores`` is
    the caller's bound: its usable cores, capped by any worker limit.  On a
    platform without ``fork`` the jobs run in-process instead.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return max(1, min(cores, n_jobs))


def fork_map(
    function: Callable[[Job], Result], jobs: Iterable[Job], workers: int
) -> Iterator[Result]:
    """Yield ``function(job)`` for every job, in job order.

    With ``workers`` of 2 or more, the first result requested forks a pool
    of that many processes (at most one per job) for this call; see the
    module docstring for what the workers inherit and what they send back.
    The thread that iterates folds the counters.  Text this process has
    buffered is written once: ``multiprocessing`` flushes the standard
    streams before each fork.  With fewer workers the jobs run one after
    another in this process, counting in place.  A job's exception reaches
    the caller when its result is due; the jobs still running finish first,
    and the rest are cancelled.
    """
    jobs = list(jobs)
    workers = min(workers, len(jobs))
    if workers < 2:
        for job in jobs:
            yield function(job)
        return
    counters = _live_counters()
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_start_worker,
        initargs=(function, jobs, counters),
    ) as pool:
        for result, deltas in pool.map(_run_job, range(len(jobs))):
            for index, delta in deltas.items():
                counters[index].add(delta)
            yield result


def _start_worker(function: Callable, jobs: list, counters: "list[Counters]") -> None:
    global _WORKER
    _WORKER = (function, jobs, counters)


def _run_job(index: int) -> "tuple[object, dict[int, tuple]]":
    """Run job ``index``; return its result and the changed counter sets' deltas."""
    function, jobs, counters = _WORKER
    before = [counter.counts() for counter in counters]
    result = function(jobs[index])
    deltas = {}
    for position, (counter, old) in enumerate(zip(counters, before)):
        new = counter.counts()
        if new != old:
            deltas[position] = tuple(after - start for after, start in zip(new, old))
    return result, deltas

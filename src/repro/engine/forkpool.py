"""Fork pools that run whole, independent jobs side by side.

Three callers map whole jobs over the cores: the eval harness, one
``(case, seed)`` replay per job
(:meth:`repro.evalharness.runner.EvalRunner.run_seeds`);
``python -m repro run`` on a multi-slice entry, one slice's stage 1→2→3
pipeline per job; and the online figure runners of
:mod:`repro.experiments.stage3` and Fig. 5, one method, variant or
(traffic level, method) pair per job.  :func:`fork_map` serves them all:

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
* each job runs with its standard output captured, and the parent writes
  that text when the job's result is due, so the output bytes are those of
  an in-process run;
* a job that raises sends its exception back with its output and counter
  deltas, and the parent folds and writes those before raising it, as an
  in-process run would have counted and printed them;
* results come back in job order.

Each worker works on its own forked copy of every cache: what one job puts
in memory, a job in another worker can only read back through a store.
A :class:`~repro.service.tracer.Tracer` open in the parent is inherited as
well: it appends and flushes every record, so a worker's spans land in the
same trace file, in the order the jobs finish.

:func:`fork_map` sizes the pool itself, one worker per usable core
(:func:`available_parallelism`) and at most one per job, so callers pass
only the function and the jobs.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import multiprocessing
import os
import sys
import weakref
from concurrent.futures import ProcessPoolExecutor
from contextlib import redirect_stdout
from typing import Callable, Iterable, Iterator, TypeVar

__all__ = ["Counters", "available_parallelism", "fork_map"]

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


def fork_map(function: Callable[[Job], Result], jobs: Iterable[Job]) -> Iterator[Result]:
    """Yield ``function(job)`` for every job, in job order.

    The pool gets min(:func:`available_parallelism`, number of jobs)
    workers.  With 2 or more, the first result requested forks it for this
    call; see the module docstring for what the workers inherit and what
    they send back.  The thread that iterates folds the counters and writes
    each job's captured output to ``sys.stdout`` before yielding its result.
    Text this process has buffered is written once: ``multiprocessing``
    flushes the standard streams before each fork.  With fewer workers, or
    on a platform without ``fork``, the jobs run one after another in this
    process, counting and printing in place.  A job's exception reaches
    the caller when its result is due, after its counts and output; the
    jobs still running finish first, and the rest are cancelled.
    """
    jobs = list(jobs)
    workers = min(available_parallelism(), len(jobs))
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
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
        for result, error, output, deltas in pool.map(_run_job, range(len(jobs))):
            for index, delta in deltas.items():
                counters[index].add(delta)
            sys.stdout.write(output)
            if error is not None:
                pool.shutdown(cancel_futures=True)
                raise error
            yield result


def _start_worker(function: Callable, jobs: list, counters: "list[Counters]") -> None:
    global _WORKER
    _WORKER = (function, jobs, counters)


def _run_job(index: int) -> "tuple[object, BaseException | None, str, dict[int, tuple]]":
    """Run job ``index``; return its result or exception, its output and the changed counter sets' deltas."""
    function, jobs, counters = _WORKER
    before = [counter.counts() for counter in counters]
    with redirect_stdout(io.StringIO()) as output:
        try:
            result, error = function(jobs[index]), None
        except Exception as exc:
            # Unpickled in the parent as ``exc``, caused by the worker's
            # traceback; imported here so that runs that raise nothing do not
            # load the module.
            from multiprocessing.pool import ExceptionWithTraceback

            result, error = None, ExceptionWithTraceback(exc, exc.__traceback__)
    deltas = {}
    for position, (counter, old) in enumerate(zip(counters, before)):
        new = counter.counts()
        if new != old:
            deltas[position] = tuple(after - start for after, start in zip(new, old))
    return result, error, output.getvalue(), deltas

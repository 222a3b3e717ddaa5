"""The unified measurement engine.

:class:`MeasurementEngine` is the single execution layer every environment
consumer (stages 1–3, the baselines and the experiment runners) submits its
measurements through.  It accepts batches of
:class:`~repro.engine.protocol.MeasurementRequest`, executes them through a
pluggable executor (``auto`` — the adaptive default — ``serial``,
``thread``, ``process``, ``vectorized`` or ``sharded``) and memoises the
results in a content-keyed cache.

Determinism
    ``seed=None`` requests are resolved from a per-engine
    :class:`numpy.random.SeedSequence` stream *before* dispatch, so the same
    batch produces byte-identical results under every scalar executor kind
    (``vectorized`` results are per-request reproducible too, but follow the
    batch path's own statistically-equivalent numerics — see
    :mod:`repro.sim.batch`) and the racy run-counter idiom the simulator
    previously used never crosses a process boundary.

Side effects
    Environments that mutate state per measurement (the real network logs
    every applied configuration through its domain managers) implement
    ``prepare_batch``; the engine invokes it in the parent process and
    executes the returned side-effect-free environment, so histories stay
    correct under process execution and cache hits alike.
"""

from __future__ import annotations

import os
import weakref
from threading import Lock
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

from repro.engine.cache import CacheStats, MeasurementCache, shared_cache
from repro.engine.executors import (
    available_parallelism,
    default_executor_kind,
    make_executor,
)
from repro.engine.protocol import Environment, MeasurementRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.config import SliceConfig
    from repro.sim.network import SimulationResult
    from repro.sim.parameters import SimulationParameters

__all__ = ["MeasurementEngine", "engine_telemetry", "fold_engine_telemetry"]


class _EngineTelemetry:
    """Process-wide execution counters feeding the service cost ledger.

    Engines are created deep inside stages and experiment runners, so
    per-engine counters cannot be aggregated by outer code that never sees
    them.  These process-wide counters can: every engine increments them on
    execution (cache hits excluded), and
    :class:`~repro.service.costs.CostLedger` diffs two snapshots to cost an
    arbitrary block of work.
    """

    def __init__(self) -> None:
        self._lock = Lock()
        self.executed_requests = 0
        self.submitted_batches = 0
        self.sim_seconds = 0.0

    def record_batch(self) -> None:
        with self._lock:
            self.submitted_batches += 1

    def record_executed(self, count: int, sim_seconds: float) -> None:
        with self._lock:
            self.executed_requests += count
            self.sim_seconds += sim_seconds

    def fold(self, delta: Mapping[str, float]) -> None:
        with self._lock:
            self.executed_requests += int(delta["executed_requests"])
            self.submitted_batches += int(delta["submitted_batches"])
            self.sim_seconds += float(delta["sim_seconds"])

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            return {
                "executed_requests": self.executed_requests,
                "submitted_batches": self.submitted_batches,
                "sim_seconds": self.sim_seconds,
            }

    def _renew_lock(self) -> None:
        self._lock = Lock()


_TELEMETRY = _EngineTelemetry()
# Eval replay workers record into these counters after a fork.  The fork
# copies the lock in whatever state another thread of the parent left it,
# so each child starts with a fresh one.  (Platforms without fork have no
# hook and no replay pool.)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_TELEMETRY._renew_lock)


def engine_telemetry() -> dict[str, float]:
    """Snapshot of the process-wide engine counters.

    Keys: ``executed_requests`` (measurements actually executed — cache
    hits excluded), ``submitted_batches`` and ``sim_seconds`` (simulated
    seconds produced by executed measurements).  Monotonic over the process
    lifetime; cost accounting diffs two snapshots rather than resetting.
    """
    return _TELEMETRY.snapshot()


def fold_engine_telemetry(delta: Mapping[str, float]) -> None:
    """Add counters measured in another process into this process's counters.

    ``delta`` holds the :func:`engine_telemetry` keys, as a difference of
    two snapshots taken in that process.  The eval harness folds in each
    replay worker's delta, so the parent's telemetry (and every cost
    ledger or trace reading it) counts work its forked workers did.
    """
    _TELEMETRY.fold(delta)


class MeasurementEngine:
    """Batched, parallel, cached execution of environment measurements.

    Parameters
    ----------
    environment:
        Any :class:`~repro.engine.protocol.Environment` (the simulator or the
        real network).
    executor:
        ``"auto"`` (the default), ``"serial"``, ``"thread"``, ``"process"``,
        ``"vectorized"`` or ``"sharded"``; ``None`` picks the kind selected
        by the ``ATLAS_ENGINE_EXECUTOR`` environment variable, falling back
        to ``auto`` — the adaptive policy of
        :func:`repro.engine.executors.choose_executor`, which picks
        serial / vectorized / sharded / process per batch from the batch
        shape, the usable cores and the environment's capabilities.
        ``vectorized`` collapses each batch into one NumPy pass over the
        environment's ``run_requests`` hook; ``sharded`` runs that pass
        inside each process-pool worker so the multi-core and vectorized
        speedups multiply.  Custom kinds can be registered via
        :func:`repro.engine.executors.register_executor`.
    max_workers:
        Parallel workers of the thread/process/sharded executors (and the
        concurrency cap of ``auto``'s per-batch choice).  Defaults to the
        machine's available parallelism; stages pass their
        ``parallel_queries`` budget here so the paper's scale knobs map
        directly onto real concurrency.
    cache:
        ``True`` (default) uses the process-wide shared cache, ``False``
        disables caching, and a :class:`MeasurementCache` instance gives the
        engine a private cache (useful for isolated hit/miss accounting).
    seed:
        Seed of the stream that resolves ``seed=None`` requests.
    """

    def __init__(
        self,
        environment: Environment,
        executor: str | None = None,
        max_workers: int | None = None,
        cache: MeasurementCache | bool = True,
        seed: int = 0,
    ) -> None:
        self.environment = environment
        self.executor_kind = executor if executor is not None else default_executor_kind()
        self.max_workers = (
            max(1, int(max_workers)) if max_workers is not None else available_parallelism()
        )
        if cache is True:
            self._cache: MeasurementCache | None = shared_cache()
        elif cache is False or cache is None:
            self._cache = None
        else:
            self._cache = cache
        self._seed_sequence = np.random.SeedSequence(int(seed))
        self._executor = make_executor(self.executor_kind, self.max_workers)
        # Engines are routinely created per stage/experiment and dropped
        # without an explicit shutdown(); release any lazily spawned
        # thread/process pool when the engine is garbage collected.
        self._finalizer = weakref.finalize(self, self._executor.shutdown)
        #: Measurements actually executed (cache hits excluded).
        self.executed_requests = 0
        #: Batches submitted through :meth:`run_batch`.
        self.submitted_batches = 0

    # ---------------------------------------------------------------- executor
    @property
    def executor(self):
        """The executor instance dispatching this engine's batches.

        Useful for introspection: ``engine.executor.last_choice`` under the
        ``auto`` kind, ``engine.executor.last_shards`` under ``sharded``.
        """
        return self._executor

    # ------------------------------------------------------------------- cache
    @property
    def cache(self) -> MeasurementCache | None:
        """The cache backing this engine (``None`` when disabled)."""
        return self._cache

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of the backing cache (zeros when disabled)."""
        if self._cache is None:
            return CacheStats()
        return self._cache.stats

    def clear_cache(self) -> None:
        """Drop the backing cache's entries (no-op when disabled)."""
        if self._cache is not None:
            self._cache.clear()

    def _cache_key(self, environment: Environment, request: MeasurementRequest) -> tuple:
        # Keys carry the executor's numerics family: the scalar kinds
        # (serial/thread/process) are byte-identical and share entries, but
        # the vectorized family's statistically-equivalent results (the
        # vectorized and sharded kinds, byte-identical to each other) must
        # never be served to a scalar engine (or vice versa) through the
        # process-wide shared cache.  Adaptive executors expose ``numerics``
        # as a callable of the environment — the family must be fixed before
        # cache lookup, so it can depend on the environment's capabilities
        # but never on the batch shape.
        numerics = getattr(self._executor, "numerics", "scalar")
        if callable(numerics):
            numerics = numerics(environment)
        return (environment.fingerprint(), request.key(), numerics)

    # ----------------------------------------------------------------- seeding
    def _next_auto_seed(self) -> int:
        child = self._seed_sequence.spawn(1)[0]
        return int(child.generate_state(1, dtype=np.uint32)[0])

    def _resolve_seeds(self, requests: Iterable[MeasurementRequest]) -> list[MeasurementRequest]:
        resolved = []
        for request in requests:
            if request.seed is None:
                request = request.replace(seed=self._next_auto_seed())
            resolved.append(request)
        return resolved

    # --------------------------------------------------------------- execution
    def run_batch(self, requests: Sequence[MeasurementRequest]) -> list["SimulationResult"]:
        """Execute a batch of requests and return results in submission order.

        Cache hits are served without touching the executor; misses are
        dispatched together so the executor can chunk them across workers.
        """
        self.submitted_batches += 1
        _TELEMETRY.record_batch()
        environment = self.environment
        resolved = list(requests)
        prepare = getattr(environment, "prepare_batch", None)
        if callable(prepare):
            # The hook may resolve seeds itself (the real network falls back
            # to its measurement counter, matching its direct measure path).
            environment, resolved = prepare(resolved)
        resolved = self._resolve_seeds(resolved)

        results: list["SimulationResult | None"] = [None] * len(resolved)
        pending: list[tuple[int, tuple, MeasurementRequest]] = []
        for index, request in enumerate(resolved):
            if self._cache is not None:
                key = self._cache_key(environment, request)
                hit = self._cache.get(key)
                if hit is not None:
                    results[index] = hit
                    continue
            else:
                key = ()
            pending.append((index, key, request))

        if pending:
            executed = self._executor.map_requests(environment, [r for _, _, r in pending])
            self.executed_requests += len(executed)
            _TELEMETRY.record_executed(
                len(executed), sum(float(result.duration_s) for result in executed)
            )
            for (index, key, _), result in zip(pending, executed):
                if self._cache is not None:
                    self._cache.put(key, result)
                results[index] = result
        return results  # type: ignore[return-value]

    def run(
        self,
        config: "SliceConfig",
        traffic: int | None = None,
        duration: float | None = None,
        seed: int | None = None,
        params: "SimulationParameters | None" = None,
    ) -> "SimulationResult":
        """Execute a single measurement (batched path with one request)."""
        request = MeasurementRequest(
            config=config, traffic=traffic, duration=duration, seed=seed, params=params
        )
        return self.run_batch([request])[0]

    def collect_latencies_batch(self, requests: Sequence[MeasurementRequest]) -> list[np.ndarray]:
        """Batched variant returning only the latency collections."""
        return [result.latencies_ms for result in self.run_batch(requests)]

    def collect_latencies(
        self,
        config: "SliceConfig",
        traffic: int | None = None,
        duration: float | None = None,
        seed: int | None = None,
        params: "SimulationParameters | None" = None,
    ) -> np.ndarray:
        """Single-measurement variant returning only the latency collection."""
        return self.run(config, traffic=traffic, duration=duration, seed=seed, params=params).latencies_ms

    # ---------------------------------------------------------------- lifecycle
    def shutdown(self) -> None:
        """Release engine-owned executor resources.

        Thread pools are torn down (and lazily re-created on reuse); the
        process pools backing the ``process``/``sharded`` kinds are shared
        process-wide and deliberately stay warm — see
        :func:`repro.engine.executors.shutdown_worker_pools` for the real
        teardown.
        """
        self._executor.shutdown()

    def __enter__(self) -> "MeasurementEngine":
        """Enter the context manager (returns the engine itself)."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Shut down the executor pools on context exit."""
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Compact description of the engine's execution setup."""
        return (
            f"MeasurementEngine(environment={type(self.environment).__name__}, "
            f"executor={self.executor_kind!r}, max_workers={self.max_workers}, "
            f"cache={'off' if self._cache is None else 'on'})"
        )

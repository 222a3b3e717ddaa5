"""The unified measurement engine.

:class:`MeasurementEngine` is the single execution layer every environment
consumer (stages 1–3, the baselines and the experiment runners) submits its
measurements through.  It accepts batches of
:class:`~repro.engine.protocol.MeasurementRequest`, executes each batch's
cache misses inline in one vectorized pass
(:class:`~repro.engine.executors.VectorizedExecutor`) and memoises the
results in a content-keyed cache.

Determinism
    ``seed=None`` requests are resolved from a per-engine
    :class:`numpy.random.SeedSequence` stream *before* dispatch, so every
    result depends on its request alone: the same request produces
    byte-identical results in any batch composition, whole or split, cached
    or not (the per-lane seed streams of :mod:`repro.sim.batch`), and in any
    process.

Side effects
    Environments that mutate state per measurement (the real network logs
    every applied configuration through its domain managers) implement
    ``prepare_batch``; the engine invokes it before the cache lookup and
    executes the returned side-effect-free environment, so histories stay
    correct under cache hits too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from threading import Lock
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.engine.cache import CacheStats, MeasurementCache, shared_cache
from repro.engine.executors import VectorizedExecutor
from repro.engine.forkpool import Counters
from repro.engine.protocol import Environment, MeasurementRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.config import SliceConfig
    from repro.sim.network import SimulationResult
    from repro.sim.parameters import SimulationParameters

__all__ = ["MeasurementEngine", "engine_telemetry"]


@dataclass
class _EngineTelemetry(Counters):
    """Process-wide execution counters feeding the service cost ledger.

    Engines are created deep inside stages and experiment runners, so
    per-engine counters cannot be aggregated by outer code that never sees
    them.  These process-wide counters can: every engine increments them on
    execution (cache hits excluded), and
    :class:`~repro.service.costs.CostLedger` diffs two snapshots to cost an
    arbitrary block of work.  Fork pools fold their workers' counts in
    (:mod:`repro.engine.forkpool`).
    """

    executed_requests: int = 0
    submitted_batches: int = 0
    sim_seconds: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        self._lock = Lock()

    def record_batch(self) -> None:
        with self._lock:
            self.submitted_batches += 1

    def record_executed(self, count: int, sim_seconds: float) -> None:
        with self._lock:
            self.executed_requests += count
            self.sim_seconds += sim_seconds

    def add(self, delta: tuple) -> None:
        with self._lock:
            super().add(delta)

    def as_dict(self) -> dict[str, float]:
        with self._lock:
            return super().as_dict()

    def _renew_lock(self) -> None:
        self._lock = Lock()


_TELEMETRY = _EngineTelemetry()
# Fork-pool workers record into these counters after a fork.  The fork
# copies the lock in whatever state another thread of the parent left it,
# so each child starts with a fresh one.  (Platforms without fork have no
# hook and no fork pool.)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_TELEMETRY._renew_lock)


def engine_telemetry() -> dict[str, float]:
    """Snapshot of the process-wide engine counters.

    Keys: ``executed_requests`` (measurements actually executed — cache
    hits excluded), ``submitted_batches`` and ``sim_seconds`` (simulated
    seconds produced by executed measurements).  Monotonic over the process
    lifetime; cost accounting diffs two snapshots rather than resetting.
    The counts of fork-pool workers are folded in as their jobs return.
    """
    return _TELEMETRY.as_dict()


class MeasurementEngine:
    """Batched, cached execution of environment measurements.

    Each batch's cache misses run inline, in one vectorized pass over the
    environment's ``run_requests`` hook
    (:class:`~repro.engine.executors.VectorizedExecutor`).  Parallelism
    lives one level up: :func:`repro.engine.forkpool.fork_map` runs whole
    eval replays and slice pipelines side by side.

    Parameters
    ----------
    environment:
        Any :class:`~repro.engine.protocol.Environment` (the simulator or the
        real network).
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
        cache: MeasurementCache | bool = True,
        seed: int = 0,
    ) -> None:
        self.environment = environment
        #: The executor dispatching this engine's cache misses.
        self.executor = VectorizedExecutor()
        if cache is True:
            self._cache: MeasurementCache | None = shared_cache()
        elif cache is False or cache is None:
            self._cache = None
        else:
            self._cache = cache
        self._seed_sequence = np.random.SeedSequence(int(seed))
        #: Measurements actually executed (cache hits excluded).
        self.executed_requests = 0
        #: Batches submitted through :meth:`run_batch`.
        self.submitted_batches = 0

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
        return (environment.fingerprint(), request.key())

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

        Cache hits are served without touching the executor; the misses go
        to it together, as one vectorized pass.
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
            executed = self.executor.map_requests(environment, [r for _, _, r in pending])
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Compact description of the engine's execution setup."""
        return (
            f"MeasurementEngine(environment={type(self.environment).__name__}, "
            f"cache={'off' if self._cache is None else 'on'})"
        )

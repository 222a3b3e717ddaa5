"""Unified measurement engine: one environment protocol, one execution layer.

Every simulator / real-network query in the reproduction flows through
:class:`~repro.engine.engine.MeasurementEngine`, which batches requests,
executes each batch inline in one vectorized pass and memoises results in a
content-keyed cache.  :func:`~repro.engine.forkpool.fork_map` is the one
parallelism level: it runs whole eval replays, slice pipelines and online
figure jobs side by side.  See ``docs/architecture.md`` for the
architecture walkthrough (sim → engine → stages → experiments) and
``docs/performance.md`` for the measurements behind that design.
"""

from repro.engine.cache import CacheStats, MeasurementCache, attach_shared_store, shared_cache
from repro.engine.engine import MeasurementEngine, engine_telemetry
from repro.engine.executors import EXECUTOR_KINDS, pool_diagnostics
from repro.engine.forkpool import available_parallelism
from repro.engine.protocol import Environment, MeasurementRequest

__all__ = [
    "CacheStats",
    "Environment",
    "EXECUTOR_KINDS",
    "MeasurementCache",
    "MeasurementEngine",
    "MeasurementRequest",
    "attach_shared_store",
    "available_parallelism",
    "engine_telemetry",
    "pool_diagnostics",
    "shared_cache",
]

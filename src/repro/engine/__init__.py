"""Unified measurement engine: one environment protocol, one execution layer.

Every simulator / real-network query in the reproduction flows through
:class:`~repro.engine.engine.MeasurementEngine`, which batches requests,
executes them through pluggable vectorized/sharded executors (adaptively
selected per batch under the default ``auto`` kind)
and memoises results in a content-keyed cache.  See ``docs/architecture.md``
for the architecture walkthrough (sim → engine → stages → experiments) and
``docs/performance.md`` for the executor selection guide.
"""

from repro.engine.cache import (
    STORE_ENV_VAR,
    CacheStats,
    MeasurementCache,
    attach_shared_store,
    shared_cache,
)
from repro.engine.engine import MeasurementEngine, engine_telemetry
from repro.engine.executors import (
    EXECUTOR_KINDS,
    available_parallelism,
    choose_executor,
    default_executor_kind,
    make_executor,
    pool_diagnostics,
    shutdown_worker_pools,
)
from repro.engine.protocol import Environment, MeasurementRequest

__all__ = [
    "CacheStats",
    "Environment",
    "EXECUTOR_KINDS",
    "MeasurementCache",
    "MeasurementEngine",
    "MeasurementRequest",
    "STORE_ENV_VAR",
    "attach_shared_store",
    "available_parallelism",
    "choose_executor",
    "default_executor_kind",
    "engine_telemetry",
    "make_executor",
    "pool_diagnostics",
    "shared_cache",
    "shutdown_worker_pools",
]

"""Per-run cost ledger: sim-seconds, engine requests, cache tiers, wall time.

Every service job, eval run and benchmark answers the same accounting
question: *what did this run cost, and how much of it was served from
cache?*  :class:`CostLedger` answers it by snapshotting three counter
sources when opened and diffing them when closed:

* the process-wide engine telemetry
  (:func:`repro.engine.engine.engine_telemetry` — measurements actually
  executed, batches submitted, simulated seconds produced);
* a :class:`~repro.engine.cache.MeasurementCache`'s tiered hit/miss
  counters (memory hits vs persistent-store hits vs misses);
* a :class:`~repro.service.store.ResultStore`'s per-handle counters
  (puts, evictions, corruption drops, bytes moved).

All three are :class:`~repro.engine.forkpool.Counters` sets, which a fork
pool (:func:`repro.engine.forkpool.fork_map`) folds across the fork: a
ledger opened around a pooled eval pass or a pooled multi-slice run counts
what its workers executed, hit and stored, exactly as it would count the
same work done in-process.

The resulting dict (schema ``atlas-costs/1``) is written to each job's
``costs.json``, surfaced by ``python -m repro status``, embedded in the
eval report's ``provenance.costs`` section and in ``BENCH_engine.json``.
Counter deltas are exact and reconcilable — the concurrency tests assert
``engine_requests == cache.misses`` and ``cache.store_hits ==
store.hits`` — while ``wall_time_s`` is the only wall-clock field.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.engine.engine import engine_telemetry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.cache import MeasurementCache
    from repro.service.store import ResultStore

__all__ = ["COSTS_SCHEMA", "CostLedger"]

#: Schema identifier of every cost payload.
COSTS_SCHEMA = "atlas-costs/1"


def _delta(after: dict, before: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


class CostLedger:
    """Measure the cost of one run as counter deltas plus wall time.

    Open the ledger immediately before the work, call :meth:`finish` after
    it; everything in between — including engines created by code the
    ledger never sees, in this process or in a fork-pool worker — is
    accounted through the process-wide telemetry.

    Parameters
    ----------
    cache:
        The measurement cache whose tiered hit/miss split to report
        (``None`` omits the ``cache`` section).
    store:
        The persistent result store whose counters to report (``None``
        omits the ``store`` section).
    """

    def __init__(
        self,
        cache: "MeasurementCache | None" = None,
        store: "ResultStore | None" = None,
    ) -> None:
        self.cache = cache
        self.store = store
        self._engine_before = engine_telemetry()
        self._cache_before = cache.stats.as_dict() if cache is not None else None
        self._store_before = store.stats.as_dict() if store is not None else None
        self._start = time.perf_counter()

    def finish(self) -> dict:
        """Close the ledger and return the ``atlas-costs/1`` payload."""
        wall_time_s = time.perf_counter() - self._start
        engine = _delta(engine_telemetry(), self._engine_before)
        payload = {
            "schema": COSTS_SCHEMA,
            "wall_time_s": round(wall_time_s, 6),
            "sim_seconds": round(engine["sim_seconds"], 6),
            "engine_requests": engine["executed_requests"],
            "engine_batches": engine["submitted_batches"],
            "cache": None,
            "store": None,
        }
        if self.cache is not None and self._cache_before is not None:
            cache = _delta(self.cache.stats.as_dict(), self._cache_before)
            served = cache["hits"] + cache["store_hits"]
            lookups = served + cache["misses"]
            payload["cache"] = {
                "memory_hits": cache["hits"],
                "store_hits": cache["store_hits"],
                "misses": cache["misses"],
                "evictions": cache["evictions"],
                "store_errors": cache["store_errors"],
                "hit_rate": round(served / lookups, 6) if lookups else 0.0,
            }
        if self.store is not None and self._store_before is not None:
            payload["store"] = _delta(self.store.stats.as_dict(), self._store_before)
        return payload

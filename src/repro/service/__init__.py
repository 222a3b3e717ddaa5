"""Long-lived service mode: persistent store, job queue, tracing, costs.

The one-shot ``python -m repro`` CLI pays the full measurement cost on every
invocation because the engine's in-memory cache dies with the process.  This
package turns the reproduction into a long-lived service:

:mod:`repro.service.store`
    A disk-backed content-addressed result store keyed by the engine's
    existing cache fingerprints.  Wired under
    :class:`~repro.engine.cache.MeasurementCache` as a second tier, it makes
    the cache survive restarts and shares results across concurrent worker
    processes (atomic rename writes, checksum-verified reads, size-bounded
    LRU eviction).

:mod:`repro.service.jobs` / :mod:`repro.service.daemon`
    A filesystem-spool job queue plus the daemon behind
    ``python -m repro serve`` / ``submit`` / ``status`` / ``tail``: stage
    and eval runs execute through the existing
    :class:`~repro.engine.engine.MeasurementEngine` with per-job isolation
    and graceful shutdown.  A daemon runs one job at a time; more daemon
    processes on one state tree run more jobs at once.

:mod:`repro.service.tracer` / :mod:`repro.service.costs`
    Structured span/event streaming (JSONL, schema ``atlas-trace/1``) and
    the per-run cost ledger (sim-seconds, engine requests, per-tier cache
    hits, wall time) surfaced in job status, eval reports and
    ``BENCH_engine.json``.

See ``docs/service.md`` for the daemon lifecycle, the store layout and the
event/ledger schemas.
"""

from repro.service.costs import COSTS_SCHEMA, CostLedger
from repro.service.jobs import (
    JOB_SCHEMA,
    JobSpec,
    ServicePaths,
    claim_next_job,
    execute_job,
    job_record,
    list_jobs,
    submit_job,
)
from repro.service.store import (
    STORE_SCHEMA,
    ResultStore,
    StoreKeyError,
    StoreStats,
    canonical_key_bytes,
    key_digest,
)
from repro.service.tracer import TRACE_SCHEMA, NullTracer, Tracer, read_trace

__all__ = [
    "COSTS_SCHEMA",
    "CostLedger",
    "JOB_SCHEMA",
    "JobSpec",
    "NullTracer",
    "ResultStore",
    "STORE_SCHEMA",
    "ServicePaths",
    "StoreKeyError",
    "StoreStats",
    "TRACE_SCHEMA",
    "Tracer",
    "canonical_key_bytes",
    "claim_next_job",
    "execute_job",
    "job_record",
    "key_digest",
    "list_jobs",
    "read_trace",
    "submit_job",
]

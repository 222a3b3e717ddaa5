"""Pluggable request executors: serial, thread, process, vectorized, sharded, auto.

The scalar pool kinds follow the loky/``concurrent.futures`` idiom the paper
relies on for its multiprocessing: requests are split into contiguous chunks
(one per worker) and results are returned in submission order.  Every
request carries an explicit seed by the time it reaches an executor (the
engine resolves ``seed=None`` beforehand), so execution is embarrassingly
parallel and byte-identical across the serial/thread/process kinds.

The vectorized executor takes the orthogonal route: instead of spreading N
slow scalar runs across workers it hands the whole batch to the
environment's NumPy batch path (``run_requests``), which makes the work
itself fast — typically well past the multi-core speedup of the process
pool, on a single core.  Its results are statistically equivalent to (not
byte-identical with) the scalar kinds; see :mod:`repro.sim.batch`.

The sharded executor composes the two: one large batch is split into
per-worker shards and every worker process runs the *vectorized* pass over
its shard, so the ~N× multi-core and ~50× vectorized speedups multiply
instead of competing.  Because each lane of :func:`repro.sim.batch.simulate_batch`
draws from its own seed-derived stream, a sharded batch is byte-identical
to the whole-batch vectorized pass — the two share the ``vectorized``
numerics family in the engine cache.

Three design points make the parallel kinds actually pay (the original
process executor *lost* to serial — see the post-mortem in
``docs/performance.md``):

* the environment travels with each shard or chunk payload, so workers
  hold no environment and one pool serves every environment: the
  environments the engine dispatches (the simulator, the real network once
  ``prepare_batch`` has resolved it, and the fault/replay wrappers around
  either) pickle to under 2 KB in under 0.1 ms, far less than forking a
  pool.  An environment sent to a pool must therefore pickle;
* process pools are persistent and shared process-wide (keyed on worker
  count only), surviving both ``MeasurementEngine.shutdown()`` and engine
  garbage collection, so stages that create one engine per run stop paying
  a pool spawn each — :func:`shutdown_worker_pools` (registered ``atexit``)
  is the real teardown, and :func:`pool_diagnostics` exposes the
  created/dispatched counters the throughput benchmark records;
* shard results travel back as a handful of preallocated NumPy arrays
  (latencies + scalar metrics + stage breakdown) instead of a pickled list
  of per-request ``SimulationResult`` objects.

Finally, :func:`choose_executor` is the adaptive selection policy — pick
serial / vectorized / sharded / process from the batch shape, the usable
core count and the environment's capabilities — and the ``auto`` executor
kind (the default) applies it per batch.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.protocol import Environment, MeasurementRequest
    from repro.sim.network import SimulationResult

__all__ = [
    "available_parallelism",
    "choose_executor",
    "default_executor_kind",
    "make_executor",
    "pool_diagnostics",
    "register_executor",
    "shutdown_worker_pools",
    "SerialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "VectorizedExecutor",
    "ShardedExecutor",
    "AutoExecutor",
    "EXECUTOR_KINDS",
]

#: Environment variable selecting the default executor of new engines.
#: Recognised values are the keys of :data:`EXECUTOR_KINDS` (``auto``,
#: ``serial``, ``thread``, ``process``, ``vectorized``, ``sharded`` plus
#: anything added via :func:`register_executor`); unset means ``auto``.  It
#: is read each time an engine is constructed without an explicit
#: ``executor`` argument, so it can be flipped mid-process (the CLI's
#: ``--executor`` flag does exactly that around a run).
EXECUTOR_ENV_VAR = "ATLAS_ENGINE_EXECUTOR"

#: Fewest vectorized lanes per shard that amortise one process dispatch;
#: below this the batch runs as a single whole-batch vectorized pass.
_MIN_SHARD_LANES = 4

#: Fewest scalar requests that amortise a process-pool dispatch under the
#: adaptive policy; smaller batches run serially.
_MIN_PROCESS_BATCH = 4


def available_parallelism() -> int:
    """CPUs usable by this process (cgroup/affinity aware where possible)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


def default_executor_kind() -> str:
    """Executor kind used when an engine is built without an explicit choice.

    Reads ``ATLAS_ENGINE_EXECUTOR`` (case-insensitive, surrounding
    whitespace ignored) and defaults to ``auto`` — the adaptive policy of
    :func:`choose_executor`, which picks serial / vectorized / sharded /
    process per batch from the batch size, the usable cores and the
    environment's capabilities.  Set the variable to pin one kind
    process-wide instead: ``serial`` is the deterministic scalar reference,
    ``process`` spreads scalar runs across cores (byte-identical to serial),
    ``vectorized`` collapses each batch into one NumPy pass, and ``sharded``
    runs the vectorized pass inside each process-pool worker (byte-identical
    to ``vectorized``).  A value that names no registered executor kind
    raises ``ValueError`` at engine construction rather than silently
    falling back.
    """
    kind = os.environ.get(EXECUTOR_ENV_VAR, "auto").strip().lower()
    if kind not in EXECUTOR_KINDS:
        raise ValueError(
            f"{EXECUTOR_ENV_VAR}={kind!r} is not a registered executor kind; "
            f"expected one of {sorted(EXECUTOR_KINDS)}"
        )
    return kind


def choose_executor(
    batch_size: int, cores: int | None = None, environment: "Environment | None" = None
) -> str:
    """Adaptive executor selection from batch shape, cores and environment.

    The policy the ``auto`` kind applies per batch (after cache hits are
    served, so ``batch_size`` is the work that remains):

    ========================  =========  ==========  ============
    environment               batch      cores       choice
    ========================  =========  ==========  ============
    has ``run_requests``      ≥ 8        ≥ 2         ``sharded``
    has ``run_requests``      any other  any         ``vectorized``
    scalar-only               ≥ 4        ≥ 2         ``process``
    scalar-only               any other  any         ``serial``
    ========================  =========  ==========  ============

    Vector-capable environments always resolve to the ``vectorized``
    numerics family (sharded results are byte-identical to whole-batch
    vectorized results), scalar-only environments to the ``scalar`` family —
    so the choice never splits one environment's results across cache
    families.  ``cores`` defaults to :func:`available_parallelism`;
    ``environment=None`` assumes a vector-capable environment.
    """
    batch_size = int(batch_size)
    cores = available_parallelism() if cores is None else max(1, int(cores))
    vector_capable = (
        environment is None or getattr(environment, "run_requests", None) is not None
    )
    if vector_capable:
        if cores >= 2 and batch_size >= 2 * _MIN_SHARD_LANES:
            return "sharded"
        return "vectorized"
    if cores >= 2 and batch_size >= _MIN_PROCESS_BATCH:
        return "process"
    return "serial"


def execute_one(environment: "Environment", request: "MeasurementRequest") -> "SimulationResult":
    """Execute a single resolved request against ``environment``."""
    if request.params is not None:
        with_params = getattr(environment, "with_params", None)
        if with_params is None:
            raise TypeError(
                f"{type(environment).__name__} does not support per-request "
                "simulation-parameter overrides (no with_params method)"
            )
        environment = with_params(request.params)
    if request.scenario is not None:
        with_scenario = getattr(environment, "with_scenario", None)
        if with_scenario is None:
            raise TypeError(
                f"{type(environment).__name__} does not support per-request "
                "scenario overrides (no with_scenario method)"
            )
        environment = with_scenario(request.scenario)
    return environment.run(
        request.config,
        traffic=request.traffic,
        duration=request.duration,
        seed=request.seed,
    )


# --------------------------------------------------------------- worker side
def _run_shard_vectorized(payload: tuple["Environment", list["MeasurementRequest"]]) -> tuple:
    """Process-pool entry point: vectorized-execute one shard, packed return."""
    environment, requests = payload
    run_requests = getattr(environment, "run_requests", None)
    if run_requests is None:
        results = [execute_one(environment, request) for request in requests]
    else:
        results = run_requests(requests)
    return _pack_results(results)


def _execute_chunk(payload: tuple["Environment", list["MeasurementRequest"]]) -> list:
    """Thread- and process-pool entry point: scalar-execute one chunk."""
    environment, requests = payload
    return [execute_one(environment, request) for request in requests]


def _chunk(items: list, n_chunks: int) -> list[list]:
    """Split ``items`` into at most ``n_chunks`` contiguous, balanced chunks."""
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    chunks, start = [], 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


# ------------------------------------------------------------ result packing
#: Stage order of ``SimulationResult.stage_breakdown_ms`` — both the scalar
#: pipeline and the vectorized batch path report exactly these stages.
_STAGE_ORDER = (
    "loading", "uplink", "backhaul_ul", "core_ul", "compute", "backhaul_dl", "downlink",
)


def _pack_results(results: list["SimulationResult"]) -> tuple:
    """Pack shard results into flat NumPy arrays for cheap IPC transfer.

    A shard's results cross the process boundary as one concatenated latency
    array plus fixed-width scalar/breakdown matrices instead of a pickled
    list of per-request ``SimulationResult`` objects.  ``config`` is not
    transferred at all — the parent reconstructs it from the shard's own
    requests.  Results whose stage breakdown does not match the known stage
    set (a custom environment) fall back to plain pickling.
    """
    if not all(
        not result.stage_breakdown_ms or set(result.stage_breakdown_ms) == set(_STAGE_ORDER)
        for result in results
    ):
        return ("pickled", list(results))
    lengths = np.array([result.latencies_ms.size for result in results], dtype=np.int64)
    latencies = (
        np.concatenate([np.asarray(result.latencies_ms, dtype=np.float64) for result in results])
        if results
        else np.zeros(0)
    )
    scalars = np.array(
        [
            [
                result.frames_generated,
                result.frames_completed,
                result.duration_s,
                result.traffic,
                result.ul_throughput_mbps,
                result.dl_throughput_mbps,
                result.ul_packet_error_rate,
                result.dl_packet_error_rate,
                result.ping_delay_ms,
            ]
            for result in results
        ],
        dtype=np.float64,
    ).reshape(len(results), 9)
    breakdown = np.full((len(results), len(_STAGE_ORDER)), np.nan)
    for index, result in enumerate(results):
        if result.stage_breakdown_ms:
            breakdown[index] = [result.stage_breakdown_ms[stage] for stage in _STAGE_ORDER]
    return ("packed", lengths, latencies, scalars, breakdown)


def _unpack_results(payload: tuple, requests: list["MeasurementRequest"]) -> list:
    """Rebuild shard ``SimulationResult`` objects from a packed payload."""
    if payload[0] == "pickled":
        return payload[1]
    from repro.sim.network import SimulationResult

    _, lengths, latencies, scalars, breakdown = payload
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    results = []
    for index, request in enumerate(requests):
        row = scalars[index]
        stage_row = breakdown[index]
        results.append(
            SimulationResult(
                latencies_ms=latencies[offsets[index] : offsets[index + 1]].copy(),
                frames_generated=int(row[0]),
                frames_completed=int(row[1]),
                duration_s=float(row[2]),
                config=request.config,
                traffic=int(row[3]),
                ul_throughput_mbps=float(row[4]),
                dl_throughput_mbps=float(row[5]),
                ul_packet_error_rate=float(row[6]),
                dl_packet_error_rate=float(row[7]),
                ping_delay_ms=float(row[8]),
                stage_breakdown_ms=(
                    {stage: float(value) for stage, value in zip(_STAGE_ORDER, stage_row)}
                    if not np.isnan(stage_row).all()
                    else {}
                ),
            )
        )
    return results


# ------------------------------------------------------- persistent pools
#: Live process pools keyed on worker count; shared by every ProcessExecutor
#: and ShardedExecutor in the process so pools survive engine churn.  The
#: workers hold no environment: it travels with each payload.
_PROCESS_POOLS: dict[int, Executor] = {}
_POOL_LOCK = threading.Lock()
#: Cumulative pool accounting, surfaced by :func:`pool_diagnostics` and
#: recorded in ``BENCH_engine.json`` as the no-per-batch-respawn evidence.
_POOL_COUNTERS = {"pools_created": 0, "batches_dispatched": 0}


def _acquire_process_pool(max_workers: int) -> Executor:
    """The persistent pool for ``max_workers``, forked on first use."""
    with _POOL_LOCK:
        pool = _PROCESS_POOLS.get(max_workers)
        if pool is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - platforms without fork
                context = None
            pool = ProcessPoolExecutor(max_workers=max_workers, mp_context=context)
            _PROCESS_POOLS[max_workers] = pool
            _POOL_COUNTERS["pools_created"] += 1
        _POOL_COUNTERS["batches_dispatched"] += 1
        return pool


def _discard_pool(max_workers: int) -> None:
    """Drop a (broken) pool so the next batch starts a fresh one."""
    with _POOL_LOCK:
        pool = _PROCESS_POOLS.pop(max_workers, None)
        if pool is not None:
            pool.shutdown(wait=False)


def _dispatch_to_pool(
    max_workers: int,
    environment: "Environment",
    worker_fn: Callable,
    chunks: list[list["MeasurementRequest"]],
) -> list:
    """Map ``(environment, chunk)`` payloads over the persistent pool.

    The environment is pickled into every payload, so it must pickle; the
    environments the engine dispatches pickle to 1.4–1.7 KB.  A pool that
    broke is evicted so the next batch forks a fresh one.
    """
    pool = _acquire_process_pool(max_workers)
    try:
        return list(pool.map(worker_fn, [(environment, chunk) for chunk in chunks]))
    except BrokenProcessPool:
        _discard_pool(max_workers)
        raise


def pool_diagnostics() -> dict[str, int]:
    """Pool reuse accounting: pools created, batches dispatched, live pools."""
    with _POOL_LOCK:
        return {**_POOL_COUNTERS, "live_pools": len(_PROCESS_POOLS)}


def shutdown_worker_pools() -> None:
    """Tear down every persistent process pool (registered ``atexit``).

    Executor/engine ``shutdown()`` deliberately leaves the shared pools warm
    — this module-level teardown is the real release, for interpreter exit
    and for tests that must assert cold-pool behaviour.
    """
    with _POOL_LOCK:
        for pool in _PROCESS_POOLS.values():
            pool.shutdown(wait=True)
        _PROCESS_POOLS.clear()


atexit.register(shutdown_worker_pools)


# ------------------------------------------------------------ executor kinds
class SerialExecutor:
    """Run every request in the calling thread (the deterministic reference)."""

    kind = "serial"
    #: Result family for cache keying: all scalar kinds are byte-identical
    #: and may share cache entries; the vectorized kinds declare their own.
    numerics = "scalar"

    def __init__(self, max_workers: int = 1) -> None:
        self.max_workers = 1

    def map_requests(
        self, environment: "Environment", requests: Sequence["MeasurementRequest"]
    ) -> list["SimulationResult"]:
        """Execute ``requests`` in order and return their results."""
        return [execute_one(environment, request) for request in requests]

    def shutdown(self) -> None:
        """Nothing to release."""


class ThreadExecutor:
    """Thread-pool execution: useful for I/O-bound or GIL-releasing environments."""

    kind = "thread"
    numerics = "scalar"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max(1, int(max_workers) if max_workers else available_parallelism())
        self._pool: Executor | None = None

    def _ensure_pool(self) -> Executor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def map_requests(
        self, environment: "Environment", requests: Sequence["MeasurementRequest"]
    ) -> list["SimulationResult"]:
        """Execute ``requests`` across the pool, preserving submission order.

        Batches the cache fully served (empty) or reduced to one request
        never touch — or lazily create — the pool.  Threads share the
        calling process's memory, so the environment rides along in the
        chunk payload at zero serialisation cost.
        """
        requests = list(requests)
        if len(requests) <= 1:
            return [execute_one(environment, request) for request in requests]
        pool = self._ensure_pool()
        payloads = [(environment, chunk) for chunk in _chunk(requests, self.max_workers)]
        results: list["SimulationResult"] = []
        for chunk_result in pool.map(_execute_chunk, payloads):
            results.extend(chunk_result)
        return results

    def shutdown(self) -> None:
        """Tear down the thread pool (a later batch lazily re-creates it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


class ProcessExecutor:
    """Chunked process-pool execution (the paper's multiprocessing, for real).

    Uses the module's persistent fork pools: the environment rides in each
    chunk payload (so it must pickle), and the pool itself outlives both
    batches and engines (``shutdown()`` is a no-op;
    :func:`shutdown_worker_pools` is the real teardown).
    """

    kind = "process"
    numerics = "scalar"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max(1, int(max_workers) if max_workers else available_parallelism())

    def map_requests(
        self, environment: "Environment", requests: Sequence["MeasurementRequest"]
    ) -> list["SimulationResult"]:
        """Execute ``requests`` across the persistent pool in submission order.

        Fully-cached (empty) and single-request batches bypass the pool
        entirely — they neither spawn nor touch it.
        """
        requests = list(requests)
        if not requests:
            return []
        if len(requests) == 1:
            return [execute_one(environment, requests[0])]
        chunks = _chunk(requests, self.max_workers)
        results: list["SimulationResult"] = []
        for chunk_result in _dispatch_to_pool(
            self.max_workers, environment, _execute_chunk, chunks
        ):
            results.extend(chunk_result)
        return results

    def shutdown(self) -> None:
        """No-op: the backing pool is shared and persists across engines."""


class VectorizedExecutor:
    """Route whole engine batches into one vectorized environment pass.

    Environments that implement ``run_requests(requests)`` — the network
    simulator evaluates every request as one lane of
    :func:`repro.sim.batch.simulate_batch` — receive the entire batch in a
    single call, so N measurements cost one NumPy pass instead of N Python
    event loops.  The engine has already served cache hits before the batch
    reaches the executor, so partial hits shrink the vectorized pass.
    Environments without the hook (after their ``prepare_batch`` resolution,
    the real network resolves to the simulator and *does* have it) fall back
    to scalar in-order execution, which keeps ``ATLAS_ENGINE_EXECUTOR=vectorized``
    safe process-wide.

    Unlike thread/process execution, vectorized results are statistically
    equivalent to — not byte-identical with — the scalar path; see
    :mod:`repro.sim.batch` for the numerical contract.
    """

    kind = "vectorized"
    #: Vectorized results are statistically equivalent to — not
    #: byte-identical with — the scalar kinds, so the engine keys cache
    #: entries per numerics family and the two never serve each other.
    #: The sharded kind shares this family: per-lane results are invariant
    #: to batch composition, so sharded == whole-batch vectorized, byte for
    #: byte.
    numerics = "vectorized"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = 1

    def map_requests(
        self, environment: "Environment", requests: Sequence["MeasurementRequest"]
    ) -> list["SimulationResult"]:
        """Execute ``requests`` as one vectorized batch (scalar fallback)."""
        requests = list(requests)
        run_requests = getattr(environment, "run_requests", None)
        if run_requests is None:
            return [execute_one(environment, request) for request in requests]
        return run_requests(requests)

    def shutdown(self) -> None:
        """Nothing to release."""


class ShardedExecutor:
    """Parallel-vectorized execution: one vectorized pass per worker shard.

    Splits a batch into at most ``max_workers`` contiguous shards and runs
    :meth:`VectorizedExecutor`-style ``run_requests`` passes concurrently in
    the persistent process pool, so the multi-core and vectorized speedups
    multiply.  Because every lane of :func:`repro.sim.batch.simulate_batch`
    draws only from its own seed-derived stream, the sharded results are
    byte-identical to one whole-batch vectorized pass over the same
    requests — hence the shared ``vectorized`` numerics family.

    Degenerate cases stay cheap: on a single usable core, or when the batch
    is too small to amortise process dispatch (fewer than
    ``_MIN_SHARD_LANES`` lanes per shard), the batch runs as one in-process
    vectorized pass with no pool involved.  Environments without
    ``run_requests`` fall back to scalar in-order execution, mirroring the
    vectorized kind.

    ``shards`` is a testing/tuning override: set it to force an exact shard
    count regardless of batch shape and core count (``None`` plans
    adaptively).  ``last_shards`` records the most recent dispatch's shard
    count (1 = inline whole-batch pass).
    """

    kind = "sharded"
    numerics = "vectorized"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max(1, int(max_workers) if max_workers else available_parallelism())
        self.shards: int | None = None
        self.last_shards = 1

    def plan_shards(self, n_requests: int) -> int:
        """Shard count for a batch of ``n_requests`` (1 = run inline)."""
        if n_requests <= 0:
            return 1
        if self.shards is not None:
            return max(1, min(int(self.shards), n_requests))
        cores = available_parallelism()
        if cores < 2:
            return 1
        return max(1, min(self.max_workers, cores, n_requests // _MIN_SHARD_LANES))

    def map_requests(
        self, environment: "Environment", requests: Sequence["MeasurementRequest"]
    ) -> list["SimulationResult"]:
        """Execute ``requests`` as per-worker vectorized shards, in order."""
        requests = list(requests)
        if not requests:
            return []
        run_requests = getattr(environment, "run_requests", None)
        if run_requests is None:
            self.last_shards = 1
            return [execute_one(environment, request) for request in requests]
        n_shards = self.plan_shards(len(requests))
        self.last_shards = n_shards
        if n_shards <= 1:
            return run_requests(requests)
        shards = _chunk(requests, n_shards)
        payloads = _dispatch_to_pool(
            self.max_workers, environment, _run_shard_vectorized, shards
        )
        results: list["SimulationResult"] = []
        for shard, payload in zip(shards, payloads):
            results.extend(_unpack_results(payload, shard))
        return results

    def shutdown(self) -> None:
        """No-op: the backing pool is shared and persists across engines."""


class AutoExecutor:
    """Adaptive executor: apply :func:`choose_executor` to every batch.

    Delegates each batch to serial / vectorized / sharded / process based on
    the surviving batch size (cache hits are already served), the usable
    cores (capped by ``max_workers``, so the stages' ``parallel_queries``
    budget bounds real concurrency) and whether the environment offers the
    vectorized ``run_requests`` hook.  The cache numerics family depends
    only on the environment — vector-capable environments always produce
    ``vectorized``-family results, scalar-only environments ``scalar`` — so
    adaptivity never splits one environment's results across families.
    ``last_choice`` records the most recent batch's decision.
    """

    kind = "auto"

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = max(1, int(max_workers) if max_workers else available_parallelism())
        self._delegates: dict[str, object] = {}
        self.last_choice: str | None = None

    def numerics(self, environment: "Environment") -> str:
        """Cache family of results this executor produces for ``environment``."""
        if getattr(environment, "run_requests", None) is not None:
            return "vectorized"
        return "scalar"

    def delegate(self, kind: str):
        """The lazily-built inner executor registered under ``kind``."""
        if kind not in self._delegates:
            self._delegates[kind] = make_executor(kind, self.max_workers)
        return self._delegates[kind]

    def map_requests(
        self, environment: "Environment", requests: Sequence["MeasurementRequest"]
    ) -> list["SimulationResult"]:
        """Pick an executor for this batch shape and delegate to it."""
        requests = list(requests)
        kind = choose_executor(
            len(requests),
            cores=min(self.max_workers, available_parallelism()),
            environment=environment,
        )
        self.last_choice = kind
        if not requests:
            return []
        return self.delegate(kind).map_requests(environment, requests)

    def shutdown(self) -> None:
        """Release every delegate (shared process pools stay warm by design)."""
        for delegate in self._delegates.values():
            delegate.shutdown()


#: Registry of executor kinds; extendable via :func:`register_executor`.
EXECUTOR_KINDS: dict[str, Callable[[int | None], object]] = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
    "vectorized": VectorizedExecutor,
    "sharded": ShardedExecutor,
    "auto": AutoExecutor,
}


def register_executor(kind: str, factory: Callable[[int | None], object]) -> None:
    """Register a custom executor factory under ``kind``."""
    EXECUTOR_KINDS[str(kind)] = factory


def make_executor(kind: str, max_workers: int | None = None):
    """Instantiate the executor registered under ``kind``."""
    try:
        factory = EXECUTOR_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown executor kind {kind!r}; expected one of {sorted(EXECUTOR_KINDS)}"
        ) from None
    return factory(max_workers)

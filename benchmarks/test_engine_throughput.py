"""Micro-benchmark of the measurement engine: serial vs parallel vs vectorized vs sharded.

Two batch shapes are timed.  The *small* batch (16 requests, the paper's
parallel-query fan-out) runs through the serial, thread, process and
vectorized executors, verifying the scalar kinds are byte-identical and the
vectorized kind statistically equivalent, plus the warm-cache repeat.  The
*large* batch (hundreds of requests, the city-scale shape) compares the
vectorized pass against the ``sharded`` executor — per-worker vectorized
passes over contiguous shards — and the adaptive ``auto`` policy, verifying
sharded results are **byte-identical** to the whole-batch vectorized pass.
The numbers are printed as tables *and* written to ``BENCH_engine.json`` at
the repository root — the machine-readable perf trajectory CI uploads on
every push (schema ``atlas-bench-engine/3``, documented in
``docs/performance.md``), including the *effective* per-executor worker
counts and the persistent-pool reuse counters (no per-batch respawn).

Speedup gates:

* the vectorized executor must beat serial by ``REQUIRED_VECTORIZED_SPEEDUP``
  (it collapses the batch into one NumPy pass, so the target holds on a
  single core);
* the process executor must beat serial by ``REQUIRED_PROCESS_SPEEDUP`` on
  machines with at least two usable cores (on a single-core runner
  multiprocessing cannot win, so the numbers are recorded without the
  assertion);
* the sharded executor must beat whole-batch vectorized by
  ``REQUIRED_SHARDED_SPEEDUP`` on ≥ 2 cores, and stay within
  ``REQUIRED_SHARDED_PARITY`` of it on a single core (where sharding
  degenerates to one in-process vectorized pass — no pool, no regression).
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_utils import print_table
from repro.service.costs import CostLedger
from repro.service.store import ResultStore
from repro.engine import (
    MeasurementCache,
    MeasurementEngine,
    MeasurementRequest,
    available_parallelism,
    pool_diagnostics,
    shutdown_worker_pools,
)
from repro.sim.config import SliceConfig
from repro.sim.network import NetworkSimulator
from repro.sim.scenario import Scenario

#: Small-batch size (the paper parallelises up to 16 queries).
BATCH_SIZE = 16
#: Large-batch size: the shape where sharding the vectorized pass pays.
LARGE_BATCH_SIZE = 192
#: Workers of the parallel executors.
WORKERS = 4
#: Required process-executor speedup over serial on multi-core machines.
REQUIRED_PROCESS_SPEEDUP = 1.5
#: Required vectorized-executor speedup over serial (single-core, so always asserted).
REQUIRED_VECTORIZED_SPEEDUP = 5.0
#: Required sharded speedup over whole-batch vectorized on >= 2 cores.
REQUIRED_SHARDED_SPEEDUP = 1.5
#: Required sharded/vectorized parity on a single core (degenerate one-shard case).
REQUIRED_SHARDED_PARITY = 0.9
#: Where the machine-readable results land (the repository root).
BENCH_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_engine.json"
#: Schema identifier of the emitted JSON (bump on breaking changes).
BENCH_SCHEMA = "atlas-bench-engine/3"

_CONFIG = SliceConfig(bandwidth_ul=10, bandwidth_dl=5, backhaul_bw=10, cpu_ratio=0.8)


def _batch(scale, size=BATCH_SIZE, duration_factor=8.0, duration_floor=120.0):
    # Long enough runs that per-request work dominates pool/pickling overhead.
    duration = max(duration_factor * scale.measurement_duration_s, duration_floor)
    return [
        MeasurementRequest(config=_CONFIG, traffic=4, duration=duration, seed=seed)
        for seed in range(size)
    ]


def _large_batch(scale):
    # Hundreds of lanes, shorter runs: the wide-batch shape the sharded
    # executor is built for (per-frame NumPy work scales with lane count).
    return _batch(scale, size=LARGE_BATCH_SIZE, duration_factor=2.0, duration_floor=30.0)


def _timed(engine: MeasurementEngine, requests: list[MeasurementRequest]):
    start = time.perf_counter()
    results = engine.run_batch(requests)
    return time.perf_counter() - start, results


def _timed_best(engine: MeasurementEngine, requests: list[MeasurementRequest], repeats: int = 5):
    # Best-of-N wall clock: the large-batch passes are fast enough (~0.1 s)
    # that a single stray scheduler tick shifts a ratio by 10%+; on a shared
    # 2-core host best-of-2 still put the sharded ratio anywhere in 1.1–1.9x.
    best_s, best_results = _timed(engine, requests)
    for _ in range(repeats - 1):
        wall_s, results = _timed(engine, requests)
        if wall_s < best_s:
            best_s, best_results = wall_s, results
    return best_s, best_results


def _executor_entry(wall_s: float, baseline_s: float, batch_size: int, workers: int) -> dict:
    return {
        "wall_s": round(wall_s, 6),
        "throughput_rps": round(batch_size / wall_s, 3) if wall_s > 0 else None,
        "speedup_vs_serial": round(baseline_s / wall_s, 3) if wall_s > 0 else None,
        "workers": workers,
    }


def test_engine_throughput(scale):
    simulator = NetworkSimulator(scenario=Scenario(traffic=4), seed=0)
    requests = _batch(scale)
    cores = available_parallelism()
    workers = min(WORKERS, max(2, cores))
    shutdown_worker_pools()  # cold start: pool accounting below is this run's
    pools_before = pool_diagnostics()

    serial = MeasurementEngine(simulator, executor="serial", cache=False)
    thread = MeasurementEngine(simulator, executor="thread", max_workers=workers, cache=False)
    process = MeasurementEngine(simulator, executor="process", max_workers=workers, cache=False)
    vectorized = MeasurementEngine(simulator, executor="vectorized", cache=False)
    cached = MeasurementEngine(simulator, executor="serial", cache=MeasurementCache())

    try:
        # Warm the process pool so worker spawn time is not billed to the batch.
        process.run_batch(requests[:workers])
        serial_s, serial_results = _timed(serial, requests)
        thread_s, thread_results = _timed(thread, requests)
        process_s, process_results = _timed(process, requests)
        vectorized_s, vectorized_results = _timed(vectorized, requests)
        # Shared CI runners are noisy; re-time the parallel side once before
        # judging a speedup so a transient stall does not fail the build.
        # The serial baseline is timed once and shared by every table row /
        # gate — a serial stall only *inflates* speedups, never fails them,
        # and re-timing serial per gate would judge each gate against a
        # different baseline.
        if cores >= 2 and serial_s / process_s < REQUIRED_PROCESS_SPEEDUP:
            process_s, process_results = _timed(process, requests)
        if serial_s / vectorized_s < REQUIRED_VECTORIZED_SPEEDUP:
            vectorized_s, vectorized_results = _timed(vectorized, requests)
    finally:
        thread.shutdown()

    # Byte-identical results across the scalar executor kinds.
    for executed in (thread_results, process_results):
        for a, b in zip(serial_results, executed):
            assert np.array_equal(a.latencies_ms, b.latencies_ms)
            assert a.stage_breakdown_ms == b.stage_breakdown_ms

    # The vectorized kind is statistically equivalent, not byte-identical:
    # check the pooled latency distribution agrees with the scalar path
    # (the per-scenario gate lives in tests/test_sim_batch.py).
    serial_pool = np.concatenate([r.latencies_ms for r in serial_results])
    vectorized_pool = np.concatenate([r.latencies_ms for r in vectorized_results])
    assert abs(vectorized_pool.mean() - serial_pool.mean()) / serial_pool.mean() < 0.05
    assert abs(vectorized_pool.size - serial_pool.size) / serial_pool.size < 0.05

    # ------------------------------------------------------------ large batch
    # Sharded (per-worker vectorized passes) vs one whole-batch vectorized
    # pass, plus the adaptive policy.  Sharding degenerates to the inline
    # whole-batch pass on a single core, so it is always safe to time.
    large_requests = _large_batch(scale)
    sharded = MeasurementEngine(simulator, executor="sharded", max_workers=workers, cache=False)
    auto = MeasurementEngine(simulator, executor="auto", max_workers=workers, cache=False)
    # Warm both paths on the full shape before timing: the first pass over an
    # (N, frames) batch pays one-off allocation costs, and sharding needs its
    # (persistent) pool spawned — neither belongs in the comparison.
    vectorized.run_batch(large_requests)
    sharded.run_batch(large_requests)
    vectorized_large_s, vectorized_large_results = _timed_best(vectorized, large_requests)
    sharded_s, sharded_results = _timed_best(sharded, large_requests)
    sharded_speedup_vs_vectorized = vectorized_large_s / sharded_s if sharded_s > 0 else float("inf")
    required_sharded = REQUIRED_SHARDED_SPEEDUP if cores >= 2 else REQUIRED_SHARDED_PARITY
    if sharded_speedup_vs_vectorized < required_sharded:
        vectorized_large_s, vectorized_large_results = _timed_best(vectorized, large_requests)
        sharded_s, sharded_results = _timed_best(sharded, large_requests)
        sharded_speedup_vs_vectorized = (
            vectorized_large_s / sharded_s if sharded_s > 0 else float("inf")
        )
    sharded_shards = sharded.executor.last_shards
    auto_s, auto_results = _timed_best(auto, large_requests)
    auto_choice = auto.executor.last_choice

    # A sharded batch is byte-identical to the whole-batch vectorized pass.
    for a, b in zip(vectorized_large_results, sharded_results):
        assert np.array_equal(a.latencies_ms, b.latencies_ms)
        assert a.stage_breakdown_ms == b.stage_breakdown_ms
        assert a.ping_delay_ms == b.ping_delay_ms

    # Cache: the second submission of an identical batch is served for free.
    cold_s, cold_results = _timed(cached, requests)
    warm_s, warm_results = _timed(cached, requests)
    stats = cached.cache_stats
    assert stats.misses == BATCH_SIZE
    assert stats.hits == BATCH_SIZE
    assert stats.hit_rate == 0.5
    assert warm_s < cold_s
    for a, b in zip(cold_results, warm_results):
        assert np.array_equal(a.latencies_ms, b.latencies_ms)

    # Persistent store tier (service mode): replay the batch through a
    # store-backed cache, then again through a *fresh* memory tier sharing
    # the same store — the warm-restart path.  The cost ledger in the
    # payload is the same accounting ``python -m repro status`` shows.
    with tempfile.TemporaryDirectory() as store_root:
        store = ResultStore(Path(store_root) / "store")
        store_cold = MeasurementEngine(
            simulator, executor="serial", cache=MeasurementCache(store=store)
        )
        store_cold_s, store_cold_results = _timed(store_cold, requests)
        warm_cache = MeasurementCache(store=store)  # fresh memory tier
        store_warm = MeasurementEngine(simulator, executor="serial", cache=warm_cache)
        ledger = CostLedger(cache=warm_cache, store=store)
        store_warm_s, store_warm_results = _timed(store_warm, requests)
        store_costs = ledger.finish()
        store_summary = {
            "cold_wall_s": round(store_cold_s, 6),
            "warm_wall_s": round(store_warm_s, 6),
            "entries": store.entry_count(),
            "bytes": store.total_bytes(),
            "costs": store_costs,
        }
    assert store_warm.executed_requests == 0, "warm store pass recomputed"
    assert store_costs["engine_requests"] == 0
    assert store_costs["cache"]["store_hits"] == BATCH_SIZE
    for a, b in zip(store_cold_results, store_warm_results):
        assert np.array_equal(a.latencies_ms, b.latencies_ms)

    # Persistent pools: the process/sharded batches above reused one warm
    # pool instead of respawning one per batch.
    pools_after = pool_diagnostics()
    pool_summary = {
        key: pools_after[key] - pools_before.get(key, 0)
        for key in ("pools_created", "batches_dispatched")
    }
    pool_summary["live_pools"] = pools_after["live_pools"]
    if pool_summary["batches_dispatched"] > 0:
        assert pool_summary["pools_created"] <= 1, (
            f"expected one persistent pool, saw {pool_summary['pools_created']} creations "
            f"across {pool_summary['batches_dispatched']} dispatches"
        )

    process_speedup = serial_s / process_s if process_s > 0 else float("inf")
    vectorized_speedup = serial_s / vectorized_s if vectorized_s > 0 else float("inf")
    warm_speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    print_table(
        f"Engine throughput ({BATCH_SIZE}-run batch, {workers} workers, {cores} cores)",
        [
            {"executor": "serial", "wall_s": serial_s, "speedup": 1.0},
            {"executor": "thread", "wall_s": thread_s, "speedup": serial_s / thread_s},
            {"executor": "process", "wall_s": process_s, "speedup": process_speedup},
            {"executor": "vectorized", "wall_s": vectorized_s, "speedup": vectorized_speedup},
            {"executor": "cached (warm)", "wall_s": warm_s, "speedup": warm_speedup},
        ],
    )
    print_table(
        f"Large batch ({LARGE_BATCH_SIZE} runs, {cores} cores): vectorized vs sharded vs auto",
        [
            {"executor": "vectorized", "wall_s": vectorized_large_s, "vs_vectorized": 1.0},
            {
                "executor": f"sharded ({sharded_shards} shard(s))",
                "wall_s": sharded_s,
                "vs_vectorized": sharded_speedup_vs_vectorized,
            },
            {
                "executor": f"auto -> {auto_choice}",
                "wall_s": auto_s,
                "vs_vectorized": vectorized_large_s / auto_s if auto_s > 0 else float("inf"),
            },
        ],
    )
    print(f"cache stats: {stats.as_dict()}")
    print(f"pool reuse: {pool_summary}")
    print(
        f"store: cold {store_summary['cold_wall_s']:.3f}s -> warm "
        f"{store_summary['warm_wall_s']:.3f}s ({store_summary['entries']} blobs, "
        f"{store_summary['bytes']} bytes), warm engine requests "
        f"{store_costs['engine_requests']}"
    )

    payload = {
        "schema": BENCH_SCHEMA,
        "generated_by": "benchmarks/test_engine_throughput.py",
        "unix_time": int(time.time()),
        "scale": scale.name,
        "batch_size": BATCH_SIZE,
        "measurement_duration_s": float(requests[0].duration),
        "cores": cores,
        "executors": {
            # "workers" is the *effective* worker count each executor really
            # used — 1 for the in-process kinds regardless of machine shape.
            "serial": _executor_entry(serial_s, serial_s, BATCH_SIZE, 1),
            "thread": _executor_entry(thread_s, serial_s, BATCH_SIZE, thread.max_workers),
            "process": _executor_entry(process_s, serial_s, BATCH_SIZE, process.max_workers),
            "vectorized": _executor_entry(vectorized_s, serial_s, BATCH_SIZE, 1),
            "cached_warm": {
                **_executor_entry(warm_s, serial_s, BATCH_SIZE, 1),
                "cache_hit_rate": stats.hit_rate,
            },
        },
        "large_batch": {
            "batch_size": LARGE_BATCH_SIZE,
            "measurement_duration_s": float(large_requests[0].duration),
            "executors": {
                "vectorized": {
                    "wall_s": round(vectorized_large_s, 6),
                    "throughput_rps": round(LARGE_BATCH_SIZE / vectorized_large_s, 3),
                    "speedup_vs_vectorized": 1.0,
                    "workers": 1,
                },
                "sharded": {
                    "wall_s": round(sharded_s, 6),
                    "throughput_rps": round(LARGE_BATCH_SIZE / sharded_s, 3),
                    "speedup_vs_vectorized": round(sharded_speedup_vs_vectorized, 3),
                    "workers": sharded_shards,
                },
                "auto": {
                    "wall_s": round(auto_s, 6),
                    "throughput_rps": round(LARGE_BATCH_SIZE / auto_s, 3),
                    "speedup_vs_vectorized": round(vectorized_large_s / auto_s, 3),
                    "workers": sharded_shards if auto_choice == "sharded" else 1,
                    "choice": auto_choice,
                },
            },
        },
        "pools": pool_summary,
        "cache": stats.as_dict(),
        "store": store_summary,
    }
    BENCH_JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[atlas-bench] wrote {BENCH_JSON_PATH}")

    assert vectorized_speedup >= REQUIRED_VECTORIZED_SPEEDUP, (
        f"vectorized executor speedup {vectorized_speedup:.2f}x below the "
        f"{REQUIRED_VECTORIZED_SPEEDUP}x target"
    )
    if cores >= 2:
        assert process_speedup >= REQUIRED_PROCESS_SPEEDUP, (
            f"process executor speedup {process_speedup:.2f}x below the "
            f"{REQUIRED_PROCESS_SPEEDUP}x target on a {cores}-core machine"
        )
        assert sharded_speedup_vs_vectorized >= REQUIRED_SHARDED_SPEEDUP, (
            f"sharded executor only {sharded_speedup_vs_vectorized:.2f}x the whole-batch "
            f"vectorized pass on a {cores}-core machine (target "
            f"{REQUIRED_SHARDED_SPEEDUP}x with {sharded_shards} shards)"
        )
    else:
        print(
            f"[atlas-bench] single usable core: recorded process speedup "
            f"{process_speedup:.2f}x without asserting the {REQUIRED_PROCESS_SPEEDUP}x target"
        )
        assert sharded_speedup_vs_vectorized >= REQUIRED_SHARDED_PARITY, (
            f"sharded executor regressed to {sharded_speedup_vs_vectorized:.2f}x of the "
            f"vectorized pass on one core — the degenerate single-shard path must stay "
            f"within {REQUIRED_SHARDED_PARITY}x"
        )

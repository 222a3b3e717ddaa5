"""Micro-benchmark of the measurement engine: discrete-event loop vs vectorized.

Two batch shapes are timed.  The *small* batch (16 requests, the paper's
parallel-query fan-out) runs through the simulator's discrete-event ``run``,
one request after another, and through the engine's vectorized pass,
verifying the vectorized results statistically equivalent, plus the
warm-cache repeat and the persistent store's cold and warm passes.  The
*large* batch (192 requests, the city-scale shape) records the vectorized
pass's wide-batch throughput as an ungated number.  The numbers are printed
as tables *and* written to ``benchmarks/out/BENCH_engine.json`` — the
machine-readable perf trajectory CI uploads on every push (schema
``atlas-bench-engine/5``, documented in ``docs/performance.md``).  The
``BENCH_engine.json`` committed at the repository root is a copy of one
such file, refreshed on purpose; running the benchmark leaves it alone.

One speedup gate: the vectorized pass must beat the discrete-event loop by
``REQUIRED_VECTORIZED_SPEEDUP`` (it collapses the batch into one NumPy
pass, so the target holds on a single core).  It is judged on a median of
interleaved timings: the two sides are timed in turn, several times over,
and the speedup is the median over the repetitions of one side's wall time
over the other's.  A host slowdown then lands on both sides of a
repetition, and one stalled repetition cannot decide the verdict either
way.  Reported wall times are each side's median.
"""

from __future__ import annotations

import json
import statistics
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
)
from repro.sim.config import SliceConfig
from repro.sim.network import NetworkSimulator
from repro.sim.scenario import Scenario

#: Small-batch size (the paper parallelises up to 16 queries).
BATCH_SIZE = 16
#: Large-batch size: the city-scale shape, timed for the trajectory only.
LARGE_BATCH_SIZE = 192
#: Required vectorized-executor speedup over the discrete-event loop
#: (single-core, so always asserted).
REQUIRED_VECTORIZED_SPEEDUP = 5.0
#: Interleaved repetitions of the small batch (the discrete-event loop takes
#: seconds per pass).
SMALL_REPEATS = 3
#: Repetitions of the large batch (~0.1 s per pass); its median is reported.
LARGE_REPEATS = 5
#: Where the machine-readable results land (ignored by git).
BENCH_JSON_PATH = Path(__file__).resolve().parent / "out" / "BENCH_engine.json"
#: Schema identifier of the emitted JSON (bump on breaking changes).
BENCH_SCHEMA = "atlas-bench-engine/5"

_CONFIG = SliceConfig(bandwidth_ul=10, bandwidth_dl=5, backhaul_bw=10, cpu_ratio=0.8)


def _batch(scale, size=BATCH_SIZE, duration_factor=8.0, duration_floor=120.0):
    # Long enough runs that per-request work dominates per-batch overhead.
    duration = max(duration_factor * scale.measurement_duration_s, duration_floor)
    return [
        MeasurementRequest(config=_CONFIG, traffic=4, duration=duration, seed=seed)
        for seed in range(size)
    ]


def _large_batch(scale):
    # Hundreds of lanes, shorter runs: the wide-batch shape, where per-frame
    # NumPy work scales with the lane count.
    return _batch(scale, size=LARGE_BATCH_SIZE, duration_factor=2.0, duration_floor=30.0)


def _timed(run, requests: list[MeasurementRequest]):
    start = time.perf_counter()
    results = run(requests)
    return time.perf_counter() - start, results


def _timed_interleaved(runs: list, requests, repeats: int):
    """Wall times of each batch runner over ``repeats`` interleaved passes, and its last results.

    Every repetition runs each runner once, in reverse order every other
    time, so the sides of a ratio share the host's slow and fast moments.
    """
    walls: list[list[float]] = [[] for _ in runs]
    results: list = [None] * len(runs)
    for repeat in range(repeats):
        order = range(len(runs)) if repeat % 2 == 0 else reversed(range(len(runs)))
        for index in order:
            wall_s, results[index] = _timed(runs[index], requests)
            walls[index].append(wall_s)
    return walls, results


def _speedup(baseline: list[float], candidate: list[float]) -> float:
    """Median over interleaved repetitions of ``baseline`` wall time over ``candidate``'s."""
    return statistics.median(base / wall for base, wall in zip(baseline, candidate))


def _executor_entry(wall_s: float, speedup: float, batch_size: int) -> dict:
    return {
        "wall_s": round(wall_s, 6),
        "throughput_rps": round(batch_size / wall_s, 3) if wall_s > 0 else None,
        "speedup_vs_discrete_event": round(speedup, 3),
    }


def test_engine_throughput(scale):
    simulator = NetworkSimulator(scenario=Scenario(traffic=4), seed=0)
    requests = _batch(scale)
    cores = available_parallelism()

    def discrete_event(batch):
        return [
            simulator.run(r.config, traffic=r.traffic, duration=r.duration, seed=r.seed)
            for r in batch
        ]

    vectorized = MeasurementEngine(simulator, cache=False)
    cached = MeasurementEngine(simulator, cache=MeasurementCache())

    (discrete_walls, vectorized_walls), (discrete_results, vectorized_results) = _timed_interleaved(
        [discrete_event, vectorized.run_batch], requests, SMALL_REPEATS
    )

    # The vectorized kind is statistically equivalent to the discrete-event
    # oracle, not byte-identical: check the pooled latency distributions
    # agree (the per-scenario gate lives in tests/test_sim_batch.py).
    discrete_pool = np.concatenate([r.latencies_ms for r in discrete_results])
    vectorized_pool = np.concatenate([r.latencies_ms for r in vectorized_results])
    assert abs(vectorized_pool.mean() - discrete_pool.mean()) / discrete_pool.mean() < 0.05
    assert abs(vectorized_pool.size - discrete_pool.size) / discrete_pool.size < 0.05

    # ------------------------------------------------------------ large batch
    # The wide-batch throughput of the one vectorized pass, ungated.  Warm the
    # shape first: the first pass over an (N, frames) batch pays one-off
    # allocation costs that do not belong in the number.
    large_requests = _large_batch(scale)
    vectorized.run_batch(large_requests)
    (vectorized_large_walls,), _ = _timed_interleaved(
        [vectorized.run_batch], large_requests, LARGE_REPEATS
    )
    vectorized_large_s = statistics.median(vectorized_large_walls)

    # Cache: the second submission of an identical batch is served for free.
    cold_s, cold_results = _timed(cached.run_batch, requests)
    warm_s, warm_results = _timed(cached.run_batch, requests)
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
        store_cold = MeasurementEngine(simulator, cache=MeasurementCache(store=store))
        store_cold_s, store_cold_results = _timed(store_cold.run_batch, requests)
        warm_cache = MeasurementCache(store=store)  # fresh memory tier
        store_warm = MeasurementEngine(simulator, cache=warm_cache)
        ledger = CostLedger(cache=warm_cache, store=store)
        store_warm_s, store_warm_results = _timed(store_warm.run_batch, requests)
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

    discrete_s, vectorized_s = (
        statistics.median(walls) for walls in (discrete_walls, vectorized_walls)
    )
    vectorized_speedup = _speedup(discrete_walls, vectorized_walls)
    print_table(
        f"Engine throughput ({BATCH_SIZE}-run batch, {cores} cores)",
        [
            {"executor": "discrete-event loop", "wall_s": discrete_s, "speedup": 1.0},
            {"executor": "vectorized", "wall_s": vectorized_s, "speedup": vectorized_speedup},
            {
                "executor": "cached (warm)",
                "wall_s": warm_s,
                "speedup": discrete_s / warm_s if warm_s > 0 else float("inf"),
            },
        ],
    )
    print(
        f"large batch ({LARGE_BATCH_SIZE} runs, ungated): vectorized {vectorized_large_s:.3f}s "
        f"({LARGE_BATCH_SIZE / vectorized_large_s:.0f} runs/s)"
    )
    print(f"cache stats: {stats.as_dict()}")
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
            "discrete_event": _executor_entry(discrete_s, 1.0, BATCH_SIZE),
            "vectorized": _executor_entry(vectorized_s, vectorized_speedup, BATCH_SIZE),
            "cached_warm": {
                **_executor_entry(warm_s, discrete_s / warm_s, BATCH_SIZE),
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
                },
            },
        },
        "cache": stats.as_dict(),
        "store": store_summary,
    }
    BENCH_JSON_PATH.parent.mkdir(exist_ok=True)
    BENCH_JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[atlas-bench] wrote {BENCH_JSON_PATH}")

    assert vectorized_speedup >= REQUIRED_VECTORIZED_SPEEDUP, (
        f"vectorized executor speedup {vectorized_speedup:.2f}x below the "
        f"{REQUIRED_VECTORIZED_SPEEDUP}x target"
    )

"""Tests for the unified measurement engine.

Covers the :class:`Environment` protocol conformance of both concrete
environments, the executor's ``map_requests`` contract (engines dispatch
through the class attribute, which the pipeline benchmark's tracer wraps),
split-batch identity of a stage search, cache hit/miss accounting, the
engine's deterministic auto-seeding, and the deterministic ``seed=None``
stream of the simulator.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.engine import (
    CacheStats,
    Environment,
    MeasurementCache,
    MeasurementEngine,
    MeasurementRequest,
    engine_telemetry,
    shared_cache,
)
import repro.engine.forkpool as forkpool_module
from repro.engine.engine import _TELEMETRY
from repro.engine.executors import EXECUTOR_KINDS, VectorizedExecutor, pool_diagnostics
from repro.engine.forkpool import fork_map
from repro.prototype.testbed import RealNetwork
from repro.service.costs import CostLedger
from repro.service.store import ResultStore
from repro.sim.network import NetworkSimulator
from repro.sim.parameters import SimulationParameters
from repro.sim.scenario import Scenario

DURATION = 6.0


def _requests(config, n=4, duration=DURATION):
    return [
        MeasurementRequest(config=config, traffic=1, duration=duration, seed=seed)
        for seed in range(n)
    ]


def _results_equal(a, b) -> bool:
    return (
        np.array_equal(a.latencies_ms, b.latencies_ms)
        and a.frames_generated == b.frames_generated
        and a.frames_completed == b.frames_completed
        and a.ping_delay_ms == b.ping_delay_ms
        and a.ul_throughput_mbps == b.ul_throughput_mbps
        and a.stage_breakdown_ms == b.stage_breakdown_ms
    )


class TestEnvironmentProtocol:
    def test_network_simulator_conforms(self, simulator):
        assert isinstance(simulator, Environment)

    def test_real_network_conforms(self, real_network):
        assert isinstance(real_network, Environment)

    def test_non_environment_rejected(self):
        class NotAnEnvironment:
            pass

        assert not isinstance(NotAnEnvironment(), Environment)

    @pytest.mark.parametrize("factory", [NetworkSimulator, RealNetwork])
    def test_fingerprint_is_hashable_and_content_keyed(self, factory):
        scenario = Scenario(traffic=1, duration_s=10.0)
        first = factory(scenario=scenario, seed=3)
        second = factory(scenario=scenario, seed=3)
        different = factory(scenario=scenario, seed=4)
        assert hash(first.fingerprint()) == hash(second.fingerprint())
        assert first.fingerprint() == second.fingerprint()
        assert first.fingerprint() != different.fingerprint()


class TestExecutorDeterminism:
    def test_params_override_matches_with_params(self, simulator, default_config):
        params = SimulationParameters(compute_time=15.0, backhaul_delay=5.0)
        engine = MeasurementEngine(simulator, cache=False)
        via_override = engine.run(default_config, traffic=1, duration=DURATION, seed=2, params=params)
        direct = simulator.with_params(params).run_requests(
            [MeasurementRequest(config=default_config, traffic=1, duration=DURATION, seed=2)]
        )[0]
        assert _results_equal(via_override, direct)

    def test_params_override_requires_with_params(self, default_config):
        class Minimal:
            scenario = Scenario()

            def run(self, config, traffic=None, duration=None, seed=None):
                raise AssertionError("should not be reached")

            def collect_latencies(self, config, traffic=None, duration=None, seed=None):
                return np.zeros(0)

            def fingerprint(self):
                return ("minimal",)

        engine = MeasurementEngine(Minimal(), cache=False)
        with pytest.raises(TypeError, match="with_params"):
            engine.run(default_config, seed=1, params=SimulationParameters())

    @pytest.mark.parametrize(
        "option", [{"executor": "vectorized"}, {"max_workers": 2}], ids=["executor", "max_workers"]
    )
    def test_engine_takes_no_executor_options(self, simulator, option):
        with pytest.raises(TypeError, match=next(iter(option))):
            MeasurementEngine(simulator, **option)

    def test_old_executor_env_var_is_ignored(self, simulator, default_config, monkeypatch):
        # The variable used to pick an executor kind.  Nothing reads it now.
        requests = _requests(default_config, n=8)
        expected = MeasurementEngine(simulator, cache=False).run_batch(requests)
        monkeypatch.setenv("ATLAS_ENGINE_EXECUTOR", "sharded")
        engine = MeasurementEngine(simulator, cache=False)
        assert engine.executor.kind == "vectorized"
        for a, b in zip(expected, engine.run_batch(requests), strict=True):
            assert _results_equal(a, b)

    def test_executor_keeps_the_map_requests_contract(self, simulator, default_config):
        # The pipeline benchmark's tracer wraps the class-level
        # ``map_requests`` of every listed kind and binds its arguments by name.
        assert EXECUTOR_KINDS == {"vectorized": VectorizedExecutor}
        assert VectorizedExecutor.kind == "vectorized"
        parameters = inspect.signature(VectorizedExecutor.map_requests).parameters
        assert list(parameters) == ["self", "environment", "requests"]
        requests = _requests(default_config)
        results = VectorizedExecutor().map_requests(environment=simulator, requests=requests)
        for a, b in zip(simulator.run_requests(requests), results, strict=True):
            assert _results_equal(a, b)

    def test_engines_dispatch_through_the_class_map_requests(
        self, simulator, default_config, monkeypatch
    ):
        # Wrapped after the engine exists, as the tracer may be: the engine
        # must look the method up on the class at every batch.
        engine = MeasurementEngine(simulator, cache=False)
        original = VectorizedExecutor.map_requests
        calls: list[tuple[str, int]] = []

        def recording(self, environment, requests):
            calls.append((self.kind, len(requests)))
            return original(self, environment, requests)

        monkeypatch.setattr(VectorizedExecutor, "map_requests", recording)
        engine.run_batch(_requests(default_config, n=3))
        engine.run(default_config, traffic=1, duration=DURATION, seed=9)
        assert calls == [("vectorized", 3), ("vectorized", 1)]
        assert pool_diagnostics()["pools_created"] == 0

    def test_auto_seeds_are_deterministic_per_engine_seed(self, simulator, default_config):
        requests = [MeasurementRequest(config=default_config, traffic=1, duration=DURATION)] * 3
        first = MeasurementEngine(simulator, cache=False, seed=11).run_batch(requests)
        second = MeasurementEngine(simulator, cache=False, seed=11).run_batch(requests)
        other = MeasurementEngine(simulator, cache=False, seed=12).run_batch(requests)
        for a, b in zip(first, second):
            assert _results_equal(a, b)
        assert not all(_results_equal(a, c) for a, c in zip(first, other))
        # Identical unseeded requests in one batch get distinct seeds.
        assert not _results_equal(first[0], first[1])


class TestMeasurementCache:
    def test_hit_and_miss_accounting(self, simulator, default_config):
        cache = MeasurementCache()
        engine = MeasurementEngine(simulator, cache=cache)
        requests = _requests(default_config)
        fresh = engine.run_batch(requests)
        assert cache.stats.misses == len(requests)
        assert cache.stats.hits == 0
        cached = engine.run_batch(requests)
        assert cache.stats.hits == len(requests)
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert engine.executed_requests == len(requests)
        for a, b in zip(fresh, cached):
            assert _results_equal(a, b)

    def test_cached_results_are_isolated_copies(self, simulator, default_config):
        engine = MeasurementEngine(simulator, cache=MeasurementCache())
        first = engine.run(default_config, traffic=1, duration=DURATION, seed=1)
        first.latencies_ms[:] = -1.0
        second = engine.run(default_config, traffic=1, duration=DURATION, seed=1)
        assert not np.array_equal(first.latencies_ms, second.latencies_ms)
        assert np.all(second.latencies_ms >= 0)

    def test_key_is_content_sensitive(self, simulator, default_config):
        cache = MeasurementCache()
        engine = MeasurementEngine(simulator, cache=cache)
        engine.run(default_config, traffic=1, duration=DURATION, seed=1)
        engine.run(default_config, traffic=1, duration=DURATION, seed=2)
        engine.run(default_config, traffic=2, duration=DURATION, seed=1)
        engine.run(
            default_config,
            traffic=1,
            duration=DURATION,
            seed=1,
            params=SimulationParameters(compute_time=3.0),
        )
        assert cache.stats.hits == 0
        assert cache.stats.misses == 4

    def test_disabled_cache_executes_every_request(self, simulator, default_config):
        engine = MeasurementEngine(simulator, cache=False)
        requests = _requests(default_config, n=2)
        engine.run_batch(requests)
        engine.run_batch(requests)
        assert engine.cache is None
        assert engine.executed_requests == 4
        assert engine.cache_stats.lookups == 0

    def test_lru_eviction_is_bounded(self, simulator, default_config):
        cache = MeasurementCache(max_entries=2)
        engine = MeasurementEngine(simulator, cache=cache)
        engine.run_batch(_requests(default_config, n=4))
        assert len(cache) == 2
        assert cache.stats.evictions == 2

    def test_shared_cache_is_process_wide_default(self, simulator):
        engine = MeasurementEngine(simulator)
        assert engine.cache is shared_cache()

    def test_invalid_max_entries_raises(self):
        with pytest.raises(ValueError):
            MeasurementCache(max_entries=0)

    def test_store_errors_are_counted_exactly_under_threads(self):
        @dataclass
        class Result:
            latencies_ms: np.ndarray = field(default_factory=lambda: np.zeros(3))
            stage_breakdown_ms: dict = field(default_factory=dict)

        class BrokenStore:
            def get(self, key):
                raise OSError("store unavailable")

            def put(self, key, value):
                raise OSError("store unavailable")

        class SlowStats(CacheStats):
            # Reading the counter yields the GIL, so an unlocked
            # ``store_errors += 1`` loses counts instead of racing rarely.
            @property
            def store_errors(self):
                value = self._store_errors
                time.sleep(0)
                return value

            @store_errors.setter
            def store_errors(self, value):
                self._store_errors = value

        cache = MeasurementCache(store=BrokenStore(), stats=SlowStats())
        threads, rounds = 8, 200

        def hammer(worker):
            for index in range(rounds):
                key = (worker, index)
                assert cache.get(key) is None
                cache.put(key, Result())
                assert key in cache
                assert len(cache) >= 1

        with ThreadPoolExecutor(threads) as pool:
            list(pool.map(hammer, range(threads)))
        # Every get and every put hit the broken store exactly once.
        assert cache.stats.store_errors == 2 * threads * rounds
        assert cache.stats.misses == threads * rounds
        assert len(cache) == threads * rounds


class TestRealNetworkThroughEngine:
    def test_matches_direct_measure(self, default_config):
        scenario = Scenario(traffic=1, duration_s=10.0)
        request = MeasurementRequest(config=default_config, traffic=1, duration=DURATION, seed=5)
        via_engine = MeasurementEngine(
            RealNetwork(scenario=scenario, seed=1), cache=False
        ).run_batch([request])[0]
        # The direct batch path: the domain managers apply the configuration,
        # then the inner simulator measures it.
        simulator, applied = RealNetwork(scenario=scenario, seed=1).prepare_batch([request])
        direct = simulator.run_requests(applied)[0]
        assert _results_equal(via_engine, direct)

    def test_applied_history_logged_even_on_cache_hits(self, real_network, default_config):
        engine = MeasurementEngine(real_network, cache=MeasurementCache())
        request = MeasurementRequest(config=default_config, traffic=1, duration=DURATION, seed=1)
        engine.run_batch([request])
        engine.run_batch([request])
        assert engine.cache_stats.hits == 1
        assert len(real_network.applied_history) == 2
        assert real_network.measurement_count == 2


class TestSimulatorSeedStream:
    def test_unseeded_runs_differ_but_replay_deterministically(self, default_config):
        scenario = Scenario(traffic=1, duration_s=10.0)
        first = NetworkSimulator(scenario=scenario, seed=0)
        second = NetworkSimulator(scenario=scenario, seed=0)
        a1 = first.collect_latencies(default_config, duration=DURATION)
        a2 = first.collect_latencies(default_config, duration=DURATION)
        b1 = second.collect_latencies(default_config, duration=DURATION)
        b2 = second.collect_latencies(default_config, duration=DURATION)
        assert not np.array_equal(a1, a2)
        assert np.array_equal(a1, b1)
        assert np.array_equal(a2, b2)

    def test_explicit_seed_unaffected_by_prior_unseeded_runs(self, default_config):
        scenario = Scenario(traffic=1, duration_s=10.0)
        clean = NetworkSimulator(scenario=scenario, seed=0)
        dirty = NetworkSimulator(scenario=scenario, seed=0)
        for _ in range(3):
            dirty.collect_latencies(default_config, duration=DURATION)
        assert np.array_equal(
            clean.collect_latencies(default_config, duration=DURATION, seed=9),
            dirty.collect_latencies(default_config, duration=DURATION, seed=9),
        )

    def test_unseeded_runs_do_not_collide_with_explicit_seeds(self, default_config):
        scenario = Scenario(traffic=1, duration_s=10.0)
        simulator = NetworkSimulator(scenario=scenario, seed=0)
        unseeded = simulator.collect_latencies(default_config, duration=DURATION)
        explicit = [
            NetworkSimulator(scenario=scenario, seed=0).collect_latencies(
                default_config, duration=DURATION, seed=s
            )
            for s in range(1, 4)
        ]
        assert not any(np.array_equal(unseeded, run) for run in explicit)


class SplittingEngine(MeasurementEngine):
    """An engine that runs every batch of two or more requests as two batches."""

    def run_batch(self, requests):
        requests = list(requests)
        if len(requests) < 2:
            return super().run_batch(requests)
        half = len(requests) // 2
        return super().run_batch(requests[:half]) + super().run_batch(requests[half:])


class TestStageDeterminismAcrossBatchSplits:
    def test_parameter_search_identical_with_split_batches(self, default_config):
        from repro.core.simulator_learning import ParameterSearchConfig, SimulatorParameterSearch

        scenario = Scenario(traffic=1, duration_s=8.0)
        real = RealNetwork(scenario=scenario, seed=1)
        collection = real.collect_latencies(default_config, traffic=1, duration=8.0, seed=1)
        config = ParameterSearchConfig(
            iterations=2,
            initial_random=1,
            parallel_queries=2,
            candidate_pool=60,
            measurement_duration_s=6.0,
            surrogate_epochs=5,
            seed=0,
        )

        def run_search(engine_class):
            simulator = NetworkSimulator(scenario=scenario, seed=0)
            engine = engine_class(simulator, cache=False)
            return SimulatorParameterSearch(
                simulator=simulator,
                real_collection=collection,
                deployed_config=default_config,
                config=config,
                engine=engine,
            ).run()

        whole_result = run_search(MeasurementEngine)
        split_result = run_search(SplittingEngine)
        assert whole_result.best_weighted_discrepancy == split_result.best_weighted_discrepancy
        assert [r.parameters for r in whole_result.history] == [
            r.parameters for r in split_result.history
        ]
        assert [r.discrepancy for r in whole_result.history] == [
            r.discrepancy for r in split_result.history
        ]


class TestEngineTelemetry:
    def test_forked_child_gets_a_fresh_lock(self):
        # The parent holds the lock across the fork, as another thread might.
        with _TELEMETRY._lock:
            pid = os.fork()
            if pid == 0:
                os._exit(0 if _TELEMETRY._lock.acquire(timeout=5) else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


class TestForkMap:
    """The fork pool shared by eval replays and multi-slice runs."""

    def test_results_come_back_in_job_order(self, replay_pool):
        def job(index):
            time.sleep(0.3 if index == 0 else 0.0)  # the first job finishes last
            return index, os.getpid()

        results = list(fork_map(job, range(5), 2))
        assert [index for index, _ in results] == list(range(5))
        assert os.getpid() not in {pid for _, pid in results}
        assert replay_pool == [2]

    def test_text_buffered_before_the_fork_is_written_once(self, tmp_path, monkeypatch):
        path = tmp_path / "stdout.txt"
        with open(path, "w") as stdout:  # block-buffered, like a redirected CLI
            monkeypatch.setattr(sys, "stdout", stdout)
            print("printed before the fork")
            assert list(fork_map(abs, [-1, -2], 2)) == [1, 2]
        assert path.read_text() == "printed before the fork\n"

    def test_one_worker_runs_the_jobs_in_process(self, replay_pool):
        results = list(fork_map(lambda index: (index, os.getpid()), range(3), 1))
        assert results == [(index, os.getpid()) for index in range(3)]
        assert replay_pool == []

    def test_engines_in_a_worker_run_inline_and_report_their_work(
        self, replay_pool, simulator, default_config
    ):
        def job(_):
            engine = MeasurementEngine(simulator, cache=False)
            engine.run_batch(_requests(default_config, n=64, duration=1.0))
            return engine.executed_requests, pool_diagnostics()["pools_created"]

        before = engine_telemetry()["executed_requests"]
        results = list(fork_map(job, range(2), 2))
        assert results == [(64, 0)] * 2
        assert engine_telemetry()["executed_requests"] - before == 128
        assert replay_pool == [2]

    @pytest.mark.parametrize("workers, pools", [(2, [2]), (1, [])], ids=["pooled", "inline"])
    def test_counters_from_before_the_fork_count_each_job_once_in_job_order(
        self, tmp_path, replay_pool, simulator, default_config, workers, pools
    ):
        requests = _requests(default_config, n=6, duration=1.0)
        store = ResultStore(tmp_path / "store")
        cache = MeasurementCache(store=store)
        # Before the fork: request 0 is in the store only, request 1 in the
        # cache's memory tier (and the store).
        MeasurementEngine(simulator, cache=MeasurementCache(store=store)).run(
            default_config, traffic=1, duration=1.0, seed=0
        )
        MeasurementEngine(simulator, cache=cache).run(
            default_config, traffic=1, duration=1.0, seed=1
        )

        def counts():
            return cache.stats.counts(), store.stats.counts(), _TELEMETRY.counts()

        def job(batch):
            time.sleep(0.3 if batch[0].seed == 0 else 0.0)  # the first job finishes last
            before = counts()
            MeasurementEngine(simulator, cache=cache).run_batch(batch)
            return [tuple(a - b for a, b in zip(*pair)) for pair in zip(counts(), before)]

        jobs = [requests[0:3], requests[3:4], requests[4:6]]
        start = counts()
        totals = [(0,) * len(part) for part in start]
        for delta in fork_map(job, jobs, workers):
            totals = [tuple(a + b for a, b in zip(*pair)) for pair in zip(totals, delta)]
            # A job's counts arrive with its result: once job k is yielded,
            # the parent's counters have moved by jobs 0..k exactly.
            moved = [tuple(a - b for a, b in zip(*pair)) for pair in zip(counts(), start)]
            assert moved == totals
        assert replay_pool == pools
        # Job 0: request 0 from the store, request 1 from memory, request 2
        # fresh; jobs 1 and 2 run fresh.  Every fresh result is stored.
        cache_moved = dict(zip(cache.stats.as_dict(), totals[0]))
        assert cache_moved == {"hits": 1, "misses": 4, "evictions": 0, "store_hits": 1, "store_errors": 0}
        store_moved = dict(zip(store.stats.as_dict(), totals[1]))
        assert store_moved["hits"] == 1 and store_moved["puts"] == 4
        assert store_moved["bytes_read"] > 0 and store_moved["bytes_written"] > 0
        assert dict(zip(engine_telemetry(), totals[2]))["executed_requests"] == 4

    def test_more_workers_than_cores_racing_on_one_store_keep_the_ledger_exact(
        self, tmp_path, replay_pool, simulator, default_config
    ):
        store = ResultStore(tmp_path / "store")
        cache = MeasurementCache(store=store)
        requests = _requests(default_config, n=4, duration=1.0)
        reference = MeasurementEngine(simulator, cache=False).run_batch(requests)

        def job(index):
            # Every job measures the same four requests, starting at a
            # different one, so the workers race on every key.
            order = [(index + offset) % 4 for offset in range(4)]
            engine = MeasurementEngine(simulator, cache=cache)
            results = engine.run_batch([requests[position] for position in order])
            return [results[order.index(position)] for position in range(4)]

        ledger = CostLedger(cache=cache, store=store)
        for results in fork_map(job, range(16), 8):
            assert all(_results_equal(a, b) for a, b in zip(results, reference))
        costs = ledger.finish()
        assert replay_pool == [8]
        counts = costs["cache"]
        assert counts["memory_hits"] + counts["store_hits"] + counts["misses"] == 16 * 4
        assert costs["engine_requests"] == counts["misses"] == costs["store"]["puts"] >= 4
        assert counts["store_hits"] == costs["store"]["hits"]
        assert counts["store_errors"] == costs["store"]["put_errors"] == 0
        assert store.verify() == {"checked": 4, "ok": 4, "corrupt": []}
        assert list((tmp_path / "store" / "tmp").iterdir()) == []

    def test_a_cache_created_in_a_worker_leaves_the_parents_counters_alone(
        self, tmp_path, replay_pool, simulator, default_config
    ):
        worker_caches = []

        def job(index):
            # A worker's first job creates its cache; its later jobs (six
            # jobs, two workers: there are some) reuse and count into it.
            if not worker_caches:
                worker_caches.append(MeasurementCache(store=ResultStore(tmp_path / str(os.getpid()))))
            engine = MeasurementEngine(simulator, cache=worker_caches[0])
            engine.run_batch(_requests(default_config, n=2, duration=1.0))
            return os.getpid()

        parents = [counters for counters in forkpool_module._live_counters() if counters is not _TELEMETRY]
        before = [counters.counts() for counters in parents]
        executed = engine_telemetry()["executed_requests"]
        pids = list(fork_map(job, range(6), 2))
        assert [counters.counts() for counters in parents] == before
        assert engine_telemetry()["executed_requests"] - executed == 2 * len(set(pids))
        assert replay_pool == [2]

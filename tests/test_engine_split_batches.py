"""Split-batch identity and cache composition through the measurement engine.

Every lane of :func:`repro.sim.batch.simulate_batch` draws from its own
seed-derived stream, so a request's result depends on the request alone.
Two contracts rest on that and are pinned here, through the engine:

* **Split-batch identity** — a batch submitted as two engine batches (or
  any number) returns the bytes of the whole batch, on every catalog
  scenario, for the simulator, the real network (through its
  ``prepare_batch`` hook) and the fault wrapper, with mixed durations and
  per-request ``params`` and ``scenario`` overrides.
* **Cache composition** — partial cache hits execute only the misses,
  entries written by one batch shape serve any other, and fully cached,
  empty and one-request batches never reach the executor's vectorized pass
  with work it need not do.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import MeasurementCache, MeasurementEngine, MeasurementRequest
from repro.engine.executors import VectorizedExecutor
from repro.scenarios import get_scenario, list_scenarios
from repro.sim.faults import FaultedEnvironment
from repro.sim.parameters import SimulationParameters
from repro.sim.scenario import Scenario

DURATION = 6.0
CATALOG = list_scenarios()
HOSTILE = [spec for spec in CATALOG if spec.faults is not None]


def _requests(config, n=6, duration=DURATION, base_seed=0):
    return [
        MeasurementRequest(config=config, traffic=1, duration=duration, seed=base_seed + seed)
        for seed in range(n)
    ]


def _results_identical(a, b) -> bool:
    # Dropped telemetry (the fault wrapper) reports NaN rates and delays.
    nan_scalars = (
        "ul_throughput_mbps",
        "dl_throughput_mbps",
        "ul_packet_error_rate",
        "dl_packet_error_rate",
        "ping_delay_ms",
    )
    return (
        a.latencies_ms.tobytes() == b.latencies_ms.tobytes()
        and a.frames_generated == b.frames_generated
        and a.frames_completed == b.frames_completed
        and a.duration_s == b.duration_s
        and a.config == b.config
        and a.traffic == b.traffic
        and all(
            np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
            for name in nan_scalars
        )
        and a.stage_breakdown_ms == b.stage_breakdown_ms
    )


def _assert_identical(expected, actual) -> None:
    assert len(expected) == len(actual)
    for a, b in zip(expected, actual):
        assert _results_identical(a, b)


def _run_in_pieces(make_environment, requests, cuts) -> list:
    """Run ``requests`` through one engine as consecutive batches split at ``cuts``."""
    engine = MeasurementEngine(make_environment(), cache=False)
    bounds = [0, *cuts, len(requests)]
    results = []
    for start, stop in zip(bounds, bounds[1:]):
        results.extend(engine.run_batch(requests[start:stop]))
    return results


def _assert_every_split_matches_whole(make_environment, requests) -> None:
    whole = MeasurementEngine(make_environment(), cache=False).run_batch(requests)
    for cut in range(1, len(requests)):
        _assert_identical(whole, _run_in_pieces(make_environment, requests, [cut]))


class TestSplitBatchIdentity:
    @pytest.mark.parametrize("spec", CATALOG, ids=lambda spec: spec.name)
    def test_simulator_batches_split_on_every_catalog_scenario(self, spec):
        config = spec.primary.deployed_config
        requests = [
            MeasurementRequest(config=config, duration=DURATION, seed=seed) for seed in range(6)
        ]
        _assert_every_split_matches_whole(lambda: spec.primary.make_simulator(seed=3), requests)

    @pytest.mark.parametrize("spec", CATALOG, ids=lambda spec: spec.name)
    def test_real_network_batches_split_through_prepare_batch(self, spec):
        config = spec.primary.deployed_config
        requests = [
            MeasurementRequest(config=config, duration=DURATION, seed=seed) for seed in range(6)
        ]
        _assert_every_split_matches_whole(lambda: spec.primary.make_real_network(seed=1), requests)
        # Domain-manager history records every request, whatever the split.
        real = spec.primary.make_real_network(seed=1)
        engine = MeasurementEngine(real, cache=False)
        engine.run_batch(requests[:2])
        engine.run_batch(requests[2:])
        assert len(real.applied_history) == len(requests)

    @pytest.mark.parametrize("spec", HOSTILE, ids=lambda spec: spec.name)
    def test_faulted_batches_split(self, spec):
        config = spec.primary.deployed_config
        requests = [
            MeasurementRequest(config=config, traffic=1, duration=DURATION, seed=31 + lane)
            for lane in range(4)
        ]
        for step in range(6):  # drift, storm and dropout steps alike
            _assert_every_split_matches_whole(
                lambda: FaultedEnvironment(
                    spec.primary.make_real_network(seed=1), spec.faults, step
                ),
                requests,
            )

    def test_request_overrides_cross_the_split(self, simulator, default_config):
        # traffic, duration, scenario and params overrides resolve inside
        # each batch's vectorized pass exactly as in the whole-batch pass.
        other = Scenario(traffic=2, duration_s=DURATION)
        params = SimulationParameters(compute_time=15.0, backhaul_delay=5.0)
        requests = [
            MeasurementRequest(config=default_config, traffic=1, duration=DURATION, seed=1),
            MeasurementRequest(config=default_config, traffic=2, duration=DURATION, seed=2),
            MeasurementRequest(config=default_config, duration=DURATION / 2, seed=3),
            MeasurementRequest(config=default_config, duration=DURATION, seed=4, scenario=other),
            MeasurementRequest(config=default_config, duration=DURATION, seed=5, params=params),
            MeasurementRequest(
                config=default_config, traffic=3, duration=DURATION, seed=6, params=params,
                scenario=other,
            ),
        ]
        _assert_every_split_matches_whole(lambda: simulator, requests)

    def test_mixed_duration_real_network_batch(self):
        # Equal-length lanes all stop together; mixed lengths are where one
        # part of a split ends sooner than the whole batch.  The 10-s lane
        # (seed 31) has a frame that would trigger in time again after its
        # first gap; its part ends at the gap, the whole batch runs on with
        # the 40-s lane, and both must still report the lane as it runs alone.
        workload = get_scenario("mmtc-telemetry").primary
        requests = [
            MeasurementRequest(
                config=workload.deployed_config, duration=duration, traffic=traffic, seed=seed
            )
            for duration, traffic, seed in (
                (4.0, 2, 1), (6.0, 1, 5), (10.0, None, 31),
                (40.0, None, 999), (25.0, 3, 2), (15.0, 4, 6),
            )
        ]
        _assert_every_split_matches_whole(lambda: workload.make_real_network(seed=1), requests)

    @pytest.mark.parametrize("cuts", [[], [3], [2, 5], list(range(1, 7))], ids=["1", "2", "3", "7"])
    def test_any_partition_matches_the_whole_batch(self, simulator, default_config, cuts):
        requests = _requests(default_config, n=7)
        whole = MeasurementEngine(simulator, cache=False).run_batch(requests)
        _assert_identical(whole, _run_in_pieces(lambda: simulator, requests, cuts))


class TestCacheComposition:
    @staticmethod
    def _record_dispatches(monkeypatch) -> list[int]:
        dispatched: list[int] = []
        original = VectorizedExecutor.map_requests

        def recording(self, environment, requests):
            dispatched.append(len(requests))
            return original(self, environment, requests)

        monkeypatch.setattr(VectorizedExecutor, "map_requests", recording)
        return dispatched

    def test_partial_hits_execute_only_the_misses(self, simulator, default_config, monkeypatch):
        cache = MeasurementCache()
        engine = MeasurementEngine(simulator, cache=cache)
        requests = _requests(default_config, n=8)
        engine.run_batch(requests[:4])  # prime half the batch
        dispatched = self._record_dispatches(monkeypatch)
        results = engine.run_batch(requests)
        assert dispatched == [4]  # only the misses reached the executor
        assert cache.stats.hits == 4
        assert engine.executed_requests == 8
        fresh = MeasurementEngine(simulator, cache=False).run_batch(requests)
        _assert_identical(fresh, results)

    def test_entries_written_by_split_batches_serve_a_whole_batch(
        self, simulator, default_config
    ):
        cache = MeasurementCache()
        requests = _requests(default_config, n=4)
        split = MeasurementEngine(simulator, cache=cache)
        split.run_batch(requests[:1])
        split.run_batch(requests[1:])
        assert cache.stats.misses == 4
        whole = MeasurementEngine(simulator, cache=cache)
        results = whole.run_batch(requests)
        assert cache.stats.hits == 4  # every request served from the split entries
        assert whole.executed_requests == 0
        _assert_identical(MeasurementEngine(simulator, cache=False).run_batch(requests), results)

    def test_fully_cached_batches_never_reach_the_executor(
        self, simulator, default_config, monkeypatch
    ):
        cache = MeasurementCache()
        requests = _requests(default_config, n=8)
        MeasurementEngine(simulator, cache=cache).run_batch(requests)
        dispatched = self._record_dispatches(monkeypatch)
        engine = MeasurementEngine(simulator, cache=cache)
        results = engine.run_batch(requests)
        assert len(results) == len(requests)
        assert engine.executed_requests == 0
        assert dispatched == []

    def test_empty_and_single_request_batches(self, simulator, default_config, monkeypatch):
        dispatched = self._record_dispatches(monkeypatch)
        engine = MeasurementEngine(simulator, cache=False)
        assert engine.run_batch([]) == []
        assert dispatched == []  # an empty batch never reaches the executor
        [result] = engine.run_batch(_requests(default_config, n=1))
        assert result.latencies_ms.size > 0
        assert dispatched == [1]
        assert engine.submitted_batches == 2
        assert engine.executed_requests == 1

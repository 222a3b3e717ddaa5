"""Scenario catalog: registry semantics, determinism, multi-slice contention.

Covers the satellite requirements of the catalog subsystem: name lookup and
unknown-name errors, per-request scenario overrides through the engine, and
conservation of the shared PRB/backhaul/CPU budgets under multi-slice
contention.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import MeasurementEngine, MeasurementRequest
from repro.prototype.slice_manager import SLA, NetworkSlice, SliceManager
from repro.scenarios import (
    ConstantTrace,
    DiurnalTrace,
    BurstyTrace,
    FlashCrowdTrace,
    ScenarioSpec,
    SliceWorkload,
    UnknownScenarioError,
    get_scenario,
    list_scenarios,
    register_scenario,
    scenario_names,
)
from repro.scenarios.catalog import _REGISTRY
from repro.sim.config import SliceConfig
from repro.sim.multislice import (
    CONTENDED_DIMENSIONS,
    ResourceBudget,
    SliceRun,
    resolve_contention,
)
from repro.sim.scenario import Scenario


# ----------------------------------------------------------------- registry
class TestRegistry:
    def test_builtin_catalog_has_at_least_six_entries(self):
        assert len(list_scenarios()) >= 6

    def test_expected_entries_are_registered(self):
        names = scenario_names()
        for expected in (
            "frame-offloading",
            "embb-video",
            "urllc-control",
            "mmtc-telemetry",
            "frame-offloading-diurnal",
            "mixed-enterprise",
        ):
            assert expected in names

    def test_get_scenario_returns_spec(self):
        spec = get_scenario("frame-offloading")
        assert spec.name == "frame-offloading"
        assert not spec.is_multislice
        assert spec.primary.sla == SLA(latency_threshold_ms=300.0, availability=0.9)

    def test_unknown_name_raises_with_available_names(self):
        with pytest.raises(UnknownScenarioError) as excinfo:
            get_scenario("does-not-exist")
        message = str(excinfo.value)
        assert "does-not-exist" in message
        assert "frame-offloading" in message
        # It is also a KeyError, for callers catching the builtin type.
        assert isinstance(excinfo.value, KeyError)

    def test_duplicate_registration_rejected(self):
        spec = get_scenario("frame-offloading")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(spec)

    def test_register_and_replace_roundtrip(self):
        spec = ScenarioSpec(
            name="test-entry",
            description="temporary",
            slices=(SliceWorkload(name="s0"),),
        )
        try:
            register_scenario(spec)
            assert get_scenario("test-entry") is spec
            replaced = spec.replace(description="changed")
            register_scenario(replaced, replace_existing=True)
            assert get_scenario("test-entry").description == "changed"
        finally:
            _REGISTRY.pop("test-entry", None)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="at least one slice"):
            ScenarioSpec(name="empty", description="", slices=())
        with pytest.raises(ValueError, match="duplicate slice names"):
            ScenarioSpec(
                name="dup",
                description="",
                slices=(SliceWorkload(name="a"), SliceWorkload(name="a")),
            )

    def test_multislice_entry_oversubscribes_its_budget(self):
        spec = get_scenario("mixed-enterprise")
        assert spec.is_multislice
        demand = {
            dim: sum(getattr(w.deployed_config, dim) for w in spec.slices)
            for dim in CONTENDED_DIMENSIONS
        }
        # The entry exists to demonstrate contention: every shared dimension
        # must be genuinely oversubscribed at the deployed configurations.
        for dim in CONTENDED_DIMENSIONS:
            assert demand[dim] > spec.budget.total(dim)


# ------------------------------------------------------------------- traces
class TestTraces:
    def test_traces_are_deterministic_and_bounded(self):
        traces = [
            ConstantTrace(2),
            DiurnalTrace(low=1, high=4, period=12),
            BurstyTrace(base=1, burst=4, quiet_steps=3, burst_steps=2),
            FlashCrowdTrace(base=1, peak=4, spike_start=2, spike_steps=3),
        ]
        for trace in traces:
            first = trace.levels(30)
            second = trace.levels(30)
            assert first == second
            assert all(level >= 1 for level in first)

    def test_diurnal_trough_and_peak(self):
        trace = DiurnalTrace(low=1, high=4, period=12)
        assert trace.level(0) == 1
        assert trace.level(6) == 4

    def test_flash_crowd_spike_window(self):
        trace = FlashCrowdTrace(base=1, peak=4, spike_start=4, spike_steps=3)
        assert trace.levels(9) == [1, 1, 1, 1, 4, 4, 4, 1, 1]

    def test_workload_traffic_at_follows_trace(self):
        workload = get_scenario("frame-offloading-diurnal").primary
        assert workload.traffic_at(0) == workload.trace.level(0)
        assert workload.mean_traffic() >= 1

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            ConstantTrace(0)
        with pytest.raises(ValueError):
            DiurnalTrace(low=3, high=2)
        with pytest.raises(ValueError):
            BurstyTrace(base=2, burst=1)
        with pytest.raises(ValueError):
            FlashCrowdTrace(spike_steps=0)


# ------------------------------------------------------- contention resolution
class TestContention:
    def test_oversubscribed_dimensions_conserve_budget(self):
        budget = ResourceBudget()
        configs = [
            SliceConfig(bandwidth_ul=40.0, bandwidth_dl=30.0, backhaul_bw=80.0, cpu_ratio=0.9)
            for _ in range(3)
        ]
        allocated = resolve_contention(configs, budget)
        for dim in CONTENDED_DIMENSIONS:
            total = sum(getattr(config, dim) for config in allocated)
            assert total == pytest.approx(budget.total(dim))

    def test_within_budget_requests_granted_unchanged(self):
        budget = ResourceBudget()
        configs = [SliceConfig(bandwidth_ul=10.0, bandwidth_dl=5.0, backhaul_bw=10.0, cpu_ratio=0.5)]
        (allocated,) = resolve_contention(configs, budget)
        assert allocated == configs[0]

    def test_proportional_shares_preserved(self):
        budget = ResourceBudget(bandwidth_ul=50.0)
        configs = [
            SliceConfig(bandwidth_ul=40.0),
            SliceConfig(bandwidth_ul=20.0),
        ]
        first, second = resolve_contention(configs, budget)
        assert first.bandwidth_ul == pytest.approx(2.0 * second.bandwidth_ul)

    def test_mcs_offsets_never_contended(self):
        configs = [
            SliceConfig(bandwidth_ul=50.0, mcs_offset_ul=4.0, mcs_offset_dl=6.0)
            for _ in range(3)
        ]
        for allocated in resolve_contention(configs):
            assert allocated.mcs_offset_ul == 4.0
            assert allocated.mcs_offset_dl == 6.0

    def test_empty_round_resolves_to_empty(self):
        assert resolve_contention([]) == []

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            ResourceBudget(cpu_ratio=0.0)

    def test_run_slices_conserves_budgets_end_to_end(self):
        spec = get_scenario("mixed-enterprise")
        simulator = spec.primary.make_simulator(seed=2)
        round_ = simulator.run_slices(spec.slice_runs(seed=10), budget=spec.budget, duration=5.0)
        assert len(round_) == len(spec.slices)
        assert round_.slice_names() == [w.name for w in spec.slices]
        for dim in CONTENDED_DIMENSIONS:
            assert round_.total_allocated(dim) <= spec.budget.total(dim) + 1e-9
        # Oversubscribed dimensions are exhausted exactly, not left idle.
        assert round_.total_allocated("bandwidth_ul") == pytest.approx(
            spec.budget.total("bandwidth_ul")
        )
        for index, result in enumerate(round_.results):
            assert result.frames_generated > 0
            assert round_.qoe(index) >= 0.0

    def test_run_slices_rejects_foreign_engine(self):
        spec = get_scenario("mixed-enterprise")
        simulator = spec.primary.make_simulator(seed=2)
        other_engine = MeasurementEngine(spec.primary.make_simulator(seed=3))
        with pytest.raises(ValueError, match="must wrap the environment"):
            simulator.run_slices(spec.slice_runs(), budget=spec.budget, engine=other_engine)

    def test_real_network_round_records_history_per_slice(self):
        spec = get_scenario("mixed-enterprise")
        network = spec.primary.make_real_network(seed=4)
        round_ = network.measure_slices(spec.slice_runs(seed=20), budget=spec.budget, duration=5.0)
        # Every slice's contended configuration went through the domain
        # managers, so the applied history has one record per slice.
        assert len(network.applied_history) == len(spec.slices)
        # Quantisation may round allocations up slightly, but the totals must
        # stay within the budget plus the coarsest quantisation step (1 PRB
        # per slice, connectivity minimums aside).
        for dim in ("backhaul_bw", "cpu_ratio"):
            applied_total = sum(
                getattr(record.applied, dim) for record in network.applied_history
            )
            assert applied_total <= spec.budget.total(dim) + 0.5 * len(spec.slices)
        assert len(round_.results) == len(spec.slices)


# -------------------------------------------------------- slice manager rounds
class TestSliceManagerMeasureAll:
    def test_measure_all_batches_admitted_slices(self):
        spec = get_scenario("mixed-enterprise")
        network = spec.primary.make_real_network(seed=6)
        manager = SliceManager(network)
        for workload in spec.slices[:3]:
            manager.admit(
                NetworkSlice(
                    name=workload.name,
                    sla=workload.sla,
                    config=workload.deployed_config,
                    traffic=workload.scenario.traffic,
                    scenario=workload.scenario,
                )
            )
        round_ = manager.measure_all(budget=spec.budget, duration=5.0, seed=30)
        assert round_.slice_names() == [w.name for w in spec.slices[:3]]
        summary = round_.summary()
        assert all(row["sla_met"] in (True, False) for row in summary)
        # Each admitted slice kept its own workload physics: URLLC's 200 B
        # frames must complete far faster than 28.8 kB frame offloading.
        by_name = {row["slice"]: row for row in summary}
        assert by_name["urllc-control"]["mean_latency_ms"] < by_name["frame-offloading"]["mean_latency_ms"]

    def test_measure_all_requires_admitted_slices(self):
        network = get_scenario("frame-offloading").primary.make_real_network(seed=6)
        with pytest.raises(ValueError, match="no slices admitted"):
            SliceManager(network).measure_all()

    def test_measure_all_deterministic_given_seed(self):
        workload = get_scenario("frame-offloading").primary
        rounds = []
        for _ in range(2):
            network = workload.make_real_network(seed=6)
            manager = SliceManager(network)
            manager.admit(
                NetworkSlice(
                    name="s0", sla=workload.sla, config=workload.deployed_config, traffic=1
                )
            )
            manager.admit(
                NetworkSlice(
                    name="s1",
                    sla=workload.sla,
                    config=workload.deployed_config.replace(cpu_ratio=0.4),
                    traffic=2,
                )
            )
            rounds.append(manager.measure_all(duration=5.0, seed=77))
        for first, second in zip(rounds[0].results, rounds[1].results):
            np.testing.assert_array_equal(first.latencies_ms, second.latencies_ms)


# -------------------------------------------------------------- scenario hooks
class TestScenarioOverrides:
    def test_engine_request_scenario_override(self):
        workload = get_scenario("urllc-control").primary
        simulator = get_scenario("frame-offloading").primary.make_simulator(seed=1)
        engine = MeasurementEngine(simulator, cache=False)
        base = engine.run(workload.deployed_config, duration=5.0, seed=9)
        overridden = engine.run_batch(
            [
                MeasurementRequest(
                    config=workload.deployed_config,
                    duration=5.0,
                    seed=9,
                    scenario=workload.scenario,
                )
            ]
        )[0]
        # URLLC frames are 200 bytes vs 28.8 kB: latencies must differ wildly.
        assert overridden.mean_latency_ms < base.mean_latency_ms

    def test_scenario_override_matches_direct_with_scenario(self):
        workload = get_scenario("embb-video").primary
        simulator = get_scenario("frame-offloading").primary.make_simulator(seed=1)
        direct = simulator.with_scenario(workload.scenario).run_requests(
            [MeasurementRequest(config=workload.deployed_config, duration=5.0, seed=11)]
        )[0]
        engine = MeasurementEngine(simulator, cache=False)
        batched = engine.run_batch(
            [
                MeasurementRequest(
                    config=workload.deployed_config,
                    duration=5.0,
                    seed=11,
                    scenario=workload.scenario,
                )
            ]
        )[0]
        np.testing.assert_array_equal(direct.latencies_ms, batched.latencies_ms)

    def test_scenario_is_part_of_cache_key(self):
        workload = get_scenario("frame-offloading").primary
        from repro.engine import MeasurementCache

        engine = MeasurementEngine(
            workload.make_simulator(seed=1), cache=MeasurementCache(max_entries=16)
        )
        request = MeasurementRequest(config=workload.deployed_config, duration=5.0, seed=3)
        other = request.replace(scenario=Scenario(traffic=2))
        engine.run_batch([request])
        engine.run_batch([other])
        assert engine.cache_stats.misses == 2
        engine.run_batch([other])
        assert engine.cache_stats.hits == 1

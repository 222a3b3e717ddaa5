"""Tests for the real-network substitute, domain managers, slice manager and telemetry."""

import numpy as np
import pytest

from repro.metrics.kl import histogram_kl_divergence
from repro.prototype.domain_managers import (
    EdgeDomainManager,
    EndToEndOrchestrator,
    RadioDomainManager,
    TransportDomainManager,
)
from repro.prototype.slice_manager import SLA, NetworkSlice, SliceManager
from repro.prototype.telemetry import OnlineCollection
from repro.prototype.testbed import RealNetwork, default_ground_truth, default_imperfections
from repro.sim.config import MIN_DOWNLINK_PRBS, MIN_UPLINK_PRBS, SliceConfig
from repro.sim.scenario import Scenario


class TestRealNetwork:
    def test_measure_returns_simulation_result(self, real_network, default_config):
        result = real_network.measure(default_config, traffic=1, duration=15.0, seed=1)
        assert result.frames_completed > 5
        assert result.mean_latency_ms > 0

    def test_real_network_is_slower_than_simulator(self, simulator, real_network, default_config):
        sim_result = simulator.run(default_config, traffic=1, duration=30.0, seed=2)
        real_result = real_network.measure(default_config, traffic=1, duration=30.0, seed=2)
        assert real_result.mean_latency_ms > sim_result.mean_latency_ms

    def test_real_network_has_lower_throughput(self, simulator, real_network, default_config):
        sim_result = simulator.run(default_config, traffic=1, duration=15.0, seed=3)
        real_result = real_network.measure(default_config, traffic=1, duration=15.0, seed=3)
        assert real_result.ul_throughput_mbps < sim_result.ul_throughput_mbps
        assert real_result.dl_throughput_mbps < sim_result.dl_throughput_mbps

    def test_sim_to_real_discrepancy_is_nontrivial(self, simulator, real_network, default_config):
        sim_latencies = simulator.collect_latencies(default_config, traffic=1, duration=30.0, seed=4)
        real_latencies = real_network.collect_latencies(default_config, traffic=1, duration=30.0, seed=4)
        assert histogram_kl_divergence(real_latencies, sim_latencies) > 0.2

    def test_measurements_are_logged_through_domain_managers(self, real_network, default_config):
        real_network.measure(default_config, traffic=1, duration=10.0, seed=5)
        real_network.measure(default_config, traffic=1, duration=10.0, seed=6)
        assert len(real_network.applied_history) == 2

    def test_run_alias_matches_measure_interface(self, real_network, default_config):
        result = real_network.run(default_config, traffic=1, duration=10.0, seed=7)
        assert result.frames_completed > 0

    def test_with_scenario_keeps_hidden_ground_truth(self):
        network = RealNetwork(seed=3)
        moved = network.with_scenario(Scenario(traffic=2))
        assert moved.scenario.traffic == 2
        assert moved._ground_truth == network._ground_truth

    def test_default_ground_truth_differs_from_simulator_defaults(self):
        assert default_ground_truth().to_array().tolist() != [38.57, 5.0, 9.0, 0, 0, 0, 0]

    def test_default_imperfections_are_not_neutral(self):
        imperfections = default_imperfections()
        assert imperfections.fading_std_db > 0
        assert imperfections.ul_rate_derate < 1.0


class TestDomainManagers:
    def test_radio_manager_quantises_and_enforces_minimums(self):
        manager = RadioDomainManager()
        values, notes = manager.apply(SliceConfig(bandwidth_ul=0.4, bandwidth_dl=0.0, mcs_offset_ul=3.7))
        assert values["bandwidth_ul"] == MIN_UPLINK_PRBS
        assert values["bandwidth_dl"] == MIN_DOWNLINK_PRBS
        assert values["mcs_offset_ul"] == 4.0
        assert notes

    def test_transport_manager_quantises_to_meter_granularity(self):
        manager = TransportDomainManager()
        values, _ = manager.apply(SliceConfig(backhaul_bw=10.123))
        assert values["backhaul_bw"] == pytest.approx(10.1)

    def test_edge_manager_floors_cpu_ratio(self):
        manager = EdgeDomainManager()
        values, notes = manager.apply(SliceConfig(cpu_ratio=0.0))
        assert values["cpu_ratio"] == pytest.approx(manager.minimum_cpu_ratio)
        assert notes

    def test_orchestrator_applies_all_domains_and_records_history(self):
        orchestrator = EndToEndOrchestrator()
        record = orchestrator.apply(SliceConfig(bandwidth_ul=9.6, backhaul_bw=6.24, cpu_ratio=0.333))
        assert record.applied.bandwidth_ul == 10.0
        assert record.applied.backhaul_bw == pytest.approx(6.2)
        assert record.applied.cpu_ratio == pytest.approx(0.33)
        assert orchestrator.history == [record]

    def test_orchestrator_preserves_valid_configuration(self):
        orchestrator = EndToEndOrchestrator()
        config = SliceConfig(bandwidth_ul=20, bandwidth_dl=10, backhaul_bw=30.0, cpu_ratio=0.5)
        record = orchestrator.apply(config)
        assert record.applied == config
        assert record.notes == ()


class TestSLA:
    def test_default_matches_paper(self):
        sla = SLA()
        assert sla.latency_threshold_ms == 300.0
        assert sla.availability == 0.9

    def test_satisfaction_check(self):
        sla = SLA(availability=0.9)
        assert sla.is_satisfied_by(0.95)
        assert sla.is_satisfied_by(0.9)
        assert not sla.is_satisfied_by(0.85)

    def test_invalid_values_raise(self):
        with pytest.raises(ValueError):
            SLA(latency_threshold_ms=0.0)
        with pytest.raises(ValueError):
            SLA(availability=0.0)
        with pytest.raises(ValueError):
            SLA(availability=1.5)


class TestSliceManager:
    def _manager(self):
        return SliceManager(RealNetwork(scenario=Scenario(duration_s=10.0), seed=2))

    def test_admit_and_get(self):
        manager = self._manager()
        slice_ = NetworkSlice(name="video", sla=SLA())
        manager.admit(slice_)
        assert manager.get("video") is slice_
        assert manager.slices == (slice_,)

    def test_double_admission_raises(self):
        manager = self._manager()
        manager.admit(NetworkSlice(name="video", sla=SLA()))
        with pytest.raises(ValueError):
            manager.admit(NetworkSlice(name="video", sla=SLA()))

    def test_remove_and_missing_lookup(self):
        manager = self._manager()
        manager.admit(NetworkSlice(name="video", sla=SLA()))
        removed = manager.remove("video")
        assert removed.name == "video"
        with pytest.raises(KeyError):
            manager.get("video")
        with pytest.raises(KeyError):
            manager.remove("video")

    def test_background_users_validation(self):
        manager = self._manager()
        manager.attach_background_users(2)
        assert manager.background_users == 2
        with pytest.raises(ValueError):
            manager.attach_background_users(-1)

    def test_measure_slice_returns_qoe_and_sla_flag(self, default_config):
        manager = self._manager()
        manager.admit(NetworkSlice(name="video", sla=SLA(), config=default_config, traffic=1))
        result, qoe, met = manager.measure_slice("video", duration=10.0, seed=1)
        assert result.frames_completed > 0
        assert 0.0 <= qoe <= 1.0
        assert met == (qoe >= 0.9)

    def test_isolation_keeps_latency_stable_with_background_users(self, default_config):
        manager = self._manager()
        manager.admit(NetworkSlice(name="video", sla=SLA(), config=default_config, traffic=1))
        baseline, _, _ = manager.measure_slice("video", duration=20.0, seed=2)
        manager.attach_background_users(2)
        loaded, _, _ = manager.measure_slice("video", duration=20.0, seed=2)
        assert abs(loaded.mean_latency_ms - baseline.mean_latency_ms) / baseline.mean_latency_ms < 0.25

    def test_configure_updates_slice_config(self, default_config):
        manager = self._manager()
        manager.admit(NetworkSlice(name="video", sla=SLA()))
        manager.configure("video", default_config)
        assert manager.get("video").config == default_config


class TestTelemetry:
    def test_online_collection_accumulates_and_filters(self):
        collection = OnlineCollection()
        collection.extend([100.0, np.nan, 200.0, np.inf])
        assert len(collection) == 2
        assert bool(collection)
        assert np.allclose(collection.samples(), [100.0, 200.0])

    def test_online_collection_save_load_round_trip(self, tmp_path):
        collection = OnlineCollection([10.0, 20.0, 30.0])
        path = tmp_path / "dr.json"
        collection.save(path)
        loaded = OnlineCollection.load(path)
        assert np.allclose(loaded.samples(), collection.samples())

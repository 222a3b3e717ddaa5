"""Tests for the three Atlas stages and the end-to-end orchestration.

The stages run with tiny budgets here: the goal is to verify the algorithmic
plumbing (selection, penalisation, model updates, result bookkeeping), not
convergence quality, which the benchmarks cover.
"""

import numpy as np
import pytest

import repro.core.atlas as atlas_module
from repro.core.atlas import Atlas
from repro.core.offline_training import OfflineConfigurationTrainer, OfflineTrainingConfig
from repro.core.online_learning import OnlineConfigurationLearner, OnlineLearningConfig
from repro.core.simulator_learning import ParameterSearchConfig, SimulatorParameterSearch
from repro.core.spaces import SimulationParameterSpace
from repro.experiments.scale import get_scale
from repro.experiments.scenarios import default_deployed_config
from repro.experiments.stage3 import fig24_stage_ablation
from repro.prototype.slice_manager import SLA
from repro.prototype.testbed import RealNetwork
from repro.scenarios import get_scenario
from repro.sim.config import SliceConfig
from repro.sim.network import NetworkSimulator
from repro.sim.scenario import Scenario


SCENARIO = Scenario(traffic=1, duration_s=8.0)
CONFIG = SliceConfig(bandwidth_ul=10, bandwidth_dl=5, backhaul_bw=10, cpu_ratio=0.8)
SLA_DEFAULT = SLA(latency_threshold_ms=300.0, availability=0.9)


def _simulator(seed=0):
    return NetworkSimulator(scenario=SCENARIO, seed=seed)


def _real_network(seed=1):
    return RealNetwork(scenario=SCENARIO, seed=seed)


def _real_collection():
    network = _real_network()
    return np.concatenate([
        network.collect_latencies(CONFIG, traffic=1, duration=10.0, seed=s) for s in (1, 2)
    ])


class TestSimulatorParameterSearch:
    def _search(self, surrogate="bnn", **overrides):
        defaults = dict(
            iterations=3,
            initial_random=2,
            parallel_queries=2,
            candidate_pool=100,
            measurement_duration_s=8.0,
            surrogate=surrogate,
            surrogate_epochs=15,
            seed=0,
        )
        defaults.update(overrides)
        return SimulatorParameterSearch(
            simulator=_simulator(),
            real_collection=_real_collection(),
            deployed_config=CONFIG,
            space=SimulationParameterSpace(),
            config=ParameterSearchConfig(**defaults),
        )

    def test_run_returns_history_and_best(self):
        result = self._search().run()
        # iteration 0 (original) + 3 iterations x 2 parallel queries
        assert len(result.history) == 1 + 3 * 2
        assert result.best_weighted_discrepancy <= result.history[0].weighted_discrepancy + 1e-9
        assert result.best_discrepancy >= 0
        assert result.best_distance >= 0

    def test_gp_surrogate_variant_runs(self):
        result = self._search(surrogate="gp").run()
        assert len(result.history) == 7

    def test_progress_curves_have_one_point_per_iteration(self):
        result = self._search().run()
        assert len(result.weighted_discrepancy_per_iteration()) == 4
        best = result.best_so_far()
        assert np.all(np.diff(best) <= 1e-12)

    def test_evaluate_returns_finite_values_and_distance(self):
        search = self._search()
        discrepancy, distance = search.evaluate(search.space.original, seed=1)
        assert np.isfinite(discrepancy) and discrepancy >= 0
        assert distance == pytest.approx(0.0)

    def test_empty_real_collection_raises(self):
        with pytest.raises(ValueError):
            SimulatorParameterSearch(
                simulator=_simulator(), real_collection=[], deployed_config=CONFIG
            )

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            ParameterSearchConfig(iterations=0)
        with pytest.raises(ValueError):
            ParameterSearchConfig(surrogate="forest")
        with pytest.raises(ValueError):
            ParameterSearchConfig(candidate_pool=1, parallel_queries=4)


class TestOfflineTraining:
    def _trainer(self, **overrides):
        defaults = dict(
            iterations=4,
            initial_random=2,
            parallel_queries=2,
            candidate_pool=150,
            measurement_duration_s=8.0,
            surrogate_epochs=15,
            seed=0,
        )
        defaults.update(overrides)
        return OfflineConfigurationTrainer(
            simulator=_simulator(),
            sla=SLA_DEFAULT,
            traffic=1,
            config=OfflineTrainingConfig(**defaults),
        )

    def test_run_produces_policy_and_history(self):
        result = self._trainer().run()
        assert len(result.history) == 4 * 2
        policy = result.policy
        assert isinstance(policy.best_config, SliceConfig)
        assert 0.0 <= policy.best_qoe <= 1.0
        assert 0.0 <= policy.best_usage <= 1.0
        assert policy.multiplier >= 0.0

    def test_policy_qoe_model_is_fitted(self):
        result = self._trainer().run()
        prediction = result.policy.predict_qoe(np.full((2, 6), 0.5))
        assert prediction.shape == (2,)

    def test_progress_series_have_one_point_per_iteration(self):
        result = self._trainer().run()
        assert len(result.usage_per_iteration()) == 4
        assert len(result.qoe_per_iteration()) == 4

    def test_best_config_is_feasible_if_any_feasible_query_exists(self):
        result = self._trainer(iterations=5).run()
        feasible = [r for r in result.history if r.qoe >= SLA_DEFAULT.availability]
        if feasible:
            assert result.policy.best_qoe >= SLA_DEFAULT.availability

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            OfflineTrainingConfig(iterations=0)
        with pytest.raises(ValueError):
            OfflineTrainingConfig(parallel_queries=0)


@pytest.fixture(scope="module")
def offline_policy():
    trainer = OfflineConfigurationTrainer(
        simulator=_simulator(),
        sla=SLA_DEFAULT,
        traffic=1,
        config=OfflineTrainingConfig(
            iterations=6, initial_random=3, parallel_queries=2, candidate_pool=200,
            measurement_duration_s=8.0, surrogate_epochs=20, seed=0,
        ),
    )
    return trainer.run().policy


class TestOnlineLearning:
    def _learner(self, policy, **overrides):
        defaults = dict(
            iterations=4,
            offline_queries_per_step=2,
            candidate_pool=150,
            measurement_duration_s=8.0,
            simulator_duration_s=8.0,
            seed=0,
        )
        defaults.update(overrides)
        return OnlineConfigurationLearner(
            offline_policy=policy,
            simulator=_simulator(),
            real_network=_real_network(),
            sla=SLA_DEFAULT,
            traffic=1,
            config=OnlineLearningConfig(**defaults),
        )

    def test_run_produces_history_and_regrets(self, offline_policy):
        result = self._learner(offline_policy).run()
        assert len(result.history) == 4
        assert result.usages().shape == (4,)
        assert result.qoes().shape == (4,)
        assert np.isfinite(result.average_usage_regret())
        assert result.average_qoe_regret() >= 0
        assert 0.0 <= result.sla_violation_rate() <= 1.0

    def test_first_action_is_the_offline_best(self, offline_policy):
        result = self._learner(offline_policy).run()
        assert result.history[0].config == tuple(offline_policy.best_config.to_array())

    def test_residual_observations_feed_the_gp(self, offline_policy):
        learner = self._learner(offline_policy)
        result = learner.run()
        assert len(learner._residual_targets) == len(result.history)
        assert all(np.isfinite(r.residual) for r in result.history)

    def test_multiplier_starts_from_offline_value_with_floor(self, offline_policy):
        learner = self._learner(offline_policy)
        assert learner.multiplier.value >= max(offline_policy.multiplier, 1.0) - 1e-9

    @pytest.mark.parametrize("acquisition", ["gp_ucb", "ei", "pi", "thompson"])
    def test_alternative_acquisitions_run(self, offline_policy, acquisition):
        result = self._learner(offline_policy, acquisition=acquisition, iterations=3).run()
        assert len(result.history) == 3

    @pytest.mark.parametrize("residual_model", ["bnn", "bnn_contd", "none"])
    def test_alternative_residual_models_run(self, offline_policy, residual_model):
        result = self._learner(offline_policy, residual_model=residual_model, iterations=3).run()
        assert len(result.history) == 3

    def test_disabling_offline_acceleration_runs(self, offline_policy):
        result = self._learner(offline_policy, offline_acceleration=False, iterations=3).run()
        assert len(result.history) == 3

    def test_policy_contains_best_observed_configuration(self, offline_policy):
        result = self._learner(offline_policy).run()
        assert result.policy.best_config is not None
        assert 0.0 <= result.policy.best_qoe <= 1.0

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError):
            OnlineLearningConfig(iterations=0)
        with pytest.raises(ValueError):
            OnlineLearningConfig(acquisition="random")
        with pytest.raises(ValueError):
            OnlineLearningConfig(residual_model="tree")


SMOKE = get_scale("smoke")
FRAME = get_scenario("frame-offloading")


def _atlas() -> Atlas:
    """The stage driver on the paper's slice at smoke scale, measuring 2 s per query."""
    return Atlas(FRAME.primary, FRAME, SMOKE, 2.0, 0)


class TestAtlasOrchestration:
    def test_full_pipeline_runs_all_three_stages(self, capsys):
        summary = _atlas().run({"1", "2", "3"})
        assert {"stage1", "stage2", "stage3"} <= set(summary)
        parameters = summary["stage1"]["_result"].best_parameters
        assert summary["stage2"]["_policy"] is not None
        # Stage 1's parameters build the simulator stage 2 trains in.
        assert summary["stage2"]["_simulator"].params == parameters
        out = capsys.readouterr().out
        assert all(f"stage {n}:" in out for n in (1, 2, 3))

    def test_stage2_without_stage1_trains_in_the_original_simulator(self):
        summary = _atlas().run({"2"})
        assert "stage1" not in summary
        assert summary["stage2"]["_simulator"].params == FRAME.primary.make_simulator().params

    def test_stage3_alone_trains_the_prerequisite_policy(self, capsys):
        summary = _atlas().run({"3"})
        assert "stage2" not in summary
        assert summary["stage3"]["segments"]
        assert "training prerequisite offline policy first" in capsys.readouterr().out

    def test_online_collection_is_built_once(self, monkeypatch):
        calls = []
        collect = atlas_module.collect_online_dataset

        def recording(network, **kwargs):
            calls.append(kwargs)
            return collect(network, **kwargs)

        monkeypatch.setattr(atlas_module, "collect_online_dataset", recording)
        _atlas().run({"1"})
        assert len(calls) == 1
        assert calls[0]["config"] == FRAME.primary.deployed_config
        assert calls[0]["runs"] == SMOKE.motivation_runs

    def test_stage2_ablation_uses_uninformed_policy(self):
        result = fig24_stage_ablation(SMOKE, variants=("no_stage2",))
        usages = result.footprints["no_stage2"]["usage"]
        assert len(usages) == SMOKE.stage3_iterations
        # Stage 3 starts from the uninformed policy's deployed configuration.
        assert usages[0] == default_deployed_config().resource_usage()

    def test_stage3_ablation_runs_no_learner(self, monkeypatch):
        def learn(learner):
            raise AssertionError("the no_stage3 variant ran the online learner")

        monkeypatch.setattr(OnlineConfigurationLearner, "run", learn)
        result = fig24_stage_ablation(SMOKE, variants=("no_stage3",))
        usages = result.footprints["no_stage3"]["usage"]
        assert len(usages) == SMOKE.stage3_iterations
        assert np.all(usages == usages[0])  # the offline best, applied at every step

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
from repro.core.penalty import AdaptiveMultiplier
from repro.core.simulator_learning import ParameterSearchConfig, SimulatorParameterSearch
from repro.core.spaces import ConfigurationSpace, SimulationParameterSpace
from repro.experiments.scale import get_scale
from repro.experiments.scenarios import default_deployed_config
from repro.experiments.stage3 import fig24_stage_ablation
from repro.models.bnn import BayesianNeuralNetwork
from repro.models.gp import GaussianProcessRegressor
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


_LATENCIES = 80.0 + 5.0 * np.arange(40.0)


class _StubResult:
    def __init__(self, latencies_ms, qoe):
        self.latencies_ms = latencies_ms
        self._qoe = qoe

    def qoe(self, threshold_ms):
        return self._qoe


class _StubEngine:
    """Answers each batch at once and logs its seeds; ``empty_seeds`` measure no frames."""

    def __init__(self, log, empty_seeds=()):
        self.log = log
        self.empty_seeds = set(empty_seeds)

    @staticmethod
    def qoe(seed):
        return (seed % 7) / 7.0

    def run_batch(self, requests):
        self.log.append(("batch", [request.seed for request in requests]))
        return [
            _StubResult(
                np.empty(0) if request.seed in self.empty_seeds else _LATENCIES + request.seed,
                self.qoe(request.seed),
            )
            for request in requests
        ]

    def collect_latencies_batch(self, requests):
        return [result.latencies_ms for result in self.run_batch(requests)]


class _FlatUsageSpace(ConfigurationSpace):
    """Every candidate uses nothing, so a constant QoE draw scores all of them alike."""

    def resource_usage(self, points):
        return np.zeros(len(np.atleast_2d(points)))


@pytest.fixture
def loop_log(monkeypatch):
    """One ordered log of engine batches, BNN draws and fits, and multiplier updates.

    The BNN spy does not train: every posterior draw is a constant 0, so all
    candidates tie wherever the stage's score adds nothing of its own.
    """
    log = []

    def fit(model, inputs, targets, epochs=150, **kwargs):
        log.append(("fit", len(inputs), epochs))
        return model

    def sample_predict(model, inputs):
        log.append(("draw", len(inputs)))
        return np.zeros(len(inputs))

    update = AdaptiveMultiplier.update

    def spy_update(multiplier, qoe_estimate, requirement):
        log.append(("update", qoe_estimate))
        return update(multiplier, qoe_estimate, requirement)

    monkeypatch.setattr(BayesianNeuralNetwork, "fit", fit)
    monkeypatch.setattr(BayesianNeuralNetwork, "sample_predict", sample_predict)
    monkeypatch.setattr(AdaptiveMultiplier, "update", spy_update)
    return log


def _draws_per_batch(log):
    """The number of posterior draws that precede each engine batch."""
    counts, draws = [], 0
    for event in log:
        if event[0] == "draw":
            draws += 1
        elif event[0] == "batch":
            counts.append(draws)
            draws = 0
    return counts


def _fits(log):
    return [event[1:] for event in log if event[0] == "fit"]


class TestBatchThompsonLoop:
    """The contract of the one selection loop that stages 1 and 2 share."""

    def _search(self, log, empty_seeds=(), **overrides):
        defaults = dict(
            iterations=4, initial_random=0, parallel_queries=3, candidate_pool=60,
            surrogate_epochs=7, seed=0,
        )
        defaults.update(overrides)
        return SimulatorParameterSearch(
            simulator=_simulator(),
            real_collection=_LATENCIES,
            deployed_config=CONFIG,
            config=ParameterSearchConfig(**defaults),
            engine=_StubEngine(log, empty_seeds),
        )

    def _trainer(self, log, space=None, **overrides):
        defaults = dict(
            iterations=4, initial_random=0, parallel_queries=3, candidate_pool=60,
            surrogate_epochs=5, seed=0,
        )
        defaults.update(overrides)
        return OfflineConfigurationTrainer(
            simulator=_simulator(),
            sla=SLA_DEFAULT,
            config=OfflineTrainingConfig(**defaults),
            space=space,
            engine=_StubEngine(log),
        )

    def test_stage1_seeds_the_original_with_0_and_counts_it(self, loop_log):
        self._search(loop_log).run()
        batches = [event[1] for event in loop_log if event[0] == "batch"]
        assert batches == [[0], [2, 3, 4], [5, 6, 7], [8, 9, 10], [11, 12, 13]]

    def test_stage2_seeds_its_first_batch_from_1(self, loop_log):
        self._trainer(loop_log).run()
        batches = [event[1] for event in loop_log if event[0] == "batch"]
        assert batches == [[1, 2, 3], [4, 5, 6], [7, 8, 9], [10, 11, 12]]

    def test_stage1_random_phase_counts_finite_discrepancies_only(self, loop_log):
        # The original is finite; seeds 2 and 3 measure no frames (infinite
        # discrepancy), so only 3 finite targets exist after the third batch.
        result = self._search(loop_log, empty_seeds={2, 3}, parallel_queries=2, initial_random=3).run()
        assert [r.discrepancy for r in result.history[1:3]] == [float("inf")] * 2
        assert _draws_per_batch(loop_log) == [0, 0, 0, 2, 2]
        assert _fits(loop_log) == [(3, 7), (5, 7), (7, 7)]

    def test_random_phase_lasts_until_initial_random_targets(self, loop_log):
        self._trainer(loop_log, initial_random=7, parallel_queries=2, iterations=5).run()
        assert _draws_per_batch(loop_log) == [0, 0, 0, 0, 2]

    def test_stage1_draws_once_per_query_slot_with_distinct_picks_on_ties(self, loop_log):
        search = self._search(loop_log, alpha=0.0)
        result = search.run()
        assert _draws_per_batch(loop_log) == [0, 0, 3, 3, 3]
        assert all(draw == ("draw", 60) for draw in loop_log if draw[0] == "draw")
        for iteration in range(1, 5):
            picks = {r.parameters for r in result.history if r.iteration == iteration}
            assert len(picks) == 3

    def test_stage2_draws_once_per_query_slot_with_distinct_picks_on_ties(self, loop_log):
        result = self._trainer(loop_log, space=_FlatUsageSpace()).run()
        assert _draws_per_batch(loop_log) == [0, 3, 3, 3]
        for iteration in range(1, 5):
            picks = {r.config for r in result.history if r.iteration == iteration}
            assert len(picks) == 3

    def test_stage1_first_refit_comes_at_3_targets(self, loop_log):
        self._search(loop_log, parallel_queries=1, iterations=3).run()
        assert _fits(loop_log) == [(3, 7), (4, 7)]

    def test_stage2_first_refit_comes_at_3_targets(self, loop_log):
        self._trainer(loop_log, parallel_queries=1, iterations=4).run()
        assert _fits(loop_log) == [(3, 5), (4, 5)]

    def test_stage1_gp_variant_selects_by_expected_improvement(self, loop_log, monkeypatch):
        fit = GaussianProcessRegressor.fit

        def spy_fit(model, inputs, targets):
            loop_log.append(("gp_fit", len(inputs)))
            return fit(model, inputs, targets)

        monkeypatch.setattr(GaussianProcessRegressor, "fit", spy_fit)
        result = self._search(loop_log, surrogate="gp").run()
        assert _draws_per_batch(loop_log) == [0] * 5
        assert [event for event in loop_log if event[0] == "gp_fit"] == [("gp_fit", n) for n in (4, 7, 10, 13)]
        for iteration in range(1, 5):
            assert len({r.parameters for r in result.history if r.iteration == iteration}) == 3

    def test_stage2_updates_the_multiplier_once_per_batch_before_the_refit(self, loop_log):
        trainer = self._trainer(loop_log, parallel_queries=2)
        result = trainer.run()
        kinds = [event[0] for event in loop_log if event[0] != "draw"]
        assert kinds == ["batch", "update", "batch", "update", "fit"] + ["batch", "update", "fit"] * 2
        updates = [event[1] for event in loop_log if event[0] == "update"]
        batches = [event[1] for event in loop_log if event[0] == "batch"]
        assert updates == [float(np.mean([_StubEngine.qoe(s) for s in seeds])) for seeds in batches]
        # Each query records the multiplier as it stood before its batch's update.
        history = trainer.multiplier.history
        assert [r.multiplier for r in result.history] == [history[r.iteration - 1] for r in result.history]
        assert len(history) == 1 + 4


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
        usages = result.runs["no_stage2"].usages
        assert len(usages) == SMOKE.stage3_iterations
        # Stage 3 starts from the uninformed policy's deployed configuration.
        assert usages[0] == default_deployed_config().resource_usage()

    def test_stage3_ablation_runs_no_learner(self, monkeypatch):
        def learn(learner):
            raise AssertionError("the no_stage3 variant ran the online learner")

        monkeypatch.setattr(OnlineConfigurationLearner, "run", learn)
        result = fig24_stage_ablation(SMOKE, variants=("no_stage3",))
        usages = result.runs["no_stage3"].usages
        assert len(usages) == SMOKE.stage3_iterations
        assert np.all(usages == usages[0])  # the offline best, applied at every step

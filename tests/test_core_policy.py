"""Tests for the offline/online policy containers and feature construction."""

import numpy as np
import pytest

from repro.core.policy import OfflinePolicy, OnlinePolicy, build_features
from repro.models.bnn import BayesianNeuralNetwork
from repro.models.gp import GaussianProcessRegressor
from repro.prototype.slice_manager import SLA
from repro.sim.config import SliceConfig


@pytest.fixture(scope="module")
def offline_policy():
    """A small offline policy trained on a synthetic QoE function."""
    sla = SLA(latency_threshold_ms=300.0, availability=0.9)
    state = (1.0, 1.0, 0.0)
    rng = np.random.default_rng(0)
    actions = rng.uniform(0.0, 1.0, size=(200, 6))
    # Synthetic QoE grows with mean resource allocation.
    qoes = np.clip(actions.mean(axis=1) * 1.4, 0.0, 1.0)
    model = BayesianNeuralNetwork(input_dim=3 + 1 + 6, hidden_layers=(32,), seed=0)
    model.fit(build_features(state, sla, actions), qoes, epochs=150)
    return OfflinePolicy(
        qoe_model=model,
        sla=sla,
        state=state,
        best_config=SliceConfig(bandwidth_ul=9, bandwidth_dl=3, backhaul_bw=6.2, cpu_ratio=0.8),
        best_qoe=0.9,
        best_usage=0.2,
        multiplier=0.8,
    )


class TestBuildFeatures:
    def test_feature_layout(self):
        sla = SLA(latency_threshold_ms=500.0)
        features = build_features((2.0, 1.0, 0.0), sla, np.zeros((3, 6)))
        assert features.shape == (3, 3 + 1 + 6)
        assert np.allclose(features[:, :3], [2.0, 1.0, 0.0])
        assert np.allclose(features[:, 3], 0.5)

    def test_single_action_is_promoted_to_batch(self):
        features = build_features((1.0, 1.0, 0.0), SLA(), np.zeros(6))
        assert features.shape == (1, 10)

    def test_threshold_is_normalised(self):
        base = build_features((1.0, 1.0, 0.0), SLA(latency_threshold_ms=300.0), np.zeros(6))
        loose = build_features((1.0, 1.0, 0.0), SLA(latency_threshold_ms=600.0), np.zeros(6))
        assert loose[0, 3] == pytest.approx(2.0 * base[0, 3])


class TestOfflinePolicy:
    def test_predictions_are_clipped_to_unit_interval(self, offline_policy):
        actions = np.random.default_rng(1).uniform(0, 1, size=(50, 6))
        qoe = offline_policy.predict_qoe(actions)
        assert np.all((qoe >= 0.0) & (qoe <= 1.0))

    def test_predictions_track_the_learned_trend(self, offline_policy):
        low = offline_policy.predict_qoe(np.full((1, 6), 0.1))[0]
        high = offline_policy.predict_qoe(np.full((1, 6), 0.9))[0]
        assert high > low


class TestOnlinePolicy:
    def test_residual_shifts_offline_estimate(self, offline_policy):
        policy = OnlinePolicy(offline=offline_policy, residual_model=GaussianProcessRegressor(seed=0))
        actions = np.random.default_rng(4).uniform(0, 1, size=(20, 6))
        before = policy.predict_qoe(actions)
        # Observe a consistently negative sim-to-real difference.
        policy.residual_model.fit(actions[:6], np.full(6, -0.3))
        after = policy.predict_qoe(actions)
        assert after.mean() < before.mean()

    def test_predictions_remain_in_unit_interval(self, offline_policy):
        policy = OnlinePolicy(offline=offline_policy, residual_model=GaussianProcessRegressor(seed=1))
        policy.residual_model.fit(np.random.default_rng(5).uniform(0, 1, size=(5, 6)), np.full(5, -0.9))
        qoe = policy.predict_qoe(np.random.default_rng(6).uniform(0, 1, size=(40, 6)))
        assert np.all((qoe >= 0.0) & (qoe <= 1.0))

    def test_predict_with_std_returns_residual_uncertainty(self, offline_policy):
        policy = OnlinePolicy(offline=offline_policy, residual_model=GaussianProcessRegressor(seed=2))
        qoe, std = policy.predict_qoe(np.zeros((3, 6)), return_std=True)
        assert qoe.shape == (3,) and std.shape == (3,)

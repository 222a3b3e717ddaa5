"""Policy containers: the offline BNN policy and the online BNN + GP policy.

Atlas' policy is the composition of two models (Sec. 6.2, Eq. 12): the
offline-trained BNN estimates the slice QoE ``Q_s(phi)`` as observed in the
augmented simulator, and the online Gaussian process learns only the
sim-to-real QoE *difference* ``G(psi)``.  The online QoE estimate is their
sum, clipped to ``[0, 1]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.bnn import BayesianNeuralNetwork
from repro.models.gp import GaussianProcessRegressor
from repro.prototype.slice_manager import SLA
from repro.sim.config import SliceConfig

__all__ = ["build_features", "OfflinePolicy", "OnlinePolicy"]


def build_features(state: tuple[float, ...], sla: SLA, normalized_actions) -> np.ndarray:
    """Assemble surrogate-model inputs from state, SLA threshold and actions.

    The BNN of stage 2 takes "the network state ``s_t``, threshold ``Y`` and
    network configuration ``a_t``" as inputs (Sec. 5.2).  The state here is
    the scenario's observable vector (traffic, distance, extra users), the
    threshold is normalised by 1000 ms, and actions are already normalised to
    the unit cube.
    """
    actions = np.atleast_2d(np.asarray(normalized_actions, dtype=float))
    count = len(actions)
    state_arr = np.asarray(state, dtype=float).ravel()
    state_block = np.tile(state_arr, (count, 1))
    threshold_block = np.full((count, 1), sla.latency_threshold_ms / 1000.0)
    return np.hstack([state_block, threshold_block, actions])


@dataclass
class OfflinePolicy:
    """The result of stage 2: a QoE surrogate plus the best offline action.

    Attributes
    ----------
    qoe_model:
        BNN approximating the QoE in the augmented simulator.
    sla:
        The slice SLA the policy was trained for.
    state:
        The network state the policy was trained under.
    best_config:
        Best (lowest-usage SLA-satisfying) configuration found offline.
    best_qoe, best_usage:
        The simulator QoE and resource usage of that configuration.
    multiplier:
        Final Lagrangian multiplier of the offline stage (the online stage
        starts from this value).
    """

    qoe_model: BayesianNeuralNetwork
    sla: SLA
    state: tuple[float, ...]
    best_config: SliceConfig
    best_qoe: float
    best_usage: float
    multiplier: float

    def features(self, normalized_actions) -> np.ndarray:
        """Surrogate-model inputs for a batch of normalised actions."""
        return build_features(self.state, self.sla, normalized_actions)

    def predict_qoe(self, normalized_actions) -> np.ndarray:
        """Posterior-mean QoE estimate ``Q_s`` for a batch of normalised actions."""
        features = self.features(normalized_actions)
        estimate = self.qoe_model.mean_predict(features)
        return np.clip(np.asarray(estimate, dtype=float).ravel(), 0.0, 1.0)


@dataclass
class OnlinePolicy:
    """The result of stage 3: offline estimate plus the GP residual (Eq. 12)."""

    offline: OfflinePolicy
    residual_model: GaussianProcessRegressor
    best_config: SliceConfig | None = None
    best_qoe: float = 0.0
    best_usage: float = 1.0

    def predict_qoe(self, normalized_actions, return_std: bool = False):
        """Online QoE estimate ``Q = Q_s + G`` (and the GP's std if requested)."""
        actions = np.atleast_2d(np.asarray(normalized_actions, dtype=float))
        offline_estimate = self.offline.predict_qoe(actions)
        residual, residual_std = self.residual_model.predict(actions, return_std=True)
        combined = np.clip(offline_estimate + residual, 0.0, 1.0)
        if return_std:
            return combined, residual_std
        return combined

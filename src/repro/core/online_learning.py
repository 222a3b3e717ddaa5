"""Stage 3 — safe online learning in the real network (Alg. 3).

Every configuration chosen in this stage is applied to the real network, so
the learner must be safe (maintain the SLA during exploration) and sample
efficient (converge within ~100 online transitions).  Atlas achieves this
with three designs (Sec. 6.2):

* the online Gaussian process learns only the sim-to-real QoE *difference*
  ``G(psi) = Q(phi) - Q_s(phi)`` (Eq. 12), which is much simpler than the
  full QoE function the offline BNN already captured;
* the clipped randomized GP-UCB acquisition (cRGP-UCB) keeps exploration
  conservative while retaining a Bayesian regret bound;
* the augmented simulator is exploited between online queries to update the
  Lagrangian multiplier ``N`` times per online step (offline acceleration,
  Eq. 15), compensating for the single online query per interval.

The ablations of Figs. 22–24 are driven by the ``acquisition``,
``residual_model`` and ``offline_acceleration`` options.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.acquisition import (
    crgp_ucb_beta,
    expected_improvement,
    gp_ucb_beta,
    probability_of_improvement,
)
from repro.core.penalty import AdaptiveMultiplier
from repro.core.policy import OfflinePolicy, OnlinePolicy
from repro.core.spaces import ConfigurationSpace
from repro.engine import MeasurementEngine
from repro.metrics.regret import RegretTracker
from repro.models.bnn import BayesianNeuralNetwork
from repro.models.gp import GaussianProcessRegressor
from repro.prototype.slice_manager import SLA
from repro.prototype.testbed import RealNetwork
from repro.sim.config import SliceConfig
from repro.sim.network import NetworkSimulator

__all__ = [
    "OnlineLearningConfig",
    "OnlineIterationRecord",
    "OnlineLearningResult",
    "OnlineConfigurationLearner",
]


@dataclass(frozen=True)
class OnlineLearningConfig:
    """Hyper-parameters of the stage-3 online learning."""

    #: Number of online iterations (100 in the paper).
    iterations: int = 40
    #: Offline multiplier updates per online step (``N = 20`` in the paper).
    offline_queries_per_step: int = 10
    #: Candidate actions scored per selection.
    candidate_pool: int = 1500
    #: Acquisition function: ``"crgp_ucb"`` (ours), ``"gp_ucb"``, ``"ei"``,
    #: ``"pi"`` or ``"thompson"`` (Fig. 22 ablation).
    acquisition: str = "crgp_ucb"
    #: Residual (sim-to-real difference) model: ``"gp"`` (ours), ``"bnn"``,
    #: ``"bnn_contd"`` or ``"none"`` (Fig. 23 ablation).
    residual_model: str = "gp"
    #: Whether the augmented simulator accelerates the multiplier update.
    offline_acceleration: bool = True
    #: Scaling parameter ``rho`` of cRGP-UCB (0.1 in the paper).
    rho: float = 0.1
    #: Clipping bound ``B`` of the exploration coefficient (10 in the paper).
    beta_clip: float = 10.0
    #: Dual step size ``epsilon`` (0.1 in the paper).
    multiplier_step: float = 0.1
    #: Duration (s) of each real-network measurement (60 s in the paper).
    measurement_duration_s: float = 30.0
    #: Duration (s) of each accelerated simulator query.
    simulator_duration_s: float = 20.0
    #: Random seed.
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate field values after dataclass initialisation."""
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.offline_queries_per_step < 0:
            raise ValueError("offline_queries_per_step must be >= 0")
        if self.acquisition not in ("crgp_ucb", "gp_ucb", "ei", "pi", "thompson"):
            raise ValueError(f"unknown acquisition {self.acquisition!r}")
        if self.residual_model not in ("gp", "bnn", "bnn_contd", "none"):
            raise ValueError(f"unknown residual model {self.residual_model!r}")


@dataclass(frozen=True)
class OnlineIterationRecord:
    """One online iteration: the applied action and what the real network delivered."""

    iteration: int
    config: tuple[float, ...]
    resource_usage: float
    qoe: float
    predicted_qoe: float
    residual: float
    multiplier: float
    beta: float
    sla_met: bool


@dataclass
class OnlineLearningResult:
    """Outcome of stage 3: the online policy, per-iteration history and regrets."""

    policy: OnlinePolicy
    history: list[OnlineIterationRecord] = field(default_factory=list)
    regret: RegretTracker = field(default_factory=RegretTracker)

    def usages(self) -> np.ndarray:
        """Resource usage of every online iteration (Fig. 20)."""
        return np.array([r.resource_usage for r in self.history], dtype=float)

    def qoes(self) -> np.ndarray:
        """Slice QoE of every online iteration (Fig. 21)."""
        return np.array([r.qoe for r in self.history], dtype=float)

    def average_usage_regret(self) -> float:
        """Average per-iteration resource-usage regret (Table 5)."""
        return self.regret.average_usage_regret()

    def average_qoe_regret(self) -> float:
        """Average per-iteration QoE regret (Table 5)."""
        return self.regret.average_qoe_regret()

    def sla_violation_rate(self) -> float:
        """Fraction of online iterations that violated the slice SLA."""
        if not self.history:
            return 0.0
        return float(np.mean([not r.sla_met for r in self.history]))


class _ResidualBNN:
    """BNN drop-in for the residual model (the "BNN" ablation of Fig. 23)."""

    def __init__(self, input_dim: int, seed: int) -> None:
        self._model = BayesianNeuralNetwork(input_dim=input_dim, hidden_layers=(32, 32), seed=seed)
        self._inputs: list[np.ndarray] = []
        self._targets: list[float] = []

    def fit(self, inputs, targets) -> None:
        """Fit the residual model on sim-to-real QoE differences."""
        self._inputs = [np.asarray(row, dtype=float) for row in np.atleast_2d(inputs)]
        self._targets = [float(v) for v in np.asarray(targets, dtype=float).ravel()]
        if len(self._targets) >= 2:
            self._model.fit(np.array(self._inputs), np.array(self._targets), epochs=40)

    def predict(self, inputs, return_std: bool = False):
        """Predict the residual mean and standard deviation."""
        arr = np.atleast_2d(np.asarray(inputs, dtype=float))
        if not self._model.is_fitted:
            mean = np.zeros(len(arr))
            return (mean, np.ones(len(arr))) if return_std else mean
        mean, std = self._model.predict(arr, n_samples=12)
        return (mean, std) if return_std else mean


class _ZeroResidual:
    """No residual model: the online estimate is the offline estimate alone."""

    def fit(self, inputs, targets) -> None:
        """No-op: the ablated residual model learns nothing."""
        return None

    def predict(self, inputs, return_std: bool = False):
        """Predict a zero residual (with zero uncertainty)."""
        arr = np.atleast_2d(np.asarray(inputs, dtype=float))
        mean = np.zeros(len(arr))
        return (mean, np.zeros(len(arr))) if return_std else mean


class OnlineConfigurationLearner:
    """Safe, sample-efficient online configuration learning (Alg. 3)."""

    def __init__(
        self,
        offline_policy: OfflinePolicy,
        simulator: NetworkSimulator,
        real_network: RealNetwork,
        sla: SLA | None = None,
        traffic: int = 1,
        config: OnlineLearningConfig | None = None,
        space: ConfigurationSpace | None = None,
        engine: MeasurementEngine | None = None,
        real_engine: MeasurementEngine | None = None,
    ) -> None:
        self.offline_policy = offline_policy
        self.simulator = simulator
        self.real_network = real_network
        self.sla = sla if sla is not None else offline_policy.sla
        self.traffic = int(traffic)
        self.config = config if config is not None else OnlineLearningConfig()
        self.space = space if space is not None else ConfigurationSpace()
        # Offline acceleration queries the augmented simulator; online
        # measurements go to the real network.  Both flow through engines so
        # execution and caching policies are uniform across the stages.
        self.engine = engine if engine is not None else MeasurementEngine(simulator)
        self.real_engine = real_engine if real_engine is not None else MeasurementEngine(real_network)
        self._rng = np.random.default_rng(self.config.seed)
        # The online stage starts from the offline stage's final multiplier; a
        # floor of 1.0 keeps the SLA term relevant even when the offline run
        # was short and its dual variable under-converged.
        self.multiplier = AdaptiveMultiplier(
            step_size=self.config.multiplier_step,
            initial=max(offline_policy.multiplier, 1.0),
        )
        self._residual = self._build_residual_model()
        self._residual_inputs: list[np.ndarray] = []
        self._residual_targets: list[float] = []
        self._records: list[OnlineIterationRecord] = []
        self._evaluation_counter = 0
        # The "BNN-Cont'd" ablation keeps training the offline BNN on real QoE.
        self._contd_inputs: list[np.ndarray] = []
        self._contd_targets: list[float] = []
        self._tracker = RegretTracker(qoe_requirement=self.sla.availability)
        #: Raw result of the most recent real-network measurement; watchdogs
        #: inspect it for stale telemetry the QoE scalar cannot express.
        self.last_measurement = None

    # ------------------------------------------------------------------ models
    def _build_residual_model(self):
        if self.config.residual_model == "gp":
            return GaussianProcessRegressor(seed=self.config.seed)
        if self.config.residual_model == "bnn":
            return _ResidualBNN(input_dim=self.space.dim, seed=self.config.seed)
        return _ZeroResidual()

    def _offline_qoe(self, pool_unit: np.ndarray) -> np.ndarray:
        return self.offline_policy.predict_qoe(pool_unit)

    def _combined_qoe(self, pool_unit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Online QoE estimate (Eq. 12) and its uncertainty over a candidate pool."""
        offline_mean = self._offline_qoe(pool_unit)
        residual_mean, residual_std = self._residual.predict(pool_unit, return_std=True)
        combined = np.clip(offline_mean + residual_mean, 0.0, 1.0)
        return combined, np.asarray(residual_std, dtype=float)

    # --------------------------------------------------------------- selection
    def _exploration_beta(self, iteration: int) -> float:
        if self.config.acquisition == "crgp_ucb":
            return crgp_ucb_beta(iteration, self.config.rho, self.config.beta_clip, self._rng)
        if self.config.acquisition == "gp_ucb":
            return gp_ucb_beta(iteration, self.space.dim)
        return 0.0

    def _select_action(self, iteration: int) -> tuple[SliceConfig, float, float]:
        """Choose the next online action; returns (action, predicted QoE, beta)."""
        pool = self.space.sample(self.config.candidate_pool, self._rng)
        # Always include the incumbent best offline action so the learner can
        # fall back to a known-good configuration.
        pool = np.vstack([pool, self.offline_policy.best_config.to_array()])
        pool_unit = self.space.normalize(pool)
        usage = self.space.resource_usage(pool)
        qoe_mean, qoe_std = self._combined_qoe(pool_unit)
        requirement = self.sla.availability
        beta = self._exploration_beta(iteration)

        if self.config.acquisition in ("crgp_ucb", "gp_ucb"):
            # The optimistic QoE is deliberately not clipped to 1: clipping
            # would strip the exploration bonus from confident, high-QoE
            # candidates and bias the argmin toward cheap, uncertain ones.
            optimistic_qoe = qoe_mean + np.sqrt(beta) * qoe_std
            scores = self.multiplier.lagrangian(usage, optimistic_qoe, requirement)
            index = int(np.argmin(scores))
        elif self.config.acquisition == "thompson":
            draw = np.clip(qoe_mean + qoe_std * self._rng.standard_normal(len(qoe_mean)), 0.0, 1.0)
            scores = self.multiplier.lagrangian(usage, draw, requirement)
            index = int(np.argmin(scores))
        else:
            # EI / PI on the negated Lagrangian (maximisation form).
            lagrangian_mean = self.multiplier.lagrangian(usage, qoe_mean, requirement)
            sigma = np.maximum(self.multiplier.value * qoe_std, 1e-9)
            incumbent = float(np.min(lagrangian_mean))
            if self.config.acquisition == "ei":
                scores = expected_improvement(-lagrangian_mean, sigma, best=-incumbent)
            else:
                scores = probability_of_improvement(-lagrangian_mean, sigma, best=-incumbent)
            index = int(np.argmax(scores))

        action = self.space.to_config(pool[index])
        return action, float(qoe_mean[index]), beta

    # --------------------------------------------------- offline acceleration
    def _accelerate_multiplier(self) -> None:
        """Update the multiplier ``N`` times using the augmented simulator (Eq. 15)."""
        if not self.config.offline_acceleration:
            return
        for _ in range(self.config.offline_queries_per_step):
            pool = self.space.sample(min(self.config.candidate_pool, 500), self._rng)
            pool_unit = self.space.normalize(pool)
            usage = self.space.resource_usage(pool)
            qoe_mean, _ = self._combined_qoe(pool_unit)
            scores = self.multiplier.lagrangian(usage, qoe_mean, self.sla.availability)
            index = int(np.argmin(scores))
            action = self.space.to_config(pool[index])
            self._evaluation_counter += 1
            simulator_result = self.engine.run(
                action,
                traffic=self.traffic,
                duration=self.config.simulator_duration_s,
                seed=10_000 + self._evaluation_counter,
            )
            simulated_qoe = simulator_result.qoe(self.sla.latency_threshold_ms)
            residual = float(
                np.asarray(self._residual.predict(self.space.normalize(action.to_array()))).ravel()[0]
            )
            self.multiplier.update(
                float(np.clip(simulated_qoe + residual, 0.0, 1.0)), self.sla.availability
            )

    # ----------------------------------------------------------------- fitting
    def observe_residual(
        self, action: SliceConfig, real_qoe: float, traffic: int | None = None
    ) -> float:
        """Observe the sim-to-real difference at ``action`` and refit the residual model.

        ``traffic`` overrides the learner's base level so callers (the
        watchdog's recovery ledger) can fold fault-window telemetry back in
        at the traffic the measurement actually experienced.
        """
        normalized = self.space.normalize(action.to_array())[0]
        if self.config.residual_model == "bnn_contd":
            # Continue training the offline BNN on the real QoE directly.
            self._contd_inputs.append(self.offline_policy.features(normalized)[0])
            self._contd_targets.append(real_qoe)
            self.offline_policy.qoe_model.fit(
                np.array(self._contd_inputs),
                np.array(self._contd_targets),
                epochs=30,
                reset_scalers=False,
            )
            return 0.0
        self._evaluation_counter += 1
        simulator_result = self.engine.run(
            action,
            traffic=self.traffic if traffic is None else int(traffic),
            duration=self.config.simulator_duration_s,
            seed=20_000 + self._evaluation_counter,
        )
        simulated_qoe = simulator_result.qoe(self.sla.latency_threshold_ms)
        residual = real_qoe - simulated_qoe
        self._residual_inputs.append(normalized)
        self._residual_targets.append(residual)
        self._residual.fit(np.array(self._residual_inputs), np.array(self._residual_targets))
        return residual

    def drop_residual_observations(self, count: int) -> int:
        """Discard the most recent residual observations and refit.

        The watchdog's fault-window rollback: observations taken while the
        network was lying (storm traffic, dropped telemetry scored as zero
        QoE) would poison the discrepancy model, so safe-mode entry unwinds
        them.  Returns how many observations were actually dropped.
        """
        count = min(int(count), len(self._residual_targets))
        if count <= 0:
            return 0
        del self._residual_inputs[-count:]
        del self._residual_targets[-count:]
        if self._residual_inputs:
            self._residual.fit(np.array(self._residual_inputs), np.array(self._residual_targets))
        else:
            self._residual = self._build_residual_model()
        return count

    # --------------------------------------------------------------------- run
    def step(self, iteration: int) -> OnlineIterationRecord:
        """Execute one online iteration (Alg. 3 body) and return its record.

        ``run()`` is just this in a loop; watchdogs drive it step by step so
        they can interpose safe-mode fallback between iterations.  The raw
        measurement lands in :attr:`last_measurement`.
        """
        self._accelerate_multiplier()

        if iteration == 1:
            # The very first online action is the best offline configuration.
            action = self.offline_policy.best_config
            predicted_qoe = self.offline_policy.best_qoe
            beta = 0.0
        else:
            action, predicted_qoe, beta = self._select_action(iteration)

        result = self.real_engine.run(
            action,
            traffic=self.traffic,
            duration=self.config.measurement_duration_s,
            seed=iteration,
        )
        self.last_measurement = result
        real_qoe = result.qoe(self.sla.latency_threshold_ms)
        usage = action.resource_usage()
        residual = self.observe_residual(action, real_qoe)
        self.multiplier.update(real_qoe, self.sla.availability)

        self._tracker.record(usage, real_qoe)
        record = OnlineIterationRecord(
            iteration=iteration,
            config=tuple(action.to_array()),
            resource_usage=usage,
            qoe=real_qoe,
            predicted_qoe=predicted_qoe,
            residual=residual,
            multiplier=self.multiplier.value,
            beta=beta,
            sla_met=self.sla.is_satisfied_by(real_qoe),
        )
        self._records.append(record)
        return record

    def finalize(self) -> OnlineLearningResult:
        """Close the episode: fix the regret optimum and build the online policy."""
        self._tracker.set_optimum_from_best()
        policy = self._build_policy()
        return OnlineLearningResult(
            policy=policy, history=list(self._records), regret=self._tracker
        )

    def run(self) -> OnlineLearningResult:
        """Execute the online learning and return the learned online policy."""
        for iteration in range(1, self.config.iterations + 1):
            self.step(iteration)
        return self.finalize()

    # ------------------------------------------------------------------ policy
    def _build_policy(self) -> OnlinePolicy:
        residual_gp = (
            self._residual
            if isinstance(self._residual, GaussianProcessRegressor)
            else GaussianProcessRegressor(seed=self.config.seed)
        )
        feasible = [r for r in self._records if r.sla_met]
        if feasible:
            best = min(feasible, key=lambda r: r.resource_usage)
        elif self._records:
            best = max(self._records, key=lambda r: r.qoe)
        else:
            best = None
        policy = OnlinePolicy(offline=self.offline_policy, residual_model=residual_gp)
        if best is not None:
            policy.best_config = SliceConfig.from_array(np.asarray(best.config))
            policy.best_qoe = best.qoe
            policy.best_usage = best.resource_usage
        return policy

"""Stage 2 — offline policy training in the augmented simulator (Alg. 2).

Learn the configuration policy that minimises resource usage subject to the
slice's QoE requirement (problem P1, Eqs. 5–7) by interacting only with the
augmented simulator.  The constrained problem is relaxed with the adaptive
Lagrangian penalisation of Sec. 5.2, the unknown QoE function is approximated
by a BNN over (state, threshold, action), and candidates are selected with
parallel Thompson sampling: each query slot draws one posterior function and
picks the candidate minimising the Lagrangian under that draw.  The loop is
:class:`~repro.core.search.BatchThompsonSearch`, shared with stage 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.penalty import AdaptiveMultiplier
from repro.core.policy import OfflinePolicy, build_features
from repro.core.search import BatchThompsonSearch, mean_per_iteration
from repro.core.spaces import ConfigurationSpace
from repro.engine import MeasurementEngine, MeasurementRequest
from repro.models.bnn import BayesianNeuralNetwork
from repro.prototype.slice_manager import SLA
from repro.sim.config import SliceConfig
from repro.sim.network import NetworkSimulator

__all__ = [
    "OfflineTrainingConfig",
    "OfflineIterationRecord",
    "OfflineTrainingResult",
    "OfflineConfigurationTrainer",
]


@dataclass(frozen=True)
class OfflineTrainingConfig:
    """Hyper-parameters of the stage-2 offline training."""

    #: Total optimisation iterations (the paper uses 1000).
    iterations: int = 80
    #: Iterations of pure random exploration (the paper uses 100).
    initial_random: int = 15
    #: Parallel simulator queries per iteration (multiprocessing in the paper).
    parallel_queries: int = 4
    #: Candidate actions scored per query slot (the paper samples 10k+).
    candidate_pool: int = 1500
    #: Dual step size ``epsilon`` of the multiplier update (0.1 in the paper).
    multiplier_step: float = 0.1
    #: Duration (s) of each simulator measurement (60 s in the paper).
    measurement_duration_s: float = 30.0
    #: Epochs of BNN re-training per iteration.
    surrogate_epochs: int = 50
    #: Hidden layers of the QoE BNN.
    bnn_hidden_layers: tuple[int, ...] = (48, 48)
    #: Random seed.
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate field values after dataclass initialisation."""
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.parallel_queries < 1:
            raise ValueError("parallel_queries must be >= 1")
        if self.candidate_pool < self.parallel_queries:
            raise ValueError("candidate_pool must be at least parallel_queries")


@dataclass(frozen=True)
class OfflineIterationRecord:
    """One simulator query: the action, its usage and the measured QoE."""

    iteration: int
    config: tuple[float, ...]
    resource_usage: float
    qoe: float
    lagrangian: float
    multiplier: float


@dataclass
class OfflineTrainingResult:
    """Outcome of stage 2: the offline policy plus the training history."""

    policy: OfflinePolicy
    history: list[OfflineIterationRecord] = field(default_factory=list)

    def usage_per_iteration(self) -> np.ndarray:
        """Mean resource usage of the queries of each iteration (Fig. 16)."""
        return mean_per_iteration(self.history, "resource_usage")

    def qoe_per_iteration(self) -> np.ndarray:
        """Mean QoE of the queries of each iteration (Fig. 16)."""
        return mean_per_iteration(self.history, "qoe")


class OfflineConfigurationTrainer(BatchThompsonSearch):
    """Learns the offline configuration policy in the augmented simulator (Alg. 2)."""

    def __init__(
        self,
        simulator: NetworkSimulator,
        sla: SLA,
        traffic: int = 1,
        config: OfflineTrainingConfig | None = None,
        space: ConfigurationSpace | None = None,
        engine: MeasurementEngine | None = None,
    ) -> None:
        config = config if config is not None else OfflineTrainingConfig()
        super().__init__(simulator, traffic, config, engine)
        self.sla = sla
        self.space = space if space is not None else ConfigurationSpace()
        self.state = (float(self.traffic), float(simulator.scenario.distance_m), 0.0)
        self.multiplier = AdaptiveMultiplier(step_size=self.config.multiplier_step)
        self._surrogate = BayesianNeuralNetwork(
            input_dim=len(self.state) + 1 + self.space.dim,
            hidden_layers=self.config.bnn_hidden_layers,
            seed=self.config.seed,
        )

    # ------------------------------------------------------------------ hooks
    def _pool(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pool = self.space.sample(self.config.candidate_pool, self._rng)
        features = build_features(self.state, self.sla, self.space.normalize(pool))
        return pool, features, self.space.resource_usage(pool)

    def _score(self, draw: np.ndarray, usage: np.ndarray) -> np.ndarray:
        return self.multiplier.lagrangian(usage, np.clip(draw, 0.0, 1.0), self.sla.availability)

    def _request(self, candidate: np.ndarray, seed: int) -> MeasurementRequest:
        return self._measurement(self.space.to_config(candidate), seed)

    def _fold(self, iteration: int, requests: list[MeasurementRequest], results: list) -> None:
        qoes = []
        for request, result in zip(requests, results):
            action = request.config
            usage = action.resource_usage()
            qoe = result.qoe(self.sla.latency_threshold_ms)
            qoes.append(qoe)
            self._records.append(
                OfflineIterationRecord(
                    iteration=iteration,
                    config=tuple(action.to_array()),
                    resource_usage=usage,
                    qoe=qoe,
                    lagrangian=float(self.multiplier.lagrangian(usage, qoe, self.sla.availability)),
                    multiplier=self.multiplier.value,
                )
            )
            normalized = self.space.normalize(action.to_array())[0]
            self._inputs.append(build_features(self.state, self.sla, normalized)[0])
            self._targets.append(qoe)
        # Dual update with the average QoE of this iteration's parallel queries.
        self.multiplier.update(float(np.mean(qoes)), self.sla.availability)

    # --------------------------------------------------------------------- run
    def run(self) -> OfflineTrainingResult:
        """Execute the offline training and return the learned policy."""
        self._search()
        return OfflineTrainingResult(policy=self._build_policy(), history=list(self._records))

    # ------------------------------------------------------------------ policy
    def _build_policy(self) -> OfflinePolicy:
        feasible = [r for r in self._records if r.qoe >= self.sla.availability]
        if feasible:
            best = min(feasible, key=lambda r: r.resource_usage)
        else:
            best = max(self._records, key=lambda r: r.qoe)
        return OfflinePolicy(
            qoe_model=self._surrogate,
            sla=self.sla,
            state=self.state,
            best_config=SliceConfig.from_array(np.asarray(best.config)),
            best_qoe=best.qoe,
            best_usage=best.resource_usage,
            multiplier=self.multiplier.value,
        )

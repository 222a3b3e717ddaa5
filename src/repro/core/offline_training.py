"""Stage 2 — offline policy training in the augmented simulator (Alg. 2).

Learn the configuration policy that minimises resource usage subject to the
slice's QoE requirement (problem P1, Eqs. 5–7) by interacting only with the
augmented simulator.  The constrained problem is relaxed with the adaptive
Lagrangian penalisation of Sec. 5.2, the unknown QoE function is approximated
by a BNN over (state, threshold, action), and candidates are selected with
parallel Thompson sampling: each query slot draws one posterior function and
picks the candidate minimising the Lagrangian under that draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.penalty import AdaptiveMultiplier
from repro.core.policy import OfflinePolicy, build_features
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
        return self._per_iteration("resource_usage")

    def qoe_per_iteration(self) -> np.ndarray:
        """Mean QoE of the queries of each iteration (Fig. 16)."""
        return self._per_iteration("qoe")

    def _per_iteration(self, attribute: str) -> np.ndarray:
        if not self.history:
            return np.zeros(0)
        iterations = sorted({r.iteration for r in self.history})
        return np.array(
            [
                np.mean([getattr(r, attribute) for r in self.history if r.iteration == iteration])
                for iteration in iterations
            ]
        )


class OfflineConfigurationTrainer:
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
        self.simulator = simulator
        self.sla = sla
        self.traffic = int(traffic)
        self.config = config if config is not None else OfflineTrainingConfig()
        self.space = space if space is not None else ConfigurationSpace()
        self.engine = engine if engine is not None else MeasurementEngine(simulator)
        self._rng = np.random.default_rng(self.config.seed)
        self.state = (float(self.traffic), float(simulator.scenario.distance_m), 0.0)
        self.multiplier = AdaptiveMultiplier(step_size=self.config.multiplier_step)
        self._qoe_model = BayesianNeuralNetwork(
            input_dim=len(self.state) + 1 + self.space.dim,
            hidden_layers=self.config.bnn_hidden_layers,
            seed=self.config.seed,
        )
        self._features: list[np.ndarray] = []
        self._qoes: list[float] = []
        self._records: list[OfflineIterationRecord] = []
        self._evaluation_counter = 0

    # -------------------------------------------------------------- evaluation
    def evaluate(self, action: SliceConfig, seed: int | None = None) -> tuple[float, float]:
        """Query the augmented simulator: return ``(resource_usage, qoe)`` of ``action``."""
        self._evaluation_counter += 1
        run_seed = seed if seed is not None else self._evaluation_counter
        return self._evaluate_batch([action], [run_seed])[0]

    def _evaluate_batch(
        self, actions: list[SliceConfig], seeds: list[int]
    ) -> list[tuple[float, float]]:
        """Measure one iteration's parallel queries as a single engine batch."""
        requests = [
            MeasurementRequest(
                config=action,
                traffic=self.traffic,
                duration=self.config.measurement_duration_s,
                seed=seed,
            )
            for action, seed in zip(actions, seeds)
        ]
        results = self.engine.run_batch(requests)
        return [
            (action.resource_usage(), result.qoe(self.sla.latency_threshold_ms))
            for action, result in zip(actions, results)
        ]

    # --------------------------------------------------------------- selection
    def _select_actions(self) -> list[SliceConfig]:
        pool = self.space.sample(self.config.candidate_pool, self._rng)
        pool_unit = self.space.normalize(pool)
        usage = self.space.resource_usage(pool)
        n_select = self.config.parallel_queries

        if len(self._qoes) < max(self.config.initial_random, 3):
            chosen = self._rng.choice(len(pool), size=n_select, replace=False)
            return [self.space.to_config(pool[i]) for i in chosen]

        features = build_features(self.state, self.sla, pool_unit)
        selected: list[int] = []
        for _ in range(n_select):
            qoe_draw = np.clip(self._qoe_model.sample_predict(features), 0.0, 1.0)
            lagrangian = self.multiplier.lagrangian(usage, qoe_draw, self.sla.availability)
            order = np.argsort(lagrangian)
            for index in order:
                if index not in selected:
                    selected.append(int(index))
                    break
        return [self.space.to_config(pool[i]) for i in selected]

    def _refit_surrogate(self) -> None:
        inputs = np.array(self._features)
        targets = np.array(self._qoes)
        self._qoe_model.fit(inputs, targets, epochs=self.config.surrogate_epochs)

    # --------------------------------------------------------------------- run
    def run(self) -> OfflineTrainingResult:
        """Execute the offline training and return the learned policy."""
        for iteration in range(1, self.config.iterations + 1):
            actions = self._select_actions()
            seeds = []
            for _ in actions:
                self._evaluation_counter += 1
                seeds.append(self._evaluation_counter)
            iteration_qoes = []
            for action, (usage, qoe) in zip(actions, self._evaluate_batch(actions, seeds)):
                iteration_qoes.append(qoe)
                lagrangian = float(
                    self.multiplier.lagrangian(usage, qoe, self.sla.availability)
                )
                self._records.append(
                    OfflineIterationRecord(
                        iteration=iteration,
                        config=tuple(action.to_array()),
                        resource_usage=usage,
                        qoe=qoe,
                        lagrangian=lagrangian,
                        multiplier=self.multiplier.value,
                    )
                )
                normalized = self.space.normalize(action.to_array())[0]
                self._features.append(build_features(self.state, self.sla, normalized)[0])
                self._qoes.append(qoe)
            # Dual update with the average QoE of this iteration's parallel queries.
            self.multiplier.update(float(np.mean(iteration_qoes)), self.sla.availability)
            if len(self._qoes) >= 3:
                self._refit_surrogate()

        return OfflineTrainingResult(policy=self._build_policy(), history=list(self._records))

    # ------------------------------------------------------------------ policy
    def _build_policy(self) -> OfflinePolicy:
        feasible = [r for r in self._records if r.qoe >= self.sla.availability]
        if feasible:
            best = min(feasible, key=lambda r: r.resource_usage)
        else:
            best = max(self._records, key=lambda r: r.qoe)
        return OfflinePolicy(
            qoe_model=self._qoe_model,
            sla=self.sla,
            state=self.state,
            best_config=SliceConfig.from_array(np.asarray(best.config)),
            best_qoe=best.qoe,
            best_usage=best.resource_usage,
            multiplier=self.multiplier.value,
        )

"""DLDA baseline [Shi, Sha, Peng — NSDI'21], adapted to service configuration.

DLDA bridges the sim-to-real gap with transfer learning: a *teacher* DNN is
trained on an offline dataset collected by grid-searching the configuration
space in the simulator, then cloned into a *student* DNN that continues
training on the (few) online samples from the real network.  Following the
paper's adaptation (Sec. 8), the configuration applied at each step is chosen
by sampling 10k candidates from the configuration space and picking the one
with minimum resource usage whose predicted QoE meets the requirement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import BaselineIterationRecord, BaselineResult
from repro.core.spaces import ConfigurationSpace
from repro.engine import MeasurementEngine, MeasurementRequest
from repro.metrics.regret import RegretTracker
from repro.models.mlp import MLPRegressor
from repro.prototype.slice_manager import SLA
from repro.sim.config import SliceConfig
from repro.sim.network import NetworkSimulator

__all__ = ["DLDAConfig", "DLDA"]


@dataclass(frozen=True)
class DLDAConfig:
    """Hyper-parameters of the DLDA baseline."""

    #: Grid resolution per configuration dimension for the offline dataset
    #: (the paper uses 4 values per dimension → 4096 actions).
    grid_points_per_dim: int = 3
    #: Candidates sampled when choosing a configuration (10k in the paper).
    selection_pool: int = 5000
    #: Online iterations when run against the real network.
    online_iterations: int = 40
    #: Teacher training epochs.
    teacher_epochs: int = 200
    #: Student fine-tuning epochs per online iteration.
    student_epochs: int = 40
    #: Duration (s) of each measurement.
    measurement_duration_s: float = 30.0
    #: Hidden layers of the teacher/student DNNs.
    hidden_layers: tuple[int, ...] = (64, 64)
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate field values after dataclass initialisation."""
        if self.grid_points_per_dim < 2:
            raise ValueError("grid_points_per_dim must be >= 2")
        if self.selection_pool < 10:
            raise ValueError("selection_pool must be >= 10")


class DLDA:
    """Teacher–student DNN transfer learning for slice configuration."""

    def __init__(
        self,
        simulator: NetworkSimulator,
        sla: SLA,
        traffic: int = 1,
        config: DLDAConfig | None = None,
        space: ConfigurationSpace | None = None,
        engine: MeasurementEngine | None = None,
    ) -> None:
        self.simulator = simulator
        self.sla = sla
        self.traffic = int(traffic)
        self.config = config if config is not None else DLDAConfig()
        self.space = space if space is not None else ConfigurationSpace()
        self.engine = engine if engine is not None else MeasurementEngine(simulator)
        self._rng = np.random.default_rng(self.config.seed)
        self.teacher: MLPRegressor | None = None
        self.student: MLPRegressor | None = None
        self.offline_dataset: tuple[np.ndarray, np.ndarray] | None = None

    # ---------------------------------------------------------------- offline
    def collect_offline_dataset(self) -> tuple[np.ndarray, np.ndarray]:
        """Grid-search the configuration space in the simulator (Sec. 8.2).

        The whole grid is submitted as one engine batch: the grid sweep runs
        as one vectorized pass, and repeated sweeps (the
        Fig. 18/19 availability and threshold experiments re-collect the same
        grid) are served from the engine's cache.  It is the widest batch in
        the repository (729 lanes at ``small`` scale, 4096 at ``paper``), and
        it runs on one core; ``docs/performance.md`` ("Why there is no shard
        pool") measures what that costs.
        """
        grid = self.space.grid(self.config.grid_points_per_dim)
        requests = [
            MeasurementRequest(
                config=self.space.to_config(row),
                traffic=self.traffic,
                duration=self.config.measurement_duration_s,
                seed=index,
            )
            for index, row in enumerate(grid)
        ]
        results = self.engine.run_batch(requests)
        qoes = np.array([result.qoe(self.sla.latency_threshold_ms) for result in results])
        inputs = self.space.normalize(grid)
        self.offline_dataset = (inputs, qoes)
        return self.offline_dataset

    def train_offline(self) -> MLPRegressor:
        """Train the teacher DNN on the offline grid dataset."""
        if self.offline_dataset is None:
            self.collect_offline_dataset()
        inputs, qoes = self.offline_dataset
        self.teacher = MLPRegressor(
            input_dim=self.space.dim,
            hidden_layers=self.config.hidden_layers,
            seed=self.config.seed,
        )
        self.teacher.fit(inputs, qoes, epochs=self.config.teacher_epochs)
        return self.teacher

    # -------------------------------------------------------------- selection
    def _predict_qoe(self, model: MLPRegressor, pool_unit: np.ndarray) -> np.ndarray:
        return np.clip(model.predict(pool_unit), 0.0, 1.0)

    def select_config(self, model: MLPRegressor | None = None) -> SliceConfig:
        """Cheapest sampled configuration predicted to meet the QoE requirement."""
        if model is None:
            model = self.student if self.student is not None else self.teacher
        if model is None:
            raise RuntimeError("train_offline() must run before selecting a configuration")
        pool = self.space.sample(self.config.selection_pool, self._rng)
        pool_unit = self.space.normalize(pool)
        usage = self.space.resource_usage(pool)
        predicted = self._predict_qoe(model, pool_unit)
        feasible = predicted >= self.sla.availability
        if feasible.any():
            candidates = np.flatnonzero(feasible)
            index = int(candidates[np.argmin(usage[candidates])])
        else:
            index = int(np.argmax(predicted))
        return self.space.to_config(pool[index])

    def best_offline_config(self) -> SliceConfig:
        """Best configuration according to the teacher alone (offline comparison)."""
        return self.select_config(model=self.teacher)

    # ----------------------------------------------------------------- online
    def run_online(self, real_network, iterations: int | None = None) -> BaselineResult:
        """Fine-tune the student online and record the achieved usage/QoE.

        Following the original DLDA, the student is trained on the *combined*
        offline (simulator grid) and online (real network) datasets so the
        transferred offline knowledge keeps regularising the few online
        samples — which also means the simulator's optimism about cheap
        configurations fades only slowly.
        """
        if self.teacher is None:
            self.train_offline()
        iterations = iterations if iterations is not None else self.config.online_iterations
        real_engine = MeasurementEngine(real_network)
        self.student = self.teacher.clone()
        offline_inputs, offline_qoes = self.offline_dataset
        online_inputs: list[np.ndarray] = []
        online_qoes: list[float] = []
        result = BaselineResult(
            method="DLDA", regret=RegretTracker(qoe_requirement=self.sla.availability)
        )
        for iteration in range(1, iterations + 1):
            action = self.select_config(model=self.student)
            measurement = real_engine.run(
                action,
                traffic=self.traffic,
                duration=self.config.measurement_duration_s,
                seed=iteration,
            )
            qoe = measurement.qoe(self.sla.latency_threshold_ms)
            usage = action.resource_usage()
            online_inputs.append(self.space.normalize(action.to_array())[0])
            online_qoes.append(qoe)
            # Student fine-tuning on the combined offline + online samples,
            # keeping the teacher's scalers so the transferred weights stay
            # meaningful.  Online samples are replicated so they are not
            # completely drowned out by the offline grid.
            replication = max(1, len(offline_inputs) // (10 * len(online_inputs)))
            combined_inputs = np.vstack([offline_inputs, np.repeat(online_inputs, replication, axis=0)])
            combined_qoes = np.concatenate([offline_qoes, np.repeat(online_qoes, replication)])
            self.student.fit(
                combined_inputs,
                combined_qoes,
                epochs=self.config.student_epochs,
                reset_scalers=False,
            )
            result.regret.record(usage, qoe)
            result.history.append(
                BaselineIterationRecord(
                    iteration=iteration,
                    config=tuple(action.to_array()),
                    resource_usage=usage,
                    qoe=qoe,
                    sla_met=self.sla.is_satisfied_by(qoe),
                )
            )
        result.regret.set_optimum_from_best()
        return result

"""Shared result containers and bookkeeping for the baseline learners.

All baselines record the same per-iteration quantities as Atlas' online
stage so that Figs. 20–21, Table 5 and the dynamic-traffic experiments can
compare them uniformly.  :class:`GPBaselineBookkeeping` is the base of the
GP-surrogate learners (GP-BO and VirtualEdge): it builds their shared state
and owns their measure-and-fold machinery, so their per-iteration semantics
cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.penalty import AdaptiveMultiplier
from repro.core.spaces import ConfigurationSpace
from repro.engine import MeasurementEngine, MeasurementRequest
from repro.metrics.regret import RegretTracker
from repro.models.gp import GaussianProcessRegressor
from repro.prototype.slice_manager import SLA
from repro.sim.config import SliceConfig

__all__ = ["BaselineIterationRecord", "BaselineResult", "GPBaselineBookkeeping"]


@dataclass(frozen=True)
class BaselineIterationRecord:
    """One environment query made by a baseline learner."""

    iteration: int
    config: tuple[float, ...]
    resource_usage: float
    qoe: float
    sla_met: bool

    def to_slice_config(self) -> SliceConfig:
        """Rebuild the configuration action of this record."""
        return SliceConfig.from_array(np.asarray(self.config))


@dataclass
class BaselineResult:
    """History and regret of one baseline run."""

    method: str
    history: list[BaselineIterationRecord] = field(default_factory=list)
    regret: RegretTracker = field(default_factory=RegretTracker)

    def usages(self) -> np.ndarray:
        """Resource usage of every iteration, in order."""
        return np.array([r.resource_usage for r in self.history], dtype=float)

    def qoes(self) -> np.ndarray:
        """QoE of every iteration, in order."""
        return np.array([r.qoe for r in self.history], dtype=float)

    def best_feasible(self) -> BaselineIterationRecord | None:
        """Lowest-usage record that met the SLA, or ``None``."""
        feasible = [r for r in self.history if r.sla_met]
        if not feasible:
            return None
        return min(feasible, key=lambda r: r.resource_usage)

    def average_usage_regret(self) -> float:
        """Average per-iteration resource-usage regret (Table 5)."""
        return self.regret.average_usage_regret()

    def average_qoe_regret(self) -> float:
        """Average per-iteration QoE regret (Table 5)."""
        return self.regret.average_qoe_regret()

    def sla_violation_rate(self) -> float:
        """Fraction of iterations that violated the SLA."""
        if not self.history:
            return 0.0
        return float(np.mean([not r.sla_met for r in self.history]))


class GPBaselineBookkeeping:
    """Base of the GP-surrogate baselines: shared state and measure-and-fold machinery.

    :class:`~repro.baselines.gp_bo.GPConfigurationOptimizer` and
    :class:`~repro.baselines.virtualedge.VirtualEdge` both maintain a GP over
    observed QoEs, an adaptive Lagrangian multiplier and the common iteration
    history.  A subclass names its configuration dataclass in
    ``config_type``; the configuration supplies ``measurement_duration_s``,
    ``multiplier_step`` and ``seed``.

    Parameters
    ----------
    environment:
        Anything exposing ``run(config, traffic=..., duration=..., seed=...)``
        returning a :class:`~repro.sim.network.SimulationResult` — either the
        simulator (offline comparators) or the real network (online learners).
    sla, traffic:
        The slice SLA and traffic level of the experiment.
    config:
        The learner's hyper-parameters (``config_type()`` when omitted).
    """

    config_type: type

    def __init__(
        self,
        environment,
        sla: SLA,
        traffic: int = 1,
        config=None,
        space: ConfigurationSpace | None = None,
        engine: MeasurementEngine | None = None,
    ) -> None:
        self.environment = environment
        self.sla = sla
        self.traffic = int(traffic)
        self.config = config if config is not None else self.config_type()
        self.space = space if space is not None else ConfigurationSpace()
        self.engine = engine if engine is not None else MeasurementEngine(environment)
        self._rng = np.random.default_rng(self.config.seed)
        self.multiplier = AdaptiveMultiplier(step_size=self.config.multiplier_step, initial=1.0)
        self._model = GaussianProcessRegressor(seed=self.config.seed)
        self._inputs: list[np.ndarray] = []
        self._qoes: list[float] = []

    def _measure(self, action: SliceConfig, seed: int) -> float:
        """Measure ``action`` once with ``seed`` and return its QoE."""
        result = self.engine.run(
            action,
            traffic=self.traffic,
            duration=self.config.measurement_duration_s,
            seed=seed,
        )
        return result.qoe(self.sla.latency_threshold_ms)

    def _measure_warmup(self, actions: "list[SliceConfig]") -> list:
        """Measure the result-independent warm-up ``actions`` as one engine batch.

        Actions are measured with ``seed=iteration`` (1-based), exactly like
        the sequential per-iteration path, so batching changes throughput
        but not a single result.
        """
        return self.engine.run_batch(
            [
                MeasurementRequest(
                    config=action,
                    traffic=self.traffic,
                    duration=self.config.measurement_duration_s,
                    seed=iteration,
                )
                for iteration, action in enumerate(actions, start=1)
            ]
        )

    def _record(
        self, result: BaselineResult, iteration: int, action: SliceConfig, qoe: float
    ) -> None:
        """Fold one measured ``(action, qoe)`` into model, multiplier and history."""
        usage = action.resource_usage()
        self._inputs.append(self.space.normalize(action.to_array())[0])
        self._qoes.append(qoe)
        if len(self._qoes) >= 3:
            self._model.fit(np.array(self._inputs), np.array(self._qoes))
        self.multiplier.update(qoe, self.sla.availability)
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

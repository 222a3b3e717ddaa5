"""VirtualEdge baseline [Liu, Han — ICDCS'19].

VirtualEdge orchestrates cross-domain resources with an online Gaussian
process of the unknown slice QoE and a *predictive gradient descent* step:
at each iteration the GP is refitted on the accumulated online observations,
the gradient of the penalised objective is estimated numerically around the
current configuration, and the configuration moves one step along it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import BaselineResult, GPBaselineBookkeeping
from repro.core.penalty import AdaptiveMultiplier
from repro.core.spaces import ConfigurationSpace
from repro.engine import MeasurementEngine
from repro.metrics.regret import RegretTracker
from repro.models.gp import GaussianProcessRegressor
from repro.prototype.slice_manager import SLA
from repro.sim.config import SliceConfig

__all__ = ["VirtualEdgeConfig", "VirtualEdge"]


@dataclass(frozen=True)
class VirtualEdgeConfig:
    """Hyper-parameters of the VirtualEdge baseline."""

    iterations: int = 40
    #: Gradient step size in normalised configuration units.
    step_size: float = 0.08
    #: Finite-difference probe size in normalised configuration units.
    probe: float = 0.05
    #: Iterations of random exploration before gradients are trusted.
    initial_random: int = 6
    multiplier_step: float = 0.1
    measurement_duration_s: float = 30.0
    seed: int = 0
    initial_config: SliceConfig | None = None

    def __post_init__(self) -> None:
        """Validate field values after dataclass initialisation."""
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.step_size <= 0 or self.probe <= 0:
            raise ValueError("step_size and probe must be positive")


class VirtualEdge(GPBaselineBookkeeping):
    """GP-based predictive gradient descent on the slice configuration."""

    def __init__(
        self,
        environment,
        sla: SLA,
        traffic: int = 1,
        config: VirtualEdgeConfig | None = None,
        space: ConfigurationSpace | None = None,
        engine: MeasurementEngine | None = None,
    ) -> None:
        self.environment = environment
        self.sla = sla
        self.traffic = int(traffic)
        self.config = config if config is not None else VirtualEdgeConfig()
        self.space = space if space is not None else ConfigurationSpace()
        self.engine = engine if engine is not None else MeasurementEngine(environment)
        self._rng = np.random.default_rng(self.config.seed)
        self.multiplier = AdaptiveMultiplier(step_size=self.config.multiplier_step, initial=1.0)
        self._model = GaussianProcessRegressor(seed=self.config.seed)
        self._inputs: list[np.ndarray] = []
        self._qoes: list[float] = []

    # -------------------------------------------------------------- internals
    def _evaluate(self, action: SliceConfig, seed: int) -> tuple[float, float]:
        result = self.engine.run(
            action,
            traffic=self.traffic,
            duration=self.config.measurement_duration_s,
            seed=seed,
        )
        return action.resource_usage(), result.qoe(self.sla.latency_threshold_ms)

    def _objective(self, unit_points: np.ndarray) -> np.ndarray:
        """Penalised objective (Lagrangian) predicted by the GP at unit-cube points."""
        usage = self.space.resource_usage(self.space.denormalize(unit_points))
        qoe = np.clip(self._model.predict(unit_points), 0.0, 1.0)
        return self.multiplier.lagrangian(usage, qoe, self.sla.availability)

    def _gradient_step(self, current_unit: np.ndarray) -> np.ndarray:
        """One predictive gradient-descent step in the unit cube."""
        gradient = np.zeros_like(current_unit)
        for dimension in range(len(current_unit)):
            forward = current_unit.copy()
            backward = current_unit.copy()
            forward[dimension] = min(forward[dimension] + self.config.probe, 1.0)
            backward[dimension] = max(backward[dimension] - self.config.probe, 0.0)
            span = forward[dimension] - backward[dimension]
            if span <= 0:
                continue
            values = self._objective(np.vstack([forward, backward]))
            gradient[dimension] = (values[0] - values[1]) / span
        norm = np.linalg.norm(gradient)
        if norm > 0:
            gradient = gradient / norm
        return np.clip(current_unit - self.config.step_size * gradient, 0.0, 1.0)

    # --------------------------------------------------------------------- run
    def run(self) -> BaselineResult:
        """Execute the online orchestration and return its history and regrets.

        The random-exploration prefix (iterations ``1..initial_random``,
        whose probe points depend only on the RNG) is submitted as one
        engine batch — one vectorized pass — and its model/multiplier
        bookkeeping replayed in iteration
        order, which is result-identical to the sequential loop.  The
        predictive gradient-descent iterations that follow remain
        sequential: each step conditions on the GP fitted to all earlier
        measurements.
        """
        result = BaselineResult(
            method="VirtualEdge", regret=RegretTracker(qoe_requirement=self.sla.availability)
        )
        if self.config.initial_config is not None:
            current_unit = self.space.normalize(self.config.initial_config.to_array())[0]
        else:
            current_unit = np.full(self.space.dim, 0.5)

        warm_iterations = min(max(self.config.initial_random, 1), self.config.iterations)
        warm_actions: list[SliceConfig] = []
        for iteration in range(1, warm_iterations + 1):
            if 1 < iteration <= self.config.initial_random:
                current_unit = self._rng.uniform(0.0, 1.0, size=self.space.dim)
            warm_actions.append(self.space.to_config(self.space.denormalize(current_unit)[0]))
        measurements = self._measure_warmup(warm_actions)
        for iteration, (action, measurement) in enumerate(zip(warm_actions, measurements), start=1):
            self._record(result, iteration, action, measurement.qoe(self.sla.latency_threshold_ms))

        for iteration in range(warm_iterations + 1, self.config.iterations + 1):
            if iteration > self.config.initial_random and len(self._qoes) >= 3:
                current_unit = self._gradient_step(current_unit)
            action = self.space.to_config(self.space.denormalize(current_unit)[0])
            _, qoe = self._evaluate(action, seed=iteration)
            self._record(result, iteration, action, qoe)
        result.regret.set_optimum_from_best()
        return result

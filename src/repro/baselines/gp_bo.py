"""Bayesian optimisation with a Gaussian-process surrogate (the "Baseline").

Pointed at the real network with the EI acquisition this is the paper's
"Baseline" online learner (Sec. 8); pointed at the (augmented) simulator it
provides the GP-EI, GP-PI and GP-UCB offline comparators of Figs. 17–18 and
the GP-based stage-1 alternative.  The constrained objective is handled the
same way as in Atlas — an adaptive Lagrangian multiplier — so that only the
surrogate and acquisition differ between methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import BaselineResult, GPBaselineBookkeeping
from repro.core.acquisition import (
    expected_improvement,
    gp_ucb_beta,
    probability_of_improvement,
)
from repro.metrics.regret import RegretTracker
from repro.sim.config import SliceConfig

__all__ = ["GPOptimizerConfig", "GPConfigurationOptimizer"]


@dataclass(frozen=True)
class GPOptimizerConfig:
    """Hyper-parameters of the GP Bayesian-optimisation baseline."""

    iterations: int = 40
    initial_random: int = 8
    candidate_pool: int = 1500
    acquisition: str = "ei"
    multiplier_step: float = 0.1
    measurement_duration_s: float = 30.0
    seed: int = 0
    #: Optional configuration to apply on the very first iteration (e.g. the
    #: best offline action, when comparing warm-started methods).
    initial_config: SliceConfig | None = None

    def __post_init__(self) -> None:
        """Validate field values after dataclass initialisation."""
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.acquisition not in ("ei", "pi", "ucb"):
            raise ValueError(f"unknown acquisition {self.acquisition!r}")


class GPConfigurationOptimizer(GPBaselineBookkeeping):
    """GP + classic-acquisition Bayesian optimisation of the slice configuration.

    Pointed at the simulator it is an offline comparator; pointed at the
    real network it is the online Baseline.  The constructor's parameters
    are those of :class:`~repro.baselines.base.GPBaselineBookkeeping`.
    """

    config_type = GPOptimizerConfig

    # --------------------------------------------------------------- selection
    def _select_action(self, iteration: int) -> SliceConfig:
        if self.config.initial_config is not None and iteration == 1:
            return self.config.initial_config
        if len(self._qoes) < self.config.initial_random:
            return self.space.to_config(self.space.sample(1, self._rng)[0])

        pool = self.space.sample(self.config.candidate_pool, self._rng)
        pool_unit = self.space.normalize(pool)
        usage = self.space.resource_usage(pool)
        qoe_mean, qoe_std = self._model.predict(pool_unit, return_std=True)
        qoe_mean = np.clip(qoe_mean, 0.0, 1.0)
        requirement = self.sla.availability

        lagrangian_mean = self.multiplier.lagrangian(usage, qoe_mean, requirement)
        sigma = np.maximum(self.multiplier.value * qoe_std, 1e-9)
        incumbent = float(np.min(lagrangian_mean))
        if self.config.acquisition == "ei":
            scores = expected_improvement(-lagrangian_mean, sigma, best=-incumbent)
            index = int(np.argmax(scores))
        elif self.config.acquisition == "pi":
            scores = probability_of_improvement(-lagrangian_mean, sigma, best=-incumbent)
            index = int(np.argmax(scores))
        else:
            beta = gp_ucb_beta(iteration, self.space.dim)
            optimistic = qoe_mean + np.sqrt(beta) * qoe_std
            scores = self.multiplier.lagrangian(usage, optimistic, requirement)
            index = int(np.argmin(scores))
        return self.space.to_config(pool[index])

    # --------------------------------------------------------------------- run
    def run(self) -> BaselineResult:
        """Execute the optimisation and return its history and regrets.

        The warm-up prefix (the ``initial_random`` iterations, whose actions
        depend only on the RNG — never on earlier measurements) is submitted
        as *one* engine batch, so the random exploration runs as one
        vectorized pass while staying
        result-identical to the sequential loop: actions are selected in the
        same RNG order, measured with the same per-iteration seeds, and the
        model/multiplier bookkeeping is replayed in iteration order.  The
        model-guided iterations that follow are inherently sequential (each
        selection conditions on all earlier measurements).
        """
        acquisition_name = {"ei": "GP-EI", "pi": "GP-PI", "ucb": "GP-UCB"}[self.config.acquisition]
        result = BaselineResult(
            method=acquisition_name,
            regret=RegretTracker(qoe_requirement=self.sla.availability),
        )
        warm_iterations = min(self.config.initial_random, self.config.iterations)
        warm_actions = [self._select_action(iteration) for iteration in range(1, warm_iterations + 1)]
        measurements = self._measure_warmup(warm_actions)
        for iteration, (action, measurement) in enumerate(zip(warm_actions, measurements), start=1):
            self._record(result, iteration, action, measurement.qoe(self.sla.latency_threshold_ms))
        for iteration in range(warm_iterations + 1, self.config.iterations + 1):
            action = self._select_action(iteration)
            qoe = self._measure(action, seed=iteration)
            self._record(result, iteration, action, qoe)
        result.regret.set_optimum_from_best()
        return result

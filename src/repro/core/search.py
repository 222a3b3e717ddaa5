"""Batch Thompson sampling: the Bayesian-optimisation loop of stages 1 and 2.

Both stages run one algorithm (Secs. 4.2 and 5.2, Algs. 1–2).  Each
iteration draws a candidate pool and picks ``parallel_queries`` simulator
queries from it: at random until the surrogate has ``max(initial_random,
3)`` targets, then by parallel Thompson sampling, one BNN posterior draw per
query slot, each taking the best-scoring candidate not picked yet.  The
queries run as one engine batch, each seeded from the stage's evaluation
counter, so the results do not depend on how the batch is executed.  The
surrogate is refitted after each batch once 3 targets exist.
"""

from __future__ import annotations

import numpy as np

from repro.engine import MeasurementEngine, MeasurementRequest
from repro.sim.config import SliceConfig
from repro.sim.network import NetworkSimulator
from repro.sim.parameters import SimulationParameters

__all__ = ["BatchThompsonSearch", "mean_per_iteration"]


def mean_per_iteration(records, attribute: str) -> np.ndarray:
    """Mean ``attribute`` of each iteration's records, in iteration order."""
    iterations = sorted({r.iteration for r in records})
    return np.array(
        [np.mean([getattr(r, attribute) for r in records if r.iteration == i]) for i in iterations]
    )


class BatchThompsonSearch:
    """The loop of stages 1 and 2; a stage subclasses it and sets ``_surrogate``.

    The stage supplies four hooks.  ``_pool()`` returns the candidates, their
    surrogate features and the per-candidate terms of ``_score(draw, terms)``,
    which scores them under one posterior draw (lower is better).
    ``_request(candidate, seed)`` builds one candidate's measurement, and
    ``_fold(iteration, requests, results)`` records a batch and appends the
    surrogate's inputs and targets.
    """

    def __init__(
        self, simulator: NetworkSimulator, traffic: int, config, engine: MeasurementEngine | None
    ) -> None:
        self.simulator = simulator
        self.traffic = int(traffic)
        self.config = config
        self.engine = engine if engine is not None else MeasurementEngine(simulator)
        self._rng = np.random.default_rng(config.seed)
        self._inputs: list[np.ndarray] = []  # surrogate features of the measured queries
        self._targets: list[float] = []  # their measured targets
        self._records: list = []
        self._evaluation_counter = 0

    def _measurement(
        self, config: SliceConfig, seed: int, params: SimulationParameters | None = None
    ) -> MeasurementRequest:
        """One simulator query of ``config`` at the stage's traffic and duration."""
        return MeasurementRequest(
            config=config,
            traffic=self.traffic,
            duration=self.config.measurement_duration_s,
            seed=seed,
            params=params,
        )

    def _search(self) -> None:
        """Run ``config.iterations`` iterations, one engine batch each."""
        for iteration in range(1, self.config.iterations + 1):
            candidates, features, terms = self._pool()
            if len(self._targets) < max(self.config.initial_random, 3):
                chosen = self._rng.choice(len(candidates), size=self.config.parallel_queries, replace=False)
            else:
                chosen = self._acquire(features, terms)
            first_seed = self._evaluation_counter + 1
            self._evaluation_counter += len(chosen)
            requests = [
                self._request(candidates[index], seed)
                for seed, index in enumerate(chosen, start=first_seed)
            ]
            self._fold(iteration, requests, self.engine.run_batch(requests))
            if len(self._targets) >= 3:
                self._refit()

    def _acquire(self, features: np.ndarray, terms: np.ndarray) -> list[int]:
        """Parallel Thompson sampling: one posterior draw per query slot."""
        chosen: list[int] = []
        for _ in range(self.config.parallel_queries):
            order = np.argsort(self._score(self._surrogate.sample_predict(features), terms))
            chosen.append(next(int(index) for index in order if index not in chosen))
        return chosen

    def _refit(self) -> None:
        self._surrogate.fit(
            np.array(self._inputs), np.array(self._targets), epochs=self.config.surrogate_epochs
        )

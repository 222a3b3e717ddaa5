"""Stage 1 — the learning-based simulator (Alg. 1).

Search the simulation-parameter space of Table 3 for the parameters that
minimise the weighted sim-to-real discrepancy

    KL[D_r || D_s(x)] + alpha * |x - x_hat|_2       s.t. |x - x_hat|_2 <= H,

where ``D_r`` is the online latency collection from the real network and
``D_s(x)`` is the collection generated by the simulator under parameters
``x``.  The search is Bayesian optimisation with

* a Bayesian neural network surrogate of the discrepancy (scalable to the
  thousands of collections the search accumulates),
* (parallel) Thompson sampling: one posterior function draw scores tens of
  thousands of candidates per query slot, and
* parallel queries per iteration, measured as one engine batch.

The loop is :class:`~repro.core.search.BatchThompsonSearch`, shared with
stage 2; this stage supplies the feasible pool, the weighted score, the
request and the KL fold, and measures the original parameters (seed 0)
first.  A GP + expected-improvement selection replaces the posterior draws
for the "GP" comparison of Fig. 8 and Table 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.acquisition import expected_improvement
from repro.core.search import BatchThompsonSearch, mean_per_iteration
from repro.core.spaces import SimulationParameterSpace
from repro.engine import MeasurementEngine, MeasurementRequest
from repro.metrics.kl import histogram_kl_divergence
from repro.models.bnn import BayesianNeuralNetwork
from repro.models.gp import GaussianProcessRegressor
from repro.sim.config import SliceConfig
from repro.sim.network import NetworkSimulator
from repro.sim.parameters import SimulationParameters

__all__ = ["ParameterSearchConfig", "ParameterSearchRecord", "ParameterSearchResult", "SimulatorParameterSearch"]


@dataclass(frozen=True)
class ParameterSearchConfig:
    """Hyper-parameters of the stage-1 search."""

    #: Total number of optimisation iterations (the paper uses 500).
    iterations: int = 60
    #: Iterations of pure random exploration before the surrogate is trusted
    #: (the paper uses 100).
    initial_random: int = 15
    #: Parallel queries per iteration (the paper uses up to 16 processes).
    parallel_queries: int = 4
    #: Candidate parameters scored per query slot (the paper samples tens of
    #: thousands; a few thousand behaves identically on this 7-dim space).
    candidate_pool: int = 1500
    #: Weight ``alpha`` of the parameter-distance penalty (7 in the paper).
    alpha: float = 7.0
    #: Surrogate model: ``"bnn"`` (ours) or ``"gp"`` (the Fig. 8 comparison).
    surrogate: str = "bnn"
    #: Duration (s) of each simulator measurement.
    measurement_duration_s: float = 30.0
    #: Epochs of surrogate re-training per iteration.
    surrogate_epochs: int = 60
    #: Hidden layers of the BNN surrogate.
    bnn_hidden_layers: tuple[int, ...] = (48, 48)
    #: Random seed of the search.
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate field values after dataclass initialisation."""
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.parallel_queries < 1:
            raise ValueError("parallel_queries must be >= 1")
        if self.candidate_pool < self.parallel_queries:
            raise ValueError("candidate_pool must be at least parallel_queries")
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if self.surrogate not in ("bnn", "gp"):
            raise ValueError("surrogate must be 'bnn' or 'gp'")


@dataclass(frozen=True)
class ParameterSearchRecord:
    """One evaluated simulation-parameter vector and its scores."""

    iteration: int
    parameters: tuple[float, ...]
    discrepancy: float
    parameter_distance: float
    weighted_discrepancy: float


@dataclass
class ParameterSearchResult:
    """Outcome of the stage-1 search."""

    best_parameters: SimulationParameters
    best_discrepancy: float
    best_distance: float
    best_weighted_discrepancy: float
    original_discrepancy: float
    history: list[ParameterSearchRecord] = field(default_factory=list)

    def weighted_discrepancy_per_iteration(self) -> np.ndarray:
        """Mean weighted discrepancy of the queries of each iteration (Fig. 8)."""
        return mean_per_iteration(self.history, "weighted_discrepancy")

    def best_so_far(self) -> np.ndarray:
        """Running minimum of the weighted discrepancy ("Best" curves of Fig. 8)."""
        per_iteration = self.weighted_discrepancy_per_iteration()
        return np.minimum.accumulate(per_iteration) if per_iteration.size else per_iteration

    def discrepancy_reduction(self) -> float:
        """Fractional reduction of the discrepancy relative to the original simulator."""
        if self.original_discrepancy <= 0:
            return 0.0
        return 1.0 - self.best_discrepancy / self.original_discrepancy


class SimulatorParameterSearch(BatchThompsonSearch):
    """Bayesian-optimisation search over simulation parameters (Alg. 1)."""

    def __init__(
        self,
        simulator: NetworkSimulator,
        real_collection,
        deployed_config: SliceConfig,
        space: SimulationParameterSpace | None = None,
        config: ParameterSearchConfig | None = None,
        traffic: int = 1,
        engine: MeasurementEngine | None = None,
    ) -> None:
        self.real_collection = np.asarray(real_collection, dtype=float).ravel()
        if self.real_collection.size == 0:
            raise ValueError("the real-network collection D_r is empty")
        config = config if config is not None else ParameterSearchConfig()
        super().__init__(simulator, traffic, config, engine)
        self.deployed_config = deployed_config
        self.space = space if space is not None else SimulationParameterSpace()
        if self.config.surrogate == "bnn":
            self._surrogate = BayesianNeuralNetwork(
                input_dim=self.space.dim,
                hidden_layers=self.config.bnn_hidden_layers,
                seed=self.config.seed,
            )
        else:
            self._surrogate = GaussianProcessRegressor(seed=self.config.seed)

    # ------------------------------------------------------------------ hooks
    def _pool(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        pool = self.space.sample_feasible(self.config.candidate_pool, self._rng)
        return pool, self.space.normalize(pool), self.space.parameter_distance(pool)

    def _score(self, draw: np.ndarray, distances: np.ndarray) -> np.ndarray:
        return draw + self.config.alpha * distances

    def _request(self, candidate: np.ndarray, seed: int) -> MeasurementRequest:
        return self._measurement(self.deployed_config, seed, self.space.to_parameters(candidate))

    def _fold(self, iteration: int, requests: list[MeasurementRequest], results: list) -> None:
        for request, result in zip(requests, results):
            self._record(iteration, request.params, *self._discrepancy(request.params, result))

    # ------------------------------------------------- GP/EI variant (Fig. 8)
    def _acquire(self, features: np.ndarray, distances: np.ndarray) -> list[int]:
        if self.config.surrogate == "bnn":
            return super()._acquire(features, distances)
        mean, std = self._surrogate.predict(features, return_std=True)
        best_weighted = min(
            r.weighted_discrepancy for r in self._records if np.isfinite(r.weighted_discrepancy)
        )
        # EI on the negated (minimisation) objective.
        scores = expected_improvement(-self._score(mean, distances), std, best=-best_weighted)
        order = np.argsort(-scores)
        return [int(i) for i in order[: self.config.parallel_queries]]

    def _refit(self) -> None:
        if self.config.surrogate == "bnn":
            super()._refit()
        else:
            self._surrogate.fit(np.array(self._inputs), np.array(self._targets))

    # -------------------------------------------------------------- evaluation
    def evaluate(self, parameters: SimulationParameters, seed: int | None = None) -> tuple[float, float]:
        """Measure the sim-to-real discrepancy and parameter distance of ``parameters``."""
        self._evaluation_counter += 1
        run_seed = seed if seed is not None else self._evaluation_counter
        [result] = self.engine.run_batch([self._measurement(self.deployed_config, run_seed, parameters)])
        return self._discrepancy(parameters, result)

    def _discrepancy(self, parameters: SimulationParameters, result) -> tuple[float, float]:
        """KL divergence of ``D_r`` from the measured latencies, and the parameter distance."""
        latencies = result.latencies_ms
        if latencies.size == 0:
            discrepancy = float("inf")
        else:
            discrepancy = histogram_kl_divergence(self.real_collection, latencies)
        return discrepancy, float(self.space.parameter_distance(parameters.to_array())[0])

    def _record(self, iteration: int, parameters: SimulationParameters, discrepancy: float, distance: float) -> None:
        weighted = discrepancy + self.config.alpha * distance
        self._records.append(
            ParameterSearchRecord(
                iteration=iteration,
                parameters=tuple(parameters.to_array()),
                discrepancy=discrepancy,
                parameter_distance=distance,
                weighted_discrepancy=weighted,
            )
        )
        # Only finite discrepancies become surrogate targets.
        if np.isfinite(discrepancy):
            self._inputs.append(self.space.normalize(parameters.to_array())[0])
            self._targets.append(discrepancy)

    # --------------------------------------------------------------------- run
    def run(self) -> ParameterSearchResult:
        """Execute the search and return the best parameters found."""
        original = self.space.original
        original_discrepancy, original_distance = self.evaluate(original, seed=0)
        self._record(iteration=0, parameters=original, discrepancy=original_discrepancy,
                     distance=original_distance)
        self._search()

        finite_records = [r for r in self._records if np.isfinite(r.weighted_discrepancy)]
        best = min(finite_records, key=lambda r: r.weighted_discrepancy)
        return ParameterSearchResult(
            best_parameters=SimulationParameters.from_array(np.asarray(best.parameters)),
            best_discrepancy=best.discrepancy,
            best_distance=best.parameter_distance,
            best_weighted_discrepancy=best.weighted_discrepancy,
            original_discrepancy=original_discrepancy,
            history=list(self._records),
        )

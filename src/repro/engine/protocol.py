"""The :class:`Environment` protocol and the engine's request container.

Atlas queries two kinds of environments: the (augmented) network simulator
during stages 1 and 2 and the real-network prototype during stage 3 and the
evaluation experiments.  Both expose the same measurement API; the protocol
below makes that contract explicit so stages, baselines and experiment
runners are written once against the abstraction and the
:class:`~repro.engine.engine.MeasurementEngine` can batch and cache queries
uniformly.

An environment may additionally implement two optional hooks:

``prepare_batch(requests)``
    Resolve a batch of requests into ``(pure_environment, resolved_requests)``
    where ``pure_environment`` is side-effect free.  The real network uses
    this to route every configuration through its domain managers
    (quantisation + history logging) before the engine looks the requests up
    in its cache, so the history is the same whether a measurement runs or
    is served from the cache.

``with_params(params)``
    Return a copy of the environment under different simulation parameters;
    required only to execute requests carrying a ``params`` override (the
    stage-1 parameter search relies on this).

``with_scenario(scenario)``
    Return a copy of the environment under a different workload scenario;
    required only to execute requests carrying a ``scenario`` override
    (multi-slice rounds batch one request per slice this way).

``run_requests(requests)``
    Evaluate a whole batch of requests in one call and return their results
    in order — the vectorized hook the engine's executor dispatches to.
    Per-request results must be independent of which other requests share
    the batch, so the engine may serve part of a batch from its cache and
    run only the rest, and a caller may split one batch into several; the
    network simulator satisfies this through per-lane seed-derived random
    streams (see :mod:`repro.sim.batch`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.sim.config import SliceConfig
from repro.sim.parameters import SimulationParameters
from repro.sim.scenario import Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.network import SimulationResult

__all__ = ["Environment", "MeasurementRequest"]


@dataclass(frozen=True)
class MeasurementRequest:
    """One environment query: ``(config, traffic, duration, seed)``.

    ``traffic`` and ``duration`` default to the environment's scenario when
    ``None``; a ``None`` seed is resolved by the engine from a deterministic
    :class:`numpy.random.SeedSequence` stream before execution so results
    never depend on scheduling order.  ``params`` optionally overrides the
    environment's simulation parameters for this request only (used by the
    stage-1 search, which evaluates many candidate parameterisations of one
    base simulator in a single batch).  ``scenario`` likewise overrides the
    environment's workload for this request only — multi-slice rounds batch
    one request per slice, each under its own scenario, against a single
    environment (requires the environment to implement ``with_scenario``).
    """

    config: SliceConfig
    traffic: int | None = None
    duration: float | None = None
    seed: int | None = None
    params: SimulationParameters | None = None
    scenario: Scenario | None = None

    def replace(self, **changes) -> "MeasurementRequest":
        """Return a copy with some fields replaced."""
        return replace(self, **changes)

    def key(self) -> tuple:
        """Hashable identity of the request (all frozen dataclasses)."""
        return (self.config, self.traffic, self.duration, self.seed, self.params, self.scenario)


@runtime_checkable
class Environment(Protocol):
    """Anything that can measure a slice configuration.

    Satisfied by :class:`~repro.sim.network.NetworkSimulator` and
    :class:`~repro.prototype.testbed.RealNetwork`.
    """

    scenario: "Scenario"

    def run(
        self,
        config: SliceConfig,
        traffic: int | None = None,
        duration: float | None = None,
        seed: int | None = None,
    ) -> "SimulationResult":
        """Run one measurement under ``config`` and return the collected metrics."""
        ...

    def collect_latencies(
        self,
        config: SliceConfig,
        traffic: int | None = None,
        duration: float | None = None,
        seed: int | None = None,
    ) -> np.ndarray:
        """Run one measurement and return only the latency collection."""
        ...

    def fingerprint(self) -> tuple:
        """Hashable content identity of the environment (for result caching)."""
        ...

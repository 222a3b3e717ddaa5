"""Real-network testbed substitute.

:class:`RealNetwork` stands in for the paper's OpenAirInterface/USRP
prototype.  It exposes the exact same measurement API as
:class:`~repro.sim.network.NetworkSimulator` (``run``/``collect_latencies``)
but is driven by a *hidden* ground-truth parameterisation plus un-modelled
effects, so that:

* the default (original) simulator shows a clear discrepancy against it
  (Table 1, Figs. 2–4),
* stage 1 can reduce — but not eliminate — that discrepancy by searching the
  7 simulation parameters (Table 4, Figs. 8–15), and
* stage 3 still has a residual sim-to-real QoE difference to learn online
  (Figs. 20–26).

Every measurement is routed through the end-to-end orchestrator so the
applied (quantised, clamped) configuration history is available, exactly as
``system.py`` logs it in the paper's artifact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.prototype.domain_managers import EndToEndOrchestrator
from repro.sim.config import SliceConfig
from repro.sim.imperfections import Imperfections
from repro.sim.multislice import MultiSliceResult, ResourceBudget, SliceRun, run_contended_batch
from repro.sim.network import NetworkSimulator, SimulationResult
from repro.sim.parameters import SimulationParameters
from repro.sim.scenario import Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.protocol import MeasurementRequest

__all__ = ["RealNetwork", "default_ground_truth", "default_imperfections"]


def default_ground_truth() -> SimulationParameters:
    """Hidden ground-truth parameters of the real network.

    Chosen in the neighbourhood of the best parameters the paper's search
    recovers (Table 4): slightly higher reference loss than the NS-3 default,
    a much better eNB noise figure, extra transport bandwidth and delay, and
    small extra compute/loading times.
    """
    return SimulationParameters(
        baseline_loss=38.9,
        enb_noise_figure=2.0,
        ue_noise_figure=9.2,
        backhaul_bw=4.0,
        backhaul_delay=8.0,
        compute_time=10.0,
        loading_time=14.0,
    )


def default_imperfections() -> Imperfections:
    """Un-modelled effects of the real network (not expressible by Table 3).

    These produce the paper's observations that the system is slightly worse
    than the simulator in most metrics (Table 1), that the discrepancy grows
    with traffic (Fig. 3) and that it is uneven across configurations (Fig. 4).
    """
    return Imperfections(
        fading_std_db=2.0,
        deep_fade_probability=0.02,
        deep_fade_db=8.0,
        compute_jitter_scale=1.6,
        compute_slowdown=1.08,
        spike_probability=0.03,
        spike_ms_range=(40.0, 220.0),
        ul_rate_derate=0.88,
        dl_rate_derate=0.96,
        error_floor_scale=2.2,
        per_frame_overhead_ms=10.0,
        per_traffic_overhead_ms=18.0,
    )


class RealNetwork:
    """The "system" side of the sim-to-real gap.

    Parameters
    ----------
    scenario:
        Workload/environment description shared with the simulator.
    ground_truth:
        Hidden simulation parameters driving the real network.  Callers
        performing experiments should *not* pass these to the learning
        stages — they are what stage 1 tries to recover.
    imperfections:
        Un-modelled effects (see :func:`default_imperfections`).
    seed:
        Base random seed of the testbed.
    isolation:
        Whether slice isolation is enforced (used by the Fig. 11 experiment).
    """

    def __init__(
        self,
        scenario: Scenario | None = None,
        ground_truth: SimulationParameters | None = None,
        imperfections: Imperfections | None = None,
        seed: int = 1,
        isolation: bool = True,
    ) -> None:
        self.scenario = scenario if scenario is not None else Scenario()
        self._ground_truth = ground_truth if ground_truth is not None else default_ground_truth()
        self._imperfections = (
            imperfections if imperfections is not None else default_imperfections()
        )
        self.seed = int(seed)
        self.isolation = isolation
        self.orchestrator = EndToEndOrchestrator()
        self._engine = NetworkSimulator(
            params=self._ground_truth,
            scenario=self.scenario,
            imperfections=self._imperfections,
            seed=self.seed,
            isolation=isolation,
        )
        self.measurement_count = 0

    # ----------------------------------------------------------------- access
    @property
    def applied_history(self):
        """Configurations applied so far (after domain-manager quantisation)."""
        return self.orchestrator.history

    def with_scenario(self, scenario: Scenario) -> "RealNetwork":
        """A copy of the testbed under a different scenario (same hidden truth)."""
        return RealNetwork(
            scenario=scenario,
            ground_truth=self._ground_truth,
            imperfections=self._imperfections,
            seed=self.seed,
            isolation=self.isolation,
        )

    @property
    def imperfections(self) -> Imperfections:
        """The testbed's un-modelled effects (storm windows degrade these)."""
        return self._imperfections

    def with_imperfections(self, imperfections: Imperfections) -> "RealNetwork":
        """A copy of the testbed under different un-modelled effects.

        The hook :class:`~repro.sim.faults.FaultedEnvironment` uses to apply
        storm-window degradation.  The copy *shares* this testbed's
        orchestrator so the applied-configuration history keeps accumulating
        in one place while the storm rages.
        """
        network = RealNetwork(
            scenario=self.scenario,
            ground_truth=self._ground_truth,
            imperfections=imperfections,
            seed=self.seed,
            isolation=self.isolation,
        )
        network.orchestrator = self.orchestrator
        return network

    def fingerprint(self) -> tuple:
        """Content identity of the testbed (Environment protocol).

        Note: engine batches against the testbed are cache-keyed on the
        *resolved* inner simulator's fingerprint (see :meth:`prepare_batch`),
        which is equivalent content — this method exists for protocol
        conformance and direct fingerprint comparisons.
        """
        return ("real",) + self._engine.fingerprint()

    # ------------------------------------------------------------ engine hook
    def prepare_batch(
        self, requests: Sequence["MeasurementRequest"]
    ) -> tuple[NetworkSimulator, list["MeasurementRequest"]]:
        """Resolve engine requests into pure simulator runs.

        Each requested configuration is applied through the domain managers
        — exactly as :meth:`measure` does — before the engine looks the
        requests up in its cache, so the quantised/clamped configuration
        history stays correct even when a measurement is served from the
        cache.  Unseeded requests fall back to the
        measurement counter, matching the direct :meth:`measure` path.
        """
        prepared = []
        for request in requests:
            record = self.orchestrator.apply(request.config)
            self.measurement_count += 1
            seed = request.seed if request.seed is not None else self.measurement_count
            prepared.append(request.replace(config=record.applied, seed=seed))
        return self._engine, prepared

    # ----------------------------------------------------------- measurements
    def measure(
        self,
        config: SliceConfig,
        traffic: int | None = None,
        duration: float | None = None,
        seed: int | None = None,
    ) -> SimulationResult:
        """Apply ``config`` through the domain managers and measure the slice."""
        record = self.orchestrator.apply(config)
        self.measurement_count += 1
        if seed is None:
            seed = self.measurement_count
        return self._engine.run(record.applied, traffic=traffic, duration=duration, seed=seed)

    # ``run`` is provided as an alias so RealNetwork and NetworkSimulator are
    # interchangeable for the learning stages and baselines.
    run = measure

    def collect_latencies(
        self,
        config: SliceConfig,
        traffic: int | None = None,
        duration: float | None = None,
        seed: int | None = None,
    ) -> np.ndarray:
        """Measure and return only the latency collection (builds ``D_r``)."""
        return self.measure(config, traffic=traffic, duration=duration, seed=seed).latencies_ms

    def measure_slices(
        self,
        runs: "list[SliceRun] | tuple[SliceRun, ...]",
        budget: ResourceBudget | None = None,
        duration: float | None = None,
        engine=None,
    ) -> MultiSliceResult:
        """Measure several slices concurrently under shared-resource contention.

        The testbed counterpart of
        :meth:`repro.sim.network.NetworkSimulator.run_slices`: requested
        configurations are scaled onto ``budget`` first, then every
        contended configuration is routed through the domain managers (the
        engine invokes :meth:`prepare_batch` in the calling process), so the
        applied history records the quantised per-slice allocations and the
        measurements dispatch as one engine batch.
        """
        return run_contended_batch(self, [runs], budget=budget, duration=duration, engine=engine)[0]

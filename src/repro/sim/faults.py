"""Deterministic fault injection: drift ramps, storm windows, dropout masks.

The paper's online stage operates a learned controller on a *live* network,
where traffic drifts away from the level the offline policy was trained at,
flash crowds storm the SLA, and telemetry goes missing.  This module gives
the reproduction a composable, fully deterministic fault model:

* :class:`DriftRamp` — a mid-episode traffic drift: the load multiplier
  ramps linearly from 1 to ``multiplier`` over a step window and stays
  there, modelling slow demand growth the offline policy never saw.
* :class:`StormWindow` — a flash-crowd SLA storm: extra users join the
  slice for a step window while the radio/compute conditions degrade
  (:meth:`~repro.sim.imperfections.Imperfections.degraded`), modelling an
  event that draws a crowd into one cell.
* :class:`DropoutWindow` / :class:`RandomDropout` — telemetry dropouts:
  the measurement still *happens* on the network, but its telemetry never
  reaches the controller (:func:`dropped_result` empties the collection).

A :class:`FaultSchedule` composes any number of the above into a pure
function of the measurement step — like the traffic traces, there is no
hidden random state, so two runs of the same schedule are byte-identical,
whole or split into batches, pooled or in-process.
:class:`FaultedEnvironment` injects a schedule into any environment
(:class:`~repro.sim.network.NetworkSimulator` or
:class:`~repro.prototype.testbed.RealNetwork`) one step at a time, and is
careful to keep the engine cache honest: measurements taken inside a fault
window carry the fault fingerprint in their cache key, while out-of-window
measurements share cache entries with unfaulted runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence, Union

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.protocol import MeasurementRequest
    from repro.sim.config import SliceConfig
    from repro.sim.network import SimulationResult
    from repro.sim.parameters import SimulationParameters
    from repro.sim.scenario import Scenario

__all__ = [
    "DriftRamp",
    "StormWindow",
    "DropoutWindow",
    "RandomDropout",
    "FaultSchedule",
    "FaultedEnvironment",
    "dropped_result",
    "telemetry_lost",
]


@dataclass(frozen=True)
class DriftRamp:
    """Mid-episode traffic drift: load ramps from 1x to ``multiplier``.

    The factor is 1 before ``start`` and climbs linearly over ``steps``
    steps, reaching ``multiplier`` at step ``start + steps - 1``.  With the
    default ``hold=None`` the plateau is permanent — slow demand growth the
    offline policy never saw.  A positive ``hold`` makes the drift an
    *excursion*: the plateau (which includes the peak step) lasts ``hold``
    steps, then the factor ramps symmetrically back down to 1 over another
    ``steps`` steps (a demand surge that eventually recedes).
    """

    start: int = 0
    steps: int = 8
    multiplier: float = 2.0
    hold: int | None = None

    def __post_init__(self) -> None:
        """Validate the ramp window, target multiplier and plateau hold."""
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.multiplier <= 0:
            raise ValueError(f"multiplier must be positive, got {self.multiplier}")
        if self.hold is not None and self.hold < 1:
            raise ValueError(f"hold must be None (permanent) or >= 1, got {self.hold}")

    def factor(self, step: int) -> float:
        """Traffic multiplier at measurement step ``step``."""
        if step < self.start:
            return 1.0
        peak = self.start + self.steps - 1
        if step < peak:
            progress = (step - self.start + 1) / self.steps
            return 1.0 + (self.multiplier - 1.0) * progress
        if self.hold is None:
            return self.multiplier
        release = peak + self.hold
        if step < release:
            return self.multiplier
        descent = step - release + 1
        if descent >= self.steps:
            return 1.0
        return self.multiplier - (self.multiplier - 1.0) * descent / self.steps


@dataclass(frozen=True)
class StormWindow:
    """Flash-crowd SLA storm: extra users plus degraded conditions for a window."""

    start: int = 0
    steps: int = 3
    extra_traffic: int = 2
    severity: float = 2.0

    def __post_init__(self) -> None:
        """Validate the storm window, crowd size and degradation severity."""
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.extra_traffic < 0:
            raise ValueError(f"extra_traffic must be >= 0, got {self.extra_traffic}")
        if self.severity < 1.0:
            raise ValueError(f"severity must be >= 1, got {self.severity}")

    def active(self, step: int) -> bool:
        """Whether the storm covers measurement step ``step``."""
        return self.start <= step < self.start + self.steps


@dataclass(frozen=True)
class DropoutWindow:
    """Telemetry dropout over a contiguous step window (optionally periodic).

    ``period=0`` (the default) is a one-shot blackout; a positive ``period``
    repeats the window every ``period`` steps (flaky telemetry uplink).
    """

    start: int = 0
    steps: int = 1
    period: int = 0

    def __post_init__(self) -> None:
        """Validate the window and the repeat period."""
        if self.start < 0:
            raise ValueError(f"start must be >= 0, got {self.start}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.period != 0 and self.period < self.start + self.steps:
            raise ValueError(
                f"period must be 0 (one-shot) or cover the window, got {self.period}"
            )

    def dropped(self, step: int) -> bool:
        """Whether telemetry is lost at measurement step ``step``."""
        position = step % self.period if self.period > 0 else step
        return self.start <= position < self.start + self.steps


@dataclass(frozen=True)
class RandomDropout:
    """Seeded pseudo-random telemetry dropout: each step drops with ``rate``.

    Deterministic under seed — whether a step is dropped is a pure function
    of ``(seed, step)`` through a :class:`numpy.random.SeedSequence` hash, so
    the mask replays identically in every run.
    """

    rate: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        """Validate the dropout rate."""
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")

    def dropped(self, step: int) -> bool:
        """Whether telemetry is lost at measurement step ``step``."""
        if self.rate <= 0.0:
            return False
        if self.rate >= 1.0:
            return True
        word = np.random.SeedSequence([0xD809, int(self.seed), int(step)]).generate_state(1)[0]
        return float(word) / float(2**32) < self.rate


_DropoutMask = Union[DropoutWindow, RandomDropout]


@dataclass(frozen=True)
class FaultSchedule:
    """A composition of drift ramps, storm windows and dropout masks.

    Every query is a pure function of the measurement step: the schedule is
    frozen and hashable (it participates in engine cache keys through
    :class:`FaultedEnvironment`).
    """

    drifts: tuple[DriftRamp, ...] = ()
    storms: tuple[StormWindow, ...] = ()
    dropouts: tuple[_DropoutMask, ...] = ()

    def __post_init__(self) -> None:
        """Coerce field sequences to tuples so the schedule stays hashable."""
        object.__setattr__(self, "drifts", tuple(self.drifts))
        object.__setattr__(self, "storms", tuple(self.storms))
        object.__setattr__(self, "dropouts", tuple(self.dropouts))

    # ------------------------------------------------------------------ queries
    def traffic_factor(self, step: int) -> float:
        """Combined multiplicative drift factor at ``step``."""
        factor = 1.0
        for drift in self.drifts:
            factor *= drift.factor(step)
        return factor

    def extra_traffic(self, step: int) -> int:
        """Additive flash-crowd users at ``step`` (sum of active storms)."""
        return sum(storm.extra_traffic for storm in self.storms if storm.active(step))

    def traffic_at(self, step: int, base: int) -> int:
        """Effective traffic level at ``step`` given the un-faulted ``base`` level."""
        level = float(base) * self.traffic_factor(step) + self.extra_traffic(step)
        return max(1, int(round(level)))

    def storm_severity(self, step: int) -> float:
        """Worst active storm severity at ``step`` (1.0 when no storm is active)."""
        severities = [storm.severity for storm in self.storms if storm.active(step)]
        return max(severities) if severities else 1.0

    def dropped(self, step: int) -> bool:
        """Whether any dropout mask loses the telemetry of step ``step``."""
        return any(mask.dropped(step) for mask in self.dropouts)

    def affects(self, step: int) -> bool:
        """Whether any fault changes what step ``step`` measures or reports."""
        return (
            self.dropped(step)
            or self.storm_severity(step) > 1.0
            or self.extra_traffic(step) > 0
            or self.traffic_factor(step) != 1.0
        )

    # ------------------------------------------------------------- derivations
    def without_dropouts(self) -> "FaultSchedule":
        """The same schedule minus telemetry loss.

        The simulator side of an evaluation sees the *world* faults (drift,
        storms — load is observable) but not the measurement-plane failure.
        """
        return replace(self, dropouts=())


def dropped_result(result: "SimulationResult") -> "SimulationResult":
    """Strip a measurement's telemetry: the run happened, the data never arrived.

    ``frames_generated`` survives (the slice knows its own offered load) but
    every delivered metric is gone: the latency collection is empty and the
    networking scalars are NaN.  NaN ``ping_delay_ms`` is the unambiguous
    stale-telemetry marker — genuine measurements report a finite or
    ``inf`` ping, never NaN (see :func:`telemetry_lost`).
    """
    from repro.sim.network import SimulationResult

    return SimulationResult(
        latencies_ms=np.zeros(0, dtype=float),
        frames_generated=result.frames_generated,
        frames_completed=0,
        duration_s=result.duration_s,
        config=result.config,
        traffic=result.traffic,
        ul_throughput_mbps=float("nan"),
        dl_throughput_mbps=float("nan"),
        ul_packet_error_rate=float("nan"),
        dl_packet_error_rate=float("nan"),
        ping_delay_ms=float("nan"),
        stage_breakdown_ms={},
    )


def telemetry_lost(result: "SimulationResult") -> bool:
    """Whether ``result`` is a telemetry-dropout placeholder."""
    return result.latencies_ms.size == 0 and math.isnan(result.ping_delay_ms)


class FaultedEnvironment:
    """Inject a :class:`FaultSchedule` into an environment, one step at a time.

    The wrapper is pinned to a single measurement step (:meth:`at_step`
    derives siblings) because faults are step-indexed while engine batches
    are not: everything submitted through one wrapper experiences that
    step's faults.  It satisfies the full engine Environment protocol:

    * traffic is transformed (drift + storm crowd) at measurement time, so
      requests keep their un-faulted base level;
    * storm windows degrade the environment's imperfections through
      ``with_imperfections`` before measuring;
    * dropout steps return :func:`dropped_result` placeholders;
    * ``prepare_batch`` re-wraps whatever the inner hook resolves to — the
      real network resolves to its inner simulator, and without the re-wrap
      a dropout-window measurement would be cached (and later served!)
      under the bare simulator's key, poisoning the cache for clean runs.

    The fingerprint collapses to the inner environment's own fingerprint on
    steps no fault touches, so out-of-window measurements share cache
    entries with unfaulted runs; fault-window measurements are namespaced
    by ``(schedule, step)``.
    """

    def __init__(self, inner, schedule: FaultSchedule, step: int = 0) -> None:
        self.inner = inner
        self.schedule = schedule
        self.step = int(step)

    def at_step(self, step: int) -> "FaultedEnvironment":
        """This wrapper re-pinned to another measurement step."""
        return FaultedEnvironment(self.inner, self.schedule, step)

    # ------------------------------------------------------------- protocol
    @property
    def scenario(self) -> "Scenario":
        """The wrapped environment's (un-faulted) scenario."""
        return self.inner.scenario

    def fingerprint(self) -> tuple:
        """Content identity: fault-window steps carry the fault fingerprint."""
        inner_fp = tuple(self._resolved().fingerprint())
        if self.schedule.affects(self.step):
            return ("faults", self.schedule, self.step) + inner_fp
        return inner_fp

    def _resolved(self):
        """The inner environment under this step's storm degradation (if any)."""
        severity = self.schedule.storm_severity(self.step)
        if severity <= 1.0:
            return self.inner
        base = getattr(self.inner, "imperfections", None)
        with_imperfections = getattr(self.inner, "with_imperfections", None)
        if base is None or with_imperfections is None:
            raise TypeError(
                f"{type(self.inner).__name__} does not expose imperfections; "
                "storm windows cannot degrade it"
            )
        return with_imperfections(base.degraded(severity))

    def _base_traffic(self, traffic, scenario) -> int:
        if traffic is not None:
            return int(traffic)
        if scenario is not None:
            return scenario.traffic
        return self.inner.scenario.traffic

    def _transform(self, request: "MeasurementRequest") -> "MeasurementRequest":
        level = self.schedule.traffic_at(
            self.step, self._base_traffic(request.traffic, request.scenario)
        )
        return request.replace(traffic=level)

    # ------------------------------------------------------------------- runs
    def run(
        self,
        config: "SliceConfig",
        traffic: int | None = None,
        duration: float | None = None,
        seed: int | None = None,
    ) -> "SimulationResult":
        """Measure ``config`` under this step's faults."""
        level = self.schedule.traffic_at(self.step, self._base_traffic(traffic, None))
        result = self._resolved().run(config, traffic=level, duration=duration, seed=seed)
        return dropped_result(result) if self.schedule.dropped(self.step) else result

    def collect_latencies(
        self,
        config: "SliceConfig",
        traffic: int | None = None,
        duration: float | None = None,
        seed: int | None = None,
    ) -> np.ndarray:
        """Measure under faults and return only the latency collection."""
        return self.run(config, traffic=traffic, duration=duration, seed=seed).latencies_ms

    def run_requests(self, requests: Sequence["MeasurementRequest"]) -> "list[SimulationResult]":
        """Evaluate a batch under this step's faults (vectorized hook)."""
        transformed = [self._transform(request) for request in requests]
        env = self._resolved()
        hook = getattr(env, "run_requests", None)
        if hook is None:
            prepare = getattr(env, "prepare_batch", None)
            if prepare is None:
                raise TypeError(
                    f"{type(env).__name__} implements neither run_requests nor prepare_batch"
                )
            prepared, resolved = prepare(transformed)
            hook = getattr(prepared, "run_requests", None)
            if hook is None:
                raise TypeError(
                    f"{type(env).__name__}.prepare_batch resolved to "
                    f"{type(prepared).__name__}, which has no run_requests hook"
                )
            results = hook(resolved)
        else:
            results = hook(transformed)
        if self.schedule.dropped(self.step):
            results = [dropped_result(result) for result in results]
        return results

    def prepare_batch(
        self, requests: Sequence["MeasurementRequest"]
    ) -> "tuple[FaultedEnvironment, list[MeasurementRequest]]":
        """Delegate batch preparation and re-wrap the resolved environment.

        Traffic is *not* transformed here — the re-wrapped environment
        transforms it at measurement time — so requests keep their base
        traffic and the faulted results are keyed under this wrapper's
        fault-carrying fingerprint, never the bare inner environment's.
        """
        prepare = getattr(self.inner, "prepare_batch", None)
        if prepare is None:
            return self, list(requests)
        prepared, resolved = prepare(list(requests))
        return FaultedEnvironment(prepared, self.schedule, self.step), resolved

    # ------------------------------------------------------------- overrides
    def with_params(self, params: "SimulationParameters") -> "FaultedEnvironment":
        """A faulted copy of the wrapped environment under different parameters."""
        with_params = getattr(self.inner, "with_params", None)
        if with_params is None:
            raise TypeError(
                f"{type(self.inner).__name__} does not support simulation-parameter overrides"
            )
        return FaultedEnvironment(with_params(params), self.schedule, self.step)

    def with_scenario(self, scenario: "Scenario") -> "FaultedEnvironment":
        """A faulted copy of the wrapped environment under a different scenario."""
        with_scenario = getattr(self.inner, "with_scenario", None)
        if with_scenario is None:
            raise TypeError(
                f"{type(self.inner).__name__} does not support scenario overrides"
            )
        return FaultedEnvironment(with_scenario(scenario), self.schedule, self.step)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        """Compact description naming the wrapped environment and step."""
        return f"FaultedEnvironment({self.inner!r}, step={self.step})"

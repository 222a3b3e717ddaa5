"""Deterministic traffic traces for the dynamic catalog entries.

The paper evaluates dynamic traffic by sweeping the congestion-control
window over 1–4 emulated users (Figs. 25–26).  A :class:`TrafficTrace`
generalises that sweep into a *time series* of traffic levels indexed by
measurement step, so online learning and the CLI can replay diurnal,
bursty or flash-crowd load patterns.

Traces are pure functions of the step index — no hidden random state — so
any two runs of the same catalog entry see byte-identical workloads,
exactly like the rest of the measurement pipeline.
All traces are frozen dataclasses: hashable, picklable and safe to embed
in :class:`~repro.scenarios.catalog.ScenarioSpec`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "TrafficTrace",
    "ConstantTrace",
    "DiurnalTrace",
    "BurstyTrace",
    "FlashCrowdTrace",
    "RampTrace",
]


@dataclass(frozen=True)
class TrafficTrace:
    """Base class: a deterministic mapping from measurement step to traffic level.

    Subclasses implement :meth:`level`; the helpers below derive whole
    series and summary statistics from it.  Levels are the number of
    on-the-fly frames (the paper's user-emulation knob) and are always
    ``>= 1`` so the resulting :class:`~repro.sim.scenario.Scenario` stays
    valid.
    """

    def level(self, step: int) -> int:
        """Traffic level at measurement step ``step`` (non-negative integer steps)."""
        raise NotImplementedError

    def levels(self, count: int) -> list[int]:
        """The first ``count`` levels of the trace."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return [self.level(step) for step in range(count)]

    def mean_level(self, horizon: int = 24) -> float:
        """Average level over the first ``horizon`` steps (one period by default)."""
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        series = self.levels(horizon)
        return sum(series) / len(series)

    def distinct_levels(self, horizon: int = 24) -> list[int]:
        """Sorted distinct levels appearing within the first ``horizon`` steps."""
        return sorted(set(self.levels(horizon)))


@dataclass(frozen=True)
class ConstantTrace(TrafficTrace):
    """Fixed traffic at every step (the static single-level workloads)."""

    constant: int = 1

    def __post_init__(self) -> None:
        """Validate the level is a positive user count."""
        if self.constant < 1:
            raise ValueError(f"constant must be >= 1, got {self.constant}")

    def level(self, step: int) -> int:
        """The constant level, regardless of ``step``."""
        return self.constant


@dataclass(frozen=True)
class DiurnalTrace(TrafficTrace):
    """Sinusoidal day/night load swinging between ``low`` and ``high``.

    One period spans ``period`` measurement steps; the trace starts at the
    trough (step 0 is "night") and peaks half a period later, mirroring the
    classic diurnal utilisation curve of cellular traffic.
    """

    low: int = 1
    high: int = 4
    period: int = 12

    def __post_init__(self) -> None:
        """Validate the swing range and period."""
        if self.low < 1:
            raise ValueError(f"low must be >= 1, got {self.low}")
        if self.high < self.low:
            raise ValueError(f"high must be >= low, got {self.high} < {self.low}")
        if self.period < 2:
            raise ValueError(f"period must be >= 2, got {self.period}")

    def level(self, step: int) -> int:
        """Sinusoid between ``low`` and ``high``, trough at step 0."""
        mid = (self.high + self.low) / 2.0
        amplitude = (self.high - self.low) / 2.0
        phase = 2.0 * math.pi * (step % self.period) / self.period
        return max(self.low, min(self.high, round(mid - amplitude * math.cos(phase))))


@dataclass(frozen=True)
class BurstyTrace(TrafficTrace):
    """Quiet baseline punctuated by periodic bursts of heavy load.

    The trace cycles through ``quiet_steps`` steps at ``base`` followed by
    ``burst_steps`` steps at ``burst`` — a deterministic stand-in for an
    on/off (interrupted-Poisson-like) arrival process.
    """

    base: int = 1
    burst: int = 4
    quiet_steps: int = 5
    burst_steps: int = 2

    def __post_init__(self) -> None:
        """Validate levels and cycle segment lengths."""
        if self.base < 1:
            raise ValueError(f"base must be >= 1, got {self.base}")
        if self.burst < self.base:
            raise ValueError(f"burst must be >= base, got {self.burst} < {self.base}")
        if self.quiet_steps < 1 or self.burst_steps < 1:
            raise ValueError("quiet_steps and burst_steps must both be >= 1")

    def level(self, step: int) -> int:
        """``base`` during the quiet segment of the cycle, ``burst`` otherwise."""
        position = step % (self.quiet_steps + self.burst_steps)
        return self.base if position < self.quiet_steps else self.burst


@dataclass(frozen=True)
class FlashCrowdTrace(TrafficTrace):
    """One sudden sustained spike on top of a steady baseline.

    Load sits at ``base`` until ``spike_start``, jumps to ``peak`` for
    ``spike_steps`` steps, then returns to ``base`` — the flash-crowd shape
    a slice sees when an event suddenly draws users into one cell.
    """

    base: int = 1
    peak: int = 4
    spike_start: int = 4
    spike_steps: int = 3

    def __post_init__(self) -> None:
        """Validate levels and the spike window."""
        if self.base < 1:
            raise ValueError(f"base must be >= 1, got {self.base}")
        if self.peak < self.base:
            raise ValueError(f"peak must be >= base, got {self.peak} < {self.base}")
        if self.spike_start < 0 or self.spike_steps < 1:
            raise ValueError("spike_start must be >= 0 and spike_steps >= 1")

    def level(self, step: int) -> int:
        """``peak`` within the spike window, ``base`` elsewhere."""
        if self.spike_start <= step < self.spike_start + self.spike_steps:
            return self.peak
        return self.base


@dataclass(frozen=True)
class RampTrace(TrafficTrace):
    """Load climbing linearly from ``low`` to ``high`` and holding the plateau.

    The observable-load counterpart of a mid-episode traffic drift
    (:class:`~repro.sim.faults.DriftRamp` is the fault-plane analogue on
    multipliers): the level sits at ``low`` until ``ramp_start``, climbs
    linearly over ``ramp_steps`` steps and stays at ``high`` afterwards —
    demand growth the offline policy never trained on.
    """

    low: int = 1
    high: int = 4
    ramp_start: int = 2
    ramp_steps: int = 6

    def __post_init__(self) -> None:
        """Validate the swing range and ramp window."""
        if self.low < 1:
            raise ValueError(f"low must be >= 1, got {self.low}")
        if self.high < self.low:
            raise ValueError(f"high must be >= low, got {self.high} < {self.low}")
        if self.ramp_start < 0 or self.ramp_steps < 1:
            raise ValueError("ramp_start must be >= 0 and ramp_steps >= 1")

    def level(self, step: int) -> int:
        """``low`` before the ramp, linear climb inside it, ``high`` after."""
        if step < self.ramp_start:
            return self.low
        if step >= self.ramp_start + self.ramp_steps - 1:
            return self.high
        progress = (step - self.ramp_start + 1) / self.ramp_steps
        return max(self.low, min(self.high, round(self.low + (self.high - self.low) * progress)))

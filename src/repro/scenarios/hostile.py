"""Hostile catalog entries: the fault-injected scenarios stage 3 must survive.

Three entries register themselves on import, each pairing the paper's
frame-offloading slice (at the Figs. 25–26 dynamic SLA of 500 ms / 90%)
with a :class:`~repro.sim.faults.FaultSchedule`:

``traffic-drift``
    A mid-episode demand excursion: the load multiplier ramps from 1x to 3x
    over five steps, holds the 3x plateau, then recedes — the offline
    policy's training level quietly stops existing for most of the episode.
    Even high-headroom configurations violate at the 3x peak; the watchdog's
    job is to stop learning on the drifted workload and re-arm once demand
    recedes.
``sla-storm``
    A flash-crowd SLA storm: two extra users join for a six-step window
    while the radio and edge conditions degrade
    (:meth:`~repro.sim.imperfections.Imperfections.degraded` at severity
    1.5).  The storm raises the resource bar — high-headroom configurations
    ride it out, the marginal ones the usage-minimising learner explores do
    not — and an unprotected learner keeps fitting its models on the
    wreckage.
``telemetry-blackout``
    A periodic telemetry blackout across a rising load ramp: measurements
    still run, but every third pair of steps their telemetry never reaches
    the controller, which scores them as zero QoE unless it knows better.

The schedules are pure functions of the measurement step (deterministic
under seed like every trace), so hostile episodes replay
byte-identically.  ``tests/test_robustness.py`` holds the chaos
gate: each entry must break the unprotected learner and be survived by the
watchdog (:mod:`repro.core.watchdog`); the eval harness replays each entry
in its ``hostile`` case group.
"""

from __future__ import annotations

from repro.prototype.slice_manager import SLA
from repro.scenarios.catalog import ScenarioSpec, SliceWorkload, register_scenario
from repro.scenarios.traces import RampTrace
from repro.scenarios.workloads import _frame_offloading_workload
from repro.sim.config import SliceConfig
from repro.sim.faults import DriftRamp, DropoutWindow, FaultSchedule, StormWindow

__all__ = [
    "TRAFFIC_DRIFT",
    "SLA_STORM",
    "TELEMETRY_BLACKOUT",
]


def _hostile_workload(trace=None) -> SliceWorkload:
    """The frame-offloading slice at the dynamic-evaluation SLA (500 ms / 90%).

    The deployed configuration is deliberately over-provisioned — the
    operator baseline the paper's learner is supposed to beat on usage.
    Here it doubles as the vetted safe-mode fallback: enough headroom to
    ride out a flash crowd or a 3x demand excursion that breaks the lean
    operating points the learner explores.
    """
    base = _frame_offloading_workload()
    return SliceWorkload(
        name="frame-offloading",
        scenario=base.scenario,
        sla=SLA(latency_threshold_ms=500.0, availability=0.9),
        deployed_config=SliceConfig(
            bandwidth_ul=24.0,
            bandwidth_dl=20.0,
            backhaul_bw=50.0,
            cpu_ratio=0.95,
        ),
        trace=trace,
    )


TRAFFIC_DRIFT = register_scenario(
    ScenarioSpec(
        name="traffic-drift",
        description="Hostile: a 1x→3x mid-episode demand excursion that slowly recedes",
        slices=(_hostile_workload(),),
        tags=("paper", "hostile", "drift"),
        faults=FaultSchedule(drifts=(DriftRamp(start=2, steps=5, multiplier=3.0, hold=2),)),
    )
)

SLA_STORM = register_scenario(
    ScenarioSpec(
        name="sla-storm",
        description="Hostile: a 6-step flash-crowd storm with degraded radio/compute",
        slices=(_hostile_workload(),),
        tags=("paper", "hostile", "storm"),
        faults=FaultSchedule(
            storms=(StormWindow(start=3, steps=6, extra_traffic=2, severity=1.5),)
        ),
    )
)

TELEMETRY_BLACKOUT = register_scenario(
    ScenarioSpec(
        name="telemetry-blackout",
        description="Hostile: periodic 2-step telemetry blackouts across a load ramp",
        slices=(_hostile_workload(trace=RampTrace(low=1, high=2, ramp_start=3, ramp_steps=4)),),
        tags=("paper", "hostile", "dropout"),
        faults=FaultSchedule(dropouts=(DropoutWindow(start=2, steps=2, period=6),)),
    )
)

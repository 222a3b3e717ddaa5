"""Watchdog, safe-mode fallback and recovery ledger for the online stage.

Stage 3 (Alg. 3) assumes a cooperative environment: every measurement
arrives, traffic holds near the level the offline policy trained at, and a
bad configuration costs one step of regret.  A live network keeps none of
those promises — and a learner that keeps exploring through a flash crowd,
or keeps fitting its residual model on zero-QoE telemetry dropouts, diverges
and *stays* diverged after the fault clears.

:class:`OnlineWatchdog` wraps an
:class:`~repro.core.online_learning.OnlineConfigurationLearner` and drives
its step loop through a two-state machine:

``LEARNING``
    The learner explores normally.  Three divergence monitors run on every
    step: a rolling SLA-violation-rate window, a residual-model surprise
    counter (consecutive steps whose observed sim-to-real residual exceeds
    what the model should absorb), and a stale-telemetry counter
    (consecutive dropped measurements).  Any monitor tripping enters safe
    mode — after rolling back the residual observations the fault window
    poisoned.

``SAFE_MODE``
    The watchdog stops the learner entirely and measures the **last
    known-good configuration** each step.  With an operator-supplied
    ``fallback_config`` (typically the over-provisioned deployed config)
    that vetted configuration is always the fallback; otherwise the
    watchdog uses the SLA-meeting action with the most QoE headroom
    observed so far (the usage-minimising learner walks toward marginal
    configs, so the *highest-headroom* survivor is the one that rides out
    a storm), starting from the offline best.  Recovery is
    hysteresis-gated: the slice must hold the SLA for
    ``recovery_probes`` consecutive telemetry-valid steps, after at least
    ``min_safe_steps`` steps — one good probe never re-arms a learner mid
    storm.  A ``reentry_budget`` bounds how many times learning may resume;
    once exhausted the watchdog stays in safe mode for the rest of the
    episode, still emitting the known-good configuration every step, so the
    controller never wedges.

Every safe-mode measurement lands in a :class:`RecoveryLedger`.  On
recovery the ledger's telemetry-valid entries are folded back into the
learner's sim-to-real discrepancy model
(:meth:`~repro.core.online_learning.OnlineConfigurationLearner.observe_residual`
at the traffic each measurement actually experienced), so the fault window
is not dead time — the learner returns knowing what the storm did to the
gap.

Fault injection itself lives in :mod:`repro.sim.faults`; the watchdog takes
an optional :class:`~repro.sim.faults.FaultSchedule` and installs a
step-pinned :class:`~repro.sim.faults.FaultedEnvironment` into the
learner's real-network engine before each step — the chaos harness the
fault-injection test suite and ``python -m repro run --faults`` drive.
:func:`run_unprotected` runs the same faulted episode without any
protection: the control arm the robustness gate compares against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.core.online_learning import OnlineConfigurationLearner, OnlineLearningResult
from repro.sim.config import SliceConfig
from repro.sim.faults import FaultedEnvironment, FaultSchedule, telemetry_lost

__all__ = [
    "WatchdogConfig",
    "LedgerEntry",
    "RecoveryLedger",
    "GuardedIterationRecord",
    "GuardedOnlineResult",
    "OnlineWatchdog",
    "run_unprotected",
]


@dataclass(frozen=True)
class WatchdogConfig:
    """Knobs of the divergence monitors, safe-mode gate and recovery ledger."""

    #: Rolling window (steps) of the SLA-violation-rate monitor.
    violation_window: int = 5
    #: Enter safe mode when the windowed violation rate reaches this.
    violation_threshold: float = 0.6
    #: Absolute sim-to-real residual beyond which a step counts as a surprise.
    surprise_threshold: float = 0.35
    #: Consecutive surprises that trip the residual monitor.
    surprise_limit: int = 3
    #: Consecutive telemetry losses that trip the stale monitor.
    stale_limit: int = 2
    #: Consecutive healthy safe-mode probes required to re-arm learning.
    recovery_probes: int = 2
    #: Minimum steps spent in safe mode before recovery is considered.
    min_safe_steps: int = 2
    #: Maximum safe-mode entries per episode; beyond it safe mode is final.
    reentry_budget: int = 3
    #: Most recent telemetry-valid ledger entries folded back on recovery.
    ledger_fold_limit: int = 6
    #: Maximum residual observations rolled back on safe-mode entry.
    rollback_limit: int = 4

    def __post_init__(self) -> None:
        """Validate monitor windows, thresholds and budgets."""
        if self.violation_window < 1:
            raise ValueError("violation_window must be >= 1")
        if not 0.0 < self.violation_threshold <= 1.0:
            raise ValueError("violation_threshold must be in (0, 1]")
        if self.surprise_threshold <= 0:
            raise ValueError("surprise_threshold must be positive")
        if self.surprise_limit < 1 or self.stale_limit < 1:
            raise ValueError("surprise_limit and stale_limit must be >= 1")
        if self.recovery_probes < 1:
            raise ValueError("recovery_probes must be >= 1")
        if self.min_safe_steps < 1:
            raise ValueError("min_safe_steps must be >= 1")
        if self.reentry_budget < 0:
            raise ValueError("reentry_budget must be >= 0")
        if self.ledger_fold_limit < 0 or self.rollback_limit < 0:
            raise ValueError("ledger_fold_limit and rollback_limit must be >= 0")


@dataclass(frozen=True)
class LedgerEntry:
    """One safe-mode measurement: what the known-good config delivered."""

    step: int
    config: tuple[float, ...]
    traffic: int
    qoe: float
    telemetry_ok: bool
    trigger: str


@dataclass
class RecoveryLedger:
    """Accumulated fault-window telemetry, folded back into the learner on exit."""

    entries: list[LedgerEntry] = field(default_factory=list)
    folded: int = 0

    def record(self, entry: LedgerEntry) -> None:
        """Append one safe-mode measurement."""
        self.entries.append(entry)

    def pending(self) -> list[LedgerEntry]:
        """Entries recorded since the last fold."""
        return self.entries[self.folded :]

    def mark_folded(self) -> None:
        """Every current entry has been folded into the discrepancy model."""
        self.folded = len(self.entries)


@dataclass(frozen=True)
class GuardedIterationRecord:
    """One watchdog-supervised step: who acted, what happened, what tripped."""

    step: int
    mode: str  # "learning" | "safe"
    config: tuple[float, ...]
    resource_usage: float
    qoe: float
    sla_met: bool
    telemetry_ok: bool
    multiplier: float
    #: Monitor that fired this step ("sla-violations" / "residual-surprise" /
    #: "stale-telemetry"), "recovered" on a safe-mode exit, else ``None``.
    trigger: str | None = None


@dataclass
class GuardedOnlineResult:
    """Outcome of a watchdog-supervised episode."""

    history: list[GuardedIterationRecord]
    learning: OnlineLearningResult
    safe_mode_entries: int
    recoveries: int
    final_mode: str
    triggers: list[str]
    ledger: RecoveryLedger
    last_known_good: tuple[float, ...]

    def sla_violation_rate(self) -> float:
        """Violation rate over telemetry-valid steps (blind steps are unscored)."""
        valid = [r for r in self.history if r.telemetry_ok]
        if not valid:
            return 0.0
        return float(np.mean([not r.sla_met for r in valid]))

    def dropped_steps(self) -> int:
        """Number of steps whose telemetry never arrived."""
        return sum(1 for r in self.history if not r.telemetry_ok)

    def safe_steps(self) -> int:
        """Number of steps spent in safe mode."""
        return sum(1 for r in self.history if r.mode == "safe")

    def summary(self) -> dict:
        """JSON-friendly episode summary (the CLI's ``--faults`` payload)."""
        return {
            "steps": len(self.history),
            "safe_mode_entries": self.safe_mode_entries,
            "recoveries": self.recoveries,
            "final_mode": self.final_mode,
            "triggers": list(self.triggers),
            "safe_steps": self.safe_steps(),
            "dropped_steps": self.dropped_steps(),
            "sla_violation_rate": self.sla_violation_rate(),
            "ledger_entries": len(self.ledger.entries),
            "ledger_folded": self.ledger.folded,
            "last_known_good": list(self.last_known_good),
        }


def _install_faults(learner: OnlineConfigurationLearner, base,
                    schedule: FaultSchedule | None, step_index: int) -> None:
    """Point the learner's real engine at ``step_index`` of the fault schedule."""
    if schedule is None:
        return
    learner.real_engine.environment = FaultedEnvironment(base, schedule, step_index)


class OnlineWatchdog:
    """Supervise an online learner: detect divergence, fall back, recover.

    Parameters
    ----------
    learner:
        The stage-3 learner to supervise.  The watchdog owns its step loop;
        do not call ``learner.run()`` separately.
    config:
        Monitor/gate knobs (:class:`WatchdogConfig`).
    fault_schedule:
        Optional faults to inject into the learner's real-network
        measurements (the chaos harness).  ``None`` supervises whatever the
        environment already does.
    fallback_config:
        Operator-vetted safe-mode configuration — typically the slice's
        (over-provisioned) deployed configuration.  When given, safe mode
        always falls back to it; learned SLA-meeting actions never replace
        it.  When ``None``, the watchdog falls back to the highest-headroom
        SLA-meeting action observed so far (the offline best before any
        exists).
    """

    def __init__(
        self,
        learner: OnlineConfigurationLearner,
        config: WatchdogConfig | None = None,
        fault_schedule: FaultSchedule | None = None,
        fallback_config: SliceConfig | None = None,
    ) -> None:
        self.learner = learner
        self.config = config if config is not None else WatchdogConfig()
        self.fault_schedule = fault_schedule
        self.fallback_config = fallback_config
        self.ledger = RecoveryLedger()
        self._base_real_env = learner.real_engine.environment

    # ---------------------------------------------------------------- episode
    def run(self, iterations: int | None = None) -> GuardedOnlineResult:
        """Drive the supervised episode and return the guarded outcome."""
        learner, cfg = self.learner, self.config
        total = int(iterations) if iterations is not None else learner.config.iterations
        # A vetted fallback is final; otherwise track the highest-headroom
        # SLA-meeting action seen so far.  The learner walks toward marginal
        # (usage-minimal) configurations, so "most recent SLA-met" would hand
        # safe mode exactly the config a storm breaks.
        vetted = self.fallback_config is not None
        known_good = (
            self.fallback_config if vetted else learner.offline_policy.best_config
        )
        known_good_qoe = float("-inf")
        window: deque[bool] = deque(maxlen=cfg.violation_window)
        history: list[GuardedIterationRecord] = []
        triggers: list[str] = []
        mode = "learning"
        stale = surprises = suspects = 0
        healthy = safe_steps = entries = recoveries = 0

        for step in range(1, total + 1):
            _install_faults(learner, self._base_real_env, self.fault_schedule, step - 1)
            if mode == "learning":
                record = learner.step(step)
                telemetry_ok = not telemetry_lost(learner.last_measurement)
                trigger = None
                if telemetry_ok:
                    stale = 0
                    window.append(record.sla_met)
                    surprises = (
                        surprises + 1
                        if abs(record.residual) > cfg.surprise_threshold
                        else 0
                    )
                    if record.sla_met:
                        if not vetted and record.qoe > known_good_qoe:
                            known_good = SliceConfig.from_array(np.asarray(record.config))
                            known_good_qoe = record.qoe
                        suspects = 0
                    else:
                        suspects += 1
                else:
                    stale += 1
                    suspects += 1
                if stale >= cfg.stale_limit:
                    trigger = "stale-telemetry"
                elif (
                    len(window) == cfg.violation_window
                    and float(np.mean([not met for met in window])) >= cfg.violation_threshold
                ):
                    trigger = "sla-violations"
                elif surprises >= cfg.surprise_limit:
                    trigger = "residual-surprise"
                history.append(
                    GuardedIterationRecord(
                        step=step,
                        mode="learning",
                        config=record.config,
                        resource_usage=record.resource_usage,
                        qoe=record.qoe,
                        sla_met=record.sla_met,
                        telemetry_ok=telemetry_ok,
                        multiplier=record.multiplier,
                        trigger=trigger,
                    )
                )
                if trigger is not None:
                    triggers.append(trigger)
                    entries += 1
                    learner.drop_residual_observations(
                        min(cfg.rollback_limit, max(suspects, 1))
                    )
                    mode = "safe"
                    healthy = safe_steps = 0
                    window.clear()
                    stale = surprises = suspects = 0
            else:
                safe_steps += 1
                result = learner.real_engine.run(
                    known_good,
                    traffic=learner.traffic,
                    duration=learner.config.measurement_duration_s,
                    seed=step,
                )
                telemetry_ok = not telemetry_lost(result)
                qoe = result.qoe(learner.sla.latency_threshold_ms) if telemetry_ok else float("nan")
                met = telemetry_ok and learner.sla.is_satisfied_by(qoe)
                if telemetry_ok:
                    learner.multiplier.update(qoe, learner.sla.availability)
                    healthy = healthy + 1 if met else 0
                else:
                    # Recovery cannot be verified blind.
                    healthy = 0
                self.ledger.record(
                    LedgerEntry(
                        step=step,
                        config=tuple(known_good.to_array()),
                        traffic=result.traffic,
                        qoe=qoe,
                        telemetry_ok=telemetry_ok,
                        trigger=triggers[-1] if triggers else "",
                    )
                )
                recovered = (
                    safe_steps >= cfg.min_safe_steps
                    and healthy >= cfg.recovery_probes
                    and entries <= cfg.reentry_budget
                )
                history.append(
                    GuardedIterationRecord(
                        step=step,
                        mode="safe",
                        config=tuple(known_good.to_array()),
                        resource_usage=known_good.resource_usage(),
                        qoe=qoe,
                        sla_met=met,
                        telemetry_ok=telemetry_ok,
                        multiplier=learner.multiplier.value,
                        trigger="recovered" if recovered else None,
                    )
                )
                if recovered:
                    recoveries += 1
                    self._fold_ledger()
                    mode = "learning"

        learning = learner.finalize()
        return GuardedOnlineResult(
            history=history,
            learning=learning,
            safe_mode_entries=entries,
            recoveries=recoveries,
            final_mode=mode,
            triggers=triggers,
            ledger=self.ledger,
            last_known_good=tuple(known_good.to_array()),
        )

    # ----------------------------------------------------------------- ledger
    def _fold_ledger(self) -> None:
        """Fold telemetry-valid safe-mode measurements into the residual model."""
        valid = [entry for entry in self.ledger.pending() if entry.telemetry_ok]
        for entry in valid[-self.config.ledger_fold_limit :]:
            self.learner.observe_residual(
                SliceConfig.from_array(np.asarray(entry.config)),
                entry.qoe,
                traffic=entry.traffic,
            )
        self.ledger.mark_folded()


def run_unprotected(
    learner: OnlineConfigurationLearner,
    fault_schedule: FaultSchedule,
    iterations: int | None = None,
) -> OnlineLearningResult:
    """Run the faulted episode with no watchdog: the robustness control arm.

    The same per-step fault injection as :class:`OnlineWatchdog`, the same
    seeds, but the learner explores (and poisons its models) straight
    through every fault window.
    """
    base = learner.real_engine.environment
    total = int(iterations) if iterations is not None else learner.config.iterations
    for step in range(1, total + 1):
        _install_faults(learner, base, fault_schedule, step - 1)
        learner.step(step)
    return learner.finalize()

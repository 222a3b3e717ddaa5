"""The chaos gate: hostile scenarios must break the bare learner, not the watchdog.

Three legs per hostile catalog entry (``traffic-drift``, ``sla-storm``,
``telemetry-blackout``):

1. **break** — the unprotected learner's SLA-violation rate exceeds the
   hostility floor: the fault genuinely poisons an unsupervised stage 3;
2. **survive** — the watchdog enters safe mode at least once *and* recovers
   at least once: the fault is detected and the episode is not abandoned;
3. **win** — the guarded violation rate is strictly below the unprotected
   one: supervision pays for itself on the same faulted episode.

Every explicitly seeded measurement runs through the one vectorized batch
path, so the gate numbers are byte-identical from run to run.  The
remaining tests are the regression fixes that ride along: telemetry
dropouts must not poison the engine cache, and faulted measurements must
replay byte-identically however their batches are split.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.offline_training import OfflineConfigurationTrainer, OfflineTrainingConfig
from repro.core.online_learning import OnlineConfigurationLearner, OnlineLearningConfig
from repro.core.watchdog import (
    OnlineWatchdog,
    WatchdogConfig,
    run_unprotected,
)
from repro.engine.cache import MeasurementCache
from repro.engine.engine import MeasurementEngine
from repro.engine.protocol import MeasurementRequest
from repro.prototype.testbed import RealNetwork
from repro.scenarios import get_scenario
from repro.sim.faults import FaultedEnvironment, telemetry_lost
from repro.sim.network import NetworkSimulator

DURATION = 4.0
ITERATIONS = 16
HOSTILE = ("traffic-drift", "sla-storm", "telemetry-blackout")


def _scenario(spec):
    return dataclasses.replace(spec.slices[0].scenario, duration_s=DURATION)


@pytest.fixture(scope="module")
def offline_policy():
    """One offline policy shared by every hostile entry (they share the SLA)."""
    spec = get_scenario(HOSTILE[0])
    workload = spec.slices[0]
    scenario = _scenario(spec)
    trainer = OfflineConfigurationTrainer(
        simulator=NetworkSimulator(scenario=scenario, seed=0),
        sla=workload.sla,
        traffic=scenario.traffic,
        config=OfflineTrainingConfig(
            iterations=6,
            initial_random=3,
            parallel_queries=2,
            candidate_pool=200,
            measurement_duration_s=DURATION,
            surrogate_epochs=20,
            seed=0,
        ),
    )
    return trainer.run().policy


def _learner(spec, policy) -> OnlineConfigurationLearner:
    scenario = _scenario(spec)
    return OnlineConfigurationLearner(
        offline_policy=policy,
        simulator=NetworkSimulator(scenario=scenario, seed=0),
        real_network=RealNetwork(scenario=scenario, seed=1),
        sla=spec.slices[0].sla,
        traffic=scenario.traffic,
        config=OnlineLearningConfig(
            iterations=ITERATIONS,
            offline_queries_per_step=2,
            candidate_pool=150,
            measurement_duration_s=DURATION,
            simulator_duration_s=DURATION,
            seed=0,
        ),
    )


@pytest.fixture(scope="module")
def chaos(offline_policy):
    """Both arms of every hostile episode, run once and asserted on repeatedly."""
    outcomes = {}
    for name in HOSTILE:
        spec = get_scenario(name)
        unprotected = run_unprotected(_learner(spec, offline_policy), spec.faults)
        guarded = OnlineWatchdog(
            _learner(spec, offline_policy),
            fault_schedule=spec.faults,
            fallback_config=spec.slices[0].deployed_config,
        ).run()
        outcomes[name] = (unprotected, guarded)
    return outcomes


class TestChaosGate:
    @pytest.mark.parametrize("name", HOSTILE)
    def test_fault_breaks_the_unprotected_learner(self, chaos, name):
        unprotected, _ = chaos[name]
        assert unprotected.sla_violation_rate() >= 0.3

    @pytest.mark.parametrize("name", HOSTILE)
    def test_watchdog_enters_safe_mode_and_recovers(self, chaos, name):
        _, guarded = chaos[name]
        assert guarded.safe_mode_entries >= 1
        assert guarded.recoveries >= 1
        assert guarded.triggers, "every safe-mode entry must name its trigger"

    @pytest.mark.parametrize("name", HOSTILE)
    def test_watchdog_beats_the_unprotected_learner(self, chaos, name):
        unprotected, guarded = chaos[name]
        assert guarded.sla_violation_rate() < unprotected.sla_violation_rate()

    def test_drift_trips_the_violation_monitor(self, chaos):
        _, guarded = chaos["traffic-drift"]
        assert "sla-violations" in guarded.triggers

    def test_blackout_trips_the_stale_monitor(self, chaos):
        _, guarded = chaos["telemetry-blackout"]
        assert "stale-telemetry" in guarded.triggers
        assert guarded.dropped_steps() > 0

    @pytest.mark.parametrize("name", HOSTILE)
    def test_recovery_folds_the_ledger_back(self, chaos, name):
        _, guarded = chaos[name]
        # Every recovery folds the telemetry-valid fault-window measurements
        # back into the discrepancy model — the fault window is not dead time.
        assert guarded.ledger.folded > 0
        assert guarded.ledger.folded <= len(guarded.ledger.entries)
        # Recovery is gated on healthy probes, so the folded window always
        # contains telemetry-valid measurements to learn from.
        assert any(entry.telemetry_ok for entry in guarded.ledger.entries[: guarded.ledger.folded])

    @pytest.mark.parametrize("name", HOSTILE)
    def test_safe_mode_emits_the_vetted_fallback(self, chaos, name):
        _, guarded = chaos[name]
        fallback = tuple(get_scenario(name).slices[0].deployed_config.to_array())
        assert guarded.last_known_good == fallback
        for record in guarded.history:
            if record.mode == "safe":
                assert record.config == fallback

    @pytest.mark.parametrize("name", HOSTILE)
    def test_guarded_episode_is_deterministic(self, chaos, name, offline_policy):
        """A rerun of the guarded arm replays the first run byte-for-byte."""
        spec = get_scenario(name)
        rerun = OnlineWatchdog(
            _learner(spec, offline_policy),
            fault_schedule=spec.faults,
            fallback_config=spec.slices[0].deployed_config,
        ).run()
        _, guarded = chaos[name]
        assert rerun.summary() == guarded.summary()
        assert [dataclasses.astuple(r) for r in rerun.history] == pytest.approx(
            [dataclasses.astuple(r) for r in guarded.history], nan_ok=True
        )


class TestWatchdogNeverWedges:
    def test_exhausted_reentry_budget_holds_safe_mode(self, offline_policy):
        """With a zero re-entry budget the watchdog parks on the fallback forever."""
        spec = get_scenario("telemetry-blackout")
        guarded = OnlineWatchdog(
            _learner(spec, offline_policy),
            config=WatchdogConfig(reentry_budget=0),
            fault_schedule=spec.faults,
            fallback_config=spec.slices[0].deployed_config,
        ).run()
        assert guarded.safe_mode_entries == 1
        assert guarded.recoveries == 0
        assert guarded.final_mode == "safe"
        assert len(guarded.history) == ITERATIONS
        fallback = tuple(spec.slices[0].deployed_config.to_array())
        # Every post-trip step still emits the known-good configuration.
        tripped = next(i for i, r in enumerate(guarded.history) if r.trigger)
        for record in guarded.history[tripped + 1 :]:
            assert record.mode == "safe"
            assert record.config == fallback


class TestDropoutCacheHygiene:
    """Telemetry dropouts must never poison the measurement cache (the fix)."""

    def _fixture(self):
        spec = get_scenario("telemetry-blackout")
        scenario = _scenario(spec)
        cache = MeasurementCache()
        real = RealNetwork(scenario=scenario, seed=1)
        config = spec.slices[0].deployed_config
        return spec, scenario, cache, real, config

    def test_dropped_step_does_not_poison_clean_runs(self):
        spec, scenario, cache, real, config = self._fixture()
        assert spec.faults.dropped(2), "step 2 must sit inside the blackout window"
        faulted = MeasurementEngine(FaultedEnvironment(real, spec.faults, step=2), cache=cache)
        dropped = faulted.run(config, traffic=1, duration=DURATION, seed=7)
        assert telemetry_lost(dropped)
        # The same request against the bare environment must miss the cache
        # and deliver real telemetry — the dropout was keyed under the fault
        # fingerprint, not the bare environment's.
        bare = MeasurementEngine(real, cache=cache)
        clean = bare.run(config, traffic=1, duration=DURATION, seed=7)
        assert not telemetry_lost(clean)
        assert clean.latencies_ms.size > 0

    def test_clean_steps_share_cache_entries_with_unfaulted_runs(self):
        spec, scenario, cache, real, config = self._fixture()
        assert not spec.faults.affects(0), "step 0 must be fault-free"
        bare = MeasurementEngine(real, cache=cache)
        first = bare.run(config, traffic=1, duration=DURATION, seed=7)
        executed = bare.executed_requests
        assert executed == 1
        # A fault-free step of the faulted wrapper collapses to the inner
        # fingerprint: the measurement is served from the shared entry.
        faulted = MeasurementEngine(FaultedEnvironment(real, spec.faults, step=0), cache=cache)
        hit = faulted.run(config, traffic=1, duration=DURATION, seed=7)
        assert faulted.executed_requests == 0
        assert np.array_equal(hit.latencies_ms, first.latencies_ms)
        assert hit.ping_delay_ms == first.ping_delay_ms

    def test_partial_cache_hits_across_a_dropout_window(self):
        """A window spanning clean and dropped steps reuses only the clean entries."""
        spec, scenario, cache, real, config = self._fixture()
        # Pre-warm the cache with an unfaulted run of every step's request.
        bare = MeasurementEngine(real, cache=cache)
        steps = range(6)
        for step in steps:
            bare.run(config, traffic=1, duration=DURATION, seed=100 + step)
        warmed = bare.executed_requests
        assert warmed == len(list(steps))
        # Replay the same requests through the fault schedule, step-pinned.
        executed_faulted = 0
        for step in steps:
            engine = MeasurementEngine(FaultedEnvironment(real, spec.faults, step=step), cache=cache)
            result = engine.run(config, traffic=1, duration=DURATION, seed=100 + step)
            executed_faulted += engine.executed_requests
            assert telemetry_lost(result) == spec.faults.dropped(step)
        # Only the dropped steps (2 and 3) missed the warm cache.
        assert executed_faulted == sum(1 for step in steps if spec.faults.dropped(step))
        # And the bare cache entries are intact: replaying the unfaulted
        # window is all hits, with real telemetry throughout.
        bare_replay = MeasurementEngine(real, cache=cache)
        for step in steps:
            again = bare_replay.run(config, traffic=1, duration=DURATION, seed=100 + step)
            assert not telemetry_lost(again)
        assert bare_replay.executed_requests == 0


def _faulted_results_identical(a, b) -> bool:
    scalars = (
        "frames_generated",
        "frames_completed",
        "duration_s",
        "config",
        "traffic",
        "stage_breakdown_ms",
    )
    nan_scalars = (
        "ul_throughput_mbps",
        "dl_throughput_mbps",
        "ul_packet_error_rate",
        "dl_packet_error_rate",
        "ping_delay_ms",
    )
    return (
        np.array_equal(a.latencies_ms, b.latencies_ms)
        and all(getattr(a, name) == getattr(b, name) for name in scalars)
        and all(
            np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)
            for name in nan_scalars
        )
    )


class TestFaultedSplitBatchIdentity:
    """Faulted measurements replay byte-identically however their batches are split."""

    @pytest.mark.parametrize("name", HOSTILE)
    def test_split_faulted_batches_match_whole_batches(self, name):
        spec = get_scenario(name)
        scenario = _scenario(spec)
        config = spec.slices[0].deployed_config
        per_step: list[list] = []
        for cuts in ((), (1,), (1, 2)):  # whole, two batches, one batch per lane
            real = RealNetwork(scenario=scenario, seed=1)
            results = []
            for step in range(6):
                engine = MeasurementEngine(FaultedEnvironment(real, spec.faults, step), cache=False)
                requests = [
                    MeasurementRequest(config=config, traffic=1, duration=DURATION, seed=31 + lane)
                    for lane in range(3)
                ]
                bounds = [0, *cuts, len(requests)]
                for start, stop in zip(bounds, bounds[1:]):
                    results.extend(engine.run_batch(requests[start:stop]))
            per_step.append(results)
        reference = per_step[0]
        for results in per_step[1:]:
            assert len(results) == len(reference)
            for a, b in zip(reference, results):
                assert _faulted_results_identical(a, b)

    def test_faulted_steps_report_the_effective_traffic(self):
        spec = get_scenario("traffic-drift")
        scenario = _scenario(spec)
        config = spec.slices[0].deployed_config
        real = RealNetwork(scenario=scenario, seed=1)
        for step in range(8):
            engine = MeasurementEngine(FaultedEnvironment(real, spec.faults, step), cache=False)
            result = engine.run(config, traffic=1, duration=DURATION, seed=5)
            assert result.traffic == spec.faults.traffic_at(step, 1)

"""The stage driver: simulator learning → offline training → online learning.

:class:`Atlas` chains the three stages on one slice workload exactly as the
paper's workflow does (Appendix D): stage 1 builds the online collection
``D_r`` from the real network and searches the simulation parameters, stage 2
trains the offline policy in the simulator those parameters build, and stage
3 starts from that policy and learns online in the real network.
:func:`run_slices` runs it on every slice of a catalog entry, and
:func:`run_entry` on a whole entry for ``python -m repro run`` and the
service's run jobs, so both print the same lines, build the same payload
and reject the same stages and fault modes (:func:`check_run`).

The stage budgets come from one mapping:
:func:`parameter_search_config`, :func:`offline_training_config` and
:func:`online_learning_config` build each stage's configuration from an
:class:`~repro.experiments.scale.ExperimentScale`, a measurement duration
and a seed.  The driver, the figure runners of :mod:`repro.experiments` and
the examples all build their stage configurations through them; callers
that need another value pass it as an override.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.core.offline_training import OfflineConfigurationTrainer, OfflineTrainingConfig
from repro.core.online_learning import OnlineConfigurationLearner, OnlineLearningConfig
from repro.core.simulator_learning import ParameterSearchConfig, SimulatorParameterSearch
from repro.core.spaces import SimulationParameterSpace
from repro.engine.forkpool import fork_map
from repro.experiments.scale import ExperimentScale
from repro.experiments.scenarios import collect_online_dataset
from repro.scenarios import ScenarioSpec, SliceWorkload
from repro.sim.multislice import SliceRun

__all__ = [
    "Atlas",
    "FAULT_MODES",
    "FaultModeError",
    "STAGES",
    "check_run",
    "jsonable",
    "offline_training_config",
    "online_learning_config",
    "parameter_search_config",
    "run_entry",
    "run_slices",
    "sla_label",
    "traffic_label",
]

#: The stage selections a run accepts: one stage, or ``"all"`` (1 → 2 → 3).
STAGES = ("1", "2", "3", "all")

#: The fault modes of stage 3 (see :meth:`Atlas.stage3_faulted`).
FAULT_MODES = ("off", "guarded", "unprotected")


# --------------------------------------------------------------- the mapping
def parameter_search_config(
    scale: ExperimentScale, duration: float, seed: int, **overrides
) -> ParameterSearchConfig:
    """Stage 1's budget at ``scale``, measuring ``duration`` simulated seconds per query."""
    settings = dict(
        iterations=scale.stage1_iterations,
        initial_random=scale.stage1_initial_random,
        parallel_queries=scale.stage1_parallel,
        candidate_pool=scale.stage1_candidate_pool,
        measurement_duration_s=duration,
        seed=seed,
    )
    settings.update(overrides)
    return ParameterSearchConfig(**settings)


def offline_training_config(
    scale: ExperimentScale, duration: float, seed: int, **overrides
) -> OfflineTrainingConfig:
    """Stage 2's budget at ``scale``, measuring ``duration`` simulated seconds per query."""
    settings = dict(
        iterations=scale.stage2_iterations,
        initial_random=scale.stage2_initial_random,
        parallel_queries=scale.stage2_parallel,
        candidate_pool=scale.stage2_candidate_pool,
        measurement_duration_s=duration,
        seed=seed,
    )
    settings.update(overrides)
    return OfflineTrainingConfig(**settings)


def online_learning_config(
    scale: ExperimentScale, duration: float, seed: int, **overrides
) -> OnlineLearningConfig:
    """Stage 3's budget at ``scale``: ``duration``-second real measurements.

    Each accelerated simulator query lasts half as long, and at least 5 s.
    """
    settings = dict(
        iterations=scale.stage3_iterations,
        offline_queries_per_step=scale.stage3_offline_queries,
        candidate_pool=scale.stage3_candidate_pool,
        measurement_duration_s=duration,
        simulator_duration_s=max(duration / 2.0, 5.0),
        seed=seed,
    )
    settings.update(overrides)
    return OnlineLearningConfig(**settings)


# ---------------------------------------------------------------- formatting
def sla_label(workload: SliceWorkload) -> str:
    """The workload's SLA as ``"<threshold>ms @ <availability>%"``."""
    sla = workload.sla
    return f"{sla.latency_threshold_ms:.0f}ms @ {100.0 * sla.availability:.0f}%"


def traffic_label(workload: SliceWorkload) -> str:
    """The workload's traffic: its constant level, or its trace and mean level."""
    if workload.trace is None:
        return str(workload.scenario.traffic)
    return f"{type(workload.trace).__name__}(~{workload.mean_traffic()})"


def jsonable(value):
    """Drop private keys and coerce numpy scalars so ``json.dump`` succeeds."""
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items() if not k.startswith("_")}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


# ---------------------------------------------------------------- the driver
class Atlas:
    """Atlas on one slice workload of a catalog entry.

    Parameters
    ----------
    workload:
        The slice: scenario, SLA, deployed configuration and traffic trace.
    spec:
        The catalog entry the slice belongs to.  Stage 1 takes its search
        defaults (``stage1_alpha``, ``stage1_distance_threshold``) and the
        fault-injected stage 3 its fault schedule.
    scale:
        The stage budgets (see :func:`parameter_search_config` and its two
        siblings).
    duration:
        Simulated seconds per measurement.
    seed:
        Base seed: the simulator takes ``seed`` and the real network
        ``seed + 1``.
    """

    def __init__(
        self,
        workload: SliceWorkload,
        spec: ScenarioSpec,
        scale: ExperimentScale,
        duration: float,
        seed: int,
    ) -> None:
        self.workload = workload
        self.spec = spec
        self.scale = scale
        self.duration = duration
        self.seed = seed

    def run(self, stages: set[str], faults: str = "off") -> dict:
        """Run the requested stages (``"1"``, ``"2"``, ``"3"``) and return the slice's summary.

        Stage 1's parameters build stage 2's simulator.  Stage 3 without
        stage 2 first trains the prerequisite offline policy.  ``faults``
        other than ``"off"`` runs stage 3 as one fault-injected episode
        (:meth:`stage3_faulted`).  Keys that start with ``_`` hold live
        objects (the search result, the policy, the learned configuration);
        :func:`jsonable` drops them.
        """
        workload = self.workload
        print(
            f"\n[{workload.name}] traffic {traffic_label(workload)}, SLA {sla_label(workload)}"
        )
        summary: dict = {"slice": workload.name}
        params = None
        if "1" in stages:
            summary["stage1"] = self.stage1()
            params = summary["stage1"]["_result"].best_parameters
        offline = None
        if "2" in stages:
            offline = self.stage2(params=params)
            summary["stage2"] = offline
        if "3" in stages:
            if offline is None:
                print("  stage 3: training prerequisite offline policy first")
                offline = self.stage2(params=params, announce=False)
            if faults != "off":
                summary["stage3"] = self.stage3_faulted(offline, faults)
            else:
                summary["stage3"] = self.stage3(offline)
        return summary

    def stage1(self) -> dict:
        """Search the simulation parameters against the workload's testbed (stage 1)."""
        workload, seed = self.workload, self.seed
        simulator = workload.make_simulator(seed=seed)
        real_network = workload.make_real_network(seed=seed + 1)
        real_collection = collect_online_dataset(
            real_network,
            config=workload.deployed_config,
            traffic=workload.mean_traffic(),
            runs=self.scale.motivation_runs,
            duration_s=self.duration,
        )
        search = SimulatorParameterSearch(
            simulator=simulator,
            real_collection=real_collection,
            deployed_config=workload.deployed_config,
            space=SimulationParameterSpace(
                original=simulator.params, distance_threshold=self.spec.stage1_distance_threshold
            ),
            config=parameter_search_config(
                self.scale, self.duration, seed, alpha=self.spec.stage1_alpha
            ),
            traffic=workload.mean_traffic(),
        )
        result = search.run()
        print(
            f"  stage 1: discrepancy {result.original_discrepancy:.3f} -> "
            f"{result.best_discrepancy:.3f} (parameter distance {result.best_distance:.3f})"
        )
        return {
            "original_discrepancy": result.original_discrepancy,
            "best_discrepancy": result.best_discrepancy,
            "best_distance": result.best_distance,
            "best_parameters": list(result.best_parameters.to_array()),
            "_result": result,
        }

    def stage2(self, params=None, announce: bool = True) -> dict:
        """Train the offline configuration policy in the (augmented) simulator (stage 2)."""
        workload = self.workload
        simulator = workload.make_simulator(seed=self.seed)
        if params is not None:
            simulator = simulator.with_params(params)
        trainer = OfflineConfigurationTrainer(
            simulator=simulator,
            sla=workload.sla,
            traffic=workload.mean_traffic(),
            config=offline_training_config(self.scale, self.duration, self.seed),
        )
        result = trainer.run()
        policy = result.policy
        if announce:
            print(
                f"  stage 2: best offline config at {100 * policy.best_usage:.1f}% usage, "
                f"simulator QoE {policy.best_qoe:.3f}"
            )
        return {
            "best_usage": policy.best_usage,
            "best_qoe": policy.best_qoe,
            "best_config": list(policy.best_config.to_array()),
            "_best_config": policy.best_config,
            "_policy": policy,
            "_simulator": simulator,
        }

    def stage3(self, offline: dict) -> dict:
        """Learn online against the real network (stage 3), replaying any traffic trace."""
        workload, scale = self.workload, self.scale
        real_network = workload.make_real_network(seed=self.seed + 1)
        levels = [workload.traffic_at(step) for step in range(scale.stage3_iterations)]
        segments: list[tuple[int, int]] = []  # (traffic level, iterations)
        for level in levels:
            if segments and segments[-1][0] == level:
                segments[-1] = (level, segments[-1][1] + 1)
            else:
                segments.append((level, 1))
        usages: list[float] = []
        qoes: list[float] = []
        violations = 0
        last_config = None
        for index, (level, iterations) in enumerate(segments):
            learner = OnlineConfigurationLearner(
                offline_policy=offline["_policy"],
                simulator=offline["_simulator"],
                real_network=real_network,
                sla=workload.sla,
                traffic=level,
                config=online_learning_config(
                    scale, self.duration, self.seed + index, iterations=iterations
                ),
            )
            result = learner.run()
            usages.extend(result.usages().tolist())
            qoes.extend(result.qoes().tolist())
            violations += sum(1 for record in result.history if not record.sla_met)
            last_config = result.policy.best_config
        iterations_total = max(1, len(usages))
        mean_usage = sum(usages) / iterations_total
        mean_qoe = sum(qoes) / iterations_total
        print(
            f"  stage 3: {len(segments)} traffic segment(s), mean usage {100 * mean_usage:.1f}%, "
            f"mean QoE {mean_qoe:.3f}, SLA violations {violations}/{len(usages)}"
        )
        best_config = last_config if last_config is not None else offline["_policy"].best_config
        return {
            "segments": [{"traffic": level, "iterations": n} for level, n in segments],
            "mean_usage": mean_usage,
            "mean_qoe": mean_qoe,
            "sla_violations": violations,
            "best_config": list(best_config.to_array()),
            "_best_config": best_config,
        }

    def stage3_faulted(self, offline: dict, mode: str) -> dict:
        """Run the fault-injected online episode (stage 3 under ``--faults``).

        The whole episode runs as one step-indexed chaos run at the workload's
        representative traffic level — the fault schedule, not the trace
        segmentation, owns the timeline.  ``guarded`` supervises the learner
        with the watchdog (safe-mode fallback to the deployed configuration);
        ``unprotected`` is the control arm that learns straight through every
        fault window.
        """
        from repro.core.watchdog import OnlineWatchdog, run_unprotected

        workload, schedule = self.workload, self.spec.faults
        learner = OnlineConfigurationLearner(
            offline_policy=offline["_policy"],
            simulator=offline["_simulator"],
            real_network=workload.make_real_network(seed=self.seed + 1),
            sla=workload.sla,
            traffic=workload.mean_traffic(),
            config=online_learning_config(self.scale, self.duration, self.seed),
        )
        if mode == "guarded":
            guarded = OnlineWatchdog(
                learner,
                fault_schedule=schedule,
                fallback_config=workload.deployed_config,
            ).run()
            summary = guarded.summary()
            print(
                f"  stage 3 (faults: guarded): {summary['steps']} steps, "
                f"violation rate {summary['sla_violation_rate']:.3f}, "
                f"safe-mode entries {summary['safe_mode_entries']}, "
                f"recoveries {summary['recoveries']}, dropped {summary['dropped_steps']}, "
                f"final mode {summary['final_mode']}"
            )
            return {"faults": "guarded", "watchdog": summary}
        result = run_unprotected(learner, schedule)
        rate = result.sla_violation_rate()
        violations = sum(1 for record in result.history if not record.sla_met)
        print(
            f"  stage 3 (faults: unprotected): {len(result.history)} steps, "
            f"violation rate {rate:.3f} ({violations}/{len(result.history)})"
        )
        return {
            "faults": "unprotected",
            "steps": len(result.history),
            "sla_violations": violations,
            "sla_violation_rate": rate,
        }


# ---------------------------------------------------------------- the entry
class FaultModeError(ValueError):
    """A fault mode the catalog entry or the requested stages cannot run."""


def check_run(spec: ScenarioSpec, stage: str, faults: str) -> set[str]:
    """The stages ``stage`` selects, once ``spec`` can run them under ``faults``.

    A ``stage`` outside :data:`STAGES` raises :class:`ValueError`.  A
    ``faults`` mode outside :data:`FAULT_MODES`, or one the entry cannot
    run, raises :class:`FaultModeError`: faults are injected into stage 3
    of a one-slice entry that has a fault schedule (the ``hostile``
    entries); ``faults="off"`` always passes.
    """
    if stage not in STAGES:
        raise ValueError(f"unknown stage {stage!r}; expected one of {', '.join(STAGES)}")
    if faults not in FAULT_MODES:
        raise FaultModeError(
            f"unknown fault mode {faults!r}; expected one of {', '.join(FAULT_MODES)}"
        )
    stages = {"1", "2", "3"} if stage == "all" else {stage}
    if faults == "off":
        return stages
    if spec.faults is None:
        raise FaultModeError(
            f"scenario {spec.name!r} has no fault schedule; "
            "--faults needs a hostile catalog entry (tag 'hostile')"
        )
    if "3" not in stages:
        raise FaultModeError("--faults applies to stage 3 (use --stage 3 or all)")
    if spec.is_multislice:
        raise FaultModeError("--faults does not support multi-slice scenarios")
    return stages


def run_slices(
    spec: ScenarioSpec,
    stage: str,
    scale: ExperimentScale,
    duration: float,
    seed: int,
    faults: str = "off",
    tracer=None,
) -> list[dict]:
    """Run ``stage`` (one of :data:`STAGES`) on every slice of ``spec``.

    Returns one :class:`Atlas` summary per slice, in slice order.  Each is
    :func:`jsonable` apart from ``_config``, the configuration the slice's
    stages learned (``None`` without stage 2 or 3), which the optimised
    contended round of :func:`run_entry` deploys.  :func:`check_run` runs
    first, so a stage or fault mode the entry cannot run fails before any
    slice does.

    Slices share nothing, so each slice's pipeline runs whole in a
    fork-pool worker (:func:`repro.engine.forkpool.fork_map`, one worker per
    usable core and slice), which captures its stdout; this process writes
    it in slice order, so the output bytes are those of an in-process run.
    A store attached to the shared cache serves the workers too, and the
    pool folds their engine, cache and store counters into this process's,
    so a ``--store`` run's cost ledger counts every slice.  A ``tracer``
    (service jobs) records one ``job.slice`` span per slice from whichever
    process ran it.
    """
    stages = check_run(spec, stage, faults)

    def run_slice(workload: SliceWorkload) -> dict:
        span = (
            tracer.span("job.slice", scenario=spec.name, slice=workload.name, stage=stage)
            if tracer is not None
            else nullcontext()
        )
        with span:
            summary = Atlas(workload, spec, scale, duration, seed).run(stages, faults=faults)
        learned = summary.get("stage3", summary.get("stage2", {})).get("_best_config")
        return {**jsonable(summary), "_config": learned}

    return list(fork_map(run_slice, spec.slices))


def run_entry(
    spec: ScenarioSpec,
    stage: str,
    scale: ExperimentScale,
    duration: float,
    seed: int,
    faults: str = "off",
    ledger=None,
    tracer=None,
) -> dict:
    """Print what ``python -m repro run`` prints for ``spec`` and return its ``--json`` payload.

    Around :func:`run_slices`, a multi-slice entry measures a contended
    round of the deployed configurations and, when stage 2 or 3 ran, one of
    the learned configurations.  A :class:`~repro.service.costs.CostLedger`
    adds the cost line and the payload's ``costs`` (``None`` without one).
    """
    stages = check_run(spec, stage, faults)
    print(
        f"scenario {spec.name!r} | stage {stage} | scale {scale.name} | "
        f"measurement duration {duration:g}s"
    )
    before = after = None
    if spec.is_multislice:
        real_network = spec.primary.make_real_network(seed=seed + 1)
        before = real_network.measure_slices(
            spec.slice_runs(seed=seed + 9000), budget=spec.budget, duration=duration
        )
        print(f"\n{before.format_table('contended round (deployed configurations):')}")
    slices = run_slices(spec, stage, scale, duration, seed, faults=faults, tracer=tracer)
    # An "optimised" contended round only makes sense when a stage that
    # produces configurations actually ran; stage 1 alone learns
    # simulation parameters, not allocations.
    if spec.is_multislice and stages & {"2", "3"}:
        learned_runs = [
            SliceRun(
                name=workload.name,
                config=slice_summary["_config"],
                scenario=workload.scenario,
                sla=workload.sla,
                seed=seed + 9100 + index,
            )
            for index, (workload, slice_summary) in enumerate(zip(spec.slices, slices))
        ]
        real_network = spec.primary.make_real_network(seed=seed + 1)
        after = real_network.measure_slices(learned_runs, budget=spec.budget, duration=duration)
        print(f"\n{after.format_table('contended round (optimised configurations):')}")
    costs = ledger.finish() if ledger is not None else None
    if costs is not None:
        cache = costs["cache"] or {}
        print(
            f"\ncosts: {costs['engine_requests']} measurements executed "
            f"({costs['sim_seconds']:g} sim-s), cache served "
            f"{cache.get('memory_hits', 0)} from memory + "
            f"{cache.get('store_hits', 0)} from the store "
            f"(hit rate {cache.get('hit_rate', 0.0):.1%})"
        )
    return jsonable(
        {
            "scenario": spec.name,
            "stage": stage,
            "scale": scale.name,
            "slices": slices,
            "multislice_before": before.summary() if before is not None else None,
            "multislice_after": after.summary() if after is not None else None,
            "costs": costs,
        }
    )

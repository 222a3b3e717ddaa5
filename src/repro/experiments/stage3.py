"""Stage-3 evaluation experiments (Sec. 8.3): Figs. 20–26 and Table 5.

The online learning experiments compare Atlas against the Baseline (direct
GP-EI Bayesian optimisation), VirtualEdge and DLDA on the real network, and
ablate Atlas' own components: the acquisition function (Fig. 22), the online
approximation function (Fig. 23) and the three stages themselves (Fig. 24).
Atlas' stages take their configurations from
:func:`repro.core.atlas.offline_training_config` and
:func:`repro.core.atlas.online_learning_config`, with simulator queries of
at least 10 s.

Each runner is a list of independent jobs, one per method, variant or
(traffic level, method) pair, mapped through
:func:`repro.engine.forkpool.fork_map`; steps that span jobs, such as the
common hindsight optimum of Figs. 20–21 and 25–26, run in the parent on
the results, in job order.  A job receives only inputs it does not mutate,
and unknown method or variant names are rejected before any job runs.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.dlda import DLDA, DLDAConfig
from repro.baselines.gp_bo import GPConfigurationOptimizer, GPOptimizerConfig
from repro.baselines.virtualedge import VirtualEdge, VirtualEdgeConfig
from repro.core.atlas import offline_training_config, online_learning_config
from repro.core.offline_training import OfflineConfigurationTrainer
from repro.core.online_learning import OnlineConfigurationLearner, OnlineLearningConfig
from repro.core.policy import OfflinePolicy, build_features
from repro.engine import MeasurementEngine, MeasurementRequest
from repro.engine.forkpool import fork_map
from repro.experiments.scale import ExperimentScale, get_scale
from repro.experiments.scenarios import (
    default_deployed_config,
    default_sla,
    make_real_network,
    make_simulator,
)
from repro.experiments.stage2 import _make_augmented_simulator
from repro.metrics.regret import RegretTracker, average_qoe_regret, average_usage_regret
from repro.models.bnn import BayesianNeuralNetwork
from repro.prototype.slice_manager import SLA
from repro.prototype.testbed import RealNetwork
from repro.sim.network import NetworkSimulator

__all__ = [
    "ONLINE_METHODS",
    "MethodOnlineRun",
    "OnlineComparisonResult",
    "run_online_method",
    "fig20_21_table5_online_comparison",
    "fig22_acquisition_ablation",
    "fig23_online_model_ablation",
    "fig24_stage_ablation",
    "DynamicTrafficResult",
    "fig25_26_dynamic_traffic",
    "train_offline_policy",
]

#: How each online method of Figs. 20–21 and 25–26 labels its runs.
_METHOD_LABELS = {"ours": "Ours", "baseline": "Baseline", "virtualedge": "VirtualEdge", "dlda": "DLDA"}

#: The online methods of Figs. 20–21 and 25–26, in their default order.
ONLINE_METHODS = tuple(_METHOD_LABELS)


def _online_config(scale: ExperimentScale, seed: int = 0, **overrides) -> OnlineLearningConfig:
    """Stage 3's budget for the figures: the shared mapping at the scale's duration.

    The figures query the simulator for at least 10 s where ``python -m repro
    run`` queries it for at least 5 s; the figures' outputs rest on this value.
    """
    duration = scale.measurement_duration_s
    return online_learning_config(
        scale, duration, seed, simulator_duration_s=max(duration / 2.0, 10.0), **overrides
    )


def train_offline_policy(
    scale: ExperimentScale, sla: SLA, traffic: int = 1, seed: int = 0
) -> OfflinePolicy:
    """Train the stage-2 policy used as the starting point of the online experiments."""
    trainer = OfflineConfigurationTrainer(
        simulator=_make_augmented_simulator(seed=seed),
        sla=sla,
        traffic=traffic,
        config=offline_training_config(scale, scale.measurement_duration_s, seed),
    )
    return trainer.run().policy


def _uninformed_policy(simulator: NetworkSimulator, sla: SLA, seed: int) -> OfflinePolicy:
    """A placeholder offline policy for the Fig. 24 variant without stage 2.

    The BNN is fitted on a handful of random points with pessimistic QoE
    so it carries essentially no information; the starting configuration
    is the mid-range deployed configuration.
    """
    deployed = default_deployed_config()
    state = (1.0, float(simulator.scenario.distance_m), 0.0)
    model = BayesianNeuralNetwork(input_dim=len(state) + 1 + 6, hidden_layers=(16,), seed=seed)
    rng = np.random.default_rng(seed)
    random_actions = rng.uniform(0.0, 1.0, size=(8, 6))
    features = build_features(state, sla, random_actions)
    model.fit(features, np.full(len(features), 0.5), epochs=30)
    return OfflinePolicy(
        qoe_model=model,
        sla=sla,
        state=state,
        best_config=deployed,
        best_qoe=0.5,
        best_usage=deployed.resource_usage(),
        multiplier=0.0,
    )


# ------------------------------------------------------------- the run record
@dataclass
class MethodOnlineRun:
    """Per-iteration usage/QoE and average regrets of one online method or variant."""

    method: str
    usages: np.ndarray
    qoes: np.ndarray
    average_usage_regret: float
    average_qoe_regret: float
    sla_violation_rate: float

    @classmethod
    def from_result(cls, method: str, result) -> MethodOnlineRun:
        """Record a learner's ``result`` under the label ``method``.

        ``result`` is any learner result: an
        :class:`~repro.core.online_learning.OnlineLearningResult` or a
        :class:`~repro.baselines.base.BaselineResult`.  Its regrets are
        measured against its own run's hindsight optimum.
        """
        return cls(
            method=method,
            usages=np.asarray(result.usages(), dtype=float),
            qoes=np.asarray(result.qoes(), dtype=float),
            average_usage_regret=float(result.average_usage_regret()),
            average_qoe_regret=float(result.average_qoe_regret()),
            sla_violation_rate=float(result.sla_violation_rate()),
        )


@dataclass
class OnlineComparisonResult:
    """The runs of several online methods or variants, keyed by name.

    Figs. 20–21 / Table 5 and 25–26 call :meth:`recompute_regrets`: the
    regrets of Eqs. 10–11 are defined against the optimal policy ``phi*``;
    as in the paper, the best SLA-satisfying configuration observed across
    the compared methods within the online horizon stands in for it, so
    every method is measured against the *same* reference.  The ablations
    (Figs. 22–24) and Fig. 5 keep each run's own regrets.
    """

    runs: dict[str, MethodOnlineRun] = field(default_factory=dict)
    qoe_requirement: float = 0.9
    optimal_usage: float = 0.0
    optimal_qoe: float = 1.0

    def recompute_regrets(self) -> None:
        """Determine the common hindsight optimum and recompute every run's regrets.

        Every run's points go into one
        :class:`~repro.metrics.regret.RegretTracker` in run order, so the
        first of several equally good points is the optimum.
        """
        tracker = RegretTracker(qoe_requirement=self.qoe_requirement)
        for run in self.runs.values():
            for usage, qoe in zip(run.usages, run.qoes):
                tracker.record(usage, qoe)
        tracker.set_optimum_from_best()
        self.optimal_usage, self.optimal_qoe = tracker.optimal_usage, tracker.optimal_qoe
        for run in self.runs.values():
            run.average_usage_regret = average_usage_regret(run.usages, self.optimal_usage)
            run.average_qoe_regret = average_qoe_regret(run.qoes, self.optimal_qoe)

    def table5_rows(self) -> list[dict]:
        """Rows of Table 5: average usage regret and average QoE regret per method."""
        return [
            {
                "method": run.method,
                "avg_usage_regret_percent": 100.0 * run.average_usage_regret,
                "avg_qoe_regret": run.average_qoe_regret,
                "sla_violation_rate": run.sla_violation_rate,
            }
            for run in self.runs.values()
        ]


def _check_names(names: tuple[str, ...], known, kind: str) -> None:
    """Reject an unknown method or variant name before any job runs."""
    for name in names:
        if name not in known:
            raise ValueError(f"unknown {kind} {name!r}")


# --------------------------------------------------------- the learner table
def run_online_method(
    method: str,
    real_network: RealNetwork,
    traffic: int,
    iterations: int,
    seed: int,
    offline_policy: OfflinePolicy | None,
    scale: ExperimentScale,
    sla: SLA,
) -> MethodOnlineRun:
    """Build the online ``method`` and run it for ``iterations`` steps on ``real_network``.

    ``method`` is one of :data:`ONLINE_METHODS`.  ``"ours"`` is Atlas's
    stage 3, started from ``offline_policy`` on the augmented simulator; the
    Baseline (GP-EI Bayesian optimisation), VirtualEdge and DLDA learn from
    scratch and ignore ``offline_policy``.  DLDA's offline grid comes from
    the original simulator, since it has no learning-based simulator stage.
    """
    if method == "ours":
        run = OnlineConfigurationLearner(
            offline_policy=offline_policy,
            simulator=_make_augmented_simulator(),
            real_network=real_network,
            sla=sla,
            traffic=traffic,
            config=_online_config(scale, seed, iterations=iterations),
        ).run()
    elif method == "baseline":
        run = GPConfigurationOptimizer(
            environment=real_network,
            sla=sla,
            traffic=traffic,
            config=GPOptimizerConfig(
                iterations=iterations,
                initial_random=max(3, iterations // 4),
                candidate_pool=scale.stage3_candidate_pool,
                measurement_duration_s=scale.measurement_duration_s,
                seed=seed,
            ),
        ).run()
    elif method == "virtualedge":
        run = VirtualEdge(
            environment=real_network,
            sla=sla,
            traffic=traffic,
            config=VirtualEdgeConfig(
                iterations=iterations,
                measurement_duration_s=scale.measurement_duration_s,
                seed=seed,
            ),
        ).run()
    elif method == "dlda":
        run = DLDA(
            simulator=make_simulator(seed=0, traffic=traffic),
            sla=sla,
            traffic=traffic,
            config=DLDAConfig(
                grid_points_per_dim=scale.dlda_grid_points,
                selection_pool=scale.dlda_selection_pool,
                online_iterations=iterations,
                measurement_duration_s=scale.measurement_duration_s,
                seed=seed,
            ),
        ).run_online(real_network, iterations=iterations)
    else:
        raise ValueError(f"unknown online method {method!r}")
    return MethodOnlineRun.from_result(_METHOD_LABELS[method], run)


# --------------------------------------------------- Figs. 20–21 and Table 5
def _comparison_job(
    scale: ExperimentScale, sla: SLA, offline_policy: OfflinePolicy | None, traffic: int, method: str
) -> MethodOnlineRun:
    """One method of Figs. 20–21 or 25–26 at one traffic level.

    The method learns against real network ``10 +`` its position in
    :data:`ONLINE_METHODS`, with that seed, except Atlas, which keeps seed 0
    as its offline policy does and trains that policy when none is given.
    """
    index = ONLINE_METHODS.index(method)
    if method == "ours" and offline_policy is None:
        offline_policy = train_offline_policy(scale, sla, traffic=traffic)
    return run_online_method(
        method,
        make_real_network(seed=10 + index, traffic=traffic),
        traffic,
        scale.stage3_iterations,
        0 if method == "ours" else 10 + index,
        offline_policy,
        scale,
        sla,
    )


def fig20_21_table5_online_comparison(
    scale: ExperimentScale | None = None,
    sla: SLA | None = None,
    traffic: int = 1,
    methods: tuple[str, ...] = ONLINE_METHODS,
    offline_policy: OfflinePolicy | None = None,
) -> OnlineComparisonResult:
    """Reproduce Figs. 20–21 and Table 5: online learning on the real network.

    Each method is one job and learns against a real network of its own,
    seeded with 10 plus the method's position in :data:`ONLINE_METHODS`,
    whichever ``methods`` run.  The ``ours`` job trains the offline policy
    when ``offline_policy`` is ``None``.
    """
    scale = scale if scale is not None else get_scale()
    sla = sla if sla is not None else default_sla()
    _check_names(methods, ONLINE_METHODS, "online method")
    runs = fork_map(lambda method: _comparison_job(scale, sla, offline_policy, traffic, method), methods)
    result = OnlineComparisonResult(runs=dict(zip(methods, runs)), qoe_requirement=sla.availability)
    result.recompute_regrets()
    return result


# ---------------------------------------------------------------- Figs. 22–23
def _ablation_job(
    policy: OfflinePolicy, sla: SLA, name: str, network_seed: int, config: OnlineLearningConfig
) -> MethodOnlineRun:
    """One Fig. 22 or Fig. 23 row: Atlas's stage 3 from ``policy`` under ``config``."""
    run = OnlineConfigurationLearner(
        offline_policy=policy,
        simulator=_make_augmented_simulator(),
        real_network=make_real_network(seed=network_seed),
        sla=sla,
        config=config,
    ).run()
    return MethodOnlineRun.from_result(name, run)


def fig22_acquisition_ablation(
    scale: ExperimentScale | None = None,
    sla: SLA | None = None,
    acquisitions: tuple[str, ...] = ("crgp_ucb", "gp_ucb", "ei", "pi"),
    offline_policy: OfflinePolicy | None = None,
) -> OnlineComparisonResult:
    """Reproduce Fig. 22: cRGP-UCB explores more safely than EI/PI/GP-UCB.

    Each acquisition is one job, seeded by its position in the caller's
    ``acquisitions``.  The offline policy is trained once, in this process,
    and the jobs share it.
    """
    scale = scale if scale is not None else get_scale()
    sla = sla if sla is not None else default_sla()
    # Building every configuration first rejects an unknown acquisition.
    jobs = [
        (acquisition, 60 + index, _online_config(scale, seed=index, acquisition=acquisition))
        for index, acquisition in enumerate(acquisitions)
    ]
    if offline_policy is None:
        offline_policy = train_offline_policy(scale, sla)
    runs = fork_map(lambda job: _ablation_job(offline_policy, sla, *job), jobs)
    return OnlineComparisonResult(runs=dict(zip(acquisitions, runs)), qoe_requirement=sla.availability)


#: The Fig. 23 variants, in their default order, and the stage-3 options each overrides.
_MODEL_ABLATION_VARIANTS: dict[str, dict] = {
    "ours": {},
    "bnn": {"residual_model": "bnn"},
    "bnn_contd": {"residual_model": "bnn_contd"},
    "no_offline_acceleration": {"offline_acceleration": False},
}


def fig23_online_model_ablation(
    scale: ExperimentScale | None = None,
    sla: SLA | None = None,
    variants: tuple[str, ...] = tuple(_MODEL_ABLATION_VARIANTS),
    offline_policy: OfflinePolicy | None = None,
) -> OnlineComparisonResult:
    """Reproduce Fig. 23: GP residual + offline acceleration beats the alternatives.

    Each variant is one job, seeded by its position in the default
    ``variants``.  The offline policy is trained once, in this process, and
    the jobs share it; ``bnn_contd`` retrains its BNN in place, so it gets
    its own copy.
    """
    scale = scale if scale is not None else get_scale()
    sla = sla if sla is not None else default_sla()
    _check_names(variants, _MODEL_ABLATION_VARIANTS, "variant")
    if offline_policy is None:
        offline_policy = train_offline_policy(scale, sla)

    def job(variant: str) -> MethodOnlineRun:
        index = list(_MODEL_ABLATION_VARIANTS).index(variant)
        return _ablation_job(
            copy.deepcopy(offline_policy) if variant == "bnn_contd" else offline_policy,
            sla,
            variant,
            70 + index,
            _online_config(scale, seed=index, **_MODEL_ABLATION_VARIANTS[variant]),
        )

    runs = fork_map(job, variants)
    return OnlineComparisonResult(runs=dict(zip(variants, runs)), qoe_requirement=sla.availability)


# --------------------------------------------------------------------- Fig. 24
#: The Fig. 24 variants, in their default order.
_STAGE_ABLATION_VARIANTS = ("ours", "no_stage1", "no_stage2", "no_stage3")


def _stage_ablation_job(scale: ExperimentScale, sla: SLA, variant: str) -> MethodOnlineRun:
    """One Fig. 24 row: Atlas with the stage that ``variant`` names removed."""
    index = _STAGE_ABLATION_VARIANTS.index(variant)
    # Stage 1 is represented by the pre-searched augmented parameters to
    # keep the ablation affordable; "no_stage1" keeps the original ones.
    if variant == "no_stage1":
        simulator = make_simulator(seed=0)
    else:
        simulator = _make_augmented_simulator(seed=0)
    real_network = make_real_network(seed=80 + index)
    if variant == "no_stage2":
        policy = _uninformed_policy(simulator, sla, seed=index)
    else:
        policy = OfflineConfigurationTrainer(
            simulator=simulator,
            sla=sla,
            traffic=1,
            config=offline_training_config(scale, scale.measurement_duration_s, index),
        ).run().policy

    if variant != "no_stage3":
        run = OnlineConfigurationLearner(
            offline_policy=policy,
            simulator=simulator,
            real_network=real_network,
            sla=sla,
            traffic=1,
            config=_online_config(scale, seed=index),
        ).run()
        return MethodOnlineRun.from_result(variant, run)
    # Without online learning the offline best action is applied
    # repeatedly; the repeats go out as one engine batch.
    requests = [
        MeasurementRequest(
            config=policy.best_config,
            traffic=1,
            duration=scale.measurement_duration_s,
            seed=iteration,
        )
        for iteration in range(scale.stage3_iterations)
    ]
    tracker = RegretTracker(qoe_requirement=sla.availability)
    for measurement in MeasurementEngine(real_network).run_batch(requests):
        tracker.record(policy.best_config.resource_usage(), measurement.qoe(sla.latency_threshold_ms))
    tracker.set_optimum_from_best()
    return MethodOnlineRun(
        method=variant,
        usages=np.array(tracker.usages),
        qoes=np.array(tracker.qoes),
        average_usage_regret=tracker.average_usage_regret(),
        average_qoe_regret=tracker.average_qoe_regret(),
        sla_violation_rate=float(np.mean([not sla.is_satisfied_by(qoe) for qoe in tracker.qoes])),
    )


def fig24_stage_ablation(
    scale: ExperimentScale | None = None,
    sla: SLA | None = None,
    variants: tuple[str, ...] = _STAGE_ABLATION_VARIANTS,
) -> OnlineComparisonResult:
    """Reproduce Fig. 24: the impact of removing each of Atlas' three stages.

    Each variant is one job, seeded by its position in the default
    ``variants``, and builds its own simulator and offline policy.
    """
    scale = scale if scale is not None else get_scale()
    sla = sla if sla is not None else default_sla()
    _check_names(variants, _STAGE_ABLATION_VARIANTS, "variant")
    runs = fork_map(lambda variant: _stage_ablation_job(scale, sla, variant), variants)
    return OnlineComparisonResult(runs=dict(zip(variants, runs)), qoe_requirement=sla.availability)


# ------------------------------------------------------------- Figs. 25 and 26
@dataclass
class DynamicTrafficResult:
    """Average regrets under different user traffic (Figs. 25–26)."""

    traffic_levels: list[int]
    usage_regret: dict[str, list[float]] = field(default_factory=dict)
    qoe_regret: dict[str, list[float]] = field(default_factory=dict)


def fig25_26_dynamic_traffic(
    scale: ExperimentScale | None = None,
    traffic_levels: tuple[int, ...] = (2, 3, 4),
    methods: tuple[str, ...] = ONLINE_METHODS,
    threshold_ms: float = 500.0,
) -> DynamicTrafficResult:
    """Reproduce Figs. 25–26: online regrets under dynamic traffic (Y = 500 ms).

    Every (traffic level, method) pair is one job of one pool, run as in
    Figs. 20–21; each traffic level then has its own hindsight optimum.
    """
    scale = scale if scale is not None else get_scale()
    sla = default_sla(threshold_ms=threshold_ms)
    _check_names(methods, ONLINE_METHODS, "online method")
    jobs = [(traffic, method) for traffic in traffic_levels for method in methods]
    runs = fork_map(lambda job: _comparison_job(scale, sla, None, *job), jobs)
    result = DynamicTrafficResult(
        traffic_levels=list(traffic_levels),
        usage_regret={method: [] for method in methods},
        qoe_regret={method: [] for method in methods},
    )
    for _ in traffic_levels:
        comparison = OnlineComparisonResult(
            runs={method: next(runs) for method in methods}, qoe_requirement=sla.availability
        )
        comparison.recompute_regrets()
        for method in methods:
            result.usage_regret[method].append(comparison.runs[method].average_usage_regret)
            result.qoe_regret[method].append(comparison.runs[method].average_qoe_regret)
    return result

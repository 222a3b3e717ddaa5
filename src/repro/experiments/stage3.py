"""Stage-3 evaluation experiments (Sec. 8.3): Figs. 20–26 and Table 5.

The online learning experiments compare Atlas against the Baseline (direct
GP-EI Bayesian optimisation), VirtualEdge and DLDA on the real network, and
ablate Atlas' own components: the acquisition function (Fig. 22), the online
approximation function (Fig. 23) and the three stages themselves (Fig. 24).
Atlas' stages take their configurations from
:func:`repro.core.atlas.offline_training_config` and
:func:`repro.core.atlas.online_learning_config`, with simulator queries of
at least 10 s.
"""

from __future__ import annotations

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
from repro.experiments.scale import ExperimentScale, get_scale
from repro.experiments.scenarios import (
    default_deployed_config,
    default_sla,
    make_real_network,
    make_simulator,
)
from repro.experiments.stage2 import _make_augmented_simulator
from repro.models.bnn import BayesianNeuralNetwork
from repro.prototype.slice_manager import SLA
from repro.sim.network import NetworkSimulator

__all__ = [
    "MethodOnlineRun",
    "OnlineComparisonResult",
    "fig20_21_table5_online_comparison",
    "AcquisitionAblationResult",
    "fig22_acquisition_ablation",
    "ModelAblationResult",
    "fig23_online_model_ablation",
    "StageAblationResult",
    "fig24_stage_ablation",
    "DynamicTrafficResult",
    "fig25_26_dynamic_traffic",
    "train_offline_policy",
]


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


# --------------------------------------------------- Figs. 20–21 and Table 5
@dataclass
class MethodOnlineRun:
    """Per-iteration usage/QoE and average regrets of one online method."""

    method: str
    usages: np.ndarray
    qoes: np.ndarray
    average_usage_regret: float
    average_qoe_regret: float
    sla_violation_rate: float


@dataclass
class OnlineComparisonResult:
    """Outcome of the Figs. 20–21 / Table 5 comparison.

    The regrets of Eqs. 10–11 are defined against the optimal policy
    ``phi*``; as in the paper, the best SLA-satisfying configuration observed
    across the compared methods within the online horizon stands in for it,
    so every method is measured against the *same* reference.
    """

    runs: dict[str, MethodOnlineRun] = field(default_factory=dict)
    qoe_requirement: float = 0.9
    optimal_usage: float = 0.0
    optimal_qoe: float = 1.0

    def recompute_regrets(self) -> None:
        """Determine the common hindsight optimum and recompute every method's regrets."""
        best_usage, best_qoe = None, None
        for run in self.runs.values():
            feasible = run.qoes >= self.qoe_requirement
            if feasible.any():
                usages = run.usages[feasible]
                qoes = run.qoes[feasible]
                index = int(np.argmin(usages))
                if best_usage is None or usages[index] < best_usage:
                    best_usage, best_qoe = float(usages[index]), float(qoes[index])
        if best_usage is None:
            # No method ever met the SLA: fall back to the highest-QoE point.
            all_points = [
                (u, q) for run in self.runs.values() for u, q in zip(run.usages, run.qoes)
            ]
            best_usage, best_qoe = min(all_points, key=lambda p: -p[1])
        self.optimal_usage, self.optimal_qoe = best_usage, best_qoe
        for run in self.runs.values():
            run.average_usage_regret = float(np.mean(run.usages - self.optimal_usage))
            run.average_qoe_regret = float(np.mean(np.maximum(self.optimal_qoe - run.qoes, 0.0)))

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


def _record_run(name: str, usages, qoes, usage_regret, qoe_regret, violation_rate) -> MethodOnlineRun:
    return MethodOnlineRun(
        method=name,
        usages=np.asarray(usages, dtype=float),
        qoes=np.asarray(qoes, dtype=float),
        average_usage_regret=float(usage_regret),
        average_qoe_regret=float(qoe_regret),
        sla_violation_rate=float(violation_rate),
    )


def fig20_21_table5_online_comparison(
    scale: ExperimentScale | None = None,
    sla: SLA | None = None,
    traffic: int = 1,
    methods: tuple[str, ...] = ("ours", "baseline", "virtualedge", "dlda"),
    offline_policy: OfflinePolicy | None = None,
) -> OnlineComparisonResult:
    """Reproduce Figs. 20–21 and Table 5: online learning on the real network."""
    scale = scale if scale is not None else get_scale()
    sla = sla if sla is not None else default_sla()
    result = OnlineComparisonResult(qoe_requirement=sla.availability)
    simulator = _make_augmented_simulator()
    if offline_policy is None and ("ours" in methods):
        offline_policy = train_offline_policy(scale, sla, traffic=traffic)

    for method in methods:
        real_network = make_real_network(seed=10 + hash(method) % 50, traffic=traffic)
        if method == "ours":
            learner = OnlineConfigurationLearner(
                offline_policy=offline_policy,
                simulator=simulator,
                real_network=real_network,
                sla=sla,
                traffic=traffic,
                config=_online_config(scale),
            )
            run = learner.run()
            result.runs[method] = _record_run(
                "Ours",
                run.usages(),
                run.qoes(),
                run.average_usage_regret(),
                run.average_qoe_regret(),
                run.sla_violation_rate(),
            )
        elif method == "baseline":
            optimizer = GPConfigurationOptimizer(
                environment=real_network,
                sla=sla,
                traffic=traffic,
                config=GPOptimizerConfig(
                    iterations=scale.stage3_iterations,
                    initial_random=max(3, scale.stage3_iterations // 4),
                    candidate_pool=scale.stage3_candidate_pool,
                    measurement_duration_s=scale.measurement_duration_s,
                    seed=11,
                ),
            )
            run = optimizer.run()
            result.runs[method] = _record_run(
                "Baseline",
                run.usages(),
                run.qoes(),
                run.average_usage_regret(),
                run.average_qoe_regret(),
                run.sla_violation_rate(),
            )
        elif method == "virtualedge":
            learner = VirtualEdge(
                environment=real_network,
                sla=sla,
                traffic=traffic,
                config=VirtualEdgeConfig(
                    iterations=scale.stage3_iterations,
                    measurement_duration_s=scale.measurement_duration_s,
                    seed=12,
                ),
            )
            run = learner.run()
            result.runs[method] = _record_run(
                "VirtualEdge",
                run.usages(),
                run.qoes(),
                run.average_usage_regret(),
                run.average_qoe_regret(),
                run.sla_violation_rate(),
            )
        elif method == "dlda":
            # DLDA has no learning-based simulator stage: its offline grid
            # dataset comes from the original (un-augmented) simulator.
            dlda = DLDA(
                simulator=make_simulator(seed=0, traffic=traffic),
                sla=sla,
                traffic=traffic,
                config=DLDAConfig(
                    grid_points_per_dim=scale.dlda_grid_points,
                    selection_pool=scale.dlda_selection_pool,
                    online_iterations=scale.stage3_iterations,
                    measurement_duration_s=scale.measurement_duration_s,
                    seed=13,
                ),
            )
            run = dlda.run_online(real_network, iterations=scale.stage3_iterations)
            result.runs[method] = _record_run(
                "DLDA",
                run.usages(),
                run.qoes(),
                run.average_usage_regret(),
                run.average_qoe_regret(),
                run.sla_violation_rate(),
            )
        else:
            raise ValueError(f"unknown online method {method!r}")
    result.recompute_regrets()
    return result


# --------------------------------------------------------------------- Fig. 22
@dataclass
class AcquisitionAblationResult:
    """Footprint of Atlas under different acquisition functions (Fig. 22)."""

    footprints: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    qoe_requirement: float = 0.9

    def violation_rate(self, acquisition: str) -> float:
        """Fraction of explored configurations violating the QoE requirement."""
        qoes = self.footprints[acquisition]["qoe"]
        if qoes.size == 0:
            return 0.0
        return float(np.mean(qoes < self.qoe_requirement))


def fig22_acquisition_ablation(
    scale: ExperimentScale | None = None,
    sla: SLA | None = None,
    acquisitions: tuple[str, ...] = ("crgp_ucb", "gp_ucb", "ei", "pi"),
    offline_policy: OfflinePolicy | None = None,
) -> AcquisitionAblationResult:
    """Reproduce Fig. 22: cRGP-UCB explores more safely than EI/PI/GP-UCB."""
    scale = scale if scale is not None else get_scale()
    sla = sla if sla is not None else default_sla()
    simulator = _make_augmented_simulator()
    if offline_policy is None:
        offline_policy = train_offline_policy(scale, sla)
    result = AcquisitionAblationResult(qoe_requirement=sla.availability)
    for index, acquisition in enumerate(acquisitions):
        real_network = make_real_network(seed=60 + index)
        learner = OnlineConfigurationLearner(
            offline_policy=offline_policy,
            simulator=simulator,
            real_network=real_network,
            sla=sla,
            config=_online_config(scale, seed=index, acquisition=acquisition),
        )
        run = learner.run()
        result.footprints[acquisition] = {"usage": run.usages(), "qoe": run.qoes()}
    return result


# --------------------------------------------------------------------- Fig. 23
@dataclass
class ModelAblationResult:
    """Regret of Atlas under different online approximation functions (Fig. 23)."""

    regrets: dict[str, dict[str, float]] = field(default_factory=dict)


def fig23_online_model_ablation(
    scale: ExperimentScale | None = None,
    sla: SLA | None = None,
    variants: tuple[str, ...] = ("ours", "bnn", "bnn_contd", "no_offline_acceleration"),
    offline_policy: OfflinePolicy | None = None,
) -> ModelAblationResult:
    """Reproduce Fig. 23: GP residual + offline acceleration beats the alternatives."""
    scale = scale if scale is not None else get_scale()
    sla = sla if sla is not None else default_sla()
    simulator = _make_augmented_simulator()
    if offline_policy is None:
        offline_policy = train_offline_policy(scale, sla)
    result = ModelAblationResult()
    for index, variant in enumerate(variants):
        overrides: dict = {}
        if variant == "ours":
            pass
        elif variant == "bnn":
            overrides["residual_model"] = "bnn"
        elif variant == "bnn_contd":
            overrides["residual_model"] = "bnn_contd"
        elif variant == "no_offline_acceleration":
            overrides["offline_acceleration"] = False
        else:
            raise ValueError(f"unknown variant {variant!r}")
        real_network = make_real_network(seed=70 + index)
        learner = OnlineConfigurationLearner(
            offline_policy=offline_policy,
            simulator=simulator,
            real_network=real_network,
            sla=sla,
            config=_online_config(scale, seed=index, **overrides),
        )
        run = learner.run()
        result.regrets[variant] = {
            "avg_usage_regret": run.average_usage_regret(),
            "avg_qoe_regret": run.average_qoe_regret(),
            "sla_violation_rate": run.sla_violation_rate(),
        }
    return result


# --------------------------------------------------------------------- Fig. 24
@dataclass
class StageAblationResult:
    """Footprint of Atlas when individual stages are removed (Fig. 24)."""

    footprints: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)
    mean_qoe: dict[str, float] = field(default_factory=dict)
    mean_usage: dict[str, float] = field(default_factory=dict)


def fig24_stage_ablation(
    scale: ExperimentScale | None = None,
    sla: SLA | None = None,
    variants: tuple[str, ...] = ("ours", "no_stage1", "no_stage2", "no_stage3"),
) -> StageAblationResult:
    """Reproduce Fig. 24: the impact of removing each of Atlas' three stages."""
    scale = scale if scale is not None else get_scale()
    sla = sla if sla is not None else default_sla()
    result = StageAblationResult()

    for index, variant in enumerate(variants):
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
            usages = run.usages()
            qoes = run.qoes()
        else:
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
            measurements = MeasurementEngine(real_network).run_batch(requests)
            usages = np.array(
                [policy.best_config.resource_usage() for _ in measurements]
            )
            qoes = np.array([m.qoe(sla.latency_threshold_ms) for m in measurements])

        result.footprints[variant] = {"usage": np.asarray(usages), "qoe": np.asarray(qoes)}
        result.mean_qoe[variant] = float(np.mean(qoes)) if len(qoes) else 0.0
        result.mean_usage[variant] = float(np.mean(usages)) if len(usages) else 0.0
    return result


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
    methods: tuple[str, ...] = ("ours", "baseline", "virtualedge", "dlda"),
    threshold_ms: float = 500.0,
) -> DynamicTrafficResult:
    """Reproduce Figs. 25–26: online regrets under dynamic traffic (Y = 500 ms)."""
    scale = scale if scale is not None else get_scale()
    result = DynamicTrafficResult(traffic_levels=list(traffic_levels))
    for method in methods:
        result.usage_regret[method] = []
        result.qoe_regret[method] = []
    for traffic in traffic_levels:
        sla = default_sla(threshold_ms=threshold_ms)
        comparison = fig20_21_table5_online_comparison(
            scale=scale, sla=sla, traffic=traffic, methods=methods
        )
        for method in methods:
            run = comparison.runs[method]
            result.usage_regret[method].append(run.average_usage_regret)
            result.qoe_regret[method].append(run.average_qoe_regret)
    return result

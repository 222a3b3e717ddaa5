"""Stage-2 evaluation experiments (Sec. 8.2): Figs. 16–19.

All runners train configuration policies purely offline, i.e. against the
(augmented) simulator, and compare Atlas' BNN + parallel-Thompson-sampling
trainer with GP-based Bayesian optimisation (EI/PI/UCB acquisitions) and
DLDA's grid-trained DNN.  Atlas' trainer takes its configuration from
:func:`repro.core.atlas.offline_training_config`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.dlda import DLDA, DLDAConfig
from repro.baselines.gp_bo import GPConfigurationOptimizer, GPOptimizerConfig
from repro.core.atlas import offline_training_config
from repro.core.offline_training import OfflineConfigurationTrainer, OfflineTrainingResult
from repro.engine import MeasurementEngine
from repro.experiments.scale import ExperimentScale, get_scale
from repro.experiments.scenarios import default_sla, make_simulator
from repro.prototype.slice_manager import SLA
from repro.sim.config import SliceConfig
from repro.sim.network import NetworkSimulator
from repro.sim.parameters import SimulationParameters

__all__ = [
    "fig16_offline_progress",
    "OfflineMethodPoint",
    "fig17_offline_comparison",
    "ParetoAvailabilityResult",
    "fig18_pareto_availability",
    "ThresholdSweepResult",
    "fig19_threshold_sweep",
]


def _make_augmented_simulator(seed: int = 0) -> NetworkSimulator:
    """The augmented simulator used by the offline experiments.

    Stage 2's experiments assume stage 1 already ran; to keep each figure's
    runner independent (and affordable), the simulator here uses parameters
    close to the hidden ground truth, i.e. what a completed stage-1 search
    recovers (see Table 4 and :func:`repro.prototype.testbed.default_ground_truth`).
    """
    augmented = SimulationParameters(
        baseline_loss=38.8,
        enb_noise_figure=1.5,
        ue_noise_figure=9.0,
        backhaul_bw=4.5,
        backhaul_delay=8.0,
        compute_time=3.0,
        loading_time=5.0,
    )
    return make_simulator(seed=seed).with_params(augmented)


# --------------------------------------------------------------------- Fig. 16
def fig16_offline_progress(
    scale: ExperimentScale | None = None, sla: SLA | None = None
) -> OfflineTrainingResult:
    """Reproduce Fig. 16: offline training progress (usage and QoE per iteration)."""
    scale = scale if scale is not None else get_scale()
    sla = sla if sla is not None else default_sla()
    trainer = OfflineConfigurationTrainer(
        simulator=_make_augmented_simulator(),
        sla=sla,
        traffic=1,
        config=offline_training_config(scale, scale.measurement_duration_s, 0),
    )
    return trainer.run()


# --------------------------------------------------------------------- Fig. 17
@dataclass(frozen=True)
class OfflineMethodPoint:
    """Best offline policy of one method: its QoE and resource usage (Fig. 17)."""

    method: str
    qoe: float
    resource_usage: float
    config: tuple[float, ...]


def _evaluate_config(
    engine: MeasurementEngine, config: SliceConfig, sla: SLA, scale: ExperimentScale, seed: int
) -> tuple[float, float]:
    # The engine's shared cache makes the repeated per-method evaluations of
    # the Fig. 18/19 sweeps free when the winning configuration repeats.
    result = engine.run(config, traffic=1, duration=scale.measurement_duration_s, seed=seed)
    return result.qoe(sla.latency_threshold_ms), config.resource_usage()


def fig17_offline_comparison(
    scale: ExperimentScale | None = None,
    sla: SLA | None = None,
    methods: tuple[str, ...] = ("ours", "gp-ei", "gp-pi", "gp-ucb", "dlda"),
) -> list[OfflineMethodPoint]:
    """Reproduce Fig. 17: QoE vs resource usage of the best policy per method."""
    scale = scale if scale is not None else get_scale()
    sla = sla if sla is not None else default_sla()
    simulator = _make_augmented_simulator()
    engine = MeasurementEngine(simulator)
    points: list[OfflineMethodPoint] = []

    for method in methods:
        if method == "ours":
            trainer = OfflineConfigurationTrainer(
                simulator=simulator,
                sla=sla,
                traffic=1,
                config=offline_training_config(scale, scale.measurement_duration_s, 0),
            )
            policy = trainer.run().policy
            best_config = policy.best_config
        elif method.startswith("gp-"):
            acquisition = method.split("-", 1)[1]
            optimizer = GPConfigurationOptimizer(
                environment=simulator,
                sla=sla,
                traffic=1,
                config=GPOptimizerConfig(
                    iterations=scale.stage2_iterations,
                    initial_random=scale.stage2_initial_random,
                    candidate_pool=scale.stage2_candidate_pool,
                    acquisition=acquisition,
                    measurement_duration_s=scale.measurement_duration_s,
                    seed=1,
                ),
            )
            run = optimizer.run()
            best = run.best_feasible()
            best_config = (
                best.to_slice_config() if best is not None else run.history[-1].to_slice_config()
            )
        elif method == "dlda":
            dlda = DLDA(
                simulator=simulator,
                sla=sla,
                traffic=1,
                config=DLDAConfig(
                    grid_points_per_dim=scale.dlda_grid_points,
                    selection_pool=scale.dlda_selection_pool,
                    measurement_duration_s=scale.measurement_duration_s,
                    seed=2,
                ),
            )
            dlda.train_offline()
            best_config = dlda.best_offline_config()
        else:
            raise ValueError(f"unknown offline method {method!r}")

        qoe, usage = _evaluate_config(engine, best_config, sla, scale, seed=99)
        points.append(
            OfflineMethodPoint(
                method=method, qoe=qoe, resource_usage=usage, config=tuple(best_config.to_array())
            )
        )
    return points


# --------------------------------------------------------------------- Fig. 18
@dataclass
class ParetoAvailabilityResult:
    """Pareto boundary of QoE requirement vs resource usage per method (Fig. 18)."""

    availabilities: list[float]
    points: dict[str, list[OfflineMethodPoint]] = field(default_factory=dict)


def fig18_pareto_availability(
    scale: ExperimentScale | None = None,
    availabilities: tuple[float, ...] = (0.7, 0.8, 0.9),
    methods: tuple[str, ...] = ("ours", "gp-ei", "dlda"),
) -> ParetoAvailabilityResult:
    """Reproduce Fig. 18: Pareto boundary obtained by varying the availability ``E``."""
    scale = scale if scale is not None else get_scale()
    result = ParetoAvailabilityResult(availabilities=list(availabilities))
    for method in methods:
        result.points[method] = []
        for availability in availabilities:
            sla = default_sla(availability=availability)
            point = fig17_offline_comparison(scale=scale, sla=sla, methods=(method,))[0]
            result.points[method].append(point)
    return result


# --------------------------------------------------------------------- Fig. 19
@dataclass
class ThresholdSweepResult:
    """Average resource usage under different latency thresholds ``Y`` (Fig. 19)."""

    thresholds_ms: list[float]
    usage: dict[str, list[float]] = field(default_factory=dict)
    qoe: dict[str, list[float]] = field(default_factory=dict)


def fig19_threshold_sweep(
    scale: ExperimentScale | None = None,
    thresholds_ms: tuple[float, ...] = (300.0, 400.0, 500.0),
    methods: tuple[str, ...] = ("ours", "dlda"),
) -> ThresholdSweepResult:
    """Reproduce Fig. 19: resource usage of the best policies under looser thresholds."""
    scale = scale if scale is not None else get_scale()
    result = ThresholdSweepResult(thresholds_ms=list(thresholds_ms))
    for method in methods:
        result.usage[method] = []
        result.qoe[method] = []
        for threshold in thresholds_ms:
            sla = default_sla(threshold_ms=threshold)
            point = fig17_offline_comparison(scale=scale, sla=sla, methods=(method,))[0]
            result.usage[method].append(point.resource_usage)
            result.qoe[method].append(point.qoe)
    return result

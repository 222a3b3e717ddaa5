"""Stage-1 evaluation experiments (Sec. 8.1): Fig. 8/Table 4 through Fig. 15.

All runners share the same structure: collect the online dataset ``D_r`` from
the real network under the deployed configuration, search the simulation
parameters with the requested method, and evaluate the resulting augmented
simulator.  Every search's configuration comes from
:func:`repro.core.atlas.parameter_search_config`, measuring at least 30 s
per query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.atlas import parameter_search_config
from repro.core.simulator_learning import ParameterSearchResult, SimulatorParameterSearch
from repro.core.spaces import SimulationParameterSpace
from repro.engine import MeasurementEngine, MeasurementRequest
from repro.experiments.scale import ExperimentScale, get_scale
from repro.experiments.scenarios import (
    collect_online_dataset,
    default_deployed_config,
    make_real_network,
    make_simulator,
)
from repro.metrics.kl import histogram_kl_divergence
from repro.prototype.slice_manager import SLA, NetworkSlice, SliceManager
from repro.sim.parameters import SimulationParameters

__all__ = [
    "ParameterSearchComparison",
    "fig8_table4_parameter_search",
    "fig9_latency_cdf_methods",
    "MobilityDiscrepancyResult",
    "fig10_mobility_discrepancy",
    "IsolationResult",
    "fig11_isolation",
    "ParetoAlphaResult",
    "fig12_pareto_alpha",
    "ParallelQueriesResult",
    "fig13_parallel_queries",
    "DiscrepancyReductionResult",
    "fig14_discrepancy_under_traffic",
    "fig15_discrepancy_under_resources",
]


def _search_duration(scale: ExperimentScale) -> float:
    """Stage-1 measurements need enough samples for a stable KL estimate.

    The figures measure at least 30 s where ``python -m repro run`` measures
    the scale's duration; the figures' outputs rest on this value.
    """
    return max(scale.measurement_duration_s, 30.0)


def _run_search(
    scale: ExperimentScale,
    surrogate: str = "bnn",
    real_collection: np.ndarray | None = None,
    seed: int = 0,
    **config_overrides,
) -> ParameterSearchResult:
    simulator = make_simulator(seed=0)
    if real_collection is None:
        real_network = make_real_network(seed=1)
        real_collection = collect_online_dataset(
            real_network, runs=scale.motivation_runs, duration_s=_search_duration(scale)
        )
    search = SimulatorParameterSearch(
        simulator=simulator,
        real_collection=real_collection,
        deployed_config=default_deployed_config(),
        space=SimulationParameterSpace(),
        config=parameter_search_config(
            scale, _search_duration(scale), seed, surrogate=surrogate, **config_overrides
        ),
    )
    return search.run()


# ------------------------------------------------------------ Fig. 8 / Table 4
@dataclass
class ParameterSearchComparison:
    """Stage-1 comparison of the BNN-PTS search ("ours") vs the GP search."""

    ours: ParameterSearchResult
    gp: ParameterSearchResult

    def table4_rows(self) -> list[dict]:
        """The rows of Table 4: original simulator, GP search, our search."""
        original = SimulationParameters.defaults()
        return [
            {
                "method": "Original Simulator",
                "discrepancy": self.ours.original_discrepancy,
                "parameter_distance": 0.0,
                "parameters": tuple(original.to_array()),
            },
            {
                "method": "Aug. Simulator, GP",
                "discrepancy": self.gp.best_discrepancy,
                "parameter_distance": self.gp.best_distance,
                "parameters": tuple(self.gp.best_parameters.to_array()),
            },
            {
                "method": "Aug. Simulator, Ours",
                "discrepancy": self.ours.best_discrepancy,
                "parameter_distance": self.ours.best_distance,
                "parameters": tuple(self.ours.best_parameters.to_array()),
            },
        ]


def fig8_table4_parameter_search(scale: ExperimentScale | None = None) -> ParameterSearchComparison:
    """Reproduce Fig. 8 and Table 4: searching progress and best parameters."""
    scale = scale if scale is not None else get_scale()
    real_network = make_real_network(seed=1)
    real_collection = collect_online_dataset(
        real_network, runs=scale.motivation_runs, duration_s=_search_duration(scale)
    )
    ours = _run_search(scale, surrogate="bnn", real_collection=real_collection)
    gp = _run_search(scale, surrogate="gp", real_collection=real_collection)
    return ParameterSearchComparison(ours=ours, gp=gp)


# ---------------------------------------------------------------------- Fig. 9
@dataclass
class LatencyCdfMethodsResult:
    """Latency collections of the system and of the augmented simulators (Fig. 9)."""

    system: np.ndarray
    augmented_ours: np.ndarray
    augmented_gp: np.ndarray

    def discrepancy(self, which: str) -> float:
        """KL divergence of the chosen augmented simulator against the system."""
        collection = self.augmented_ours if which == "ours" else self.augmented_gp
        return histogram_kl_divergence(self.system, collection)


def fig9_latency_cdf_methods(
    comparison: ParameterSearchComparison | None = None,
    scale: ExperimentScale | None = None,
) -> LatencyCdfMethodsResult:
    """Reproduce Fig. 9: latency CDFs under the best parameters of each method."""
    scale = scale if scale is not None else get_scale()
    if comparison is None:
        comparison = fig8_table4_parameter_search(scale)
    config = default_deployed_config()
    sys_engine = MeasurementEngine(make_real_network(seed=5))
    sim_engine = MeasurementEngine(make_simulator(seed=0))
    system_latencies = sys_engine.collect_latencies(
        config, traffic=1, duration=scale.measurement_duration_s, seed=7
    )
    # Both augmented simulators are parameter overrides of one base
    # simulator, so they go out as a single two-request batch.
    ours_latencies, gp_latencies = sim_engine.collect_latencies_batch(
        [
            MeasurementRequest(
                config=config,
                traffic=1,
                duration=scale.measurement_duration_s,
                seed=7,
                params=best,
            )
            for best in (comparison.ours.best_parameters, comparison.gp.best_parameters)
        ]
    )
    return LatencyCdfMethodsResult(
        system=system_latencies, augmented_ours=ours_latencies, augmented_gp=gp_latencies
    )


# --------------------------------------------------------------------- Fig. 10
@dataclass
class MobilityDiscrepancyResult:
    """Sim-to-real discrepancy under different UE–eNB distances (Fig. 10)."""

    distances: list
    discrepancies: list[float]


def fig10_mobility_discrepancy(
    scale: ExperimentScale | None = None,
    distances: tuple = (1.0, 3.0, 5.0, 7.0, 10.0, "random"),
) -> MobilityDiscrepancyResult:
    """Reproduce Fig. 10: discrepancy under user mobility (distance sweep + random walk)."""
    scale = scale if scale is not None else get_scale()
    config = default_deployed_config()
    discrepancies = []
    for index, distance in enumerate(distances):
        if distance == "random":
            scenario_kwargs = {"distance_m": 5.0, "mobility": "random_walk"}
        else:
            scenario_kwargs = {"distance_m": float(distance), "mobility": "static"}
        # Each distance is a different scenario, i.e. a different environment
        # pair; the engines still give the queries caching + uniform execution.
        sim_engine = MeasurementEngine(make_simulator(seed=0, **scenario_kwargs))
        sys_engine = MeasurementEngine(make_real_network(seed=1, **scenario_kwargs))
        sim_latencies = sim_engine.collect_latencies(
            config, traffic=1, duration=scale.measurement_duration_s, seed=20 + index
        )
        sys_latencies = sys_engine.collect_latencies(
            config, traffic=1, duration=scale.measurement_duration_s, seed=20 + index
        )
        discrepancies.append(histogram_kl_divergence(sys_latencies, sim_latencies))
    return MobilityDiscrepancyResult(distances=list(distances), discrepancies=discrepancies)


# --------------------------------------------------------------------- Fig. 11
@dataclass
class IsolationResult:
    """Slice latency under extra background users (Fig. 11)."""

    extra_users: list[int]
    mean_latencies_ms: list[float]
    qoes: list[float]

    def max_latency_shift(self) -> float:
        """Largest relative change of the slice's mean latency across user counts."""
        base = self.mean_latencies_ms[0]
        return float(max(abs(v - base) / base for v in self.mean_latencies_ms))


def fig11_isolation(
    scale: ExperimentScale | None = None, extra_users: tuple[int, ...] = (0, 1, 2)
) -> IsolationResult:
    """Reproduce Fig. 11: slice latency stays stable as background users come and go."""
    scale = scale if scale is not None else get_scale()
    sla = SLA()
    network = make_real_network(seed=6)
    manager = SliceManager(network)
    manager.admit(NetworkSlice(name="slice-0", sla=sla, config=default_deployed_config(), traffic=1))
    latencies, qoes = [], []
    for count in extra_users:
        manager.attach_background_users(count)
        result, qoe, _ = manager.measure_slice(
            "slice-0", duration=scale.measurement_duration_s, seed=30 + count
        )
        latencies.append(result.mean_latency_ms)
        qoes.append(qoe)
    return IsolationResult(extra_users=list(extra_users), mean_latencies_ms=latencies, qoes=qoes)


# --------------------------------------------------------------------- Fig. 12
@dataclass
class ParetoAlphaResult:
    """Pareto boundary of discrepancy vs parameter distance under varying α (Fig. 12)."""

    alphas: list[float]
    discrepancies: list[float]
    distances: list[float]


def fig12_pareto_alpha(
    scale: ExperimentScale | None = None, alphas: tuple[float, ...] = (1.0, 4.0, 7.0, 12.0)
) -> ParetoAlphaResult:
    """Reproduce Fig. 12: the α weight trades discrepancy against parameter distance."""
    scale = scale if scale is not None else get_scale()
    real_network = make_real_network(seed=1)
    real_collection = collect_online_dataset(
        real_network, runs=scale.motivation_runs, duration_s=_search_duration(scale)
    )
    discrepancies, distances = [], []
    for index, alpha in enumerate(alphas):
        result = _run_search(
            scale, surrogate="bnn", real_collection=real_collection, alpha=alpha, seed=index
        )
        discrepancies.append(result.best_discrepancy)
        distances.append(result.best_distance)
    return ParetoAlphaResult(alphas=list(alphas), discrepancies=discrepancies, distances=distances)


# --------------------------------------------------------------------- Fig. 13
@dataclass
class ParallelQueriesResult:
    """Searching progress under different numbers of parallel queries (Fig. 13)."""

    parallel_counts: list[int]
    progress_curves: dict[int, np.ndarray] = field(default_factory=dict)
    best_weighted: dict[int, float] = field(default_factory=dict)


def fig13_parallel_queries(
    scale: ExperimentScale | None = None, parallel_counts: tuple[int, ...] = (1, 2, 4, 8)
) -> ParallelQueriesResult:
    """Reproduce Fig. 13: more parallel Thompson-sampling queries converge better."""
    scale = scale if scale is not None else get_scale()
    real_network = make_real_network(seed=1)
    real_collection = collect_online_dataset(
        real_network, runs=scale.motivation_runs, duration_s=_search_duration(scale)
    )
    result = ParallelQueriesResult(parallel_counts=list(parallel_counts))
    for count in parallel_counts:
        search_result = _run_search(
            scale,
            surrogate="bnn",
            real_collection=real_collection,
            parallel_queries=count,
            candidate_pool=max(scale.stage1_candidate_pool, count * 10),
        )
        result.progress_curves[count] = search_result.best_so_far()
        result.best_weighted[count] = search_result.best_weighted_discrepancy
    return result


# ------------------------------------------------------------- Figs. 14 and 15
@dataclass
class DiscrepancyReductionResult:
    """Discrepancy of the original vs augmented simulator over scenarios (Figs. 14–15)."""

    labels: list
    original: list[float]
    augmented: list[float]

    def reductions(self) -> np.ndarray:
        """Fractional reduction (1 means the discrepancy vanished) per scenario."""
        original = np.asarray(self.original)
        augmented = np.asarray(self.augmented)
        with np.errstate(divide="ignore", invalid="ignore"):
            reduction = 1.0 - augmented / original
        return np.nan_to_num(reduction, nan=0.0, posinf=0.0, neginf=0.0)


def fig14_discrepancy_under_traffic(
    best_parameters: SimulationParameters,
    scale: ExperimentScale | None = None,
    traffic_levels: tuple[int, ...] = (1, 2, 3, 4),
) -> DiscrepancyReductionResult:
    """Reproduce Fig. 14: discrepancy reduction across traffic levels.

    The best parameters are derived from traffic level 1 only (as in the
    paper) and then applied to every traffic level.
    """
    scale = scale if scale is not None else get_scale()
    config = default_deployed_config()
    sys_engine = MeasurementEngine(make_real_network(seed=1))
    sim_engine = MeasurementEngine(make_simulator(seed=0))

    def requests(params: SimulationParameters | None) -> list[MeasurementRequest]:
        return [
            MeasurementRequest(
                config=config,
                traffic=traffic,
                duration=scale.measurement_duration_s,
                seed=40 + traffic,
                params=params,
            )
            for traffic in traffic_levels
        ]

    sys_collections = sys_engine.collect_latencies_batch(requests(None))
    orig_collections = sim_engine.collect_latencies_batch(requests(None))
    aug_collections = sim_engine.collect_latencies_batch(requests(best_parameters))
    original = [
        histogram_kl_divergence(sys_latencies, orig_latencies)
        for sys_latencies, orig_latencies in zip(sys_collections, orig_collections)
    ]
    augmented = [
        histogram_kl_divergence(sys_latencies, aug_latencies)
        for sys_latencies, aug_latencies in zip(sys_collections, aug_collections)
    ]
    return DiscrepancyReductionResult(
        labels=list(traffic_levels), original=original, augmented=augmented
    )


def fig15_discrepancy_under_resources(
    best_parameters: SimulationParameters,
    scale: ExperimentScale | None = None,
) -> DiscrepancyReductionResult:
    """Reproduce Fig. 15: discrepancy reduction over the CPU × UL-bandwidth grid."""
    scale = scale if scale is not None else get_scale()
    sys_engine = MeasurementEngine(make_real_network(seed=1))
    sim_engine = MeasurementEngine(make_simulator(seed=0))
    levels = np.linspace(0.1, 0.9, scale.heatmap_resolution)
    base = default_deployed_config()
    labels, cells = [], []
    for i, ul_fraction in enumerate(levels):
        for j, cpu_fraction in enumerate(levels):
            labels.append((round(float(ul_fraction), 2), round(float(cpu_fraction), 2)))
            cells.append(
                (
                    base.replace(
                        cpu_ratio=float(cpu_fraction), bandwidth_ul=float(50.0 * ul_fraction)
                    ),
                    300 + i * len(levels) + j,
                )
            )

    def requests(params: SimulationParameters | None) -> list[MeasurementRequest]:
        return [
            MeasurementRequest(
                config=config,
                traffic=1,
                duration=scale.measurement_duration_s,
                seed=seed,
                params=params,
            )
            for config, seed in cells
        ]

    sys_collections = sys_engine.collect_latencies_batch(requests(None))
    orig_collections = sim_engine.collect_latencies_batch(requests(None))
    aug_collections = sim_engine.collect_latencies_batch(requests(best_parameters))
    original = [
        histogram_kl_divergence(sys_latencies, orig_latencies)
        for sys_latencies, orig_latencies in zip(sys_collections, orig_collections)
    ]
    augmented = [
        histogram_kl_divergence(sys_latencies, aug_latencies)
        for sys_latencies, aug_latencies in zip(sys_collections, aug_collections)
    ]
    return DiscrepancyReductionResult(labels=labels, original=original, augmented=augmented)

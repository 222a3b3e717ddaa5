"""Motivation experiments (Sec. 2): Table 1 and Figs. 2–5.

These experiments quantify the sim-to-real discrepancy between the original
simulator and the real network, and demonstrate why existing online learners
(DLDA, plain Bayesian optimisation) are unsafe: most of their exploration
violates the QoE requirement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine import MeasurementEngine, MeasurementRequest
from repro.engine.forkpool import fork_map
from repro.experiments.scale import ExperimentScale, get_scale
from repro.experiments.scenarios import (
    default_deployed_config,
    default_sla,
    make_real_network,
    make_simulator,
)
from repro.experiments.stage3 import OnlineComparisonResult, run_online_method
from repro.metrics.kl import histogram_kl_divergence
from repro.metrics.stats import empirical_cdf, summarize_latencies
from repro.sim.config import SliceConfig

__all__ = [
    "NetworkPerformanceRow",
    "table1_network_performance",
    "LatencyCdfResult",
    "fig2_latency_cdf",
    "TrafficLatencyResult",
    "fig3_latency_vs_traffic",
    "KLHeatmapResult",
    "fig4_kl_heatmap",
    "fig5_online_footprint",
]


# --------------------------------------------------------------------- Table 1
@dataclass(frozen=True)
class NetworkPerformanceRow:
    """One row of Table 1: a metric measured in the simulator and the system."""

    metric: str
    simulator: float
    system: float


def table1_network_performance(scale: ExperimentScale | None = None) -> list[NetworkPerformanceRow]:
    """Reproduce Table 1: networking performance of simulator vs real network."""
    scale = scale if scale is not None else get_scale()
    sim_engine = MeasurementEngine(make_simulator(seed=0))
    sys_engine = MeasurementEngine(make_real_network(seed=1))
    config = default_deployed_config()
    requests = [
        MeasurementRequest(config=config, traffic=1, duration=scale.measurement_duration_s, seed=run)
        for run in range(scale.motivation_runs)
    ]

    sim_metrics = {"ping": [], "ul": [], "dl": [], "ul_per": [], "dl_per": []}
    sys_metrics = {"ping": [], "ul": [], "dl": [], "ul_per": [], "dl_per": []}
    for sim_result, sys_result in zip(sim_engine.run_batch(requests), sys_engine.run_batch(requests)):
        for metrics, result in ((sim_metrics, sim_result), (sys_metrics, sys_result)):
            metrics["ping"].append(result.ping_delay_ms)
            metrics["ul"].append(result.ul_throughput_mbps)
            metrics["dl"].append(result.dl_throughput_mbps)
            metrics["ul_per"].append(result.ul_packet_error_rate)
            metrics["dl_per"].append(result.dl_packet_error_rate)

    def mean(values: list[float]) -> float:
        return float(np.mean(values))

    return [
        NetworkPerformanceRow("Average Ping Delay (ms)", mean(sim_metrics["ping"]), mean(sys_metrics["ping"])),
        NetworkPerformanceRow("UL Throughput (Mbps)", mean(sim_metrics["ul"]), mean(sys_metrics["ul"])),
        NetworkPerformanceRow("DL Throughput (Mbps)", mean(sim_metrics["dl"]), mean(sys_metrics["dl"])),
        NetworkPerformanceRow("UL Packet Error Rate", mean(sim_metrics["ul_per"]), mean(sys_metrics["ul_per"])),
        NetworkPerformanceRow("DL Packet Error Rate", mean(sim_metrics["dl_per"]), mean(sys_metrics["dl_per"])),
    ]


# ---------------------------------------------------------------------- Fig. 2
@dataclass
class LatencyCdfResult:
    """Empirical latency CDFs of the simulator and the system (Fig. 2)."""

    simulator_latencies: np.ndarray
    system_latencies: np.ndarray

    def simulator_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """CDF curve of the simulator collection."""
        return empirical_cdf(self.simulator_latencies)

    def system_cdf(self) -> tuple[np.ndarray, np.ndarray]:
        """CDF curve of the system collection."""
        return empirical_cdf(self.system_latencies)

    def mean_latency_increase(self) -> float:
        """Fractional increase of the system's mean latency over the simulator's."""
        sim_mean = float(np.mean(self.simulator_latencies))
        sys_mean = float(np.mean(self.system_latencies))
        return sys_mean / sim_mean - 1.0


def fig2_latency_cdf(scale: ExperimentScale | None = None) -> LatencyCdfResult:
    """Reproduce Fig. 2: end-to-end latency CDF under one slice user."""
    scale = scale if scale is not None else get_scale()
    sim_engine = MeasurementEngine(make_simulator(seed=0))
    sys_engine = MeasurementEngine(make_real_network(seed=1))
    config = default_deployed_config()
    requests = [
        MeasurementRequest(config=config, traffic=1, duration=scale.measurement_duration_s, seed=run)
        for run in range(scale.motivation_runs)
    ]
    return LatencyCdfResult(
        simulator_latencies=np.concatenate(sim_engine.collect_latencies_batch(requests)),
        system_latencies=np.concatenate(sys_engine.collect_latencies_batch(requests)),
    )


# ---------------------------------------------------------------------- Fig. 3
@dataclass
class TrafficLatencyResult:
    """Latency statistics under different user traffic (Fig. 3)."""

    traffic_levels: list[int]
    simulator_summaries: list[dict]
    system_summaries: list[dict]

    def mean_gap_ms(self) -> np.ndarray:
        """System-minus-simulator mean latency gap per traffic level."""
        return np.array(
            [s["mean"] - r["mean"] for s, r in zip(self.system_summaries, self.simulator_summaries)]
        )


def fig3_latency_vs_traffic(
    scale: ExperimentScale | None = None, traffic_levels: tuple[int, ...] = (1, 2, 3, 4)
) -> TrafficLatencyResult:
    """Reproduce Fig. 3: latency statistics under different user traffic."""
    scale = scale if scale is not None else get_scale()
    sim_engine = MeasurementEngine(make_simulator(seed=0))
    sys_engine = MeasurementEngine(make_real_network(seed=1))
    config = default_deployed_config()
    requests = [
        MeasurementRequest(
            config=config, traffic=traffic, duration=scale.measurement_duration_s, seed=traffic
        )
        for traffic in traffic_levels
    ]
    sim_summaries = [
        summarize_latencies(latencies).as_dict()
        for latencies in sim_engine.collect_latencies_batch(requests)
    ]
    sys_summaries = [
        summarize_latencies(latencies).as_dict()
        for latencies in sys_engine.collect_latencies_batch(requests)
    ]
    return TrafficLatencyResult(
        traffic_levels=list(traffic_levels),
        simulator_summaries=sim_summaries,
        system_summaries=sys_summaries,
    )


# ---------------------------------------------------------------------- Fig. 4
@dataclass
class KLHeatmapResult:
    """KL-divergence between system and simulator over a resource grid (Fig. 4)."""

    cpu_levels: np.ndarray
    ul_bw_levels: np.ndarray
    kl_matrix: np.ndarray

    def max_divergence(self) -> float:
        """Largest divergence over the grid."""
        return float(np.max(self.kl_matrix))

    def min_divergence(self) -> float:
        """Smallest divergence over the grid."""
        return float(np.min(self.kl_matrix))


def _resource_grid_config(cpu_fraction: float, ul_fraction: float) -> SliceConfig:
    """Configuration used by the Fig. 4 / Fig. 15 resource grids.

    CPU and UL bandwidth sweep the grid; the remaining resources stay at the
    deployed defaults so the latency is sensitive to the swept dimensions.
    """
    base = default_deployed_config()
    return base.replace(cpu_ratio=cpu_fraction, bandwidth_ul=50.0 * ul_fraction)


def fig4_kl_heatmap(scale: ExperimentScale | None = None) -> KLHeatmapResult:
    """Reproduce Fig. 4: heatmap of KL-divergence under CPU × UL bandwidth usage."""
    scale = scale if scale is not None else get_scale()
    sim_engine = MeasurementEngine(make_simulator(seed=0))
    sys_engine = MeasurementEngine(make_real_network(seed=1))
    levels = np.linspace(0.1, 0.9, scale.heatmap_resolution)
    requests = [
        MeasurementRequest(
            config=_resource_grid_config(cpu_fraction, ul_fraction),
            traffic=1,
            duration=scale.measurement_duration_s,
            seed=100 + i * len(levels) + j,
        )
        for i, ul_fraction in enumerate(levels)
        for j, cpu_fraction in enumerate(levels)
    ]
    sim_collections = sim_engine.collect_latencies_batch(requests)
    sys_collections = sys_engine.collect_latencies_batch(requests)
    kl_cells = [
        histogram_kl_divergence(sys_latencies, sim_latencies)
        for sys_latencies, sim_latencies in zip(sys_collections, sim_collections)
    ]
    kl_matrix = np.array(kl_cells).reshape(len(levels), len(levels))
    return KLHeatmapResult(cpu_levels=levels, ul_bw_levels=levels, kl_matrix=kl_matrix)


# ---------------------------------------------------------------------- Fig. 5
def fig5_online_footprint(scale: ExperimentScale | None = None) -> OnlineComparisonResult:
    """Reproduce Fig. 5: footprint of DLDA and BO exploring the real network.

    Each method is one job of ``baseline_iterations`` online steps, keyed
    ``"baseline"`` (plain BO: real network 2, seed 3) and ``"dlda"`` (real
    network 3, seed 4).
    """
    scale = scale if scale is not None else get_scale()
    sla = default_sla()
    seeds = {"baseline": (2, 3), "dlda": (3, 4)}  # method: (real network, learner)

    def job(method: str):
        network_seed, seed = seeds[method]
        real_network = make_real_network(seed=network_seed)
        return run_online_method(method, real_network, 1, scale.baseline_iterations, seed, None, scale, sla)

    runs = fork_map(job, seeds)
    return OnlineComparisonResult(runs=dict(zip(seeds, runs)), qoe_requirement=sla.availability)

"""Multi-slice execution with cross-slice resource contention.

The paper's prototype runs a single slice, so every configuration dimension
of Table 2 is bounded only by its own feasible range.  When several slices
share one eNB, one transport link and one edge server, their *combined*
demands can exceed the physical budgets: 50 PRBs per direction on a 10 MHz
LTE carrier, the provisioned transport capacity, and the CPU cores of the
edge host.  This module resolves that contention deterministically:

* :class:`ResourceBudget` declares the shared totals,
* :func:`resolve_contention` scales each oversubscribed dimension
  proportionally (weighted fair sharing, conserving the budget), and
* :class:`SliceRun` / :class:`MultiSliceResult` carry the per-slice inputs
  and outcomes of one concurrent measurement round.

The actual measurements are executed by the environments
(:meth:`repro.sim.network.NetworkSimulator.run_slices`,
:meth:`repro.prototype.testbed.RealNetwork.measure_slices`) as one
:class:`~repro.engine.engine.MeasurementEngine` batch, so multi-slice rounds
parallelise and cache exactly like single-slice ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

from repro.sim.config import CONFIG_BOUNDS, SliceConfig
from repro.sim.scenario import Scenario

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.prototype.slice_manager import SLA
    from repro.sim.network import SimulationResult

__all__ = [
    "CONTENDED_DIMENSIONS",
    "ResourceBudget",
    "SliceRun",
    "MultiSliceResult",
    "resolve_contention",
    "run_contended_batch",
]

#: Configuration dimensions that draw from a shared physical pool.  MCS
#: offsets are per-slice modulation choices and never contend.
CONTENDED_DIMENSIONS: tuple[str, ...] = (
    "bandwidth_ul",
    "bandwidth_dl",
    "backhaul_bw",
    "cpu_ratio",
)


@dataclass(frozen=True)
class ResourceBudget:
    """Shared physical budgets one cell/transport/edge deployment offers.

    Attributes
    ----------
    bandwidth_ul, bandwidth_dl:
        Total uplink/downlink PRBs of the carrier (50 for 10 MHz LTE,
        matching the Table 2 per-slice maxima).
    backhaul_bw:
        Total transport-network capacity in Mbps.
    cpu_ratio:
        Total edge CPU in "cores"; the prototype's edge server pins slice
        containers to two cores, so two slices at ``cpu_ratio=1.0`` fit
        without contention but a third forces scaling.
    """

    bandwidth_ul: float = CONFIG_BOUNDS["bandwidth_ul"][1]
    bandwidth_dl: float = CONFIG_BOUNDS["bandwidth_dl"][1]
    backhaul_bw: float = CONFIG_BOUNDS["backhaul_bw"][1]
    cpu_ratio: float = 2.0

    def __post_init__(self) -> None:
        """Validate that every budget is positive."""
        for name in CONTENDED_DIMENSIONS:
            if getattr(self, name) <= 0:
                raise ValueError(f"budget {name} must be positive, got {getattr(self, name)}")

    def total(self, dimension: str) -> float:
        """Total budget of one contended dimension."""
        if dimension not in CONTENDED_DIMENSIONS:
            raise KeyError(f"{dimension!r} is not a contended dimension")
        return float(getattr(self, dimension))


@dataclass(frozen=True)
class SliceRun:
    """One slice's inputs to a concurrent multi-slice measurement round.

    ``scenario`` carries the slice's workload (traffic, frame statistics);
    ``config`` is the *requested* allocation before contention is resolved.
    """

    name: str
    config: SliceConfig
    scenario: Scenario = field(default_factory=Scenario)
    sla: "SLA | None" = None
    seed: int | None = None


@dataclass
class MultiSliceResult:
    """Outcome of one concurrent multi-slice measurement round.

    Attributes
    ----------
    runs:
        The per-slice inputs, in submission order.
    allocated:
        The post-contention configuration each slice actually received.
    results:
        Per-slice :class:`~repro.sim.network.SimulationResult`.
    budget:
        The shared budget the round was resolved against.
    """

    runs: list[SliceRun]
    allocated: list[SliceConfig]
    results: list["SimulationResult"]
    budget: ResourceBudget

    def __len__(self) -> int:
        """Number of slices in the round."""
        return len(self.runs)

    def slice_names(self) -> list[str]:
        """Names of the slices, in submission order."""
        return [run.name for run in self.runs]

    def total_allocated(self, dimension: str) -> float:
        """Sum of the post-contention allocations of one contended dimension."""
        if dimension not in CONTENDED_DIMENSIONS:
            raise KeyError(f"{dimension!r} is not a contended dimension")
        return float(sum(getattr(config, dimension) for config in self.allocated))

    def qoe(self, index: int) -> float:
        """QoE of slice ``index`` against its own SLA threshold (300 ms default)."""
        run = self.runs[index]
        threshold = run.sla.latency_threshold_ms if run.sla is not None else 300.0
        return self.results[index].qoe(threshold)

    def sla_satisfied(self, index: int) -> bool | None:
        """Whether slice ``index`` met its SLA (``None`` when it has no SLA)."""
        run = self.runs[index]
        if run.sla is None:
            return None
        return run.sla.is_satisfied_by(self.qoe(index))

    def summary(self) -> list[dict]:
        """Per-slice summary rows (name, allocation, QoE, SLA verdict)."""
        rows = []
        for index, (run, config, result) in enumerate(
            zip(self.runs, self.allocated, self.results)
        ):
            rows.append(
                {
                    "slice": run.name,
                    "requested_usage": run.config.resource_usage(),
                    "allocated_usage": config.resource_usage(),
                    "mean_latency_ms": result.mean_latency_ms,
                    "qoe": self.qoe(index),
                    "sla_met": self.sla_satisfied(index),
                }
            )
        return rows

    def format_table(self, title: str) -> str:
        """The round as a printable table: per-slice rows plus allocated totals."""
        lines = [
            title,
            f"{'slice':<18} {'requested%':>10} {'allocated%':>10} {'mean ms':>9} {'QoE':>6}  SLA",
        ]
        for row in self.summary():
            verdict = {True: "met", False: "VIOLATED", None: "-"}[row["sla_met"]]
            lines.append(
                f"{row['slice']:<18} {100 * row['requested_usage']:>10.1f} "
                f"{100 * row['allocated_usage']:>10.1f} {row['mean_latency_ms']:>9.1f} "
                f"{row['qoe']:>6.3f}  {verdict}"
            )
        totals = ", ".join(
            f"{dim}={self.total_allocated(dim):.1f}/{self.budget.total(dim):g}"
            for dim in CONTENDED_DIMENSIONS
        )
        lines.append(f"allocated totals: {totals}")
        return "\n".join(lines)


def resolve_contention(
    configs: Sequence[SliceConfig], budget: ResourceBudget | None = None
) -> list[SliceConfig]:
    """Scale requested slice configurations onto the shared physical budgets.

    Each contended dimension (UL/DL PRBs, backhaul Mbps, edge CPU) is
    resolved independently with proportional (weighted fair) sharing: when
    the summed demand exceeds the budget every slice keeps the same fraction
    ``budget / demand`` of its request, so the totals are conserved exactly
    and no slice is starved in favour of another.  Dimensions within budget
    are granted as requested — contention never *increases* an allocation.
    MCS offsets pass through untouched.

    Returns the allocations in the order the requests were given; an empty
    request list resolves to an empty allocation list.
    """
    budget = budget if budget is not None else ResourceBudget()
    configs = list(configs)
    if not configs:
        return []
    allocations = [
        {name: float(getattr(config, name)) for name in CONTENDED_DIMENSIONS}
        for config in configs
    ]
    for dimension in CONTENDED_DIMENSIONS:
        demand = sum(allocation[dimension] for allocation in allocations)
        total = budget.total(dimension)
        if demand > total and demand > 0.0:
            share = total / demand
            for allocation in allocations:
                allocation[dimension] *= share
    return [
        config.replace(**allocation) for config, allocation in zip(configs, allocations)
    ]


def run_contended_batch(
    environment,
    rounds: Sequence[Sequence[SliceRun]],
    budget: ResourceBudget | None = None,
    duration: float | None = None,
    engine=None,
) -> "list[MultiSliceResult]":
    """Resolve and measure many contended rounds as one engine batch.

    Contention is resolved round by round against the same ``budget``
    (:func:`resolve_contention`: each round's slices share the physical
    totals; rounds never contend with each other), then one
    :class:`~repro.engine.protocol.MeasurementRequest` per slice of *all*
    rounds — each carrying its slice's own scenario — goes out as one flat
    :class:`~repro.engine.engine.MeasurementEngine` batch, that is a single
    :func:`repro.sim.batch.simulate_batch` pass over every slice of every
    round, cached exactly like single-slice measurements.  Results are
    regrouped into one :class:`MultiSliceResult` per round, in submission
    order.  ``engine`` must wrap ``environment``; a private engine is
    created when omitted.  One round is the shared implementation of
    :meth:`repro.sim.network.NetworkSimulator.run_slices` and
    :meth:`repro.prototype.testbed.RealNetwork.measure_slices`.
    """
    from repro.engine.engine import MeasurementEngine
    from repro.engine.protocol import MeasurementRequest

    budget = budget if budget is not None else ResourceBudget()
    rounds = [list(runs) for runs in rounds]
    if engine is None:
        engine = MeasurementEngine(environment)
    elif engine.environment is not environment:
        raise ValueError("engine must wrap the environment whose slices it measures")
    allocated_rounds = [resolve_contention([run.config for run in runs], budget) for runs in rounds]
    requests = [
        MeasurementRequest(config=config, duration=duration, seed=run.seed, scenario=run.scenario)
        for runs, allocated in zip(rounds, allocated_rounds)
        for run, config in zip(runs, allocated)
    ]
    flat_results = engine.run_batch(requests)
    results: list[MultiSliceResult] = []
    cursor = 0
    for runs, allocated in zip(rounds, allocated_rounds):
        results.append(
            MultiSliceResult(
                runs=runs,
                allocated=allocated,
                results=flat_results[cursor : cursor + len(runs)],
                budget=budget,
            )
        )
        cursor += len(runs)
    return results

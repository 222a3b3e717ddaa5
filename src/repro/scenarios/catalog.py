"""The scenario catalog: named, reusable slice workloads.

The paper evaluates one slice running one frame-offloading application at
fixed prototype settings.  The catalog turns that single hard-coded setup
into a registry of named :class:`ScenarioSpec` entries — each bundling the
slice workload(s), per-slice SLAs, deployed configurations, traffic traces
and stage-1 search-space defaults — so every stage, baseline and experiment
runner can be pointed at any workload by name (``python -m repro run
--scenario <name>``) instead of by editing source.

A :class:`ScenarioSpec` holds one :class:`SliceWorkload` per slice; specs
with several slices are measured concurrently with resource contention
through :mod:`repro.sim.multislice`.  The built-in entries live in
:mod:`repro.scenarios.workloads` and register themselves when
``repro.scenarios`` is imported.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.prototype.slice_manager import SLA
from repro.prototype.testbed import RealNetwork
from repro.scenarios.traces import TrafficTrace
from repro.sim.config import SliceConfig
from repro.sim.faults import FaultSchedule
from repro.sim.multislice import ResourceBudget, SliceRun
from repro.sim.network import NetworkSimulator
from repro.sim.scenario import Scenario

__all__ = [
    "SliceWorkload",
    "ScenarioSpec",
    "UnknownScenarioError",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
    "scenario_names",
]


@dataclass(frozen=True)
class SliceWorkload:
    """One slice's workload: scenario, SLA, deployed configuration, traffic trace.

    Attributes
    ----------
    name:
        Slice name, unique within its :class:`ScenarioSpec`.
    scenario:
        The physical/workload description (frame statistics, compute times,
        mobility, baseline traffic).
    sla:
        The tenant's latency threshold ``Y`` and availability ``E``.
    deployed_config:
        Configuration deployed while collecting the online dataset ``D_r``
        (and the slice's starting allocation in multi-slice rounds).
    trace:
        Optional traffic trace; ``None`` means the constant
        ``scenario.traffic`` level.  Dynamic entries replay the trace during
        online learning (Figs. 25–26 style).
    """

    name: str
    scenario: Scenario = field(default_factory=Scenario)
    sla: SLA = field(default_factory=SLA)
    deployed_config: SliceConfig = field(default_factory=SliceConfig)
    trace: TrafficTrace | None = None

    def traffic_at(self, step: int) -> int:
        """Traffic level at measurement step ``step`` (trace-driven when dynamic)."""
        if self.trace is None:
            return self.scenario.traffic
        return self.trace.level(step)

    def mean_traffic(self) -> int:
        """Representative constant traffic level (trace mean, rounded, when dynamic)."""
        if self.trace is None:
            return self.scenario.traffic
        return max(1, round(self.trace.mean_level()))

    def make_simulator(self, seed: int = 0) -> NetworkSimulator:
        """The offline (original) simulator under this workload's scenario."""
        return NetworkSimulator(scenario=self.scenario, seed=seed)

    def make_real_network(self, seed: int = 1) -> RealNetwork:
        """The real-network testbed substitute under this workload's scenario."""
        return RealNetwork(scenario=self.scenario, seed=seed)

    def slice_run(self, seed: int | None = None) -> SliceRun:
        """The workload's contribution to a multi-slice measurement round."""
        return SliceRun(
            name=self.name,
            config=self.deployed_config,
            scenario=self.scenario,
            sla=self.sla,
            seed=seed,
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A named catalog entry: one or more slice workloads plus search defaults.

    Attributes
    ----------
    name:
        Registry key (kebab-case by convention).
    description:
        One-line human-readable summary shown by ``python -m repro
        list-scenarios``.
    slices:
        The slice workloads; more than one makes the entry a multi-slice
        contention scenario.
    budget:
        Shared physical budgets the slices contend for.
    stage1_alpha:
        Default weight α of the parameter-distance penalty in the stage-1
        search objective (Eq. 2).
    stage1_distance_threshold:
        Default threshold ``H`` on the normalised parameter distance.
    tags:
        Free-form labels (``"embb"``, ``"dynamic"``...) for filtering.
    faults:
        Optional :class:`~repro.sim.faults.FaultSchedule` making the entry a
        *hostile* scenario: drift ramps, storm windows and dropout masks
        injected step by step during online learning and evaluation replay
        (``python -m repro run --faults``, the eval harness's hostile
        cases).  ``None`` — the default — is a cooperative environment.
    """

    name: str
    description: str
    slices: tuple[SliceWorkload, ...]
    budget: ResourceBudget = field(default_factory=ResourceBudget)
    stage1_alpha: float = 7.0
    stage1_distance_threshold: float = 0.3
    tags: tuple[str, ...] = ()
    faults: FaultSchedule | None = None

    def __post_init__(self) -> None:
        """Validate the slice list and search-space defaults."""
        if not self.slices:
            raise ValueError(f"scenario {self.name!r} must bundle at least one slice workload")
        names = [workload.name for workload in self.slices]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario {self.name!r} has duplicate slice names: {names}")
        if self.stage1_alpha < 0:
            raise ValueError(f"stage1_alpha must be >= 0, got {self.stage1_alpha}")
        if self.stage1_distance_threshold <= 0:
            raise ValueError(
                f"stage1_distance_threshold must be positive, got {self.stage1_distance_threshold}"
            )

    @property
    def is_multislice(self) -> bool:
        """Whether the entry runs several slices concurrently with contention."""
        return len(self.slices) > 1

    @property
    def primary(self) -> SliceWorkload:
        """The first slice workload (the whole entry, for single-slice specs)."""
        return self.slices[0]

    def replace(self, **changes) -> "ScenarioSpec":
        """Return a copy with some fields replaced (for derived entries)."""
        return replace(self, **changes)

    def slice_runs(self, seed: int | None = None) -> list[SliceRun]:
        """One :class:`~repro.sim.multislice.SliceRun` per slice, seeded from ``seed``."""
        return [
            workload.slice_run(seed=None if seed is None else seed + index)
            for index, workload in enumerate(self.slices)
        ]


class UnknownScenarioError(KeyError):
    """Raised when a scenario name is not in the catalog; lists what is."""

    def __init__(self, name: str, available: tuple[str, ...]) -> None:
        """Build the lookup error for ``name`` given the ``available`` entries."""
        self.name = name
        self.available = available
        super().__init__(
            f"unknown scenario {name!r}; available: {', '.join(available) or '(none registered)'}"
        )

    def __str__(self) -> str:
        """The readable message (KeyError would repr-quote it otherwise)."""
        return self.args[0]


_REGISTRY: dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, replace_existing: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the catalog (and return it, for chaining).

    Registering a name twice is an error unless ``replace_existing`` is set —
    catching accidental collisions matters more than convenience here.
    """
    if spec.name in _REGISTRY and not replace_existing:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a catalog entry by name.

    Raises :class:`UnknownScenarioError` (a ``KeyError``) listing the
    registered names when the lookup fails.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownScenarioError(name, scenario_names()) from None


def list_scenarios() -> tuple[ScenarioSpec, ...]:
    """Every registered catalog entry, sorted by name."""
    return tuple(_REGISTRY[name] for name in scenario_names())


def scenario_names() -> tuple[str, ...]:
    """Sorted names of the registered catalog entries."""
    return tuple(sorted(_REGISTRY))

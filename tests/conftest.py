"""Shared fixtures for the Atlas reproduction test suite.

Learning components are configured with deliberately tiny budgets so the full
suite runs in a couple of minutes; the benchmarks exercise the realistic
budgets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.prototype.slice_manager import SLA
from repro.prototype.testbed import RealNetwork
from repro.sim.config import SliceConfig
from repro.sim.network import NetworkSimulator
from repro.sim.scenario import Scenario


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def scenario() -> Scenario:
    """Short-duration single-user scenario."""
    return Scenario(traffic=1, duration_s=10.0)


@pytest.fixture
def simulator(scenario) -> NetworkSimulator:
    """Original simulator with a short measurement duration."""
    return NetworkSimulator(scenario=scenario, seed=0)


@pytest.fixture
def real_network(scenario) -> RealNetwork:
    """Real-network substitute with a short measurement duration."""
    return RealNetwork(scenario=scenario, seed=1)


@pytest.fixture
def default_config() -> SliceConfig:
    """Mid-range slice configuration used across tests."""
    return SliceConfig(
        bandwidth_ul=10.0,
        bandwidth_dl=5.0,
        mcs_offset_ul=0.0,
        mcs_offset_dl=0.0,
        backhaul_bw=10.0,
        cpu_ratio=0.8,
    )


@pytest.fixture
def sla() -> SLA:
    """The paper's default SLA (300 ms, 0.9 availability)."""
    return SLA(latency_threshold_ms=300.0, availability=0.9)


@pytest.fixture
def child_env() -> dict[str, str]:
    """Environment of a Python subprocess started from the repository root.

    The child imports the package from ``src`` and writes no bytecode there:
    a tree with bytecode imports faster, which would skew later timings.
    """
    return {"PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}


@pytest.fixture
def replay_pool(monkeypatch) -> list[int]:
    """Run the test as if the host had two usable cores, even on a one-core host.

    Every :func:`repro.engine.forkpool.fork_map` over two or more jobs (eval
    passes, multi-slice runs, service jobs, the online figure runners) then
    forks a two-worker pool; patch
    ``repro.engine.forkpool.available_parallelism`` again to size it
    otherwise.  Returns the list that the size of every fork pool started
    during the test is appended to.
    """
    import repro.engine.forkpool as forkpool_module

    monkeypatch.setattr(forkpool_module, "available_parallelism", lambda: 2)
    sizes: list[int] = []

    class RecordingPool(forkpool_module.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(forkpool_module, "ProcessPoolExecutor", RecordingPool)
    return sizes

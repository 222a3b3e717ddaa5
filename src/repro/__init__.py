"""Reproduction of *Atlas: Automate Online Service Configuration in Network Slicing*.

Atlas (Liu, Choi, Han — CoNEXT 2022) automates the cross-domain service
configuration of end-to-end network slices with three interrelated stages:

1. a *learning-based simulator* whose simulation parameters are searched with
   Bayesian optimisation to minimise the sim-to-real discrepancy,
2. *offline training* of a configuration policy in the augmented simulator
   with a Bayesian neural network surrogate and parallel Thompson sampling,
3. safe *online learning* in the real network with a Gaussian-process model
   of the sim-to-real QoE difference and a conservative acquisition function.

This package provides the full system: the discrete-event network simulator
substrate (``repro.sim``, including multi-slice contention), the
real-network testbed substitute (``repro.prototype``), the learning stack
(``repro.models``), the three Atlas stages (``repro.core``), the baselines
the paper compares against (``repro.baselines``), the experiment runners
used by the benchmark harness (``repro.experiments``), the scenario catalog
of named slice workloads (``repro.scenarios``) and the ``python -m repro``
command line (``repro.cli``).
"""

import os
import sys

# One level of parallelism: the engine's ``sharded`` executor already runs
# one process per core, and the surrogates multiply matrices far too small
# to gain from BLAS threads, which then only spin and synchronise.  This has
# to happen before NumPy loads its BLAS; a value the user set still wins.
if "numpy" not in sys.modules:
    for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_variable, "1")

from repro.core.atlas import Atlas, AtlasConfig
from repro.core.spaces import ConfigurationSpace, SimulationParameterSpace
from repro.prototype.slice_manager import SLA
from repro.prototype.testbed import RealNetwork
from repro.scenarios import get_scenario, list_scenarios
from repro.sim.config import SliceConfig
from repro.sim.network import NetworkSimulator
from repro.sim.parameters import SimulationParameters

__all__ = [
    "Atlas",
    "AtlasConfig",
    "ConfigurationSpace",
    "SimulationParameterSpace",
    "SLA",
    "SliceConfig",
    "NetworkSimulator",
    "SimulationParameters",
    "RealNetwork",
    "get_scenario",
    "list_scenarios",
]

__version__ = "1.0.0"

"""Atlas' primary contribution: the three learn-to-configure stages.

* :mod:`repro.core.spaces` — the searchable configuration and
  simulation-parameter spaces (Tables 2 and 3).
* :mod:`repro.core.acquisition` — acquisition functions: EI, PI, UCB,
  GP-UCB and the clipped randomized GP-UCB (cRGP-UCB) of stage 3.
* :mod:`repro.core.penalty` — the adaptive Lagrangian penalisation of the
  SLA constraint (Eqs. 8–9 and 14–15).
* :mod:`repro.core.search` — the batch Thompson-sampling loop that stages 1
  and 2 share.
* :mod:`repro.core.simulator_learning` — stage 1, the learning-based
  simulator (Alg. 1).
* :mod:`repro.core.offline_training` — stage 2, offline policy training in
  the augmented simulator (Alg. 2).
* :mod:`repro.core.online_learning` — stage 3, safe online learning on the
  real network (Alg. 3).
* :mod:`repro.core.atlas` — the stage driver that chains the three stages on
  every slice of a catalog entry, and the one mapping from an experiment
  scale to the stage configurations.
"""

from repro.core.acquisition import (
    crgp_ucb_beta,
    expected_improvement,
    gp_ucb_beta,
    probability_of_improvement,
    upper_confidence_bound,
)
from repro.core.atlas import Atlas
from repro.core.offline_training import (
    OfflineConfigurationTrainer,
    OfflineTrainingConfig,
    OfflineTrainingResult,
)
from repro.core.online_learning import (
    OnlineConfigurationLearner,
    OnlineLearningConfig,
    OnlineLearningResult,
)
from repro.core.penalty import AdaptiveMultiplier
from repro.core.policy import OfflinePolicy, OnlinePolicy, build_features
from repro.core.watchdog import (
    GuardedOnlineResult,
    OnlineWatchdog,
    RecoveryLedger,
    WatchdogConfig,
    run_unprotected,
)
from repro.core.simulator_learning import (
    ParameterSearchConfig,
    ParameterSearchResult,
    SimulatorParameterSearch,
)
from repro.core.spaces import ConfigurationSpace, SimulationParameterSpace

__all__ = [
    "Atlas",
    "ConfigurationSpace",
    "SimulationParameterSpace",
    "AdaptiveMultiplier",
    "OfflinePolicy",
    "OnlinePolicy",
    "build_features",
    "SimulatorParameterSearch",
    "ParameterSearchConfig",
    "ParameterSearchResult",
    "OfflineConfigurationTrainer",
    "OfflineTrainingConfig",
    "OfflineTrainingResult",
    "OnlineConfigurationLearner",
    "OnlineLearningConfig",
    "OnlineLearningResult",
    "OnlineWatchdog",
    "WatchdogConfig",
    "GuardedOnlineResult",
    "RecoveryLedger",
    "run_unprotected",
    "expected_improvement",
    "probability_of_improvement",
    "upper_confidence_bound",
    "gp_ucb_beta",
    "crgp_ucb_beta",
]

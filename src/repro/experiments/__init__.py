"""Experiment runners for every table and figure of the paper's evaluation.

Each module groups the experiments of one evaluation subsection:

* :mod:`repro.experiments.motivation` — Sec. 2: Table 1, Figs. 2–5.
* :mod:`repro.experiments.stage1` — Sec. 8.1: Fig. 8/Table 4, Figs. 9–15.
* :mod:`repro.experiments.stage2` — Sec. 8.2: Figs. 16–19.
* :mod:`repro.experiments.stage3` — Sec. 8.3: Figs. 20–26 and Table 5.

Every runner takes an :class:`~repro.experiments.scale.ExperimentScale`
(defaulting to the value selected by the ``ATLAS_BENCH_SCALE`` environment
variable) so the same code drives quick benchmark runs and full paper-scale
reproductions.  The runners wire the stage classes themselves, because
they compare variants the stage driver (:mod:`repro.core.atlas`) does not
run, but they build every stage configuration through the driver's
mapping (:func:`~repro.core.atlas.parameter_search_config`,
:func:`~repro.core.atlas.offline_training_config`,
:func:`~repro.core.atlas.online_learning_config`).  Two values still differ
from ``python -m repro run`` and are passed as overrides: stage-1
measurements last at least 30 s, and stage-3 simulator queries at least
10 s.
"""

from repro.experiments.scale import ExperimentScale, get_scale
from repro.experiments.scenarios import (
    default_deployed_config,
    default_sla,
    make_real_network,
    make_simulator,
)

__all__ = [
    "ExperimentScale",
    "get_scale",
    "default_sla",
    "default_deployed_config",
    "make_simulator",
    "make_real_network",
]

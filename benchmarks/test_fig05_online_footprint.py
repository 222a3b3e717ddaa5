"""Fig. 5: footprint of DLDA and plain BO exploring the real network online."""

import numpy as np
from bench_utils import print_table, run_once

from repro.experiments.motivation import fig5_online_footprint


def test_fig05_online_footprint(benchmark, scale):
    result = run_once(benchmark, fig5_online_footprint, scale)
    rows = []
    for run in result.runs.values():
        rows.append(
            {
                "method": run.method,
                "mean_usage": float(np.mean(run.usages)),
                "mean_qoe": float(np.mean(run.qoes)),
                "qoe_violation_rate": run.sla_violation_rate,
            }
        )
    print_table("Fig. 5 — Footprint of online learning methods (QoE requirement 0.9)", rows)
    # The paper's point: most configurations explored by DLDA and BO violate
    # the QoE requirement during online learning.  Smoke scale runs only 6
    # online iterations, so the rate is quantised in 1/6 steps and one
    # violation must satisfy the claim; the larger budgets keep the real bar.
    minimum_rate = 0.2 if scale.name != "smoke" else 0.0
    for row in rows:
        assert row["qoe_violation_rate"] > minimum_rate

"""Figs. 20–21 and Table 5: online learning comparison on the real network."""

import numpy as np
from bench_utils import print_series, print_table, run_once

from repro.experiments.stage3 import fig20_21_table5_online_comparison


def test_fig20_21_table5_online_comparison(benchmark, scale):
    methods = ("ours", "baseline", "virtualedge", "dlda")
    result = run_once(benchmark, fig20_21_table5_online_comparison, scale, methods=methods)
    print_series(
        "Fig. 20 — Avg. resource usage per online iteration",
        {run.method: run.usages for run in result.runs.values()},
    )
    print_series(
        "Fig. 21 — Avg. QoE per online iteration",
        {run.method: run.qoes for run in result.runs.values()},
    )
    print_table("Table 5 — Online learning regrets", result.table5_rows())
    print(
        f"hindsight optimum: usage {100 * result.optimal_usage:.1f}%, QoE {result.optimal_qoe:.3f}"
    )

    runs = result.runs
    # Atlas has the lowest QoE regret of the online-from-scratch methods and a
    # low usage regret (paper: 63.9% / 85.7% regret reduction vs DLDA).  The
    # reproduction does not show the ours-vs-DLDA gap yet, not even at the
    # paper's 100-step horizon (ROADMAP item 8 measures it), so the
    # assertions here cover the stable part of the ordering: Atlas beats the
    # from-scratch online learners on QoE regret, is never dominated by DLDA
    # on both regrets at once, and converges.
    assert runs["ours"].average_qoe_regret <= runs["baseline"].average_qoe_regret + 1e-9
    assert runs["ours"].average_qoe_regret <= runs["virtualedge"].average_qoe_regret + 1e-9
    if scale.name != "smoke":
        dominated = (
            runs["dlda"].average_qoe_regret < runs["ours"].average_qoe_regret - 0.05
            and runs["dlda"].average_usage_regret < runs["ours"].average_usage_regret - 0.05
        )
        assert not dominated
        # Atlas converges: its final QoE approaches the requirement.
        assert float(np.mean(runs["ours"].qoes[-max(3, len(runs["ours"].qoes) // 4):])) > 0.7

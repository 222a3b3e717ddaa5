"""Fig. 22: Atlas' footprint under different acquisition functions."""

import numpy as np
from bench_utils import print_table, run_once

from repro.experiments.stage3 import fig22_acquisition_ablation


def test_fig22_acquisition_ablation(benchmark, scale):
    acquisitions = ("crgp_ucb", "ei") if scale.name == "smoke" else ("crgp_ucb", "gp_ucb", "ei", "pi")
    result = run_once(benchmark, fig22_acquisition_ablation, scale, acquisitions=acquisitions)
    rows = []
    for name, run in result.runs.items():
        rows.append(
            {
                "acquisition": name,
                "mean_usage": float(np.mean(run.usages)),
                "mean_qoe": float(np.mean(run.qoes)),
                "qoe_violation_rate": run.sla_violation_rate,
            }
        )
    print_table("Fig. 22 — Footprint under different acquisition functions", rows)
    by_name = {row["acquisition"]: row for row in rows}
    # The conservative cRGP-UCB acquisition should deliver at least as much
    # QoE as the improvement-based acquisitions it replaces.
    assert by_name["crgp_ucb"]["mean_qoe"] >= by_name["ei"]["mean_qoe"] - 0.05

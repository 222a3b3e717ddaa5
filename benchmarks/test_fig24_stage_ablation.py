"""Fig. 24: impact of removing individual Atlas stages."""

import numpy as np
from bench_utils import print_table, run_once

from repro.experiments.stage3 import fig24_stage_ablation


def test_fig24_stage_ablation(benchmark, scale):
    variants = ("ours", "no_stage3") if scale.name == "smoke" else (
        "ours", "no_stage1", "no_stage2", "no_stage3",
    )
    result = run_once(benchmark, fig24_stage_ablation, scale, variants=variants)
    mean_usage = {variant: float(np.mean(run.usages)) for variant, run in result.runs.items()}
    mean_qoe = {variant: float(np.mean(run.qoes)) for variant, run in result.runs.items()}
    rows = [
        {
            "variant": variant,
            "mean_usage_percent": 100 * mean_usage[variant],
            "mean_qoe": mean_qoe[variant],
        }
        for variant in result.runs
    ]
    print_table("Fig. 24 — Impact of individual components", rows)
    # Without online learning the sim-to-real discrepancy remains: the QoE of
    # "no_stage3" stays clearly below the full system's requirement tracking.
    assert mean_qoe["no_stage3"] <= mean_qoe["ours"] + 0.1

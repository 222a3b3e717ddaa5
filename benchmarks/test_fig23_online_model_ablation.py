"""Fig. 23: online approximation-function ablation (GP vs BNN vs BNN-Cont'd)."""

from bench_utils import print_table, run_once

from repro.experiments.stage3 import fig23_online_model_ablation


def test_fig23_online_model_ablation(benchmark, scale):
    variants = ("ours", "bnn") if scale.name == "smoke" else (
        "ours", "bnn", "bnn_contd", "no_offline_acceleration",
    )
    result = run_once(benchmark, fig23_online_model_ablation, scale, variants=variants)
    rows = [
        {
            "variant": variant,
            "avg_usage_regret_percent": 100 * run.average_usage_regret,
            "avg_qoe_regret": run.average_qoe_regret,
            "sla_violation_rate": run.sla_violation_rate,
        }
        for variant, run in result.runs.items()
    ]
    print_table("Fig. 23 — Online approximation-function ablation", rows)
    ours = result.runs["ours"]
    bnn = result.runs["bnn"]
    # The GP residual model is more sample efficient than learning the
    # residual with a BNN from ~tens of online samples (paper: +96.5% QoE regret).
    assert ours.average_qoe_regret <= bnn.average_qoe_regret + 0.1

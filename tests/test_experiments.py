"""Smoke tests of the experiment runners (the figure/table reproduction code).

These run at the "smoke" scale — the goal is to verify every runner produces
well-formed results; the benchmarks run them at a meaningful scale.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.engine.forkpool as forkpool
from repro.experiments import motivation, stage1, stage2, stage3
from repro.experiments.scale import SCALES, ExperimentScale, get_scale
from repro.experiments.scenarios import default_sla
from repro.sim.parameters import SimulationParameters

SMOKE = SCALES["smoke"]

_REPO_ROOT = Path(__file__).resolve().parent.parent


class TestScale:
    def test_get_scale_reads_environment(self, monkeypatch):
        monkeypatch.setenv("ATLAS_BENCH_SCALE", "smoke")
        assert get_scale().name == "smoke"

    def test_get_scale_by_name_and_default(self, monkeypatch):
        monkeypatch.delenv("ATLAS_BENCH_SCALE", raising=False)
        assert get_scale().name == "small"
        assert get_scale("paper").name == "paper"

    def test_unknown_scale_raises(self):
        with pytest.raises(ValueError):
            get_scale("enormous")

    def test_scales_are_ordered_by_budget(self):
        assert SCALES["smoke"].stage2_iterations < SCALES["small"].stage2_iterations
        assert SCALES["small"].stage2_iterations < SCALES["paper"].stage2_iterations
        assert SCALES["paper"].stage3_iterations == 100

    def test_scale_is_a_frozen_dataclass(self):
        with pytest.raises(Exception):
            SMOKE.stage1_iterations = 5  # type: ignore[misc]
        assert isinstance(SMOKE, ExperimentScale)


class TestCollectOnlineDataset:
    def test_zero_runs_returns_empty_float64(self, real_network):
        from repro.experiments.scenarios import collect_online_dataset
        from repro.models.scaler import StandardScaler

        collection = collect_online_dataset(real_network, runs=0)
        assert collection.dtype == np.float64
        assert collection.size == 0
        # The empty collection must not break downstream scaler plumbing.
        scaler = StandardScaler()
        scaler.fit(np.concatenate([collection, np.array([1.0, 2.0, 3.0])]).reshape(-1, 1))

    def test_negative_runs_raises(self, real_network):
        from repro.experiments.scenarios import collect_online_dataset

        with pytest.raises(ValueError):
            collect_online_dataset(real_network, runs=-1)

    def test_positive_runs_concatenates_measurements(self, real_network):
        from repro.experiments.scenarios import collect_online_dataset

        collection = collect_online_dataset(real_network, runs=2, duration_s=6.0)
        assert collection.dtype == np.float64
        assert collection.size > 0


class TestMotivationRunners:
    def test_table1_rows(self):
        rows = motivation.table1_network_performance(SMOKE)
        assert len(rows) == 5
        by_metric = {row.metric: row for row in rows}
        assert by_metric["UL Throughput (Mbps)"].system < by_metric["UL Throughput (Mbps)"].simulator

    def test_fig2_latency_cdf(self):
        result = motivation.fig2_latency_cdf(SMOKE)
        values, probabilities = result.system_cdf()
        assert probabilities[-1] == pytest.approx(1.0)
        assert result.mean_latency_increase() > 0.0

    def test_fig3_latency_vs_traffic(self):
        result = motivation.fig3_latency_vs_traffic(SMOKE, traffic_levels=(1, 3))
        assert result.traffic_levels == [1, 3]
        assert len(result.simulator_summaries) == 2
        assert np.all(result.mean_gap_ms() > 0)

    def test_fig4_kl_heatmap(self):
        result = motivation.fig4_kl_heatmap(SMOKE)
        assert result.kl_matrix.shape == (SMOKE.heatmap_resolution, SMOKE.heatmap_resolution)
        assert result.min_divergence() >= 0.0
        assert result.max_divergence() > result.min_divergence()

    def test_fig5_online_footprint(self):
        result = motivation.fig5_online_footprint(SMOKE)
        assert set(result.runs) == {"baseline", "dlda"}
        for run in result.runs.values():
            assert len(run.usages) == SMOKE.baseline_iterations
        assert 0.0 <= result.runs["baseline"].sla_violation_rate <= 1.0


class TestStage1Runners:
    def test_fig8_table4(self):
        comparison = stage1.fig8_table4_parameter_search(SMOKE)
        rows = comparison.table4_rows()
        assert [r["method"] for r in rows] == [
            "Original Simulator", "Aug. Simulator, GP", "Aug. Simulator, Ours",
        ]
        assert rows[0]["parameter_distance"] == 0.0
        assert rows[2]["discrepancy"] <= rows[0]["discrepancy"] + 1e-9

    def test_fig10_mobility(self):
        result = stage1.fig10_mobility_discrepancy(SMOKE, distances=(1.0, 10.0))
        assert len(result.discrepancies) == 2
        assert all(d >= 0 for d in result.discrepancies)

    def test_fig11_isolation(self):
        result = stage1.fig11_isolation(SMOKE, extra_users=(0, 2))
        assert len(result.mean_latencies_ms) == 2
        assert result.max_latency_shift() < 0.5

    def test_fig14_discrepancy_under_traffic(self):
        best = SimulationParameters(38.9, 2.0, 9.2, 4.0, 8.0, 10.0, 14.0)
        result = stage1.fig14_discrepancy_under_traffic(best, SMOKE, traffic_levels=(1, 2))
        assert len(result.original) == 2
        reductions = result.reductions()
        assert reductions.shape == (2,)

    def test_fig15_discrepancy_under_resources(self):
        best = SimulationParameters(38.9, 2.0, 9.2, 4.0, 8.0, 10.0, 14.0)
        result = stage1.fig15_discrepancy_under_resources(best, SMOKE)
        assert len(result.labels) == SMOKE.heatmap_resolution**2


class TestStage2Runners:
    def test_fig16_offline_progress(self):
        result = stage2.fig16_offline_progress(SMOKE)
        assert len(result.usage_per_iteration()) == SMOKE.stage2_iterations
        assert 0.0 <= result.policy.best_qoe <= 1.0

    def test_fig17_offline_comparison_subset(self):
        points = stage2.fig17_offline_comparison(SMOKE, methods=("ours", "gp-ei"))
        assert [p.method for p in points] == ["ours", "gp-ei"]
        for point in points:
            assert 0.0 <= point.qoe <= 1.0
            assert 0.0 <= point.resource_usage <= 1.0

    def test_fig17_unknown_method_raises(self):
        with pytest.raises(ValueError):
            stage2.fig17_offline_comparison(SMOKE, methods=("simulated-annealing",))

    def test_fig19_threshold_sweep(self):
        result = stage2.fig19_threshold_sweep(SMOKE, thresholds_ms=(300.0, 500.0), methods=("ours",))
        assert result.thresholds_ms == [300.0, 500.0]
        assert len(result.usage["ours"]) == 2


#: A cut-down smoke scale for the tests that run a runner more than once.
_CUT = dataclasses.replace(SMOKE, stage2_iterations=5, stage3_iterations=3, baseline_iterations=3)


def _rows(result):
    """Every row of an online runner's result: arrays as bytes, scalars as they are."""
    if isinstance(result, stage3.DynamicTrafficResult):
        return result.traffic_levels, result.usage_regret, result.qoe_regret
    runs = {
        name: (
            run.method,
            run.usages.tobytes(),
            run.qoes.tobytes(),
            run.average_usage_regret,
            run.average_qoe_regret,
            run.sla_violation_rate,
        )
        for name, run in result.runs.items()
    }
    return result.optimal_usage, result.optimal_qoe, runs


class TestStage3Runners:
    def test_online_comparison_subset(self):
        result = stage3.fig20_21_table5_online_comparison(SMOKE, methods=("ours", "baseline"))
        assert set(result.runs) == {"ours", "baseline"}
        rows = result.table5_rows()
        assert len(rows) == 2
        for run in result.runs.values():
            assert len(run.usages) == SMOKE.stage3_iterations
        assert result.optimal_usage > 0.0

    @pytest.mark.parametrize(
        "runner, names",
        [
            (stage3.fig20_21_table5_online_comparison, {"methods": ("ours", "alphazero")}),
            (stage3.fig22_acquisition_ablation, {"acquisitions": ("crgp_ucb", "typo")}),
            (stage3.fig23_online_model_ablation, {"variants": ("ours", "typo")}),
            (stage3.fig24_stage_ablation, {"variants": ("ours", "typo")}),
            (stage3.fig25_26_dynamic_traffic, {"methods": ("ours", "alphazero")}),
        ],
    )
    def test_unknown_names_raise_before_any_job_runs(self, runner, names, monkeypatch):
        def run_nothing(*args, **kwargs):
            raise AssertionError("a job or a policy training ran")

        monkeypatch.setattr(stage3, "fork_map", run_nothing)
        monkeypatch.setattr(stage3, "train_offline_policy", run_nothing)
        with pytest.raises(ValueError, match="unknown"):
            runner(SMOKE, **names)

    def test_acquisition_ablation(self):
        result = stage3.fig22_acquisition_ablation(SMOKE, acquisitions=("crgp_ucb", "ei"))
        assert set(result.runs) == {"crgp_ucb", "ei"}
        assert 0.0 <= result.runs["ei"].sla_violation_rate <= 1.0

    def test_model_ablation(self):
        result = stage3.fig23_online_model_ablation(SMOKE, variants=("ours", "no_offline_acceleration"))
        assert set(result.runs) == {"ours", "no_offline_acceleration"}
        for run in result.runs.values():
            assert np.isfinite([run.average_usage_regret, run.average_qoe_regret]).all()
            assert 0.0 <= run.sla_violation_rate <= 1.0

    @pytest.mark.parametrize("cores, pools", [(1, []), (2, [2, 2])], ids=["in-process", "pooled"])
    def test_model_ablation_rows_do_not_depend_on_the_variant_order(
        self, replay_pool, monkeypatch, cores, pools
    ):
        monkeypatch.setattr(forkpool, "available_parallelism", lambda: cores)
        policy = stage3.train_offline_policy(_CUT, default_sla())
        params = policy.qoe_model._params.tobytes()
        variants = ("bnn_contd", "no_offline_acceleration")
        forward = stage3.fig23_online_model_ablation(_CUT, variants=variants, offline_policy=policy)
        backward = stage3.fig23_online_model_ablation(_CUT, variants=variants[::-1], offline_policy=policy)
        assert replay_pool == pools
        assert _rows(forward)[2] == _rows(backward)[2]
        # bnn_contd retrains its own copy; the caller's policy stays as trained.
        assert policy.qoe_model._params.tobytes() == params

    def test_stage_ablation(self):
        result = stage3.fig24_stage_ablation(SMOKE, variants=("ours", "no_stage3"))
        assert set(result.runs) == {"ours", "no_stage3"}
        assert np.mean(result.runs["no_stage3"].usages) > 0.0

    def test_stage_ablation_rows_do_not_depend_on_the_variant_subset(self):
        full = _rows(stage3.fig24_stage_ablation(_CUT))[2]
        alone = _rows(stage3.fig24_stage_ablation(_CUT, variants=("no_stage3",)))[2]
        assert alone["no_stage3"] == full["no_stage3"]

    def test_dynamic_traffic(self):
        result = stage3.fig25_26_dynamic_traffic(
            SMOKE, traffic_levels=(2,), methods=("ours", "dlda")
        )
        assert result.traffic_levels == [2]
        assert len(result.usage_regret["ours"]) == 1
        assert len(result.qoe_regret["dlda"]) == 1


#: The six online figure runners, each with arguments that make two or more jobs.
_ONLINE_RUNNERS = {
    "fig5": lambda: motivation.fig5_online_footprint(_CUT),
    "fig20_21": lambda: stage3.fig20_21_table5_online_comparison(_CUT),
    "fig22": lambda: stage3.fig22_acquisition_ablation(_CUT),
    "fig23": lambda: stage3.fig23_online_model_ablation(_CUT),
    "fig24": lambda: stage3.fig24_stage_ablation(_CUT),
    "fig25_26": lambda: stage3.fig25_26_dynamic_traffic(
        _CUT, traffic_levels=(2, 3), methods=("ours", "dlda")
    ),
}


@pytest.mark.parametrize("runner", list(_ONLINE_RUNNERS))
def test_pooled_runner_matches_the_in_process_runner(runner, replay_pool, monkeypatch):
    pooled = _rows(_ONLINE_RUNNERS[runner]())
    assert replay_pool == [2]
    monkeypatch.setattr(forkpool, "available_parallelism", lambda: 1)
    in_process = _rows(_ONLINE_RUNNERS[runner]())
    assert replay_pool == [2]
    assert pooled == in_process


_ONLINE_FIGURES = """
import json
from repro.experiments import stage3
from repro.experiments.scale import SCALES

smoke = SCALES["smoke"]
online = stage3.fig20_21_table5_online_comparison(smoke)
dynamic = stage3.fig25_26_dynamic_traffic(smoke, traffic_levels=(2,), methods=("ours", "dlda"))
print(json.dumps({
    "series": {name: [run.usages.tolist(), run.qoes.tolist()] for name, run in online.runs.items()},
    "table5": online.table5_rows(),
    "dynamic": [dynamic.usage_regret, dynamic.qoe_regret],
}))
"""


def test_online_figures_are_the_same_in_every_process(child_env):
    """Figs. 20-21 and 25-26 do not depend on the process's string-hash salt."""
    processes = [
        subprocess.Popen(
            [sys.executable, "-c", _ONLINE_FIGURES],
            cwd=_REPO_ROOT,
            env={**child_env, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for hash_seed in ("1", "2")
    ]
    outputs = []
    for process in processes:
        out, err = process.communicate(timeout=300)
        assert process.returncode == 0, err[-2000:]
        outputs.append(out)
    assert outputs[0] == outputs[1]

"""The evaluation harness: dataset, replay runner, layout, determinism.

The replay-pool classes reuse the split-batch identity contract from
``tests/test_engine_split_batches.py``: every explicitly seeded measurement
runs through the same vectorized batch path, so the *same* run layout bytes
must come out of a pooled pass and an in-process pass, with or without a
store.
"""

from __future__ import annotations

import json

import pytest

import repro.engine.forkpool as forkpool_module
from repro.engine.engine import engine_telemetry
from repro.evalharness import (
    DEFAULT_CASES_PATH,
    METRIC_NAMES,
    Envelope,
    EvalCase,
    EvalDatasetError,
    EvalRunner,
    build_report,
    canonical_metrics_bytes,
    canonical_results_bytes,
    check_coverage,
    load_cases,
    scaled_config,
)
from repro.scenarios import get_scenario, scenario_names
from repro.service.costs import CostLedger
from repro.service.store import ResultStore
from repro.service.tracer import Tracer, read_trace
from repro.sim.config import CONFIG_BOUNDS, SliceConfig

WIDE = {
    "latency_p95_ms": Envelope(0.0, 100000.0),
    "sla_violation_rate": Envelope(0.0, 1.0),
    "avg_usage_regret": Envelope(-10.0, 10.0),
    "avg_qoe_regret": Envelope(-10.0, 10.0),
    "sim_real_symmetric_kl": Envelope(0.0, 1000.0),
}


def small_case(scenario: str = "urllc-control", **changes) -> EvalCase:
    """A fast replay case with envelopes no sane metric can escape."""
    base = EvalCase(
        group="test",
        scenario=scenario,
        seeds=(0,),
        measurements=2,
        duration_s=3.0,
        usage_ladder=(0.9, 1.0),
        envelopes=dict(WIDE),
    )
    return base.replace(**changes) if changes else base


class TestRegistryFile:
    def test_defaults_merge_into_every_case(self, tmp_path):
        registry = tmp_path / "cases.toml"
        registry.write_text(
            "\n".join(
                [
                    "# a comment",
                    "[defaults]",
                    "seeds = [0, 1]",
                    "duration_s = 6.0",
                    "[[cases]]",
                    'group = "static"',
                    'scenario = "embb-video"',
                    "[cases.envelopes]",
                    "latency_p95_ms = [10, 20.5]",
                    "[[cases]]",
                    'group = "dynamic"',
                    'scenario = "flash-crowd"',
                    "seeds = [3]",
                    "[cases.envelopes]",
                    "sla_violation_rate = [0, 1]",
                ]
            )
        )
        static, dynamic = load_cases(path=registry)
        assert (static.seeds, static.duration_s) == ((0, 1), 6.0)
        assert static.envelopes == {"latency_p95_ms": Envelope(10.0, 20.5)}
        assert (dynamic.group, dynamic.seeds, dynamic.duration_s) == ("dynamic", (3,), 6.0)

    def test_invalid_toml_raises_a_dataset_error(self, tmp_path):
        registry = tmp_path / "cases.toml"
        registry.write_text('[[cases]]\ngroup = "static\n')
        with pytest.raises(EvalDatasetError, match="not valid TOML"):
            load_cases(path=registry)


class TestDataset:
    def test_checked_in_registry_loads_and_is_unique(self):
        cases = load_cases()
        ids = [case.case_id for case in cases]
        assert len(ids) == len(set(ids))
        assert all(case.envelopes for case in cases)

    def test_checked_in_registry_covers_every_catalog_scenario(self):
        covered = {case.scenario for case in load_cases()}
        assert covered == set(scenario_names())

    def test_group_filter(self):
        cases = load_cases(group="multislice")
        assert cases and all(case.group == "multislice" for case in cases)

    def test_scenario_filter(self):
        cases = load_cases(scenario="urllc-control")
        assert len(cases) == 1

    def test_filter_miss_names_registered_groups(self):
        with pytest.raises(EvalDatasetError, match="registered groups"):
            load_cases(group="nope")

    def test_filter_miss_names_covered_scenarios(self):
        with pytest.raises(EvalDatasetError, match="urllc-control"):
            load_cases(scenario="nope")

    def test_case_requires_usage_ladder_with_deployed_factor(self):
        with pytest.raises(EvalDatasetError, match="1.0"):
            small_case(usage_ladder=(0.9, 1.1))

    def test_case_rejects_unknown_metric(self):
        with pytest.raises(EvalDatasetError, match="unknown metric"):
            small_case(envelopes={"nonsense": Envelope(0.0, 1.0)})

    def test_case_requires_seeds_and_envelopes(self):
        with pytest.raises(EvalDatasetError, match="seed"):
            small_case(seeds=())
        with pytest.raises(EvalDatasetError, match="bound at least one metric"):
            small_case(envelopes={})

    def test_envelope_rejects_inverted_and_non_finite_bounds(self):
        with pytest.raises(EvalDatasetError, match="exceeds"):
            Envelope(2.0, 1.0)
        with pytest.raises(EvalDatasetError, match="finite"):
            Envelope(0.0, float("inf"))

    def test_envelope_never_contains_nan(self):
        assert not Envelope(0.0, 1.0).contains(float("nan"))
        assert Envelope(0.0, 1.0).contains(0.0) and Envelope(0.0, 1.0).contains(1.0)

    def test_duplicate_case_ids_in_registry_are_rejected(self, tmp_path):
        registry = tmp_path / "cases.toml"
        entry = (
            "[[cases]]\n"
            'group = "g"\n'
            'scenario = "urllc-control"\n'
            "[cases.envelopes]\n"
            "latency_p95_ms = [0, 100]\n"
        )
        registry.write_text(entry + entry)
        with pytest.raises(EvalDatasetError, match="duplicate case id"):
            load_cases(path=registry)


class TestCoverageGuard:
    def test_checked_in_registry_passes_coverage(self):
        assert check_coverage(load_cases()) == []

    def test_missing_scenario_fails_with_actionable_message(self):
        partial = [case for case in load_cases() if case.scenario != "flash-crowd"]
        failures = check_coverage(partial)
        assert len(failures) == 1
        assert failures[0].kind == "coverage"
        assert "flash-crowd" in failures[0].message
        assert "cases.toml" in failures[0].message

    def test_default_registry_file_is_the_checked_in_one(self):
        assert DEFAULT_CASES_PATH.name == "cases.toml"
        assert DEFAULT_CASES_PATH.exists()


class TestScaledConfig:
    def test_scales_only_contended_dimensions(self):
        config = SliceConfig(mcs_offset_ul=3, mcs_offset_dl=2)
        scaled = scaled_config(config, 0.5)
        assert scaled.mcs_offset_ul == 3 and scaled.mcs_offset_dl == 2
        assert scaled.bandwidth_ul == pytest.approx(config.bandwidth_ul * 0.5)

    def test_clamps_to_config_bounds(self):
        config = SliceConfig()
        huge = scaled_config(config, 1000.0)
        for name in ("bandwidth_ul", "bandwidth_dl", "backhaul_bw", "cpu_ratio"):
            assert getattr(huge, name) <= CONFIG_BOUNDS[name][1]

    def test_identity_factor_is_identity(self):
        config = SliceConfig()
        assert scaled_config(config, 1.0) == config


class TestRunnerLayout:
    def test_run_layout_and_result_schema(self, tmp_path):
        case = small_case()
        runner = EvalRunner(out_dir=tmp_path)
        runner.run_case(case)
        run_dir = tmp_path / "test" / "urllc-control" / "seed=0"
        payload = json.loads((run_dir / "result.json").read_text())
        assert payload["schema"] == "atlas-eval-run/1"
        assert payload["case"] == "test/urllc-control"
        assert payload["seed"] == 0
        assert set(payload["metrics"]) == set(METRIC_NAMES)
        # No executor record: there is one way to execute a batch.
        assert set(payload) == {
            "schema", "case", "group", "scenario", "seed", "latency_bias_ms", "metrics",
        }

    def test_events_jsonl_lines_are_parseable_and_complete(self, tmp_path):
        case = small_case()
        EvalRunner(out_dir=tmp_path).run_case(case)
        lines = (
            (tmp_path / "test" / "urllc-control" / "seed=0" / "events.jsonl")
            .read_text()
            .splitlines()
        )
        events = [json.loads(line) for line in lines]
        # two environments x two ladder variants x two measurements
        assert len(events) == 2 * len(case.usage_ladder) * case.measurements
        assert {event["env"] for event in events} == {"sim", "real"}
        assert all(event["kind"] == "measurement" for event in events)

    def test_multislice_events_carry_slice_names(self, tmp_path):
        case = small_case(scenario="mixed-enterprise", measurements=1, usage_ladder=(1.0,))
        EvalRunner(out_dir=tmp_path).run_case(case)
        lines = (
            (tmp_path / "test" / "mixed-enterprise" / "seed=0" / "events.jsonl")
            .read_text()
            .splitlines()
        )
        names = {json.loads(line)["slice"] for line in lines}
        assert names == {w.name for w in get_scenario("mixed-enterprise").slices}

    def test_in_memory_mode_writes_nothing(self, tmp_path):
        runner = EvalRunner()
        result = runner.run_case(small_case())
        assert result.seed_results and not list(tmp_path.iterdir())


class TestRunnerDeterminism:
    def test_same_seed_reproduces_identical_metric_bytes(self):
        case = small_case()
        first = EvalRunner().run_seed(case, 0)
        second = EvalRunner().run_seed(case, 0)
        assert canonical_metrics_bytes(first.metrics) == canonical_metrics_bytes(second.metrics)

    def test_different_seeds_change_the_metrics(self):
        case = small_case()
        runner = EvalRunner()
        a = runner.run_seed(case, 0)
        b = runner.run_seed(case, 7)
        assert canonical_metrics_bytes(a.metrics) != canonical_metrics_bytes(b.metrics)

    def test_latency_bias_shifts_p95_by_its_offset(self):
        case = small_case()
        clean = EvalRunner().run_seed(case, 0)
        biased = EvalRunner(latency_bias_ms=100.0).run_seed(case, 0)
        assert biased.metrics["latency_p95_ms"] == pytest.approx(
            clean.metrics["latency_p95_ms"] + 100.0
        )
        assert biased.latency_bias_ms == 100.0


class TestReplayPool:
    """Pooled replays: the in-process bytes, ledgers and spans."""

    # A static case, a hostile case and the multi-slice case, two seeds each.
    CASES = (
        small_case(seeds=(0, 1), measurements=3, usage_ladder=(0.9, 1.0, 1.1)),
        small_case(scenario="traffic-drift", seeds=(0, 1)),
        small_case(scenario="mixed-enterprise", seeds=(0, 1), measurements=1),
    )
    JOBS = [(case.case_id, seed) for case in CASES for seed in case.seeds]

    def run(self, runner):
        """Run the cases; return their results and the executed-request delta."""
        before = engine_telemetry()["executed_requests"]
        results = runner.run_cases(self.CASES)
        return results, engine_telemetry()["executed_requests"] - before

    def test_pooled_run_matches_the_in_process_run(self, tmp_path, replay_pool, monkeypatch):
        pooled, pooled_executed = self.run(EvalRunner(out_dir=tmp_path / "pooled"))
        assert replay_pool == [2]
        monkeypatch.setattr(forkpool_module, "available_parallelism", lambda: 1)
        local, local_executed = self.run(EvalRunner(out_dir=tmp_path / "local"))
        assert replay_pool == [2]

        assert canonical_results_bytes(build_report(pooled)) == canonical_results_bytes(
            build_report(local)
        )
        assert pooled_executed == local_executed > 0
        runs = sorted(path.parent for path in (tmp_path / "local").rglob("result.json"))
        assert len(runs) == len(self.JOBS)
        for local_run in runs:
            pooled_run = tmp_path / "pooled" / local_run.relative_to(tmp_path / "local")
            for name in ("events.jsonl", "result.json"):
                produced = (pooled_run / name).read_bytes()
                assert produced and produced == (local_run / name).read_bytes()

    def test_store_backed_runner_pools_with_an_exact_ledger(
        self, tmp_path, replay_pool, monkeypatch
    ):
        store = ResultStore(tmp_path / "store")
        passes = {}
        for temperature in ("cold", "warm"):
            runner = EvalRunner(store=store, out_dir=tmp_path / temperature)
            ledger = CostLedger(cache=runner.cache, store=store)
            results, executed = self.run(runner)
            passes[temperature] = results, executed, ledger.finish()
        assert replay_pool == [2, 2]
        monkeypatch.setattr(forkpool_module, "available_parallelism", lambda: 1)
        local, requests = self.run(EvalRunner(out_dir=tmp_path / "local"))
        assert replay_pool == [2, 2]

        runs = sorted(path.parent for path in (tmp_path / "local").rglob("events.jsonl"))
        assert len(runs) == len(self.JOBS)
        for temperature, (results, executed, costs) in passes.items():
            assert canonical_results_bytes(build_report(results)) == canonical_results_bytes(
                build_report(local)
            )
            for local_run in runs:
                pooled_run = tmp_path / temperature / local_run.relative_to(tmp_path / "local")
                for name in ("events.jsonl", "result.json"):
                    produced = (pooled_run / name).read_bytes()
                    assert produced and produced == (local_run / name).read_bytes()
            cache = costs["cache"]
            assert costs["engine_requests"] == executed
            assert cache["store_hits"] == costs["store"]["hits"]
            assert cache["memory_hits"] + cache["store_hits"] + cache["misses"] == requests > 0
        _, cold_executed, cold = passes["cold"]
        assert cold_executed == cold["cache"]["misses"] == cold["store"]["puts"] > 0
        _, warm_executed, warm = passes["warm"]
        assert warm_executed == warm["cache"]["misses"] == 0

    def test_traced_runner_pools_with_a_span_per_replay(self, tmp_path, replay_pool):
        with Tracer(tmp_path / "trace.jsonl") as tracer:
            self.run(EvalRunner(tracer=tracer))
        spans = [
            record for record in read_trace(tmp_path / "trace.jsonl")
            if record["kind"] == "span" and record["name"] == "eval.seed"
        ]
        # Workers write their spans as their replays finish, so compare multisets.
        replays = sorted((span["attrs"]["case"], span["attrs"]["seed"]) for span in spans)
        assert replays == sorted(self.JOBS)
        assert all(span["status"] == "ok" for span in spans)
        assert replay_pool == [2]

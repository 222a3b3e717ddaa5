"""The evaluation harness: dataset, replay runner, layout, determinism.

The cross-executor classes reuse the byte-identity contract from
``tests/test_engine_sharded.py``: the runner pins every measurement to the
vectorized numerics family, so the *same* metric bytes must come out of the
serial, vectorized, sharded and auto executor kinds.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.evalharness.runner as runner_module
from repro.engine.engine import MeasurementEngine, engine_telemetry
from repro.engine.protocol import MeasurementRequest
from repro.engine.replay import VectorReplayEnvironment
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
    parse_cases_yaml,
    scaled_config,
)
from repro.prototype.testbed import RealNetwork
from repro.scenarios import get_scenario, scenario_names
from repro.service.costs import CostLedger
from repro.service.store import ResultStore
from repro.service.tracer import Tracer, read_trace
from repro.sim.config import CONFIG_BOUNDS, SliceConfig
from repro.sim.network import NetworkSimulator
from repro.sim.parameters import SimulationParameters
from repro.sim.scenario import Scenario

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


class TestMiniYamlParser:
    def test_scalars_lists_and_nesting(self):
        document = parse_cases_yaml(
            "\n".join(
                [
                    "# a comment",
                    "defaults:",
                    "  seeds: [0, 1]",
                    "  duration_s: 6.0",
                    "cases:",
                    "  - group: static",
                    "    scenario: embb-video",
                    "    envelopes:",
                    "      latency_p95_ms: [10, 20.5]",
                    "  - group: dynamic",
                    "    scenario: flash-crowd",
                    "    envelopes:",
                    "      sla_violation_rate: [0, 1]",
                ]
            )
        )
        assert document["defaults"] == {"seeds": [0, 1], "duration_s": 6.0}
        assert len(document["cases"]) == 2
        assert document["cases"][0]["envelopes"]["latency_p95_ms"] == [10, 20.5]
        assert document["cases"][1]["group"] == "dynamic"

    def test_quoted_strings_and_booleans(self):
        document = parse_cases_yaml('flag: true\nname: "hello world"\n')
        assert document == {"flag": True, "name": "hello world"}

    def test_tab_indentation_is_rejected(self):
        with pytest.raises(EvalDatasetError, match="indentation"):
            parse_cases_yaml("cases:\n\t- group: x\n")

    def test_odd_indentation_is_rejected(self):
        with pytest.raises(EvalDatasetError, match="even number"):
            parse_cases_yaml("cases:\n   odd: 1\n")

    def test_duplicate_keys_are_rejected(self):
        with pytest.raises(EvalDatasetError, match="duplicate key"):
            parse_cases_yaml("a: 1\na: 2\n")

    def test_empty_document_parses_to_empty_mapping(self):
        assert parse_cases_yaml("# only a comment\n") == {}


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
        registry = tmp_path / "cases.yaml"
        entry = (
            "  - group: g\n"
            "    scenario: urllc-control\n"
            "    envelopes:\n"
            "      latency_p95_ms: [0, 100]\n"
        )
        registry.write_text("cases:\n" + entry + entry)
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
        assert "cases.yaml" in failures[0].message

    def test_default_registry_file_is_the_checked_in_one(self):
        assert DEFAULT_CASES_PATH.name == "cases.yaml"
        assert DEFAULT_CASES_PATH.exists()


class TestVectorReplayEnvironment:
    def test_scalar_run_equals_one_lane_batch(self):
        simulator = NetworkSimulator(seed=3)
        wrapped = VectorReplayEnvironment(NetworkSimulator(seed=3))
        request = MeasurementRequest(config=SliceConfig(), traffic=5, duration=4.0, seed=11)
        direct = simulator.run_requests([request])[0]
        via_run = wrapped.run(SliceConfig(), traffic=5, duration=4.0, seed=11)
        np.testing.assert_array_equal(direct.latencies_ms, via_run.latencies_ms)

    def test_one_lane_equals_lane_of_larger_batch(self):
        wrapped = VectorReplayEnvironment(NetworkSimulator(seed=3))
        requests = [
            MeasurementRequest(config=SliceConfig(), traffic=5, duration=4.0, seed=seed)
            for seed in (7, 8, 9)
        ]
        batched = wrapped.run_requests(requests)
        for request, expected in zip(requests, batched):
            solo = wrapped.run_requests([request])[0]
            np.testing.assert_array_equal(solo.latencies_ms, expected.latencies_ms)

    def test_real_network_resolves_through_prepare_batch(self):
        wrapped = VectorReplayEnvironment(RealNetwork(seed=5))
        result = wrapped.run(SliceConfig(), traffic=5, duration=4.0, seed=13)
        assert result.latencies_ms.size > 0

    def test_rejects_environments_without_batch_hooks(self):
        with pytest.raises(TypeError, match="not vector-capable"):
            VectorReplayEnvironment(object())

    def test_fingerprint_is_namespaced(self):
        simulator = NetworkSimulator(seed=0)
        wrapped = VectorReplayEnvironment(simulator)
        assert wrapped.fingerprint()[0] == "vector-replay"
        assert wrapped.fingerprint() != simulator.fingerprint()

    def test_with_params_and_scenario_rewrap(self):
        wrapped = VectorReplayEnvironment(NetworkSimulator(seed=0))
        assert isinstance(wrapped.with_params(SimulationParameters()), VectorReplayEnvironment)
        assert isinstance(wrapped.with_scenario(Scenario(traffic=9)), VectorReplayEnvironment)
        assert wrapped.with_scenario(Scenario(traffic=9)).scenario.traffic == 9

    def test_engine_accepts_wrapped_environment_under_all_kinds(self):
        request = MeasurementRequest(config=SliceConfig(), traffic=5, duration=3.0, seed=2)
        baseline = None
        for kind in ("serial", "vectorized", "auto"):
            engine = MeasurementEngine(
                VectorReplayEnvironment(NetworkSimulator(seed=1)), executor=kind, cache=False
            )
            result = engine.run_batch([request])[0]
            if baseline is None:
                baseline = result.latencies_ms
            else:
                np.testing.assert_array_equal(result.latencies_ms, baseline)


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
        assert payload["executor"]["resolved"] in (
            "serial", "thread", "process", "vectorized", "sharded", "auto",
        )

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


class TestCrossExecutorIdentity:
    """The satellite contract: identical metrics under every executor kind."""

    EXECUTORS = ("serial", "vectorized", "sharded", "auto")

    @pytest.mark.parametrize("scenario", ["urllc-control", "embb-bursty", "mixed-enterprise"])
    def test_metrics_identical_across_executors(self, scenario):
        case = small_case(scenario=scenario, measurements=1, usage_ladder=(1.0,))
        blobs = {}
        records = {}
        for kind in self.EXECUTORS:
            run = EvalRunner(executor=kind).run_seed(case, 0)
            blobs[kind] = canonical_metrics_bytes(run.metrics)
            records[kind] = run.executor
        baseline = blobs["serial"]
        assert all(blob == baseline for blob in blobs.values()), blobs
        # The report must record which executor produced each run.
        assert records["serial"]["kind"] == "serial"
        assert records["sharded"]["kind"] == "sharded"
        assert records["auto"]["kind"] == "auto"
        assert records["auto"]["resolved"] in ("serial", "vectorized", "sharded")


class TestReplayPool:
    """Pooled replays: the in-process bytes, folded telemetry, in-process ledgers."""

    # A static case, a hostile case and the multi-slice case, two seeds each.
    # The static case's 9-lane batches shard outside the pool.
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

    def test_pool_size(self, replay_pool):
        assert EvalRunner(executor="auto").replay_workers(6) == 2
        assert EvalRunner(executor="sharded").replay_workers(6) == 2
        assert EvalRunner(executor="auto", max_workers=1).replay_workers(6) == 1
        assert EvalRunner(executor="auto").replay_workers(1) == 1
        assert EvalRunner(executor="process").replay_workers(6) == 1

    @pytest.mark.parametrize(
        "executor, pooled_record",
        [("auto", {"kind": "auto", "resolved": "vectorized"}),
         ("sharded", {"kind": "sharded", "resolved": "sharded"})],
        ids=["auto", "sharded"],
    )
    def test_pooled_run_matches_the_in_process_run(
        self, tmp_path, replay_pool, monkeypatch, executor, pooled_record
    ):
        pooled, pooled_executed = self.run(
            EvalRunner(executor=executor, max_workers=2, out_dir=tmp_path / "pooled")
        )
        assert replay_pool == [2]
        monkeypatch.setattr(runner_module, "available_parallelism", lambda: 1)
        local, local_executed = self.run(
            EvalRunner(executor=executor, max_workers=2, out_dir=tmp_path / "local")
        )
        assert replay_pool == [2]

        assert canonical_results_bytes(build_report(pooled)) == canonical_results_bytes(
            build_report(local)
        )
        assert pooled_executed == local_executed > 0
        runs = sorted(path.parent for path in (tmp_path / "local").rglob("result.json"))
        assert len(runs) == len(self.JOBS)
        for local_run in runs:
            pooled_run = tmp_path / "pooled" / local_run.relative_to(tmp_path / "local")
            events = (pooled_run / "events.jsonl").read_bytes()
            assert events and events == (local_run / "events.jsonl").read_bytes()
            pooled_payload = json.loads((pooled_run / "result.json").read_text())
            local_payload = json.loads((local_run / "result.json").read_text())
            assert pooled_payload["executor"] == pooled_record
            pooled_payload["executor"] = local_payload["executor"]
            assert pooled_payload == local_payload
        static = tmp_path / "local" / "test" / "urllc-control" / "seed=0" / "result.json"
        assert json.loads(static.read_text())["executor"]["resolved"] == "sharded"

    def test_store_backed_runner_stays_in_process_with_an_exact_ledger(
        self, tmp_path, replay_pool
    ):
        store = ResultStore(tmp_path / "store")
        runner = EvalRunner(executor="auto", max_workers=2, store=store)
        ledger = CostLedger(cache=runner.cache, store=store)
        _, executed = self.run(runner)
        costs = ledger.finish()
        assert replay_pool == []
        assert costs["engine_requests"] == executed == costs["cache"]["misses"] > 0
        assert costs["store"]["puts"] == costs["cache"]["misses"]

    def test_traced_runner_stays_in_process_with_a_span_per_replay(self, tmp_path, replay_pool):
        with Tracer(tmp_path / "trace.jsonl") as tracer:
            self.run(EvalRunner(executor="auto", max_workers=2, tracer=tracer))
        spans = [
            record for record in read_trace(tmp_path / "trace.jsonl")
            if record["kind"] == "span" and record["name"] == "eval.seed"
        ]
        assert [(span["attrs"]["case"], span["attrs"]["seed"]) for span in spans] == self.JOBS
        assert replay_pool == []

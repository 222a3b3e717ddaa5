"""The ``python -m repro`` command line: listing, showing and running scenarios.

Pipeline runs use the smoke scale with an aggressively short ``--duration``
so the whole module stays cheap; the full smoke-scale acceptance runs live
in CI and the examples.
"""

from __future__ import annotations

import json
import re

import pytest

import repro.core.atlas as atlas_module
import repro.engine.forkpool as forkpool_module
from repro.cli import build_parser, main
from repro.engine import attach_shared_store, engine_telemetry, shared_cache
from repro.experiments.scale import get_scale
from repro.scenarios import get_scenario, scenario_names
from repro.service.tracer import Tracer, read_trace


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    """Invoke the CLI in-process and return (exit code, stdout)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestListAndShow:
    def test_list_scenarios_shows_every_entry(self, capsys):
        code, out = run_cli(capsys, "list-scenarios")
        assert code == 0
        for name in scenario_names():
            assert name in out
        assert f"{len(scenario_names())} scenarios registered" in out

    def test_list_scenarios_has_at_least_six_entries(self, capsys):
        _, out = run_cli(capsys, "list-scenarios")
        count = int(out.strip().splitlines()[-1].split()[0])
        assert count >= 6

    def test_show_single_slice_entry(self, capsys):
        code, out = run_cli(capsys, "show", "urllc-control")
        assert code == 0
        assert "100ms @ 95%" in out
        assert "deployed:" in out

    def test_show_multislice_entry_prints_budget_and_slices(self, capsys):
        code, out = run_cli(capsys, "show", "mixed-enterprise")
        assert code == 0
        assert "shared budget" in out
        for slice_name in ("frame-offloading", "embb-video", "urllc-control", "mmtc-telemetry"):
            assert slice_name in out

    def test_show_dynamic_entry_prints_trace(self, capsys):
        _, out = run_cli(capsys, "show", "frame-offloading-diurnal")
        assert "trace:" in out and "DiurnalTrace" in out

    def test_unknown_scenario_exits_2_with_message(self, capsys):
        code = main(["show", "not-a-scenario"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown scenario" in captured.err
        assert "frame-offloading" in captured.err  # lists what IS available

    def test_parser_rejects_bad_stage(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scenario", "embb-video", "--stage", "4"])


class TestRun:
    def test_run_stage2_single_slice(self, capsys):
        code, out = run_cli(
            capsys,
            "run",
            "--scenario",
            "embb-video",
            "--stage",
            "2",
            "--scale",
            "smoke",
            "--duration",
            "2.0",
        )
        assert code == 0
        assert "stage 2: best offline config" in out
        assert "done" in out

    def test_run_stage3_trains_prerequisite_policy(self, capsys):
        code, out = run_cli(
            capsys,
            "run",
            "--scenario",
            "frame-offloading-diurnal",
            "--stage",
            "3",
            "--scale",
            "smoke",
            "--duration",
            "2.0",
        )
        assert code == 0
        assert "prerequisite offline policy" in out
        # The diurnal trace spans several traffic levels within the smoke
        # budget, so online learning must have segmented.
        assert "traffic segment(s)" in out

    def test_run_multislice_prints_contended_rounds(self, capsys, tmp_path):
        json_path = tmp_path / "summary.json"
        code, out = run_cli(
            capsys,
            "run",
            "--scenario",
            "mixed-enterprise",
            "--stage",
            "2",
            "--scale",
            "smoke",
            "--duration",
            "2.0",
            "--json",
            str(json_path),
        )
        assert code == 0
        assert "contended round (deployed configurations):" in out
        assert "contended round (optimised configurations):" in out
        assert "allocated totals:" in out
        payload = json.loads(json_path.read_text())
        assert payload["scenario"] == "mixed-enterprise"
        assert len(payload["slices"]) == 4
        assert payload["multislice_before"] is not None
        assert payload["multislice_after"] is not None
        # Private (underscore) keys carrying live objects never reach JSON.
        assert "_policy" not in json.dumps(payload)

    def test_run_unknown_scenario_exits_2(self, capsys):
        code = main(["run", "--scenario", "nope", "--stage", "1", "--scale", "smoke"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown scenario" in captured.err

    @pytest.mark.parametrize(
        "entry",
        [
            ("frame-offloading",),
            ("frame-offloading-diurnal",),
            ("sla-storm", "--faults", "guarded"),
            ("urllc-control",),
        ],
        ids=lambda entry: "-".join(part.lstrip("-") for part in entry),
    )
    def test_all_stages_identical_without_a_store_and_with_a_cold_and_a_warm_store(
        self, capsys, tmp_path, entry
    ):
        json_path = tmp_path / "run.json"
        store = str(tmp_path / "store")
        passes = {}
        for name, extra in (("none", ()), ("cold", ("--store", store)), ("warm", ("--store", store))):
            shared_cache().clear()  # every pass starts from an empty memory tier
            try:
                code, out = run_cli(
                    capsys,
                    "run",
                    "--scenario",
                    *entry,
                    "--stage",
                    "all",
                    "--scale",
                    "smoke",
                    "--duration",
                    "2",
                    "--json",
                    str(json_path),
                    *extra,
                )
            finally:
                attach_shared_store(None)
            assert code == 0
            payload = json.loads(json_path.read_text())
            costs = payload.pop("costs")
            # A store-backed run prints its cost ledger; nothing else differs.
            passes[name] = (costs, json.dumps(payload, indent=2), re.sub(r"\ncosts: [^\n]*\n", "", out))
        assert passes["none"][0] is None
        assert passes["cold"][0]["engine_requests"] > 0
        assert passes["warm"][0]["engine_requests"] == 0
        assert passes["warm"][0]["cache"]["store_hits"] > 0
        assert len({(summary, out) for _, summary, out in passes.values()}) == 1


class TestExecutorFlag:
    """The ``--executor`` flags are gone: every command that had one rejects it."""

    @pytest.mark.parametrize(
        "prefix",
        [
            ("run", "--scenario", "embb-video"),
            ("eval",),
            ("submit", "--state", "state", "run", "--scenario", "embb-video"),
            ("submit", "--state", "state", "eval"),
        ],
        ids=["run", "eval", "submit-run", "submit-eval"],
    )
    def test_executor_flag_exits_2(self, prefix, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for kind in ("auto", "sharded", "vectorized"):
            with pytest.raises(SystemExit) as excinfo:
                main([*prefix, "--executor", kind])
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --executor" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # nothing was submitted or written


MIXED_RUN = ("run", "--scenario", "mixed-enterprise", "--scale", "smoke", "--duration", "2")


class TestSlicePool:
    """Multi-slice runs: each slice's pipeline runs whole in a fork-pool worker."""

    def run(self, capsys, json_path, *extra: str) -> tuple[str, bytes, int]:
        """Run the multi-slice entry from a cold cache: stdout, JSON bytes, executed requests."""
        shared_cache().clear()
        before = engine_telemetry()["executed_requests"]
        code, out = run_cli(capsys, *MIXED_RUN, "--json", str(json_path), *extra)
        assert code == 0
        return out, json_path.read_bytes(), engine_telemetry()["executed_requests"] - before

    def test_pooled_run_matches_the_in_process_run(self, capsys, tmp_path, replay_pool, monkeypatch):
        json_path = tmp_path / "summary.json"
        pooled = self.run(capsys, json_path, "--stage", "all")
        assert replay_pool == [2]
        monkeypatch.setattr(forkpool_module, "available_parallelism", lambda: 1)
        local = self.run(capsys, json_path, "--stage", "all")
        assert replay_pool == [2]
        assert pooled == local
        assert "[urllc-control]" in pooled[0] and pooled[2] > 0

    def test_store_runs_pool(self, capsys, tmp_path, replay_pool, monkeypatch):
        try:
            _, payload, executed = self.run(
                capsys, tmp_path / "store.json", "--stage", "2", "--store", str(tmp_path / "store")
            )
        finally:
            attach_shared_store(None)
        assert replay_pool == [2]
        pooled = json.loads(payload)
        costs = pooled.pop("costs")
        assert costs["engine_requests"] == executed == costs["cache"]["misses"] > 0
        monkeypatch.setattr(forkpool_module, "available_parallelism", lambda: 1)
        _, payload, _ = self.run(capsys, tmp_path / "local.json", "--stage", "2")
        local = json.loads(payload)
        assert local.pop("costs") is None
        assert pooled == local

    def test_traced_slices_pool_with_a_span_per_slice(self, tmp_path, replay_pool):
        spec = get_scenario("mixed-enterprise")
        with Tracer(tmp_path / "trace.jsonl") as tracer:
            summaries = atlas_module.run_slices(spec, "1", get_scale("smoke"), 2.0, 0, tracer=tracer)
        spans = [
            record["attrs"]["slice"] for record in read_trace(tmp_path / "trace.jsonl")
            if record["kind"] == "span" and record["name"] == "job.slice"
        ]
        names = [workload.name for workload in spec.slices]
        assert [summary["slice"] for summary in summaries] == names
        # Workers write their spans as their slices finish, so compare multisets.
        assert sorted(spans) == sorted(names)
        assert replay_pool == [2]

    @pytest.mark.parametrize("cores, pools", [(2, [2]), (1, [])], ids=["pooled", "in-process"])
    def test_a_failing_slice_raises_through_main(self, replay_pool, monkeypatch, cores, pools):
        run = atlas_module.Atlas.run

        def failing(atlas, *args, **kwargs):
            if atlas.workload.name == "embb-video":
                raise RuntimeError(f"{atlas.workload.name} pipeline failed")
            return run(atlas, *args, **kwargs)

        monkeypatch.setattr(atlas_module.Atlas, "run", failing)
        monkeypatch.setattr(forkpool_module, "available_parallelism", lambda: cores)
        with pytest.raises(RuntimeError, match="embb-video pipeline failed"):
            main([*MIXED_RUN, "--stage", "1"])
        assert replay_pool == pools


SMALL_REGISTRY = """\
[defaults]
seeds = [0]
measurements = 2
duration_s = 3.0
usage_ladder = [0.9, 1.0]

[[cases]]
group = "test"
scenario = "urllc-control"
[cases.envelopes]
latency_p95_ms = [0, 100000]
sla_violation_rate = [0, 1]
avg_usage_regret = [-10, 10]
avg_qoe_regret = [-10, 10]
sim_real_symmetric_kl = [0, 1000]
"""


class TestEval:
    """The `eval` subcommand: report, run layout, gate exit codes."""

    def write_registry(self, tmp_path, text=SMALL_REGISTRY):
        registry = tmp_path / "cases.toml"
        registry.write_text(text)
        return registry

    def test_eval_writes_report_and_layout(self, capsys, tmp_path):
        registry = self.write_registry(tmp_path)
        out = tmp_path / "eval_out"
        code, text = run_cli(
            capsys,
            "eval",
            "--cases",
            str(registry),
            "--group",
            "test",
            "--out",
            str(out),
            "--no-determinism",
        )
        assert code == 0
        assert "[PASS] test/urllc-control" in text
        assert "gate: PASS" in text
        report = json.loads((out / "EVAL_report.json").read_text())
        assert report["schema"] == "atlas-eval/1"
        assert (out / "test" / "urllc-control" / "seed=0" / "result.json").exists()
        assert (out / "test" / "urllc-control" / "seed=0" / "events.jsonl").exists()

    def test_eval_json_prints_the_report(self, capsys, tmp_path):
        registry = self.write_registry(tmp_path)
        code, text = run_cli(
            capsys,
            "eval",
            "--cases",
            str(registry),
            "--group",
            "test",
            "--out",
            str(tmp_path / "out"),
            "--no-determinism",
            "--json",
        )
        assert code == 0
        report = json.loads(text)
        assert report["schema"] == "atlas-eval/1"
        assert report["gate"]["passed"] is True

    def test_eval_gate_failure_exits_1(self, capsys, tmp_path):
        registry = self.write_registry(
            tmp_path,
            SMALL_REGISTRY.replace("latency_p95_ms = [0, 100000]", "latency_p95_ms = [0, 0.001]"),
        )
        code, text = run_cli(
            capsys,
            "eval",
            "--cases",
            str(registry),
            "--group",
            "test",
            "--out",
            str(tmp_path / "out"),
            "--no-determinism",
        )
        assert code == 1
        assert "BREACH" in text
        assert "gate: FAIL" in text

    def test_eval_seeds_override(self, capsys, tmp_path):
        registry = self.write_registry(tmp_path)
        out = tmp_path / "out"
        code, _ = run_cli(
            capsys,
            "eval",
            "--cases",
            str(registry),
            "--group",
            "test",
            "--out",
            str(out),
            "--seeds",
            "5",
            "--no-determinism",
        )
        assert code == 0
        assert (out / "test" / "urllc-control" / "seed=5" / "result.json").exists()

    def test_eval_unknown_scenario_filter_exits_2(self, capsys, tmp_path):
        registry = self.write_registry(tmp_path)
        code = main(
            [
                "eval",
                "--cases",
                str(registry),
                "--scenario",
                "not-a-scenario",
                "--out",
                str(tmp_path / "out"),
                "--no-determinism",
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "not-a-scenario" in captured.err

    def test_eval_invalid_toml_exits_2(self, capsys, tmp_path):
        registry = self.write_registry(tmp_path, SMALL_REGISTRY.replace("[[cases]]", "[[cases]"))
        code = main(["eval", "--cases", str(registry), "--out", str(tmp_path / "out"), "--no-determinism"])
        captured = capsys.readouterr()
        assert code == 2
        assert "not valid TOML" in captured.err
        assert not (tmp_path / "out").exists()

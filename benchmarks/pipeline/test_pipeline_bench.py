"""Self-test of the pipeline benchmark: arithmetic, extraction, verdicts, one real traced pass."""

from __future__ import annotations

import hashlib
import json

import pytest
from pipeline_trace import LAYER_METRICS, aggregate, layer_metrics, read_records, self_times, span_record
from run import (
    BY_NAME,
    ROOT,
    TIMED_METRICS,
    MetricSpec,
    Output,
    Session,
    Workload,
    canonical,
    classify,
    extract,
    verdict,
)


def span(span_id, parent, start, duration, name="s", **attrs):
    return span_record(name, span_id, parent, start, duration, attrs=attrs)


# ------------------------------------------------------------------ self time
def test_self_time_subtracts_children_once_and_clips_them():
    spans = [
        span(0, None, 0.0, 10.0, "pass"),
        span(1, 0, 1.0, 6.0, "outer"),
        span(2, 1, 2.0, 2.0, "child"),
        span(3, 1, 3.0, 2.0, "child"),  # overlaps the first child by 1 s
        span(4, 1, 6.0, 3.0, "child"),  # runs 2 s past its parent's end
        span(5, 2, 2.5, 0.5, "grandchild"),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(4.0)
    assert own[1] == pytest.approx(6.0 - 3.0 - 1.0)
    assert own[2] == pytest.approx(1.5)
    assert own[5] == pytest.approx(0.5)
    table = aggregate(spans)
    assert table["child"]["calls"] == 3
    assert table["child"]["total_s"] == pytest.approx(7.0)


def test_layer_metrics_cover_every_declared_metric():
    records = [
        span(1, 0, 0.1, 1.0, "cli.import"),
        span(2, 0, 1.1, 8.0, "cli.main"),
        span(3, 2, 1.2, 4.0, "models.bnn.fit", rows=40, epochs=150),
        span(4, 2, 5.2, 1.0, "engine.run_batch", requests=10),
        span(5, 4, 5.3, 0.5, "engine.executor"),
        span(0, None, 0.0, 10.0, "pass"),
        {"kind": "event", "name": "counters", "attrs": {"engine.cache.memory": 4,
                                                        "engine.executed_requests": 6,
                                                        "engine.sim_seconds": 60.0}},
    ]
    metrics = layer_metrics(records, untraced_wall_s=8.0)
    assert list(metrics) == list(LAYER_METRICS)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(LAYER_METRICS.items())
    assert tuple(m["name"] for m in declared["end_to_end"]) == TIMED_METRICS
    assert metrics["models.bnn.fit.share"] == pytest.approx(0.4)
    assert metrics["models.bnn.fit.epochs"] == 150
    assert metrics["engine.hit_ratio"] == pytest.approx(0.4)
    assert metrics["engine.served.fresh"] == 6
    assert metrics["engine.executor.sim_s_per_s"] == pytest.approx(120.0)
    assert metrics["trace.coverage"] == pytest.approx(0.9)
    assert metrics["trace.other_s"] == pytest.approx(1.0)
    assert metrics["trace.overhead"] == pytest.approx(0.25)


# ---------------------------------------------------------------- extraction
def stage3(usage, qoe, violations, iterations):
    return {"segments": [{"traffic": 1, "iterations": iterations}], "mean_usage": usage,
            "mean_qoe": qoe, "sla_violations": violations}


def test_extract_single_slice_summary():
    summary = {"scenario": "frame-offloading", "slices": [{"slice": "a", "stage3": stage3(0.4, 0.9, 5, 25)}]}
    output = extract(BY_NAME["frame-small"], json.dumps(summary, indent=2))
    assert output.quality == pytest.approx(
        {"online_usage": 0.4, "online_qoe": 0.9, "online_violation_rate": 0.2}
    )
    assert output.digest == hashlib.sha256(canonical(summary)).hexdigest()


def test_extract_four_slice_summary_averages_slices_and_pools_steps():
    slices = [{"slice": str(i), "stage3": stage3(0.1 * (i + 1), 0.8, i, 6)} for i in range(4)]
    output = extract(BY_NAME["mixed-smoke"], json.dumps({"slices": slices, "multislice_after": {}}))
    assert output.quality["online_usage"] == pytest.approx(0.25)
    assert output.quality["online_qoe"] == pytest.approx(0.8)
    assert output.quality["online_violation_rate"] == pytest.approx(6 / 24)


def test_extract_guarded_summary_uses_the_watchdog_rate():
    summary = {"slices": [{"slice": "a", "stage3": {"faults": "guarded",
                                                    "watchdog": {"sla_violation_rate": 0.28}}}]}
    output = extract(BY_NAME["storm-guarded-small"], json.dumps(summary))
    assert output.quality == {"online_violation_rate": pytest.approx(0.28)}


def test_extract_eval_report_ignores_provenance():
    report = {"results": [{"case": "static/x", "metrics": {"m": 1.0}}],
              "provenance": {"costs": {"engine_requests": 0}}, "summary": {}}
    output = extract(BY_NAME["eval-store-warm"], json.dumps(report))
    assert output.engine_requests == 0
    report["provenance"]["costs"] = None
    assert extract(BY_NAME["eval-replay"], json.dumps(report)).digest == output.digest


def test_extract_rejects_a_summary_without_online_steps():
    with pytest.raises(KeyError):
        extract(BY_NAME["frame-small"], json.dumps({"slices": [{"stage3": {}}]}))


# ------------------------------------------------------------- classification
def test_classify_failures():
    run, warm = BY_NAME["frame-small"], BY_NAME["eval-store-warm"]
    good = Output("d1", {})
    assert classify(run, 0, good, None, None) is None
    assert classify(run, 0, good, "d1", None) is None
    assert classify(run, 1, good, "d1", None) == "exit status 1"
    assert classify(run, 0, None, "d1", None) == "output missing or unparsable"
    assert "differ from the first pass" in classify(run, 0, Output("d2", {}), "d1", None)
    assert classify(warm, 0, Output("c", {}, 0), None, "c") is None
    assert "recomputed 12" in classify(warm, 0, Output("c", {}, 12), None, "c")
    assert "filled the store" in classify(warm, 0, Output("x", {}, 0), None, "c")
    assert "filled the store" in classify(warm, 0, Output("x", {}, 0), None, None)


# ------------------------------------------------------------------- verdicts
def test_compare_verdicts():
    wall = MetricSpec("s", "lower", 0.10)
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert verdict(base, [10.2, 10.0, 10.1, 9.95, 10.1], wall) == "same"
    assert verdict(base, [12.0, 12.2, 11.9, 12.1, 12.0], wall) == "worse"
    assert verdict(base, [8.0, 8.1, 7.9, 8.0, 8.05], wall) == "better"
    noisy = [8.0, 12.0, 10.0, 9.0, 11.5]
    assert verdict(noisy, [10.5, 13.0, 9.0, 12.0, 11.0], wall) == "unresolved"
    assert verdict(noisy, [11.5, 15.0, 12.5, 13.5, 14.0], wall) == "unresolved"
    assert verdict(noisy, [5.0, 5.5, 6.0, 5.2, 4.9], wall) == "better"
    qoe = MetricSpec("fraction", "higher", 0.02, "absolute")
    assert verdict([0.9] * 5, [0.89] * 5, qoe) == "same"
    assert verdict([0.9] * 5, [0.87] * 5, qoe) == "worse"
    assert verdict([0.9] * 5, [0.91] * 5, qoe) == "better"
    errors = MetricSpec("fraction", "lower", 0.0, "absolute")
    assert verdict([0.0], [0.0], errors) == "same"
    assert verdict([0.0], [1 / 6], errors) == "worse"


# ---------------------------------------------------------------- real passes
def test_traced_pass_matches_untraced_bytes(tmp_path):
    workload = Workload("stage1-smoke", "run",
                        ("--scenario", "frame-offloading", "--stage", "1", "--scale", "smoke"))
    session = Session(seed=0, out=tmp_path)
    plain = session.run(workload)
    traced = session.run(workload, traced=True)
    assert plain.failure is None and traced.failure is None
    assert traced.output.digest == plain.output.digest
    assert 0.0 < plain.setup_s < plain.wall_s
    assert plain.cpu_s > 0.0 and plain.peak_rss_mb > 10.0
    records = read_records(tmp_path / "trace-stage1-smoke.jsonl")
    metrics = layer_metrics(records, untraced_wall_s=plain.wall_s)
    assert metrics["core.stage1.total_share"] > 0.0
    assert metrics["models.bnn.fit.calls"] > 0 and metrics["metrics.kl.calls"] > 0
    assert metrics["engine.served.fresh"] > 0
    assert metrics["trace.coverage"] >= 0.9
    names = {record["name"] for record in records if record.get("parent") == 0}
    assert names == {"cli.import", "cli.main", "cli.exit"}

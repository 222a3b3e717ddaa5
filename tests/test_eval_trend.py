"""Trend tracking across eval runs: append, reload, drift flagging."""

import json

from repro.evalharness.trend import (
    ABS_FLOOR,
    TREND_SCHEMA,
    append_trend,
    detect_drift,
    load_trend,
    render_drift,
)


def _report(latency: float, kl: float = 0.1, cases_passed: int = 1) -> dict:
    """A minimal synthetic ``atlas-eval/1`` report (the fields trend uses)."""
    return {
        "schema": "atlas-eval/1",
        "summary": {
            "cases": 1,
            "runs": 2,
            "cases_passed": cases_passed,
            "cases_failed": 1 - cases_passed,
            "gate_passed": True,
        },
        "results": [
            {
                "case": "static/frame-offloading",
                "metrics": {"latency_p95_ms": latency, "sim_real_symmetric_kl": kl},
            }
        ],
    }


def test_trend_file_round_trips(tmp_path):
    first = append_trend(_report(120.0), tmp_path)
    second = append_trend(_report(121.0), tmp_path)
    assert first["record"]["run"] == 0 and second["record"]["run"] == 1
    reloaded = load_trend(tmp_path)
    assert len(reloaded) == 2
    assert reloaded[0] == first["record"]
    assert reloaded[1] == second["record"]
    assert all(record["schema"] == TREND_SCHEMA for record in reloaded)
    assert reloaded[1]["summary"]["cases_passed"] == 1
    assert reloaded[1]["metrics"]["static/frame-offloading"]["latency_p95_ms"] == 121.0


def test_drift_flagged_across_two_synthetic_reports(tmp_path):
    append_trend(_report(100.0, kl=0.10), tmp_path)
    outcome = append_trend(_report(140.0, kl=0.11), tmp_path)  # +40% latency
    assert len(outcome["drift"]) == 1
    drift = outcome["drift"][0]
    assert drift["case"] == "static/frame-offloading"
    assert drift["metric"] == "latency_p95_ms"
    assert drift["previous"] == 100.0 and drift["current"] == 140.0
    text = render_drift(outcome["drift"])
    assert "latency_p95_ms" in text and "100" in text and "140" in text


def test_small_changes_are_not_drift(tmp_path):
    append_trend(_report(100.0), tmp_path)
    outcome = append_trend(_report(110.0), tmp_path)  # +10% < 25% band
    assert outcome["drift"] == []
    assert render_drift([]) == ""


def test_absolute_floor_suppresses_noise_near_zero():
    previous = {"metrics": {"c": {"m": 0.001}}}
    current = {"metrics": {"c": {"m": 0.001 + ABS_FLOOR * 0.9}}}
    assert detect_drift(previous, current) == []
    current = {"metrics": {"c": {"m": 0.001 + ABS_FLOOR * 1.5}}}
    assert len(detect_drift(previous, current)) == 1


def test_coverage_changes_are_not_drift():
    previous = {"metrics": {"old-case": {"m": 1.0}, "both": {"m": 1.0, "gone": 2.0}}}
    current = {"metrics": {"new-case": {"m": 9.0}, "both": {"m": 1.0}}}
    assert detect_drift(previous, current) == []


def test_load_trend_skips_torn_and_foreign_lines(tmp_path):
    append_trend(_report(100.0), tmp_path)
    with open(tmp_path / "trend.jsonl", "a") as handle:
        handle.write('{"schema": "other/1", "run": 99}\n')
        handle.write('{"schema": "atlas-eval-trend/1", "run":')  # torn append
    records = load_trend(tmp_path)
    assert len(records) == 1
    # The next append still gets a consistent run index (valid records only).
    outcome = append_trend(_report(101.0), tmp_path)
    assert outcome["record"]["run"] == 1


def test_real_report_shape_appends(tmp_path):
    """An actual harness report (synthetic cases) feeds the trend cleanly."""
    from repro.evalharness import build_report
    from repro.evalharness.dataset import Envelope, EvalCase
    from repro.evalharness.runner import CaseResult, SeedRunResult

    case = EvalCase(
        group="g",
        scenario="frame-offloading",
        seeds=(0,),
        measurements=1,
        duration_s=1.0,
        usage_ladder=(1.0,),
        envelopes={"latency_p95_ms": Envelope(lo=0.0, hi=1000.0)},
    )
    run = SeedRunResult(
        case_id=case.case_id,
        group="g",
        scenario="frame-offloading",
        seed=0,
        metrics={"latency_p95_ms": 250.0},
        events=(),
    )
    report = build_report([CaseResult(case=case, seed_results=[run])])
    outcome = append_trend(report, tmp_path)
    assert outcome["record"]["metrics"][case.case_id]["latency_p95_ms"] == 250.0
    line = (tmp_path / "trend.jsonl").read_text().strip()
    assert json.loads(line)["summary"]["cases"] == 1

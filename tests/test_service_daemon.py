"""Service mode end to end: queue, daemon, tracing, costs, warm restart.

The warm-restart test is the tentpole acceptance check: the same eval case
submitted to two *separate* daemon processes must be recomputed by the
first and served almost entirely from the persistent store by the second,
with the cost ledger, the store statistics and the result bytes all
agreeing.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service import (
    JobSpec,
    ServicePaths,
    Tracer,
    claim_next_job,
    execute_job,
    job_record,
    list_jobs,
    read_trace,
    submit_job,
)
from repro.service.daemon import serve
from repro.service.tracer import NullTracer

_REPO_ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------- queue/claim
def test_submit_then_claim_is_fifo_and_exclusive(tmp_path):
    first = submit_job(tmp_path, "run", {"scenario": "frame-offloading"})
    second = submit_job(tmp_path, "run", {"scenario": "embb-video"})
    paths = ServicePaths(tmp_path)
    claimed = claim_next_job(paths)
    assert claimed is not None and claimed.id == first.id
    assert claim_next_job(paths).id == second.id
    assert claim_next_job(paths) is None
    # A claimed job's spec moved from queue/ into its job directory.
    assert not list(paths.queue.glob("*.json"))
    assert (paths.job_dir(first.id) / "job.json").exists()


def test_submit_rejects_unknown_kind(tmp_path):
    with pytest.raises(ValueError):
        submit_job(tmp_path, "bogus", {})


def test_job_failure_is_contained_and_recorded(tmp_path):
    spec = submit_job(tmp_path, "run", {"scenario": "no-such-scenario"})
    paths = ServicePaths(tmp_path)
    claimed = claim_next_job(paths)
    result = execute_job(claimed, paths, store=None)  # must not raise
    assert result["status"] == "failed"
    assert "no-such-scenario" in result["error"]
    record = job_record(tmp_path, spec.id)
    assert record["status"] == "failed"
    assert (paths.job_dir(spec.id) / "traceback.txt").exists()


# -------------------------------------------------------------------- tracer
def test_tracer_span_event_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    with Tracer(path) as tracer:
        tracer.event("boot", version=1)
        with tracer.span("work", case="x") as attrs:
            attrs["extra"] = 7
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
    records = read_trace(path)
    assert [record["name"] for record in records] == ["boot", "work", "doomed"]
    assert records[0]["kind"] == "event"
    work = records[1]
    assert work["kind"] == "span" and work["status"] == "ok"
    assert work["attrs"] == {"case": "x", "extra": 7}
    assert work["duration_s"] >= 0.0
    doomed = records[2]
    assert doomed["status"] == "error" and doomed["attrs"]["error"] == "RuntimeError"


def test_read_trace_tolerates_torn_trailing_line(tmp_path):
    path = tmp_path / "trace.jsonl"
    with Tracer(path) as tracer:
        tracer.event("kept")
    with open(path, "a") as handle:
        handle.write('{"kind": "event", "name": "torn"')  # no newline, no close
    records = read_trace(path)
    assert [record["name"] for record in records] == ["kept"]


def test_null_tracer_is_inert(tmp_path):
    tracer = NullTracer()
    tracer.event("ignored")
    with tracer.span("ignored") as attrs:
        attrs["x"] = 1


# ------------------------------------------------------------------- daemon
def test_daemon_executes_run_job_with_costs_and_trace(tmp_path):
    from repro.engine.cache import shared_cache

    shared_cache().clear()  # other in-process tests may have warmed it
    spec = submit_job(
        tmp_path, "run", {"scenario": "frame-offloading", "stage": "1", "scale": "smoke"}
    )
    assert serve(tmp_path, workers=1, max_jobs=1, idle_exit_s=1.0) == 0
    record = job_record(tmp_path, spec.id)
    assert record["status"] == "done"
    costs = record["result"]["costs"]
    assert costs["schema"] == "atlas-costs/1"
    assert costs["engine_requests"] > 0
    assert costs["engine_requests"] == costs["cache"]["misses"]  # cold store
    assert costs["sim_seconds"] > 0.0
    job_dir = ServicePaths(tmp_path).job_dir(spec.id)
    spans = read_trace(job_dir / "trace.jsonl")
    assert any(span["name"] == "job" and span["status"] == "ok" for span in spans)
    assert any(span["name"] == "job.slice" for span in spans)
    assert "stage 1" in (job_dir / "log.txt").read_text()
    daemon = json.loads((tmp_path / "daemon.json").read_text())
    assert daemon["status"] == "stopped" and daemon["jobs_done"] == 1
    assert daemon["store_entries"] > 0


def test_daemon_idle_exit_without_jobs(tmp_path):
    assert serve(tmp_path, workers=2, idle_exit_s=0.3) == 0
    assert json.loads((tmp_path / "daemon.json").read_text())["jobs_done"] == 0


def test_list_jobs_merges_queue_and_executed(tmp_path):
    done = submit_job(tmp_path, "run", {"scenario": "frame-offloading", "stage": "1", "scale": "smoke"})
    serve(tmp_path, workers=1, max_jobs=1, idle_exit_s=1.0)
    waiting = submit_job(tmp_path, "run", {"scenario": "embb-video"})
    records = {record["id"]: record for record in list_jobs(tmp_path)}
    assert records[done.id]["status"] == "done"
    assert records[waiting.id]["status"] == "queued"


_DAEMON_ROUND = """
import json, sys
from pathlib import Path
from repro.service import submit_job, job_record
from repro.service.daemon import serve
state = Path(sys.argv[1])
job = submit_job(state, "eval", {"scenario": "frame-offloading", "seeds": [0]})
serve(state, workers=1, max_jobs=1, idle_exit_s=1.0)
record = job_record(state, job.id)
print(json.dumps({"id": job.id, "status": record["status"],
                  "costs": record["result"]["costs"]}))
"""


def test_warm_restart_serves_second_daemon_from_store(tmp_path, child_env):
    """Same eval case, two daemon processes: second recomputes ~nothing."""
    state = tmp_path / "state"
    rounds = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-c", _DAEMON_ROUND, str(state)],
            capture_output=True,
            text=True,
            timeout=240,
            cwd=_REPO_ROOT,
            env=child_env,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        rounds.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    cold, warm = rounds
    assert cold["status"] == warm["status"] == "done"
    assert cold["costs"]["engine_requests"] > 0

    # Engine-level recompute count of the warm run is zero...
    assert warm["costs"]["engine_requests"] == 0
    cache = warm["costs"]["cache"]
    total = cache["memory_hits"] + cache["store_hits"] + cache["misses"]
    # ...>=90% of lookups served persistently (here: all of them)...
    assert cache["store_hits"] / total >= 0.9
    # ...and the ledger agrees with the store's own counters.
    assert warm["costs"]["store"]["hits"] == cache["store_hits"]
    assert warm["costs"]["store"]["puts"] == cache["misses"] == 0

    # Byte-identical results across the two daemon processes.
    reports = sorted(state.glob("jobs/*/eval/EVAL_report.json"))
    assert len(reports) == 2
    canonical = [
        json.dumps(json.loads(path.read_text())["results"], sort_keys=True)
        for path in reports
    ]
    assert canonical[0] == canonical[1]


def test_job_record_raises_for_unknown_job(tmp_path):
    ServicePaths(tmp_path).ensure()
    with pytest.raises(FileNotFoundError):
        job_record(tmp_path, "no-such-job")


def test_jobspec_payload_round_trip():
    spec = JobSpec(id="j1", kind="eval", params={"scenario": "x"}, created=12.5)
    assert JobSpec.from_payload(spec.payload()) == spec

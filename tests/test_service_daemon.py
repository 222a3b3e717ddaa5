"""Service mode end to end: queue, daemon, tracing, costs, warm restart.

The warm-restart test is the tentpole acceptance check: the same eval case
submitted to two *separate* daemon processes must be recomputed by the
first and served almost entirely from the persistent store by the second,
with the cost ledger, the store statistics and the result bytes all
agreeing.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.engine.forkpool as forkpool_module
from repro.cli import main
from repro.core.atlas import run_slices
from repro.experiments.scale import get_scale
from repro.scenarios import get_scenario
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


OLD_RECORD_PARAMS = {
    "run": {"scenario": "frame-offloading", "stage": "1", "scale": "smoke", "duration": 2.0},
    "eval": {"scenario": "frame-offloading", "seeds": [0]},
}


@pytest.mark.parametrize(("kind", "executor"), [("run", "sharded"), ("eval", "auto")])
def test_queued_record_with_an_old_executor_field_runs_as_without_it(tmp_path, kind, executor):
    """Records queued by older versions may name an executor kind; it is ignored.

    Nothing reads the field, so one value per job kind covers it.
    """
    from repro.engine.cache import shared_cache

    paths = ServicePaths(tmp_path)
    environment = dict(os.environ)
    results = []
    for params in (OLD_RECORD_PARAMS[kind], {**OLD_RECORD_PARAMS[kind], "executor": executor}):
        shared_cache().clear()  # both jobs measure afresh
        submit_job(tmp_path, kind, params)
        claimed = claim_next_job(paths)
        assert claimed.params == params
        result = execute_job(claimed, paths, store=None)
        assert result["status"] == "done", result["error"]
        reports = sorted(paths.job_dir(claimed.id).rglob("EVAL_report.json"))
        results.append(
            (
                result["summary"],
                result["costs"]["engine_requests"],
                [json.loads(report.read_text())["results"] for report in reports],
            )
        )
    assert results[0] == results[1]
    assert results[0][1] > 0
    assert dict(os.environ) == environment  # no job touches the process environment


def _execute_one(state, params: dict) -> dict:
    """Submit a run job under ``state``, execute it here and return its result."""
    submit_job(state, "run", params)
    paths = ServicePaths(state)
    return execute_job(claim_next_job(paths), paths, store=None)


@pytest.mark.parametrize(
    "scenario, stage",
    [("frame-offloading", "all"), ("mixed-enterprise", "all"), ("sla-storm", "1")],
    ids=["no-fault-schedule", "multi-slice-without-schedule", "stage-1-only"],
)
def test_run_job_rejects_faults_with_the_message_run_exits_2_on(tmp_path, capsys, scenario, stage):
    argv = ["--scenario", scenario, "--stage", stage, "--scale", "smoke", "--duration", "2"]
    assert main(["run", *argv, "--faults", "guarded"]) == 2
    message = capsys.readouterr().err.strip().removeprefix("error: ")
    assert "--faults" in message
    result = _execute_one(
        tmp_path,
        {"scenario": scenario, "stage": stage, "scale": "smoke", "duration": 2.0, "faults": "guarded"},
    )
    assert result["status"] == "failed"
    assert result["error"] == f"FaultModeError: {message}"
    assert result["summary"] == {}


@pytest.mark.parametrize(
    "stage, faults", [("4", "off"), ("3", "bogus")], ids=["unknown-stage", "unknown-fault-mode"]
)
def test_run_job_with_an_unknown_stage_or_fault_mode_fails_with_the_drivers_message(
    tmp_path, stage, faults
):
    with pytest.raises(ValueError) as excinfo:
        run_slices(get_scenario("sla-storm"), stage, get_scale("smoke"), 2.0, 0, faults=faults)
    result = _execute_one(
        tmp_path,
        {"scenario": "sla-storm", "stage": stage, "faults": faults, "scale": "smoke", "duration": 2.0},
    )
    assert result["status"] == "failed"
    assert result["error"] == f"{type(excinfo.value).__name__}: {excinfo.value}"
    assert result["summary"] == {}
    assert (ServicePaths(tmp_path).job_dir(result["job"]) / "log.txt").read_text() == ""


@pytest.mark.parametrize(
    "scenario, stage, faults",
    [
        ("mixed-enterprise", "all", "off"),
        ("mixed-enterprise", "1", "off"),
        ("frame-offloading", "all", "off"),
        ("sla-storm", "all", "guarded"),
    ],
    ids=["mixed-enterprise-all", "mixed-enterprise-1", "frame-offloading-all", "sla-storm-all-guarded"],
)
def test_run_job_summary_is_the_run_json_payload(tmp_path, scenario, stage, faults):
    json_path = tmp_path / "run.json"
    argv = ["--scenario", scenario, "--stage", stage, "--faults", faults, "--scale", "smoke"]
    assert main(["run", *argv, "--duration", "2", "--json", str(json_path)]) == 0
    state = tmp_path / "state"
    result = _execute_one(
        state, {"scenario": scenario, "stage": stage, "faults": faults, "scale": "smoke", "duration": 2.0}
    )
    assert result["status"] == "done", result["error"]
    job_dir = ServicePaths(state).job_dir(result["job"])
    payload = json.loads(json_path.read_text())
    assert payload.pop("costs") is None
    assert json.loads((job_dir / "result.json").read_text())["summary"] == payload
    log = (job_dir / "log.txt").read_text()
    multislice = scenario == "mixed-enterprise"
    assert ("contended round (deployed configurations):" in log) == multislice
    assert ("contended round (optimised configurations):" in log) == (multislice and stage == "all")


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


def test_fork_workers_racing_on_one_tracer_write_every_record_whole(tmp_path, replay_pool, monkeypatch):
    """More workers than cores append spans to one trace file; none is torn or lost."""
    monkeypatch.setattr(forkpool_module, "available_parallelism", lambda: 8)
    path = tmp_path / "trace.jsonl"
    with Tracer(path) as tracer:

        def job(index):
            for step in range(50):
                with tracer.span("work", job=index, step=step, pad="x" * 200):
                    pass
            return os.getpid()

        pids = list(forkpool_module.fork_map(job, range(16)))
    assert replay_pool == [8] and os.getpid() not in pids
    records = [json.loads(line) for line in path.read_text().splitlines()]
    steps = sorted((record["attrs"]["job"], record["attrs"]["step"]) for record in records)
    assert steps == [(index, step) for index in range(16) for step in range(50)]


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
    assert serve(tmp_path, max_jobs=1, idle_exit_s=1.0) == 0
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
    (record_file,) = (tmp_path / "daemons").iterdir()
    daemon = json.loads(record_file.read_text())
    assert record_file.name == f"{daemon['pid']}.json"
    assert daemon["schema"] == "atlas-daemon/2" and "workers" not in daemon
    assert daemon["status"] == "stopped" and daemon["jobs_done"] == 1
    assert daemon["store_entries"] > 0


def test_daemon_idle_exit_without_jobs(tmp_path):
    assert serve(tmp_path, idle_exit_s=0.3) == 0
    (record_file,) = (tmp_path / "daemons").iterdir()
    assert json.loads(record_file.read_text())["jobs_done"] == 0


def test_serve_has_no_workers_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--state", str(tmp_path / "state"), "--idle-exit", "0", "--workers", "2"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
    assert not (tmp_path / "state").exists()


def _serve_job(state, kind: str, params: dict) -> tuple[dict, Path]:
    """Serve one job from a fresh ``state`` with a daemon in this process: its result and directory."""
    from repro.engine.cache import shared_cache

    shared_cache().clear()  # the job measures afresh, as in a new process
    job_id = submit_job(state, kind, params).id
    assert serve(state, max_jobs=1, idle_exit_s=1.0) == 0
    job_dir = ServicePaths(state).job_dir(job_id)
    result = json.loads((job_dir / "result.json").read_text())
    assert result["status"] == "done", result["error"]
    return result, job_dir


def _span_attrs(job_dir: Path, name: str) -> list[dict]:
    records = read_trace(job_dir / "trace.jsonl")
    return [record["attrs"] for record in records if record["kind"] == "span" and record["name"] == name]


def test_multi_slice_run_job_pools_like_run_and_matches_the_one_core_job(
    tmp_path, replay_pool, monkeypatch
):
    params = {"scenario": "mixed-enterprise", "stage": "all", "scale": "smoke", "duration": 2.0}
    names = [workload.name for workload in get_scenario("mixed-enterprise").slices]
    pooled, pooled_dir = _serve_job(tmp_path / "pooled", "run", params)
    assert replay_pool == [2]
    # Workers write their spans as their slices finish, so compare multisets.
    assert sorted(attrs["slice"] for attrs in _span_attrs(pooled_dir, "job.slice")) == sorted(names)
    assert len(names) == 4

    monkeypatch.setattr(forkpool_module, "available_parallelism", lambda: 1)
    local, local_dir = _serve_job(tmp_path / "local", "run", params)
    assert replay_pool == [2]
    assert [attrs["slice"] for attrs in _span_attrs(local_dir, "job.slice")] == names
    assert pooled["summary"] == local["summary"]
    assert (pooled_dir / "log.txt").read_text() == (local_dir / "log.txt").read_text()
    assert pooled["costs"]["engine_requests"] == local["costs"]["engine_requests"] > 0


def test_eval_job_pools_like_eval_and_matches_the_one_core_job(tmp_path, replay_pool, monkeypatch):
    params = {"group": "static", "seeds": [0]}
    jobs = {}
    for cores, pools in ((2, [2]), (1, [2])):
        monkeypatch.setattr(forkpool_module, "available_parallelism", lambda cores=cores: cores)
        result, job_dir = _serve_job(tmp_path / f"cores-{cores}", "eval", params)
        assert replay_pool == pools
        report = json.loads((job_dir / "eval" / "EVAL_report.json").read_text())
        replays = sorted((attrs["case"], attrs["seed"]) for attrs in _span_attrs(job_dir, "eval.seed"))
        assert replays == sorted((entry["case"], 0) for entry in report["results"])
        jobs[cores] = report["results"], result["costs"]["engine_requests"]
    assert len(jobs[2][0]) == 4 and jobs[2][1] > 0
    assert jobs[2] == jobs[1]


def _submit_smoke_run(state, scenario: str) -> str:
    params = {"scenario": scenario, "stage": "all", "scale": "smoke", "duration": 2.0}
    return submit_job(state, "run", params).id


def _serve_cli(state, env: dict, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--state", str(state), *extra],
        cwd=_REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )


def _log_and_engine_requests(state, job_id: str) -> tuple[str, int]:
    job_dir = ServicePaths(state).job_dir(job_id)
    result = json.loads((job_dir / "result.json").read_text())
    assert result["status"] == "done", result["error"]
    return (job_dir / "log.txt").read_text(), result["costs"]["engine_requests"]


def test_two_daemons_on_one_state_directory_keep_each_jobs_log_and_costs(tmp_path, child_env):
    """Two daemon processes share a queue; each job's log and costs equal its solo run's."""
    from repro.engine.cache import shared_cache

    scenarios = ("frame-offloading", "urllc-control")
    shared = tmp_path / "shared"
    jobs = {scenario: _submit_smoke_run(shared, scenario) for scenario in scenarios}
    daemons = [_serve_cli(shared, child_env, "--max-jobs", "1", "--idle-exit", "2") for _ in range(2)]
    for daemon in daemons:
        _, err = daemon.communicate(timeout=240)
        assert daemon.returncode == 0, err[-2000:]
    records = [json.loads(path.read_text()) for path in (shared / "daemons").glob("*.json")]
    assert len(records) == 2 and sum(record["jobs_done"] for record in records) == 2

    for scenario, job_id in jobs.items():
        shared_cache().clear()  # the solo job measures afresh, as in a new process
        solo = tmp_path / f"solo-{scenario}"
        solo_id = _submit_smoke_run(solo, scenario)
        assert serve(solo, max_jobs=1, idle_exit_s=1.0) == 0
        log, engine_requests = _log_and_engine_requests(shared, job_id)
        assert (log, engine_requests) == _log_and_engine_requests(solo, solo_id)
        assert engine_requests > 0
        others = [name for name in scenarios if name != scenario]
        assert f"[{scenario}]" in log and not any(name in log for name in others)


def test_sigterm_lets_the_running_job_finish_and_exits_0(tmp_path, child_env):
    state = tmp_path / "state"
    job_id = _submit_smoke_run(state, "frame-offloading")
    daemon = _serve_cli(state, child_env)
    try:
        job_file = ServicePaths(state).job_dir(job_id) / "job.json"
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline and daemon.poll() is None:
            try:
                if json.loads(job_file.read_text())["status"] == "running":
                    break
            except (OSError, ValueError):
                pass
            time.sleep(0.05)
        else:
            pytest.fail(f"the daemon never started the job: {daemon.communicate()[1][-2000:]}")
        daemon.send_signal(signal.SIGTERM)
        _, err = daemon.communicate(timeout=240)
    finally:
        daemon.kill()
    assert daemon.returncode == 0, err[-2000:]
    assert job_record(state, job_id)["status"] == "done"
    (record_file,) = (state / "daemons").iterdir()
    record = json.loads(record_file.read_text())
    assert record["status"] == "stopped" and record["jobs_done"] == 1


def test_list_jobs_merges_queue_and_executed(tmp_path):
    done = submit_job(tmp_path, "run", {"scenario": "frame-offloading", "stage": "1", "scale": "smoke"})
    serve(tmp_path, max_jobs=1, idle_exit_s=1.0)
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
serve(state, max_jobs=1, idle_exit_s=1.0)
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

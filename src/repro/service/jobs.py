"""Filesystem-spool job queue: submit, claim, execute stage/eval runs.

The service keeps its whole state in one directory tree — no sockets, no
broker — so submission works whether or not a daemon is running, survives
daemon restarts, and is trivially inspectable::

    <state>/
      queue/<job-id>.json      # submitted, waiting to be claimed
      jobs/<job-id>/job.json   # claimed: status queued→running→done|failed
      jobs/<job-id>/trace.jsonl    # atlas-trace/1 span/event stream
      jobs/<job-id>/log.txt        # stdout of the underlying pipeline
      jobs/<job-id>/result.json    # atlas-job-result/1 summary + costs
      jobs/<job-id>/costs.json     # atlas-costs/1 ledger of this job
      jobs/<job-id>/eval/          # eval jobs: run layout + EVAL_report.json
      store/                   # persistent result store shared by all jobs
      daemon.json              # daemon liveness record

Submission and claiming are both atomic renames: a submit stages the spec
in a temp file and renames it into ``queue/``; a claim renames the queue
file into the job directory.  ``os.rename`` succeeds for exactly one
claimant, so any number of daemons can share one state directory without
locks — the loser just moves on to the next queue entry.

Two job kinds execute through the existing measurement pipeline:

``run``
    The stage driver, :func:`repro.core.atlas.run_slices`, on one catalog
    entry (``scenario``/``stage``/``scale``/``seed``/``faults``/
    ``duration`` — the ``python -m repro run`` knobs).  It applies the
    same fault checks as ``run``: a fault mode the entry cannot run fails
    the job with ``run``'s message.  Engines inside the stages use the
    process-wide shared cache, which the daemon backs with the persistent
    store, so repeated stage runs share measurements across jobs *and*
    daemon restarts.  The slices run in-process, one after another, even
    where the CLI would fork a slice pool: the daemon records the job's
    spans itself and runs the job in a thread, where forking is unsafe.
    Nor does a job measure the CLI's contended rounds of a multi-slice
    entry.
``eval``
    The evaluation harness (``group``/``scenario``/``seeds``/
    ``determinism``) with the job's own run layout; its engines use a
    store-backed cache, so a repeated eval case is served from disk with
    ~zero recompute (the warm-restart contract of the service tests).

Per-job isolation: each job gets fresh environments (the stage/eval code
constructs them per run), its own tracer, log and ledger, and failures are
recorded in ``result.json`` without taking the daemon down.

Job records written by older versions may carry an ``executor`` field (an
engine executor kind, from when there were several).  It is ignored: the
job runs, and returns the same result, as a record without it.
"""

from __future__ import annotations

import json
import os
import time
import traceback
import uuid
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.service.costs import CostLedger
from repro.service.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.store import ResultStore

__all__ = [
    "JOB_KINDS",
    "JOB_RESULT_SCHEMA",
    "JOB_SCHEMA",
    "JobSpec",
    "ServicePaths",
    "claim_next_job",
    "execute_job",
    "job_record",
    "list_jobs",
    "submit_job",
]

#: Schema identifier of every job spec (``job.json`` / queue entries).
JOB_SCHEMA = "atlas-job/1"

#: Schema identifier of every ``result.json``.
JOB_RESULT_SCHEMA = "atlas-job-result/1"

#: The job kinds the daemon knows how to execute.
JOB_KINDS = ("run", "eval")


@dataclass(frozen=True)
class ServicePaths:
    """The directory layout of one service state tree."""

    root: Path

    @property
    def queue(self) -> Path:
        """Directory of submitted-but-unclaimed job specs."""
        return self.root / "queue"

    @property
    def jobs(self) -> Path:
        """Directory of claimed jobs (one subdirectory per job)."""
        return self.root / "jobs"

    @property
    def store_dir(self) -> Path:
        """Directory of the persistent result store."""
        return self.root / "store"

    @property
    def daemon_file(self) -> Path:
        """The daemon liveness record."""
        return self.root / "daemon.json"

    def job_dir(self, job_id: str) -> Path:
        """The directory of one claimed job."""
        return self.jobs / job_id

    def ensure(self) -> "ServicePaths":
        """Create the layout directories (idempotent)."""
        for path in (self.queue, self.jobs, self.store_dir):
            path.mkdir(parents=True, exist_ok=True)
        return self


def _atomic_write_json(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)


@dataclass(frozen=True)
class JobSpec:
    """One submitted job: identity, kind and execution parameters."""

    id: str
    kind: str
    params: dict
    created: float

    def payload(self, status: str = "queued", **extra) -> dict:
        """The ``job.json`` payload at a given lifecycle status."""
        return {
            "schema": JOB_SCHEMA,
            "id": self.id,
            "kind": self.kind,
            "params": dict(self.params),
            "created": self.created,
            "status": status,
            **extra,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "JobSpec":
        """Rebuild a spec from a ``job.json``/queue payload."""
        return cls(
            id=str(payload["id"]),
            kind=str(payload["kind"]),
            params=dict(payload.get("params", {})),
            created=float(payload.get("created", 0.0)),
        )


def new_job_id() -> str:
    """A fresh job id, time-prefixed so queue order approximates FIFO."""
    return f"{time.time_ns():020d}-{uuid.uuid4().hex[:8]}"


def submit_job(state_dir: str | Path, kind: str, params: dict) -> JobSpec:
    """Atomically enqueue a job and return its spec.

    Works without a running daemon: the queue entry waits until one claims
    it.  ``kind`` must be one of :data:`JOB_KINDS`.
    """
    if kind not in JOB_KINDS:
        raise ValueError(f"unknown job kind {kind!r}; expected one of {JOB_KINDS}")
    paths = ServicePaths(Path(state_dir)).ensure()
    spec = JobSpec(id=new_job_id(), kind=kind, params=dict(params), created=time.time())
    _atomic_write_json(paths.queue / f"{spec.id}.json", spec.payload(status="queued"))
    return spec


def claim_next_job(paths: ServicePaths) -> JobSpec | None:
    """Claim the oldest queued job, or ``None`` when the queue is empty.

    The claim is one ``os.rename`` of the queue entry into the job
    directory — exactly one of any number of concurrent claimants wins;
    the rest see ``FileNotFoundError`` and try the next entry.
    """
    try:
        entries = sorted(paths.queue.glob("*.json"))
    except FileNotFoundError:
        return None
    for entry in entries:
        try:
            payload = json.loads(entry.read_text())
        except (OSError, ValueError):
            continue  # mid-write or torn submit: next sweep will see it
        try:
            spec = JobSpec.from_payload(payload)
        except (KeyError, TypeError, ValueError):
            continue
        job_dir = paths.job_dir(spec.id)
        job_dir.mkdir(parents=True, exist_ok=True)
        try:
            os.rename(entry, job_dir / "job.json")
        except FileNotFoundError:
            continue  # lost the race to another claimant
        return spec
    return None


# ------------------------------------------------------------------ execution
def _execute_run(spec: JobSpec, store: "ResultStore | None", tracer: Tracer) -> tuple[dict, dict]:
    from repro.core.atlas import jsonable, run_slices
    from repro.engine.cache import shared_cache
    from repro.experiments.scale import get_scale
    from repro.scenarios import get_scenario

    params = spec.params
    scenario_spec = get_scenario(str(params["scenario"]))
    scale = get_scale(params.get("scale"))
    stage = str(params.get("stage", "all"))
    seed = int(params.get("seed", 0))
    faults = str(params.get("faults", "off"))
    duration = params.get("duration")
    duration = float(duration) if duration is not None else scale.measurement_duration_s

    ledger = CostLedger(cache=shared_cache(), store=store)
    # The tracer keeps the slices in-process, one job.slice span each.
    slices = run_slices(scenario_spec, stage, scale, duration, seed, faults=faults, tracer=tracer)
    summary = jsonable(
        {
            "scenario": scenario_spec.name,
            "stage": stage,
            "scale": scale.name,
            "seed": seed,
            "slices": slices,
        }
    )
    return summary, ledger.finish()


def _execute_eval(
    spec: JobSpec, job_dir: Path, store: "ResultStore | None", tracer: Tracer
) -> tuple[dict, dict]:
    from repro.evalharness import evaluate, write_report

    params = spec.params
    seeds = params.get("seeds")
    report, gate, _ = evaluate(
        group=params.get("group"),
        scenario=params.get("scenario"),
        seeds=[int(seed) for seed in seeds] if seeds is not None else None,
        out_dir=job_dir / "eval",
        determinism=bool(params.get("determinism", False)),
        store=store,
        tracer=tracer,
    )
    write_report(report, job_dir / "eval" / "EVAL_report.json")
    summary = {
        "summary": report["summary"],
        "gate_passed": gate.passed,
        "report": str(Path("eval") / "EVAL_report.json"),
    }
    costs = report["provenance"].get("costs") or {}
    return summary, costs


def execute_job(
    spec: JobSpec, paths: ServicePaths, store: "ResultStore | None" = None
) -> dict:
    """Execute one claimed job; always returns its ``result.json`` payload.

    Failures are contained: the traceback lands in ``result.json`` (status
    ``failed``) and the job's trace records an error span, but nothing is
    raised — the daemon keeps serving the queue.
    """
    job_dir = paths.job_dir(spec.id)
    job_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    _atomic_write_json(job_dir / "job.json", spec.payload(status="running", started=started))
    status, summary, costs, error = "done", {}, {}, None
    with Tracer(job_dir / "trace.jsonl") as tracer:
        try:
            with tracer.span("job", job=spec.id, kind=spec.kind) as span_attrs:
                with open(job_dir / "log.txt", "w") as log, redirect_stdout(log):
                    if spec.kind == "run":
                        summary, costs = _execute_run(spec, store, tracer)
                    elif spec.kind == "eval":
                        summary, costs = _execute_eval(spec, job_dir, store, tracer)
                    else:
                        raise ValueError(f"unknown job kind {spec.kind!r}")
                span_attrs["engine_requests"] = costs.get("engine_requests")
        except Exception as err:
            status = "failed"
            error = f"{type(err).__name__}: {err}"
            (job_dir / "traceback.txt").write_text(traceback.format_exc())
            tracer.event("job.failed", job=spec.id, error=error)
    finished = time.time()
    result = {
        "schema": JOB_RESULT_SCHEMA,
        "job": spec.id,
        "kind": spec.kind,
        "status": status,
        "error": error,
        "started": started,
        "finished": finished,
        "wall_time_s": round(finished - started, 6),
        "summary": summary,
        "costs": costs,
    }
    _atomic_write_json(job_dir / "result.json", result)
    if costs:
        _atomic_write_json(job_dir / "costs.json", costs)
    _atomic_write_json(
        job_dir / "job.json",
        spec.payload(status=status, started=started, finished=finished),
    )
    return result


# -------------------------------------------------------------------- status
def job_record(state_dir: str | Path, job_id: str) -> dict:
    """The merged status record of one job (spec + result when finished)."""
    paths = ServicePaths(Path(state_dir))
    queued = paths.queue / f"{job_id}.json"
    if queued.exists():
        return json.loads(queued.read_text())
    job_file = paths.job_dir(job_id) / "job.json"
    if not job_file.exists():
        raise FileNotFoundError(f"no job {job_id!r} under {paths.root}")
    record = json.loads(job_file.read_text())
    result_file = paths.job_dir(job_id) / "result.json"
    if result_file.exists():
        record["result"] = json.loads(result_file.read_text())
    return record


def list_jobs(state_dir: str | Path) -> list[dict]:
    """Every known job's status record, oldest first."""
    paths = ServicePaths(Path(state_dir))
    records: list[dict] = []
    if paths.queue.exists():
        for entry in paths.queue.glob("*.json"):
            try:
                records.append(json.loads(entry.read_text()))
            except (OSError, ValueError):
                continue
    if paths.jobs.exists():
        for job_dir in paths.jobs.iterdir():
            job_file = job_dir / "job.json"
            try:
                record = json.loads(job_file.read_text())
            except (OSError, ValueError):
                continue
            result_file = job_dir / "result.json"
            if result_file.exists():
                try:
                    record["result"] = json.loads(result_file.read_text())
                except (OSError, ValueError):
                    pass
            records.append(record)
    records.sort(key=lambda record: str(record.get("id", "")))
    return records

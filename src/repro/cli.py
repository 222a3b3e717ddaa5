"""The ``python -m repro`` command line: run any catalog scenario end to end.

Four subcommands cover the catalog workflow:

``list-scenarios``
    One line per registered catalog entry (name, slices, traffic, SLA).
``show <name>``
    Full detail of one entry: per-slice scenarios, deployed configurations,
    traffic traces, contention budget and stage-1 search defaults.
``run --scenario <name> --stage 1|2|3|all``
    Execute the Atlas pipeline on a catalog entry through the stage driver,
    :func:`repro.core.atlas.run_slices`.  Stage budgets come from
    ``--scale`` (smoke / small / paper, the ``ATLAS_BENCH_SCALE`` levels).
    Multi-slice entries measure all slices concurrently under resource
    contention before and after optimisation, and run each slice's stages
    in a fork-pool worker of its own when two or more cores are usable;
    dynamic entries replay their traffic trace during online learning.
    Every measurement engine runs its batches inline, in one vectorized
    pass.  On hostile entries ``--faults guarded`` runs stage 3
    under the :mod:`repro.core.watchdog` safe-mode watchdog with the
    scenario's fault schedule injected, and ``--faults unprotected`` runs
    the bare learner through the same faults for comparison — see
    ``docs/robustness.md``.  A fault mode the entry cannot run exits 2.
``eval``
    Replay the curated evaluation dataset over the whole catalog, score
    every run with the :mod:`repro.metrics` scorers, write the structured
    run layout plus ``EVAL_report.json`` (schema ``atlas-eval/1``) under
    ``--out``, and exit nonzero when the regression gate fails — see
    ``docs/evaluation.md``.  ``--store`` serves the replay through the
    persistent result store (embedding a cost ledger in the report);
    ``--history`` appends the run's summary to a trend file and flags
    metric drift against the previous run.

Service mode (see ``docs/service.md``) adds four more:

``serve --state <dir>``
    Run the job daemon against a service state tree: claims queued jobs,
    executes them through the measurement engine with the tree's
    persistent store attached, shuts down gracefully on SIGTERM/SIGINT
    (``--max-jobs`` / ``--idle-exit`` bound the run for CI).
``submit --state <dir> run|eval ...``
    Enqueue a stage run or an eval run and print its job id (works with
    or without a live daemon).
``status --state <dir> [job]``
    One line per known job, or the full JSON record (result, costs) of
    one job.
``tail --state <dir> <job> [--trace]``
    Print a job's captured stdout, or its structured trace stream.

``run`` and ``eval`` also accept ``--store <dir>`` to reuse the same
persistent store outside the daemon (one-shot warm runs).

Stage semantics: ``--stage 1`` searches simulation parameters only;
``--stage 2`` trains offline against the *original* simulator; ``--stage 3``
first trains the prerequisite offline policy, then learns online;
``--stage all`` chains 1 → 2 → 3 with stage 1's parameters feeding the
later stages.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.core.atlas import (
    FaultModeError,
    check_faults,
    jsonable,
    run_slices,
    sla_label,
    traffic_label,
)
from repro.experiments.scale import SCALES, get_scale
from repro.scenarios import UnknownScenarioError, get_scenario, list_scenarios
from repro.sim.multislice import CONTENDED_DIMENSIONS, MultiSliceResult, SliceRun

__all__ = ["build_parser", "main"]


# ------------------------------------------------------------------ formatting
def _print_multislice_round(result: MultiSliceResult, title: str) -> None:
    print(f"\n{result.format_table(title)}")


# ------------------------------------------------------------------- commands
def cmd_list_scenarios(args: argparse.Namespace) -> int:
    """Print the catalog as one line per entry."""
    specs = list_scenarios()
    print(f"{'name':<26} {'slices':>6} {'traffic':<22} {'SLA':<14} description")
    for spec in specs:
        primary = spec.primary
        sla = sla_label(primary) if not spec.is_multislice else "per-slice"
        traffic = (
            traffic_label(primary)
            if not spec.is_multislice
            else "+".join(str(w.scenario.traffic) for w in spec.slices)
        )
        print(f"{spec.name:<26} {len(spec.slices):>6} {traffic:<22} {sla:<14} {spec.description}")
    print(f"{len(specs)} scenarios registered")
    return 0


def cmd_show(args: argparse.Namespace) -> int:
    """Print full detail of one catalog entry."""
    spec = get_scenario(args.scenario)
    print(f"{spec.name}: {spec.description}")
    print(f"tags: {', '.join(spec.tags) or '-'}")
    print(
        f"stage-1 search defaults: alpha={spec.stage1_alpha}, "
        f"distance threshold H={spec.stage1_distance_threshold}"
    )
    if spec.is_multislice:
        budget = ", ".join(f"{dim}={spec.budget.total(dim):g}" for dim in CONTENDED_DIMENSIONS)
        print(f"shared budget: {budget}")
    for workload in spec.slices:
        scenario = workload.scenario
        print(f"\nslice {workload.name!r}: SLA {sla_label(workload)}")
        print(
            f"  workload: traffic {traffic_label(workload)}, "
            f"frames {scenario.frame_size_mean_bytes / 1e3:.1f}±{scenario.frame_size_std_bytes / 1e3:.1f} kB up / "
            f"{scenario.result_size_bytes / 1e3:.1f} kB down, "
            f"compute {scenario.compute_time_mean_ms:.0f}±{scenario.compute_time_std_ms:.0f} ms"
        )
        config = workload.deployed_config
        print(
            f"  deployed: {config.bandwidth_ul:g}/{config.bandwidth_dl:g} PRBs, "
            f"{config.backhaul_bw:g} Mbps backhaul, {config.cpu_ratio:g} CPU "
            f"({100 * config.resource_usage():.1f}% usage)"
        )
        if workload.trace is not None:
            preview = ", ".join(str(level) for level in workload.trace.levels(12))
            print(f"  trace: {workload.trace!r} -> [{preview}, ...]")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run the requested stages of the pipeline on one catalog entry."""
    ledger = None
    if args.store is not None:
        from repro.engine.cache import attach_shared_store, shared_cache
        from repro.service.costs import CostLedger

        store = attach_shared_store(args.store)
        ledger = CostLedger(cache=shared_cache(), store=store)
    spec = get_scenario(args.scenario)
    scale = get_scale(args.scale)
    duration = args.duration if args.duration is not None else scale.measurement_duration_s
    stages = {"1", "2", "3"} if args.stage == "all" else {args.stage}
    # run_slices checks the same; checking here too fails before any output.
    check_faults(spec, stages, args.faults)
    print(
        f"scenario {spec.name!r} | stage {args.stage} | scale {scale.name} | "
        f"measurement duration {duration:g}s"
    )
    summary: dict = {
        "scenario": spec.name,
        "stage": args.stage,
        "scale": scale.name,
        "slices": [],
    }
    before = after = None
    if spec.is_multislice:
        real_network = spec.primary.make_real_network(seed=args.seed + 1)
        before = real_network.measure_slices(
            spec.slice_runs(seed=args.seed + 9000), budget=spec.budget, duration=duration
        )
        _print_multislice_round(before, "contended round (deployed configurations):")
    summary["slices"] = run_slices(
        spec, args.stage, scale, duration, args.seed, faults=args.faults
    )
    # An "optimised" contended round only makes sense when a stage that
    # produces configurations actually ran; stage 1 alone learns
    # simulation parameters, not allocations.
    if spec.is_multislice and stages & {"2", "3"}:
        learned_runs = [
            SliceRun(
                name=workload.name,
                config=slice_summary["_config"],
                scenario=workload.scenario,
                sla=workload.sla,
                seed=args.seed + 9100 + index,
            )
            for index, (workload, slice_summary) in enumerate(
                zip(spec.slices, summary["slices"])
            )
        ]
        real_network = spec.primary.make_real_network(seed=args.seed + 1)
        after = real_network.measure_slices(
            learned_runs, budget=spec.budget, duration=duration
        )
        _print_multislice_round(after, "contended round (optimised configurations):")
    costs = ledger.finish() if ledger is not None else None
    if costs is not None:
        cache = costs["cache"] or {}
        print(
            f"\ncosts: {costs['engine_requests']} measurements executed "
            f"({costs['sim_seconds']:g} sim-s), cache served "
            f"{cache.get('memory_hits', 0)} from memory + "
            f"{cache.get('store_hits', 0)} from the store "
            f"(hit rate {cache.get('hit_rate', 0.0):.1%})"
        )
    if args.json is not None:
        payload = jsonable(
            {
                **summary,
                "multislice_before": before.summary() if before is not None else None,
                "multislice_after": after.summary() if after is not None else None,
                "costs": costs,
            }
        )
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"\nwrote JSON summary to {args.json}")
    print("\ndone")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    """Replay the eval dataset, write the report, exit on the gate verdict."""
    from repro.evalharness import evaluate, render_report, write_report

    store = None
    if args.store is not None:
        from repro.service.store import ResultStore

        store = ResultStore(args.store)
    report, gate, _ = evaluate(
        cases_path=args.cases,
        group=args.group,
        scenario=args.eval_scenario,
        seeds=args.seeds,
        out_dir=args.out,
        determinism=not args.no_determinism,
        store=store,
    )
    report_path = write_report(report, Path(args.out) / "EVAL_report.json")
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_report(report))
        print(f"wrote {report_path}")
    if args.history is not None:
        from repro.evalharness import append_trend, render_drift

        outcome = append_trend(report, args.history)
        record = outcome["record"]
        print(f"appended run {record['run']} to {Path(args.history) / 'trend.jsonl'}")
        drift_text = render_drift(outcome["drift"])
        if drift_text:
            print(drift_text)
    return 0 if gate.passed else 1


# ------------------------------------------------------------- service mode
def cmd_serve(args: argparse.Namespace) -> int:
    """Run the service daemon against a state directory."""
    from repro.service.daemon import serve

    return serve(
        args.state,
        workers=args.workers,
        max_jobs=args.max_jobs,
        idle_exit_s=args.idle_exit,
        store_max_bytes=args.store_max_bytes,
    )


def cmd_submit(args: argparse.Namespace) -> int:
    """Enqueue a job and print its id (the whole stdout, for shell capture)."""
    from repro.service import submit_job

    if args.job_kind == "run":
        params = {
            "scenario": args.scenario,
            "stage": args.stage,
            "scale": args.scale,
            "seed": args.seed,
            "faults": args.faults,
            "duration": args.duration,
        }
    else:
        params = {
            "group": args.group,
            "scenario": args.eval_scenario,
            "seeds": args.seeds,
            "determinism": args.determinism,
        }
    spec = submit_job(args.state, args.job_kind, {k: v for k, v in params.items() if v is not None})
    print(spec.id)
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """List all jobs, or print one job's full JSON record."""
    from repro.service import job_record, list_jobs

    if args.job is not None:
        print(json.dumps(job_record(args.state, args.job), indent=2, sort_keys=True))
        return 0
    records = list_jobs(args.state)
    if not records:
        print("no jobs")
        return 0
    print(f"{'id':<30} {'kind':<5} {'status':<8} detail")
    for record in records:
        result = record.get("result", {})
        costs = result.get("costs") or {}
        cache = costs.get("cache") or {}
        detail = ""
        if costs:
            detail = (
                f"{costs.get('engine_requests', 0)} executed, "
                f"{cache.get('memory_hits', 0)}+{cache.get('store_hits', 0)} cached, "
                f"{costs.get('wall_time_s', 0.0):.1f}s"
            )
        if result.get("error"):
            detail = result["error"]
        print(f"{record['id']:<30} {record['kind']:<5} {record['status']:<8} {detail}")
    return 0


def cmd_tail(args: argparse.Namespace) -> int:
    """Print a job's captured stdout (or, with --trace, its span stream)."""
    from repro.service import ServicePaths

    job_dir = ServicePaths(Path(args.state)).job_dir(args.job)
    path = job_dir / ("trace.jsonl" if args.trace else "log.txt")
    if not path.exists():
        print(f"error: {path} does not exist (job not started yet?)", file=sys.stderr)
        return 2
    sys.stdout.write(path.read_text())
    return 0


# --------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the Atlas reproduction pipeline on any scenario-catalog entry.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list-scenarios", help="list every registered catalog entry"
    )
    list_parser.set_defaults(handler=cmd_list_scenarios)

    show_parser = subparsers.add_parser("show", help="show full detail of one catalog entry")
    show_parser.add_argument("scenario", help="catalog entry name")
    show_parser.set_defaults(handler=cmd_show)

    run_parser = subparsers.add_parser(
        "run", help="run the pipeline stages on one catalog entry"
    )
    run_parser.add_argument("--scenario", required=True, help="catalog entry name")
    run_parser.add_argument(
        "--stage",
        choices=("1", "2", "3", "all"),
        default="all",
        help="which Atlas stage(s) to run (default: all)",
    )
    run_parser.add_argument(
        "--scale",
        choices=tuple(sorted(SCALES)),
        default=None,
        help="iteration budgets and durations (default: the ATLAS_BENCH_SCALE env var, then 'small')",
    )
    run_parser.add_argument("--seed", type=int, default=0, help="base random seed (default: 0)")
    run_parser.add_argument(
        "--faults",
        choices=("off", "guarded", "unprotected"),
        default="off",
        help=(
            "inject the scenario's fault schedule into stage 3 (hostile catalog entries "
            "only): 'guarded' runs the learner under the watchdog, 'unprotected' runs it "
            "bare (default: off)"
        ),
    )
    run_parser.add_argument(
        "--duration",
        type=float,
        default=None,
        help="per-measurement duration in simulated seconds (default: the scale's duration)",
    )
    run_parser.add_argument("--json", default=None, help="write a JSON summary to this path")
    run_parser.add_argument(
        "--store",
        default=None,
        help=(
            "persistent result-store directory: measurements are served from and "
            "written through to it, and a cost ledger is printed (and embedded in "
            "--json output)"
        ),
    )
    run_parser.set_defaults(handler=cmd_run)

    eval_parser = subparsers.add_parser(
        "eval",
        help="replay the curated eval dataset and run the regression gate",
    )
    eval_parser.add_argument(
        "--group", default=None, help="only replay cases in this group (disables coverage check)"
    )
    eval_parser.add_argument(
        "--scenario",
        dest="eval_scenario",
        default=None,
        help="only replay cases for this catalog scenario (disables coverage check)",
    )
    eval_parser.add_argument(
        "--seeds",
        type=int,
        nargs="+",
        default=None,
        help="override every case's replay seeds (default: the seeds in cases.toml)",
    )
    eval_parser.add_argument(
        "--out",
        default="eval_out",
        help="run-layout root; EVAL_report.json is written here (default: eval_out)",
    )
    eval_parser.add_argument(
        "--cases",
        default=None,
        help="alternative case-registry file (default: the checked-in cases.toml)",
    )
    eval_parser.add_argument(
        "--json",
        action="store_true",
        help="print the atlas-eval/1 report JSON instead of the human-readable summary",
    )
    eval_parser.add_argument(
        "--no-determinism",
        action="store_true",
        help="skip the gate's replay-twice determinism check (quick local runs)",
    )
    eval_parser.add_argument(
        "--store",
        default=None,
        help=(
            "persistent result-store directory: the replay is served from it where "
            "possible and a cost ledger lands in the report's provenance.costs"
        ),
    )
    eval_parser.add_argument(
        "--history",
        default=None,
        help=(
            "trend directory: append this run's summary to <dir>/trend.jsonl and "
            "flag metric drift against the previous run"
        ),
    )
    eval_parser.set_defaults(handler=cmd_eval)

    serve_parser = subparsers.add_parser(
        "serve", help="run the service daemon against a state directory"
    )
    serve_parser.add_argument("--state", required=True, help="service state directory")
    serve_parser.add_argument(
        "--workers", type=int, default=1, help="concurrent job executors (default: 1)"
    )
    serve_parser.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="exit after executing this many jobs (default: run until signalled)",
    )
    serve_parser.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        help="exit after the queue has been idle for this many seconds",
    )
    serve_parser.add_argument(
        "--store-max-bytes",
        type=int,
        default=2 * 1024**3,
        help="persistent-store size bound in bytes (default: 2 GiB)",
    )
    serve_parser.set_defaults(handler=cmd_serve)

    submit_parser = subparsers.add_parser(
        "submit", help="enqueue a job (prints the job id)"
    )
    submit_parser.add_argument("--state", required=True, help="service state directory")
    submit_sub = submit_parser.add_subparsers(dest="job_kind", required=True)
    submit_run = submit_sub.add_parser("run", help="enqueue a pipeline stage run")
    submit_run.add_argument("--scenario", required=True, help="catalog entry name")
    submit_run.add_argument("--stage", choices=("1", "2", "3", "all"), default="all")
    submit_run.add_argument("--scale", choices=tuple(sorted(SCALES)), default=None)
    submit_run.add_argument("--seed", type=int, default=0)
    submit_run.add_argument("--faults", choices=("off", "guarded", "unprotected"), default="off")
    submit_run.add_argument("--duration", type=float, default=None)
    submit_eval = submit_sub.add_parser("eval", help="enqueue an eval-harness run")
    submit_eval.add_argument("--group", default=None, help="only replay cases in this group")
    submit_eval.add_argument(
        "--scenario", dest="eval_scenario", default=None, help="only replay this scenario's cases"
    )
    submit_eval.add_argument("--seeds", type=int, nargs="+", default=None)
    submit_eval.add_argument(
        "--determinism",
        action="store_true",
        help=(
            "also run the gate's replay-twice determinism check (off by default in "
            "service mode: the check reruns without the store and doubles the cost)"
        ),
    )
    submit_parser.set_defaults(handler=cmd_submit)

    status_parser = subparsers.add_parser(
        "status", help="list jobs, or show one job's full record"
    )
    status_parser.add_argument("--state", required=True, help="service state directory")
    status_parser.add_argument("job", nargs="?", default=None, help="job id (default: list all)")
    status_parser.set_defaults(handler=cmd_status)

    tail_parser = subparsers.add_parser(
        "tail", help="print a job's captured stdout or trace stream"
    )
    tail_parser.add_argument("--state", required=True, help="service state directory")
    tail_parser.add_argument("job", help="job id")
    tail_parser.add_argument(
        "--trace", action="store_true", help="print the structured trace instead of stdout"
    )
    tail_parser.set_defaults(handler=cmd_tail)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point: parse arguments and dispatch to the chosen subcommand."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (UnknownScenarioError, FaultModeError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except Exception as error:
        from repro.evalharness.dataset import EvalDatasetError

        if isinstance(error, EvalDatasetError):
            print(f"error: {error}", file=sys.stderr)
            return 2
        raise

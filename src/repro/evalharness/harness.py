"""One-call orchestration: load cases, replay, score, gate, report.

:func:`evaluate` is the single entry point behind ``python -m repro eval``
and the integration tests: it loads the curated dataset (optionally
filtered), replays every case deterministically through an
:class:`~repro.evalharness.runner.EvalRunner`, runs the regression gate,
and assembles the ``atlas-eval/1`` report.

Filter semantics mirror the CLI: ``group``/``scenario`` narrow the replayed
cases but automatically *disable the coverage check* (a filtered run cannot
cover the catalog, and failing it for that would be noise); an unfiltered
run checks coverage against the full catalog.  ``seeds`` overrides every
case's seed list — handy for quick local runs — and is recorded in the
report's per-case replay block like any other case field.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from repro.evalharness.dataset import EvalCase, load_cases
from repro.evalharness.gate import GateResult, run_gate
from repro.evalharness.report import build_report
from repro.evalharness.runner import CaseResult, EvalRunner

__all__ = ["evaluate"]


def evaluate(
    cases: Sequence[EvalCase] | None = None,
    cases_path: str | Path | None = None,
    group: str | None = None,
    scenario: str | None = None,
    seeds: Sequence[int] | None = None,
    out_dir: str | Path | None = None,
    latency_bias_ms: float = 0.0,
    determinism: bool = True,
    coverage: bool | None = None,
    store=None,
    tracer=None,
) -> tuple[dict, GateResult, list[CaseResult]]:
    """Run the full evaluation pipeline and return (report, gate, results).

    ``cases`` short-circuits dataset loading (tests hand in synthetic
    cases); otherwise the registry at ``cases_path`` (default: the
    checked-in ``cases.toml``) is loaded with the given filters.
    ``coverage=None`` resolves to "check unless filtered or explicit
    cases were supplied".

    ``store`` attaches a persistent result store to the replay (see
    :class:`EvalRunner`), so repeated evaluations are served from disk;
    ``tracer`` streams per-seed spans.  Either being set also embeds a
    cost ledger (:class:`~repro.service.costs.CostLedger`) in the
    report's ``provenance.costs`` section — the only report section
    allowed to vary between reruns.
    """
    if cases is None:
        cases = load_cases(path=cases_path, group=group, scenario=scenario)
        if coverage is None:
            coverage = group is None and scenario is None
    elif coverage is None:
        coverage = False
    cases = list(cases)
    if seeds is not None:
        seeds = tuple(int(seed) for seed in seeds)
        cases = [case.replace(seeds=seeds) for case in cases]

    runner = EvalRunner(
        out_dir=out_dir,
        latency_bias_ms=latency_bias_ms,
        store=store,
        tracer=tracer,
    )
    ledger = None
    if store is not None or tracer is not None:
        from repro.service.costs import CostLedger

        ledger = CostLedger(cache=runner.cache, store=store)
    case_results = runner.run_cases(cases)
    # Close the ledger before the gate: the determinism check replays cases
    # through a fresh store-less runner, and its recomputation is a property
    # of the *check*, not a cost of serving this evaluation.
    costs = ledger.finish() if ledger is not None else None
    gate = run_gate(
        runner,
        case_results,
        cases=cases,
        determinism=determinism,
        coverage=coverage,
    )
    report = build_report(
        case_results,
        gate=gate.as_dict(),
        latency_bias_ms=latency_bias_ms,
        costs=costs,
    )
    return report, gate, case_results

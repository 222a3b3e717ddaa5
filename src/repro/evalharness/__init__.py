"""Catalog-wide evaluation harness with a machine-readable regression gate.

The harness replays a curated dataset of scenario × seed cases through the
measurement engine, scores each run with the same :mod:`repro.metrics` the
paper's artifacts use, and gates the outcome against expected metric
envelopes checked into ``cases.toml``:

* :mod:`repro.evalharness.dataset` — eval cases, envelopes, the registry
  file and its (dependency-free) parser;
* :mod:`repro.evalharness.runner` — the deterministic replay runner and
  the ``<out>/<group>/<scenario>/seed=<S>/`` run layout;
* :mod:`repro.evalharness.scorers` — latency fidelity, SLA-violation
  rate, hindsight regrets, sim-to-real symmetric KL;
* :mod:`repro.evalharness.report` — the ``atlas-eval/1`` report
  (``EVAL_report.json``);
* :mod:`repro.evalharness.gate` — envelope / determinism / coverage
  checks with actionable failures;
* :mod:`repro.evalharness.harness` — :func:`~repro.evalharness.harness.evaluate`,
  the one-call pipeline behind ``python -m repro eval``;
* :mod:`repro.evalharness.trend` — cross-run trend tracking
  (``python -m repro eval --history``) with metric-drift flagging.

See ``docs/evaluation.md`` for the dataset format, run layout and gate
criteria.
"""

from repro.evalharness.dataset import (
    DEFAULT_CASES_PATH,
    METRIC_NAMES,
    Envelope,
    EvalCase,
    EvalDatasetError,
    load_cases,
)
from repro.evalharness.gate import (
    GateFailure,
    GateResult,
    check_coverage,
    check_determinism,
    check_envelopes,
    run_gate,
)
from repro.evalharness.harness import evaluate
from repro.evalharness.report import (
    REPORT_SCHEMA,
    build_report,
    canonical_results_bytes,
    render_report,
    write_report,
)
from repro.evalharness.runner import (
    CaseResult,
    EvalRunner,
    SeedRunResult,
    canonical_metrics_bytes,
    scaled_config,
)
from repro.evalharness.trend import (
    TREND_SCHEMA,
    append_trend,
    detect_drift,
    load_trend,
    render_drift,
)

__all__ = [
    "DEFAULT_CASES_PATH",
    "METRIC_NAMES",
    "REPORT_SCHEMA",
    "CaseResult",
    "Envelope",
    "EvalCase",
    "EvalDatasetError",
    "EvalRunner",
    "GateFailure",
    "GateResult",
    "SeedRunResult",
    "TREND_SCHEMA",
    "append_trend",
    "build_report",
    "canonical_metrics_bytes",
    "canonical_results_bytes",
    "check_coverage",
    "check_determinism",
    "check_envelopes",
    "detect_drift",
    "evaluate",
    "load_cases",
    "load_trend",
    "render_drift",
    "render_report",
    "run_gate",
    "scaled_config",
    "write_report",
]

"""The regression gate: envelope, determinism and coverage checks.

The gate turns an eval run into a binary CI verdict.  Three checks, each
producing actionable :class:`GateFailure` records rather than bare
booleans:

``envelope``
    Every case's aggregate metrics must sit inside the expected envelopes
    checked into ``cases.toml``.  A breach names the case, the metric, the
    measured value and the expected bounds — enough to decide whether the
    change is a regression or the envelope needs recalibrating.

``determinism``
    The first seed of every case, and the pass's last replay, are replayed
    a second time through a fresh runner and must reproduce byte-identical
    canonical metrics
    (:func:`repro.evalharness.runner.canonical_metrics_bytes`).  Every
    measurement carries an explicit seed and runs through the one
    vectorized batch path, so any mismatch means real numerics drift
    (seed-stream coupling, batch-composition leakage, a nondeterministic
    reduction, state leaked through the process).

``coverage``
    Every scenario registered in :mod:`repro.scenarios.catalog` must have
    at least one eval case with envelopes.  Adding a scenario without eval
    coverage fails CI with a message naming the scenario and the file to
    extend.  (Skipped automatically when the run was filtered to a subset
    of cases.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.evalharness.dataset import EvalCase
from repro.evalharness.runner import CaseResult, EvalRunner, canonical_metrics_bytes
from repro.scenarios import scenario_names

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

__all__ = [
    "GateFailure",
    "GateResult",
    "check_coverage",
    "check_determinism",
    "check_envelopes",
    "run_gate",
]


@dataclass(frozen=True)
class GateFailure:
    """One actionable gate failure: which check, which case, what happened."""

    kind: str
    case: str
    message: str
    metric: str | None = None

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "case": self.case,
            "metric": self.metric,
            "message": self.message,
        }


@dataclass
class GateResult:
    """Outcome of a gate run: which checks ran and every failure found."""

    checks: list[str] = field(default_factory=list)
    failures: list[GateFailure] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": list(self.checks),
            "failures": [failure.as_dict() for failure in self.failures],
        }


def check_envelopes(case_results: Sequence[CaseResult]) -> list[GateFailure]:
    """Flag every aggregate metric that escapes its expected envelope."""
    failures: list[GateFailure] = []
    for case_result in case_results:
        metrics = case_result.metrics
        for name, envelope in sorted(case_result.case.envelopes.items()):
            value = metrics.get(name, float("nan"))
            if not envelope.contains(value):
                failures.append(
                    GateFailure(
                        kind="envelope",
                        case=case_result.case.case_id,
                        metric=name,
                        message=(
                            f"{case_result.case.case_id}: {name}={value!r} outside "
                            f"expected envelope [{envelope.lo}, {envelope.hi}]"
                        ),
                    )
                )
    return failures


def check_determinism(
    runner: EvalRunner, case_results: Sequence[CaseResult]
) -> list[GateFailure]:
    """Rerun every case's first seed and the pass's last replay; demand identical bytes.

    A fresh :class:`EvalRunner` (same worker bound, no output directory)
    reruns every case's first seed and the pass's last replay; the
    canonical metric bytes of each rerun must match the original run
    exactly.

    The pass's first replay ran before any other replay of the pass in its
    process (a fresh replay worker, or this one).  So the last replay
    reruns first, in this process, and the first seeds follow in one
    :meth:`~repro.evalharness.runner.EvalRunner.run_seeds` pass forked
    after it.  The first case's first seed then reruns after more replays
    in its process than it ran after the first time, so a replay that
    leaks state through the process (legacy ``np.random`` draws, a mutated
    shared object) fails the check whether or not the pass was pooled.
    """
    rerunner = EvalRunner(
        max_workers=runner.max_workers,
        latency_bias_ms=runner.latency_bias_ms,
    )
    checked = [case_result for case_result in case_results if case_result.seed_results]
    if not checked:
        return []
    targets = [(case_result, case_result.seed_results[0]) for case_result in checked]
    if len(checked[-1].seed_results) > 1:
        targets.append((checked[-1], checked[-1].seed_results[-1]))
    last_case, last = targets[-1]
    last_replay = rerunner.run_seed(last_case.case, last.seed)
    replays = rerunner.run_seeds(
        [(case_result.case, seed_result.seed) for case_result, seed_result in targets[:-1]]
    )
    failures: list[GateFailure] = []
    for (case_result, original), replayed in zip(targets, [*replays, last_replay]):
        original_bytes = canonical_metrics_bytes(original.metrics)
        replayed_bytes = canonical_metrics_bytes(replayed.metrics)
        if original_bytes != replayed_bytes:
            failures.append(
                GateFailure(
                    kind="determinism",
                    case=case_result.case.case_id,
                    message=(
                        f"{case_result.case.case_id} seed={original.seed}: replay produced "
                        f"different metrics ({replayed_bytes.decode()} != "
                        f"{original_bytes.decode()}); the replay pipeline is no longer "
                        "deterministic"
                    ),
                )
            )
    return failures


def check_coverage(cases: Iterable[EvalCase]) -> list[GateFailure]:
    """Demand at least one eval case (with envelopes) per catalog scenario."""
    covered = {case.scenario for case in cases}
    failures: list[GateFailure] = []
    for name in scenario_names():
        if name not in covered:
            failures.append(
                GateFailure(
                    kind="coverage",
                    case=name,
                    message=(
                        f"catalog scenario {name!r} has no eval case; add one with "
                        "expected envelopes to src/repro/evalharness/cases.toml "
                        "so the regression gate covers it"
                    ),
                )
            )
    return failures


def run_gate(
    runner: EvalRunner,
    case_results: Sequence[CaseResult],
    cases: Sequence[EvalCase] | None = None,
    determinism: bool = True,
    coverage: bool = True,
) -> GateResult:
    """Run every applicable check and collect the verdict.

    ``cases`` is the *full* loaded dataset for the coverage check; pass
    ``coverage=False`` when the run was filtered to a subset (coverage over
    a filtered dataset would always fail spuriously).  ``determinism=False``
    skips the rerun check (used by fast unit tests; the CLI always reruns).
    """
    result = GateResult()
    result.checks.append("envelope")
    result.failures.extend(check_envelopes(case_results))
    if determinism:
        result.checks.append("determinism")
        result.failures.extend(check_determinism(runner, case_results))
    if coverage and cases is not None:
        result.checks.append("coverage")
        result.failures.extend(check_coverage(cases))
    return result

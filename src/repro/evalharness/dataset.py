"""The curated replay dataset: eval cases, envelopes, and the registry file.

The evaluation harness runs a checked-in registry of **replay cases** —
one or more per scenario-catalog entry — each pinning a scenario, the seeds
to replay, the replay shape (measurement count, duration, the usage ladder
of configuration variants) and the **expected metric envelopes** the gate
enforces.  The registry lives in ``cases.toml`` next to this module and is
read with the standard library's :mod:`tomllib`; a file that is not valid
TOML raises :class:`EvalDatasetError`.

Top-level keys are ``defaults`` (a table of field values shared by every
case) and ``cases`` (an array of case tables, ``[[cases]]``, each with an
``envelopes`` table).  Every case must name a registered catalog scenario,
carry at least one seed, and bound at least one metric; see
``docs/evaluation.md`` for the schema and envelope-derivation rules.
"""

from __future__ import annotations

import math
import tomllib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

__all__ = [
    "DEFAULT_CASES_PATH",
    "Envelope",
    "EvalCase",
    "EvalDatasetError",
    "load_cases",
]

#: The checked-in registry of replay cases, shipped with the package.
DEFAULT_CASES_PATH = Path(__file__).resolve().parent / "cases.toml"

#: Metric names scorers may produce and envelopes may bound (see scorers.py).
METRIC_NAMES: tuple[str, ...] = (
    "latency_p95_ms",
    "sla_violation_rate",
    "avg_usage_regret",
    "avg_qoe_regret",
    "sim_real_symmetric_kl",
)


class EvalDatasetError(ValueError):
    """Raised when the case registry is malformed or inconsistent."""


@dataclass(frozen=True)
class Envelope:
    """Inclusive ``[lo, hi]`` bound one scored metric must stay within."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        """Validate that the bound is a well-ordered finite interval."""
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise EvalDatasetError(f"envelope bounds must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise EvalDatasetError(f"envelope lo {self.lo} exceeds hi {self.hi}")

    def contains(self, value: float) -> bool:
        """Whether ``value`` falls inside the envelope (NaN never does)."""
        return math.isfinite(value) and self.lo <= value <= self.hi

    def as_dict(self) -> dict[str, float]:
        """The bound as a plain dictionary (for the report)."""
        return {"lo": self.lo, "hi": self.hi}


@dataclass(frozen=True)
class EvalCase:
    """One replay case: scenario × seeds × replay shape × expected envelopes.

    Attributes
    ----------
    group:
        Report/run-layout grouping (``static``, ``dynamic``,
        ``multislice`` ... free-form).
    scenario:
        Name of a registered scenario-catalog entry.
    seeds:
        Base seeds to replay; every seed produces one run directory and one
        per-seed metric vector, and the case-level metric is the mean.
    measurements:
        Repeated measurements per configuration variant (trace-driven
        scenarios replay ``traffic_at(step)`` for ``step`` in this range).
    duration_s:
        Simulated seconds per measurement.
    usage_ladder:
        Scale factors applied to the deployed configuration's contended
        dimensions; the resulting variants give the regret scorers a
        usage/QoE series to rank.  Must include ``1.0`` (the deployed
        configuration anchors the fidelity and KL scorers).
    envelopes:
        Metric name → :class:`Envelope`; the gate fails the case when a
        scored value leaves its envelope.
    """

    group: str
    scenario: str
    seeds: tuple[int, ...] = (0, 1)
    measurements: int = 3
    duration_s: float = 6.0
    usage_ladder: tuple[float, ...] = (0.85, 1.0, 1.25)
    envelopes: dict[str, Envelope] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Validate the replay shape and the envelope names."""
        if not self.group or not self.scenario:
            raise EvalDatasetError("case group and scenario must be non-empty")
        if not self.seeds:
            raise EvalDatasetError(f"case {self.case_id!r} must replay at least one seed")
        if self.measurements < 1:
            raise EvalDatasetError(f"case {self.case_id!r} needs measurements >= 1")
        if self.duration_s <= 0:
            raise EvalDatasetError(f"case {self.case_id!r} needs a positive duration_s")
        if not self.usage_ladder or 1.0 not in self.usage_ladder:
            raise EvalDatasetError(
                f"case {self.case_id!r} usage_ladder must include the deployed factor 1.0"
            )
        if not self.envelopes:
            raise EvalDatasetError(f"case {self.case_id!r} must bound at least one metric")
        for name in self.envelopes:
            if name not in METRIC_NAMES:
                raise EvalDatasetError(
                    f"case {self.case_id!r} bounds unknown metric {name!r}; "
                    f"known metrics: {', '.join(METRIC_NAMES)}"
                )

    @property
    def case_id(self) -> str:
        """Stable identifier used in the run layout and the report."""
        return f"{self.group}/{self.scenario}"

    def replace(self, **changes) -> "EvalCase":
        """Return a copy with some fields replaced (tests derive variants)."""
        return replace(self, **changes)


# ------------------------------------------------------------------- loading
def _read_registry(path: Path) -> dict:
    try:
        return tomllib.loads(path.read_text())
    except tomllib.TOMLDecodeError as error:
        raise EvalDatasetError(f"{path}: not valid TOML: {error}") from error


_CASE_FIELDS = {
    "group",
    "scenario",
    "seeds",
    "measurements",
    "duration_s",
    "usage_ladder",
    "envelopes",
}


def _build_case(raw: dict, defaults: dict) -> EvalCase:
    merged = {**defaults, **raw}
    unknown = set(merged) - _CASE_FIELDS
    if unknown:
        raise EvalDatasetError(
            f"case {merged.get('group')}/{merged.get('scenario')}: "
            f"unknown fields {sorted(unknown)}"
        )
    for required in ("group", "scenario", "envelopes"):
        if required not in merged:
            raise EvalDatasetError(f"case is missing required field {required!r}: {raw}")
    envelopes_raw = merged["envelopes"]
    if not isinstance(envelopes_raw, dict):
        raise EvalDatasetError(f"case envelopes must be a mapping, got {envelopes_raw!r}")
    envelopes = {}
    for name, bound in envelopes_raw.items():
        if not (isinstance(bound, list) and len(bound) == 2):
            raise EvalDatasetError(
                f"envelope {name!r} must be a two-element [lo, hi] list, got {bound!r}"
            )
        envelopes[name] = Envelope(lo=float(bound[0]), hi=float(bound[1]))
    return EvalCase(
        group=str(merged["group"]),
        scenario=str(merged["scenario"]),
        seeds=tuple(int(seed) for seed in merged.get("seeds", EvalCase.seeds)),
        measurements=int(merged.get("measurements", EvalCase.measurements)),
        duration_s=float(merged.get("duration_s", EvalCase.duration_s)),
        usage_ladder=tuple(
            float(factor) for factor in merged.get("usage_ladder", EvalCase.usage_ladder)
        ),
        envelopes=envelopes,
    )


def load_cases(
    path: str | Path | None = None,
    group: str | None = None,
    scenario: str | None = None,
) -> tuple[EvalCase, ...]:
    """Load (and optionally filter) the replay-case registry.

    Parameters
    ----------
    path:
        Registry file; defaults to the checked-in :data:`DEFAULT_CASES_PATH`.
    group, scenario:
        Optional exact-match filters.  Filtering that matches nothing raises
        :class:`EvalDatasetError` naming what *is* registered, so a typo in
        ``--group``/``--scenario`` fails loudly instead of silently gating
        nothing.
    """
    registry_path = Path(path) if path is not None else DEFAULT_CASES_PATH
    document = _read_registry(registry_path)
    defaults = document.get("defaults", {})
    raw_cases = document.get("cases", [])
    if not isinstance(raw_cases, list) or not raw_cases:
        raise EvalDatasetError(f"{registry_path}: registry must define a non-empty 'cases' list")
    cases = [_build_case(raw, defaults) for raw in raw_cases]
    seen: set[str] = set()
    for case in cases:
        if case.case_id in seen:
            raise EvalDatasetError(f"duplicate case id {case.case_id!r} in {registry_path}")
        seen.add(case.case_id)
    if group is not None:
        cases = [case for case in cases if case.group == group]
        if not cases:
            raise EvalDatasetError(
                f"no cases in group {group!r}; registered groups: "
                f"{', '.join(sorted({c.group for c in _all_cases(registry_path)}))}"
            )
    if scenario is not None:
        cases = [case for case in cases if case.scenario == scenario]
        if not cases:
            raise EvalDatasetError(
                f"no cases for scenario {scenario!r}; covered scenarios: "
                f"{', '.join(sorted({c.scenario for c in _all_cases(registry_path)}))}"
            )
    return tuple(cases)


def _all_cases(path: Path) -> Iterable[EvalCase]:
    document = _read_registry(path)
    defaults = document.get("defaults", {})
    return [_build_case(raw, defaults) for raw in document.get("cases", [])]

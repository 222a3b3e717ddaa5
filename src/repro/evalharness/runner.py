"""Deterministic replay runner producing the structured eval run layout.

One :class:`EvalRunner` executes replay cases from the curated dataset
(:mod:`repro.evalharness.dataset`) and materialises, per case and seed::

    <out>/<group>/<scenario>/seed=<S>/result.json    # per-seed metrics
    <out>/<group>/<scenario>/seed=<S>/events.jsonl   # one line per measurement

Determinism is the load-bearing property — the regression gate compares
runs byte for byte — and rests on two decisions:

* every measurement carries an explicit request seed derived from its
  ``(variant, step[, slice])`` coordinates by a fixed scheme.  Every
  engine computes a request through the one vectorized batch path, whose
  lanes each draw from their own seed-derived stream
  (:mod:`repro.sim.batch`), so results never depend on batch composition,
  the process that runs the replay or cache state (engines run with
  ``cache=False`` by default; a runner opened with a persistent ``store``
  instead shares one private store-backed cache across its engines — safe
  *because* a cached entry is byte-identical to recomputation);
* environments are constructed fresh per ``(case, seed)``, so stateful
  hooks (the real network's domain-manager history) always start from the
  same state.

All measurements of one environment go out as a **single**
:class:`~repro.engine.engine.MeasurementEngine` batch, so the replay
vectorizes exactly like production traffic; multi-slice cases batch every
contended round through :func:`repro.sim.multislice.run_contended_batch`.

Scheduling
    Because a replay is a pure function of its ``(case, seed)``, a pass
    maps every replay over a fork pool started for that pass
    (:meth:`EvalRunner.run_seeds`, through the shared
    :func:`repro.engine.forkpool.fork_map`): one replay per task, one
    vectorized engine pass per batch inside each worker.  A store-backed
    runner pools too: each worker reads and writes the store through its
    own forked copy of the runner's cache, and the pool folds the workers'
    cache and store counters into the runner's, so a cost ledger reads the
    same totals on both paths.  A tracer records one ``eval.seed`` span
    per replay from whichever process ran it.  On one usable core the
    replays run in-process instead, one after another.

Fault injection
    ``latency_bias_ms`` adds a constant offset to every *real-network*
    latency sample before scoring.  It exists solely so the gate's
    mutation smoke tests can prove the gate detects a biased system — it
    must stay ``0.0`` in any real evaluation, and a nonzero value is
    recorded in every result payload.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.engine.engine import MeasurementEngine
from repro.engine.forkpool import fork_map
from repro.engine.protocol import MeasurementRequest
from repro.evalharness.dataset import EvalCase
from repro.evalharness.scorers import (
    score_latency_fidelity,
    score_regrets,
    score_sim_to_real_kl,
    score_sla_violation_rate,
)
from repro.metrics.qoe import qoe_from_latencies
from repro.metrics.stats import summarize_latencies
from repro.scenarios import ScenarioSpec, get_scenario
from repro.sim.config import CONFIG_BOUNDS, SliceConfig
from repro.sim.faults import FaultedEnvironment, FaultSchedule, telemetry_lost
from repro.sim.multislice import CONTENDED_DIMENSIONS, SliceRun, run_contended_batch

__all__ = [
    "CaseResult",
    "EvalRunner",
    "SeedRunResult",
    "canonical_metrics_bytes",
    "scaled_config",
]

#: Schema identifier of every per-seed ``result.json``.
RUN_SCHEMA = "atlas-eval-run/1"

#: Fixed request-seed scheme: seeds must be explicit (never ``None``) so a
#: measurement's result is a pure function of its coordinates, not of batch
#: composition or engine auto-seed state.
_SEED_STRIDE_VARIANT = 100_003
_SEED_STRIDE_SLICE = 131


def _request_seed(variant: int, step: int, slice_index: int = 0) -> int:
    return _SEED_STRIDE_VARIANT * (variant + 1) + step + _SEED_STRIDE_SLICE * slice_index


def scaled_config(config: SliceConfig, factor: float) -> SliceConfig:
    """Scale a configuration's contended dimensions by ``factor`` (clamped).

    MCS offsets are per-slice modulation choices, not pooled resources, and
    pass through untouched — mirroring
    :data:`repro.sim.multislice.CONTENDED_DIMENSIONS`.
    """
    changes = {}
    for name in CONTENDED_DIMENSIONS:
        lo, hi = CONFIG_BOUNDS[name]
        changes[name] = float(np.clip(getattr(config, name) * factor, lo, hi))
    return config.replace(**changes)


def _sanitize(value):
    """Replace non-finite floats with ``None`` recursively (strict JSON)."""
    if isinstance(value, dict):
        return {key: _sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def canonical_metrics_bytes(metrics: dict[str, float]) -> bytes:
    """Canonical byte serialisation of one metric vector.

    The determinism gate and the pool-identity tests compare these bytes;
    non-finite values map to ``null`` so the serialisation is strict JSON.
    """
    return json.dumps(_sanitize(dict(metrics)), sort_keys=True, separators=(",", ":")).encode()


@dataclass(frozen=True)
class SeedRunResult:
    """Metrics and event log of one ``(case, seed)`` replay."""

    case_id: str
    group: str
    scenario: str
    seed: int
    metrics: dict[str, float]
    events: tuple[dict, ...]
    latency_bias_ms: float = 0.0

    def result_payload(self) -> dict:
        """The ``result.json`` payload of this run (sanitised, sorted keys)."""
        return _sanitize(
            {
                "schema": RUN_SCHEMA,
                "case": self.case_id,
                "group": self.group,
                "scenario": self.scenario,
                "seed": self.seed,
                "latency_bias_ms": self.latency_bias_ms,
                "metrics": dict(self.metrics),
            }
        )


@dataclass
class CaseResult:
    """One case's replay outcome: per-seed runs plus the aggregate metrics."""

    case: EvalCase
    seed_results: list[SeedRunResult] = field(default_factory=list)

    @property
    def metrics(self) -> dict[str, float]:
        """Case-level metric vector: the mean across seeds, metric by metric."""
        names = list(self.seed_results[0].metrics) if self.seed_results else []
        return {
            name: float(np.mean([run.metrics[name] for run in self.seed_results]))
            for name in names
        }

    def envelope_verdicts(self) -> dict[str, bool]:
        """Per-envelope pass/fail of the aggregate metrics."""
        metrics = self.metrics
        return {
            name: envelope.contains(metrics.get(name, float("nan")))
            for name, envelope in self.case.envelopes.items()
        }

    @property
    def passed(self) -> bool:
        """Whether every envelope contains its aggregate metric."""
        return all(self.envelope_verdicts().values())


class EvalRunner:
    """Execute replay cases deterministically and write the run layout.

    Parameters
    ----------
    out_dir:
        Root of the run layout; ``None`` keeps results in memory only.
    latency_bias_ms:
        Fault-injection offset added to real-network latencies before
        scoring (gate self-tests only — see the module docstring).
    store:
        Optional persistent :class:`~repro.service.store.ResultStore`.
        When given, every engine shares one private
        :class:`~repro.engine.cache.MeasurementCache` backed by the store,
        so a repeated eval case is served from disk instead of recomputed
        (the service-mode warm path).  The cache is exposed as ``.cache``
        for cost accounting; metrics are unchanged by construction.
    tracer:
        Optional :class:`~repro.service.tracer.Tracer`; each ``(case,
        seed)`` replay is recorded as an ``eval.seed`` span.
    """

    def __init__(
        self,
        out_dir: str | Path | None = None,
        latency_bias_ms: float = 0.0,
        store=None,
        tracer=None,
    ) -> None:
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.latency_bias_ms = float(latency_bias_ms)
        if store is not None:
            from repro.engine.cache import MeasurementCache

            self.cache: "MeasurementCache | None" = MeasurementCache(store=store)
        else:
            self.cache = None
        if tracer is None:
            from repro.service.tracer import NullTracer

            tracer = NullTracer()
        self.tracer = tracer

    # ----------------------------------------------------------------- engine
    def _engine(self, environment) -> MeasurementEngine:
        return MeasurementEngine(
            environment, cache=self.cache if self.cache is not None else False
        )

    def _bias(self, latencies: np.ndarray) -> np.ndarray:
        if self.latency_bias_ms == 0.0:
            return latencies
        return np.asarray(latencies, dtype=float) + self.latency_bias_ms

    def _run_faulted_steps(
        self,
        engine: MeasurementEngine,
        requests: list[MeasurementRequest],
        case: EvalCase,
        schedule: FaultSchedule,
    ) -> list:
        """Replay ``requests`` one measurement step at a time under ``schedule``.

        Requests arrive variant-major (``vi * case.measurements + step``);
        results come back in the same flat order so the event loop stays
        oblivious to the per-step batching.
        """
        base = engine.environment
        n_variants = len(requests) // case.measurements
        results: list = [None] * len(requests)
        for step in range(case.measurements):
            engine.environment = FaultedEnvironment(base, schedule, step)
            batch = [requests[vi * case.measurements + step] for vi in range(n_variants)]
            step_results = engine.run_batch(batch)
            for vi, result in enumerate(step_results):
                results[vi * case.measurements + step] = result
        return results

    # ------------------------------------------------------------------- runs
    def run_seed(self, case: EvalCase, seed: int) -> SeedRunResult:
        """Replay one case under one base seed (fresh environments, no cache)."""
        spec = get_scenario(case.scenario)
        with self.tracer.span("eval.seed", case=case.case_id, seed=seed):
            if spec.is_multislice:
                metrics, events = self._run_multislice_seed(case, spec, seed)
            else:
                metrics, events = self._run_single_seed(case, spec, seed)
        return SeedRunResult(
            case_id=case.case_id,
            group=case.group,
            scenario=case.scenario,
            seed=seed,
            metrics=metrics,
            events=tuple(events),
            latency_bias_ms=self.latency_bias_ms,
        )

    def _run_single_seed(
        self, case: EvalCase, spec: ScenarioSpec, seed: int
    ) -> tuple[dict[str, float], list[dict]]:
        workload = spec.primary
        threshold = workload.sla.latency_threshold_ms
        availability = workload.sla.availability
        levels = [workload.traffic_at(step) for step in range(case.measurements)]
        variants = [scaled_config(workload.deployed_config, f) for f in case.usage_ladder]
        requests = [
            MeasurementRequest(
                config=variants[vi],
                traffic=levels[step],
                duration=case.duration_s,
                seed=_request_seed(vi, step),
            )
            for vi in range(len(variants))
            for step in range(case.measurements)
        ]

        sim_engine = self._engine(workload.make_simulator(seed=seed))
        real_engine = self._engine(workload.make_real_network(seed=seed + 1))
        if spec.faults is None:
            sim_results = sim_engine.run_batch(list(requests))
            real_results = real_engine.run_batch(list(requests))
        else:
            # Hostile replay: faults are step-indexed, so each step goes out
            # as its own batch under a step-pinned FaultedEnvironment.  The
            # simulator side sees the world faults (drift, storms) but not
            # the measurement-plane dropouts — telemetry loss happens on the
            # path back from the real network.
            sim_results = self._run_faulted_steps(
                sim_engine, requests, case, spec.faults.without_dropouts()
            )
            real_results = self._run_faulted_steps(
                real_engine, requests, case, spec.faults
            )

        events: list[dict] = []
        deployed = case.usage_ladder.index(1.0)
        usages: list[float] = []
        qoes: list[float] = []
        violations: list[float] = []
        sim_pool: list[np.ndarray] = []
        real_pool: list[np.ndarray] = []
        for env_name, results in (("sim", sim_results), ("real", real_results)):
            index = 0
            for vi, factor in enumerate(case.usage_ladder):
                for step in range(case.measurements):
                    result = results[index]
                    latencies = (
                        self._bias(result.latencies_ms)
                        if env_name == "real"
                        else result.latencies_ms
                    )
                    qoe = qoe_from_latencies(latencies, threshold)
                    summary = summarize_latencies(latencies)
                    if env_name == "real":
                        usages.append(variants[vi].resource_usage())
                        qoes.append(qoe)
                        violations.append(qoe)
                        if vi == deployed:
                            real_pool.append(latencies)
                    elif vi == deployed:
                        sim_pool.append(latencies)
                    event = {
                        "kind": "measurement",
                        "env": env_name,
                        "variant": vi,
                        "usage_factor": factor,
                        "step": step,
                        "traffic": levels[step],
                        "request_seed": _request_seed(vi, step),
                        "usage": variants[vi].resource_usage(),
                        "qoe": qoe,
                        "delivered": summary.count,
                        "mean_ms": summary.mean,
                        "p95_ms": summary.p95,
                    }
                    if spec.faults is not None:
                        # Hostile replays record what the fault plane did to
                        # this step: the traffic actually offered and whether
                        # the telemetry ever reached the controller.
                        event["effective_traffic"] = result.traffic
                        event["dropped"] = telemetry_lost(result)
                    events.append(event)
                    index += 1

        metrics = self._score(
            real_pool, sim_pool, usages, qoes, violations, availability
        )
        return metrics, events

    def _run_multislice_seed(
        self, case: EvalCase, spec: ScenarioSpec, seed: int
    ) -> tuple[dict[str, float], list[dict]]:
        # Multi-slice replay measures contended rounds: every (variant, step)
        # scales all requested slice configurations by the ladder factor and
        # resolves them against the spec's shared budget.  Traffic levels are
        # each slice's own scenario traffic (the catalog has no dynamic
        # multi-slice entries; traces would need per-round scenario overrides).
        rounds: list[list[SliceRun]] = []
        for vi, factor in enumerate(case.usage_ladder):
            for step in range(case.measurements):
                rounds.append(
                    [
                        SliceRun(
                            name=workload.name,
                            config=scaled_config(workload.deployed_config, factor),
                            scenario=workload.scenario,
                            sla=workload.sla,
                            seed=_request_seed(vi, step, slice_index),
                        )
                        for slice_index, workload in enumerate(spec.slices)
                    ]
                )

        sim_engine = self._engine(spec.primary.make_simulator(seed=seed))
        real_engine = self._engine(spec.primary.make_real_network(seed=seed + 1))
        sim_rounds = run_contended_batch(
            sim_engine.environment,
            rounds,
            budget=spec.budget,
            duration=case.duration_s,
            engine=sim_engine,
        )
        real_rounds = run_contended_batch(
            real_engine.environment,
            rounds,
            budget=spec.budget,
            duration=case.duration_s,
            engine=real_engine,
        )

        events: list[dict] = []
        deployed = case.usage_ladder.index(1.0)
        usages: list[float] = []
        qoes: list[float] = []
        violation_pairs: list[tuple[float, float]] = []
        sim_pool: list[np.ndarray] = []
        real_pool: list[np.ndarray] = []
        for env_name, env_rounds in (("sim", sim_rounds), ("real", real_rounds)):
            round_index = 0
            for vi, factor in enumerate(case.usage_ladder):
                for step in range(case.measurements):
                    contended = env_rounds[round_index]
                    for slice_index, run in enumerate(contended.runs):
                        result = contended.results[slice_index]
                        latencies = (
                            self._bias(result.latencies_ms)
                            if env_name == "real"
                            else result.latencies_ms
                        )
                        qoe = qoe_from_latencies(latencies, run.sla.latency_threshold_ms)
                        summary = summarize_latencies(latencies)
                        allocated_usage = contended.allocated[slice_index].resource_usage()
                        if env_name == "real":
                            usages.append(allocated_usage)
                            qoes.append(qoe)
                            violation_pairs.append((qoe, run.sla.availability))
                            if vi == deployed and slice_index == 0:
                                real_pool.append(latencies)
                        elif vi == deployed and slice_index == 0:
                            sim_pool.append(latencies)
                        events.append(
                            {
                                "kind": "measurement",
                                "env": env_name,
                                "variant": vi,
                                "usage_factor": factor,
                                "step": step,
                                "slice": run.name,
                                "request_seed": run.seed,
                                "usage": allocated_usage,
                                "qoe": qoe,
                                "delivered": summary.count,
                                "mean_ms": summary.mean,
                                "p95_ms": summary.p95,
                            }
                        )
                    round_index += 1

        # Per-slice SLAs differ, so the violation rate is computed pairwise
        # rather than against one shared availability; the regret optimum
        # ranks all slices' points together (availability=None — every
        # recorded point is feasible).
        violation_rate = (
            float(np.mean([float(qoe < availability) for qoe, availability in violation_pairs]))
            if violation_pairs
            else 0.0
        )
        avg_usage_regret, avg_qoe_regret = score_regrets(usages, qoes, availability=None)
        metrics = {
            "latency_p95_ms": score_latency_fidelity(
                np.concatenate(real_pool) if real_pool else np.zeros(0)
            ),
            "sla_violation_rate": violation_rate,
            "avg_usage_regret": avg_usage_regret,
            "avg_qoe_regret": avg_qoe_regret,
            "sim_real_symmetric_kl": score_sim_to_real_kl(
                np.concatenate(sim_pool) if sim_pool else np.zeros(0),
                np.concatenate(real_pool) if real_pool else np.zeros(0),
            ),
        }
        return metrics, events

    def _score(
        self,
        real_pool: list[np.ndarray],
        sim_pool: list[np.ndarray],
        usages: list[float],
        qoes: list[float],
        violations: list[float],
        availability: float,
    ) -> dict[str, float]:
        real_latencies = np.concatenate(real_pool) if real_pool else np.zeros(0)
        sim_latencies = np.concatenate(sim_pool) if sim_pool else np.zeros(0)
        avg_usage_regret, avg_qoe_regret = score_regrets(usages, qoes, availability)
        return {
            "latency_p95_ms": score_latency_fidelity(real_latencies),
            "sla_violation_rate": score_sla_violation_rate(violations, availability),
            "avg_usage_regret": avg_usage_regret,
            "avg_qoe_regret": avg_qoe_regret,
            "sim_real_symmetric_kl": score_sim_to_real_kl(sim_latencies, real_latencies),
        }

    # -------------------------------------------------------------- scheduling
    def run_seeds(self, jobs: Iterable[tuple[EvalCase, int]]) -> list[SeedRunResult]:
        """Replay ``(case, seed)`` jobs; results come back in job order.

        Each replay runs whole in a worker of a fork pool started for this
        call (:func:`repro.engine.forkpool.fork_map`, one worker per usable
        core and replay), with this runner exactly as it is (subclasses and
        patches included); engines built there run every batch inline, and
        the engine telemetry and the cache and store counters they move are
        folded into this process's.  Replays are pure functions of
        ``(case, seed)``, so the run layout is the same pooled or
        in-process.  With a store, a measurement that one replay
        reuses from another is served from memory, from the store or fresh,
        depending on which worker reached it first; the number of lookups,
        and every ledger identity (executed requests equal cache misses,
        cache store hits equal store hits) hold on both paths.
        """
        return list(fork_map(lambda job: self.run_seed(*job), jobs))

    # ------------------------------------------------------------------ layout
    def run_case(self, case: EvalCase) -> CaseResult:
        """Replay every seed of one case, writing its run directories."""
        return self.run_cases([case])[0]

    def run_cases(self, cases) -> list[CaseResult]:
        """Replay a sequence of cases in one :meth:`run_seeds` pass.

        The run layout is written in case/seed order once every replay is back.
        """
        cases = list(cases)
        replays = iter(self.run_seeds([(case, seed) for case in cases for seed in case.seeds]))
        results = [
            CaseResult(case=case, seed_results=[next(replays) for _ in case.seeds])
            for case in cases
        ]
        if self.out_dir is not None:
            for result in results:
                for seed_result in result.seed_results:
                    self._write_seed_run(seed_result)
        return results

    def _write_seed_run(self, seed_result: SeedRunResult) -> None:
        run_dir = (
            self.out_dir
            / seed_result.group
            / seed_result.scenario
            / f"seed={seed_result.seed}"
        )
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "result.json").write_text(
            json.dumps(seed_result.result_payload(), indent=2, sort_keys=True) + "\n"
        )
        with open(run_dir / "events.jsonl", "w") as handle:
            for event in seed_result.events:
                handle.write(json.dumps(_sanitize(event), sort_keys=True) + "\n")

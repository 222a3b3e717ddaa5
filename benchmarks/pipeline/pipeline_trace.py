"""Span recording for the traced pass, and the summariser that reads spans back.

The traced pass (``pass_entry.py --trace FILE``) wraps the public callables
of each layer listed in :func:`install` from outside the program: nothing
under ``src/`` knows it is being traced.  Spans are kept in memory and
written once, when ``repro.cli.main`` returns, as ``atlas-trace/1`` span
records (the schema of :mod:`repro.service.tracer`) plus three fields the
in-program tracer does not write yet:

``id``
    Integer span id, unique within the file.  ``0`` is the pass itself.
``parent``
    Id of the span that was open when this one started (``0`` for the
    top-level spans, ``null`` for the pass).
``start``
    ``time.perf_counter()`` at span entry.  On Linux that clock is shared
    by every process, so the parent appends the spans it times itself
    (:func:`close_trace`) on the same time axis.

Counts that have no span of their own (cache tiers served, store entries
scanned, engine telemetry deltas) arrive in one
``{"kind": "event", "name": "counters"}`` record after the spans.

This module must stay importable without ``repro``: the benchmark's parent
process uses only the summariser half.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

TRACE_SCHEMA = "atlas-trace/1"
ROOT_ID = 0
ROOT_NAME = "pass"


# ------------------------------------------------------------------ recording
class Recorder:
    """In-memory span stack and counters of one traced pass.

    The stack is per process and assumes spans open and close on the main
    thread, which holds for every wrapped callable: engine pool workers run
    in forked processes whose spans are never written.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self.counters: Counter = Counter()
        self._stack: list[tuple[int, str]] = [(ROOT_ID, ROOT_NAME)]
        self._ids = itertools.count(ROOT_ID + 1)
        self._epoch = time.time() - time.perf_counter()

    def is_open(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the stack."""
        return any(open_name == name for _, open_name in self._stack)

    def open(self, name: str, start: float | None = None) -> tuple[int, int, float]:
        """Push a span; return ``(id, parent, start)`` for :meth:`close`."""
        span_id = next(self._ids)
        parent = self._stack[-1][0]
        self._stack.append((span_id, name))
        return span_id, parent, time.perf_counter() if start is None else start

    def close(
        self,
        handle: tuple[int, int, float],
        name: str,
        status: str = "ok",
        attrs: dict | None = None,
        end: float | None = None,
    ) -> None:
        """Pop the span opened as ``handle`` and record it (``end`` defaults to now)."""
        end = time.perf_counter() if end is None else end
        span_id, parent, start = handle
        self._stack.pop()
        self.records.append(
            span_record(name, span_id, parent, start, end - start, status, attrs, self._epoch + end)
        )

    def write(self, path: str | Path) -> None:
        """Write every span, then the counters event stamped with the handover time."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            counters = {
                "schema": TRACE_SCHEMA,
                "kind": "event",
                "name": "counters",
                "ts": time.time(),
                "start": time.perf_counter(),
                "attrs": dict(self.counters),
            }
            handle.write(json.dumps(counters, sort_keys=True) + "\n")


def span_record(
    name: str,
    span_id: int,
    parent: int | None,
    start: float,
    duration_s: float,
    status: str = "ok",
    attrs: dict | None = None,
    ts: float | None = None,
) -> dict:
    """One ``atlas-trace/1`` span record with the ``id``/``parent``/``start`` fields."""
    return {
        "schema": TRACE_SCHEMA,
        "kind": "span",
        "name": name,
        "ts": time.time() if ts is None else ts,
        "duration_s": duration_s,
        "status": status,
        "attrs": attrs or {},
        "id": span_id,
        "parent": parent,
        "start": start,
    }


def close_trace(path: str | Path, start: float, duration_s: float) -> None:
    """Append the two spans only the parent can time.

    ``cli.exit`` runs from the handover (the counters event's ``start``) to
    the process's exit: exit handlers, the engine's pool teardown and
    interpreter shutdown.  ``pass`` runs from spawn to exit.
    """
    records = read_records(path)
    ids = [record["id"] for record in records if "id" in record]
    handover = next((r["start"] for r in records if r.get("name") == "counters"), None)
    lines = []
    if handover is not None:
        exit_span = span_record("cli.exit", max(ids, default=ROOT_ID) + 1, ROOT_ID, handover,
                                start + duration_s - handover)
        lines.append(exit_span)
    lines.append(span_record(ROOT_NAME, ROOT_ID, None, start, duration_s))
    with open(path, "a", encoding="utf-8") as handle:
        for record in lines:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def traced(
    recorder: Recorder,
    name: str,
    fn: Callable,
    probe: Callable[[dict], Callable[[Any], dict]] | None = None,
    outermost: bool = False,
) -> Callable:
    """Wrap ``fn`` so every call records a span called ``name``.

    ``probe`` sees the bound arguments before the call and returns a
    finisher that maps the result (``None`` if the call raised) to the
    span's attributes.  ``outermost`` skips the span while one of the same
    name is already open, so delegating executors are timed once.
    """
    signature = inspect.signature(fn) if probe is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if outermost and recorder.is_open(name):
            return fn(*args, **kwargs)
        finish = None
        if signature is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            finish = probe(bound.arguments)
        handle = recorder.open(name)
        status, result = "error", None
        try:
            result = fn(*args, **kwargs)
            status = "ok"
            return result
        finally:
            recorder.close(handle, name, status, finish(result) if finish is not None else {})

    return wrapper


def _rows(values) -> int:
    shape = getattr(values, "shape", None)
    if shape is None:
        import numpy as np

        shape = np.shape(values)
    return 1 if len(shape) <= 1 else int(shape[0])


def _rows_probe(arguments: dict) -> Callable[[Any], dict]:
    rows = _rows(arguments["inputs"])
    return lambda result: {"rows": rows}


def _bnn_fit_probe(arguments: dict) -> Callable[[Any], dict]:
    attrs = {"rows": _rows(arguments["inputs"]), "epochs": int(arguments["epochs"])}
    return lambda result: attrs


def _run_batch_probe(arguments: dict) -> Callable[[Any], dict]:
    return lambda result: {"requests": len(arguments["requests"])}


def _executor_probe(recorder: Recorder) -> Callable[[dict], Callable[[Any], dict]]:
    def probe(arguments: dict) -> Callable[[Any], dict]:
        executor = arguments["self"]

        def finish(result) -> dict:
            choice = getattr(executor, "last_choice", None) or executor.kind
            recorder.counters[f"engine.executor.{choice}"] += 1
            return {"choice": choice, "requests": len(arguments["requests"])}

        return finish

    return probe


def _cache_get_probe(recorder: Recorder) -> Callable[[dict], Callable[[Any], dict]]:
    def probe(arguments: dict) -> Callable[[Any], dict]:
        stats = arguments["self"].stats
        before = (stats.hits, stats.store_hits)

        def finish(result) -> dict:
            if stats.hits > before[0]:
                tier = "memory"
            elif stats.store_hits > before[1]:
                tier = "store"
            else:
                tier = "miss"
            recorder.counters[f"engine.cache.{tier}"] += 1
            return {"tier": tier}

        return finish

    return probe


def _store_bytes_probe(field: str) -> Callable[[dict], Callable[[Any], dict]]:
    def probe(arguments: dict) -> Callable[[Any], dict]:
        stats = arguments["self"].stats
        before = getattr(stats, field)
        return lambda result: {"bytes": getattr(stats, field) - before}

    return probe


def _counting_entries(recorder: Recorder, entries: Callable) -> Callable:
    @functools.wraps(entries)
    def wrapper(self):
        for item in entries(self):
            recorder.counters["service.store.entries_scanned"] += 1
            yield item

    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every layer's public callables so calls record spans into ``recorder``."""
    import repro.core.simulator_learning as simulator_learning
    import repro.metrics as metrics
    import repro.metrics.kl as kl
    from repro.core.offline_training import OfflineConfigurationTrainer
    from repro.core.online_learning import OnlineConfigurationLearner
    from repro.core.policy import OfflinePolicy
    from repro.core.spaces import BoxSpace
    from repro.core.watchdog import OnlineWatchdog
    from repro.engine.cache import MeasurementCache
    from repro.engine.engine import MeasurementEngine
    from repro.engine.executors import EXECUTOR_KINDS
    from repro.evalharness.runner import EvalRunner
    from repro.models.bnn import BayesianNeuralNetwork
    from repro.models.gp import GaussianProcessRegressor
    from repro.prototype.testbed import RealNetwork
    from repro.service.store import ResultStore

    methods = [
        (BayesianNeuralNetwork, "fit", "models.bnn.fit", _bnn_fit_probe),
        (BayesianNeuralNetwork, "predict", "models.bnn.infer", _rows_probe),
        (BayesianNeuralNetwork, "sample_predict", "models.bnn.infer", _rows_probe),
        (BayesianNeuralNetwork, "mean_predict", "models.bnn.infer", _rows_probe),
        (GaussianProcessRegressor, "fit", "models.gp.fit", _rows_probe),
        (GaussianProcessRegressor, "predict", "models.gp.predict", _rows_probe),
        (MeasurementEngine, "run_batch", "engine.run_batch", _run_batch_probe),
        (MeasurementCache, "get", "engine.cache.get", _cache_get_probe(recorder)),
        (MeasurementCache, "put", "engine.cache.put", None),
        (ResultStore, "put", "service.store.put", _store_bytes_probe("bytes_written")),
        (ResultStore, "get", "service.store.get", _store_bytes_probe("bytes_read")),
        (ResultStore, "evict_if_needed", "service.store.evict", None),
        (simulator_learning.SimulatorParameterSearch, "run", "core.stage1", None),
        (OfflineConfigurationTrainer, "run", "core.stage2", None),
        (OnlineConfigurationLearner, "step", "core.stage3", None),
        (OnlineWatchdog, "run", "core.watchdog", None),
        (BoxSpace, "sample", "core.spaces.sample", None),
        (OfflinePolicy, "predict_qoe", "core.policy.predict_qoe", None),
        (RealNetwork, "measure_slices", "prototype.measure_slices", None),
        (EvalRunner, "run_case", "evalharness.run_case", None),
    ]
    for owner, attr, name, probe in methods:
        setattr(owner, attr, traced(recorder, name, getattr(owner, attr), probe))
    executor_probe = _executor_probe(recorder)
    for executor_class in set(EXECUTOR_KINDS.values()):
        executor_class.map_requests = traced(
            recorder, "engine.executor", executor_class.map_requests, executor_probe, outermost=True
        )
    ResultStore.entries = _counting_entries(recorder, ResultStore.entries)
    # Stage 1 imports the KL estimator by name, and symmetric_kl_divergence
    # looks it up in its own module, so both bindings get the one wrapper.
    kl_wrapper = traced(recorder, "metrics.kl", kl.histogram_kl_divergence)
    for module in (kl, metrics, simulator_learning):
        module.histogram_kl_divergence = kl_wrapper


# ---------------------------------------------------------------- summarising
def read_records(path: str | Path) -> list[dict]:
    """Parse a trace file, skipping blank and torn lines."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to their parent's interval and overlapping children
    are merged, so the result is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.get("parent") is not None:
            children[span["parent"]].append((span["start"], span["start"] + span["duration_s"]))
    result = {}
    for span in spans:
        low, high = span["start"], span["start"] + span["duration_s"]
        covered, reach = 0.0, low
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, high)
            if end > start:
                covered += end - start
                reach = end
        result[span["id"]] = span["duration_s"] - covered
    return result


def aggregate(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, ``total_s``, ``self_s`` and summed numeric attributes."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span["duration_s"]
        row["self_s"] += own[span["id"]]
        for key, value in span.get("attrs", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                row[key] = row.get(key, 0) + value
    return table


def split_records(records: list[dict]) -> tuple[list[dict], dict, dict]:
    """``(spans, counters, root)`` of a parsed trace file.

    A trace that nobody closed with a ``pass`` span gets one covering the
    extent of its spans, so coverage reads 1.0 there.
    """
    spans = [r for r in records if r.get("kind") == "span" and "id" in r]
    counters: dict = {}
    for record in records:
        if record.get("kind") == "event" and record.get("name") == "counters":
            counters.update(record.get("attrs", {}))
    root = next((span for span in spans if span["id"] == ROOT_ID), None)
    if root is None:
        start = min((span["start"] for span in spans), default=0.0)
        end = max((span["start"] + span["duration_s"] for span in spans), default=0.0)
        root = span_record(ROOT_NAME, ROOT_ID, None, start, end - start)
        spans.append(root)
    return spans, counters, root


#: Every per-layer metric with its unit, in report order.  ``*.share`` is a
#: layer's self time as a share of the traced pass's wall time.
LAYER_METRICS: dict[str, str] = {
    "cli.import_s": "s",
    "models.bnn.fit.calls": "count",
    "models.bnn.fit.share": "fraction",
    "models.bnn.fit.rows": "count",
    "models.bnn.fit.epochs": "count",
    "models.bnn.infer.calls": "count",
    "models.bnn.infer.share": "fraction",
    "models.bnn.infer.rows": "count",
    "models.gp.fit.calls": "count",
    "models.gp.fit.share": "fraction",
    "models.gp.fit.rows": "count",
    "models.gp.predict.calls": "count",
    "models.gp.predict.share": "fraction",
    "models.gp.predict.rows": "count",
    "engine.run_batch.calls": "count",
    "engine.run_batch.share": "fraction",
    "engine.requests": "count",
    "engine.executor.share": "fraction",
    "engine.executor.sharded": "count",
    "engine.executor.vectorized": "count",
    "engine.pools_created": "count",
    "engine.sim_seconds": "sim_s",
    "engine.executor.sim_s_per_s": "ratio",
    "engine.served.memory": "count",
    "engine.served.store": "count",
    "engine.served.fresh": "count",
    "engine.hit_ratio": "fraction",
    "engine.cache.get.share": "fraction",
    "engine.cache.put.share": "fraction",
    "service.store.put.calls": "count",
    "service.store.put.share": "fraction",
    "service.store.evict.share": "fraction",
    "service.store.entries_scanned": "count",
    "service.store.bytes_written": "bytes",
    "service.store.get.calls": "count",
    "service.store.get.share": "fraction",
    "service.store.bytes_read": "bytes",
    "core.stage1.total_share": "fraction",
    "core.stage1.share": "fraction",
    "core.stage2.total_share": "fraction",
    "core.stage2.share": "fraction",
    "core.stage3.total_share": "fraction",
    "core.stage3.share": "fraction",
    "core.watchdog.share": "fraction",
    "core.spaces.sample.calls": "count",
    "core.spaces.sample.share": "fraction",
    "core.policy.predict_qoe.share": "fraction",
    "prototype.measure_slices.calls": "count",
    "prototype.measure_slices.total_share": "fraction",
    "evalharness.run_case.calls": "count",
    "evalharness.run_case.share": "fraction",
    "metrics.kl.calls": "count",
    "metrics.kl.share": "fraction",
    "trace.run_s": "s",
    "trace.coverage": "fraction",
    "trace.other_s": "s",
    "trace.overhead": "fraction",
}


def layer_metrics(records: list[dict], untraced_wall_s: float | None = None) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value of one traced pass.

    ``untraced_wall_s`` is the median wall time of the same workload's
    untraced passes; ``trace.overhead`` is the traced pass's excess over it
    (0.0 when no untraced median is given).
    """
    spans, counters, root = split_records(records)
    table = aggregate(spans)
    wall = root["duration_s"]
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def row(name: str) -> dict:
        return table.get(name, empty)

    metrics: dict[str, float] = {"cli.import_s": row("cli.import")["total_s"]}
    for layer in ("models.bnn.fit", "models.bnn.infer", "models.gp.fit", "models.gp.predict"):
        metrics[f"{layer}.calls"] = row(layer)["calls"]
        metrics[f"{layer}.share"] = row(layer)["self_s"] / wall
        metrics[f"{layer}.rows"] = row(layer).get("rows", 0)
    metrics["models.bnn.fit.epochs"] = row("models.bnn.fit").get("epochs", 0)
    executor = row("engine.executor")
    sim_seconds = counters.get("engine.sim_seconds", 0.0)
    fresh = counters.get("engine.executed_requests", 0)
    memory = counters.get("engine.cache.memory", 0)
    store = counters.get("engine.cache.store", 0)
    requests = row("engine.run_batch").get("requests", 0)
    metrics.update(
        {
            "engine.run_batch.calls": row("engine.run_batch")["calls"],
            "engine.run_batch.share": row("engine.run_batch")["self_s"] / wall,
            "engine.requests": requests,
            "engine.executor.share": executor["self_s"] / wall,
            "engine.executor.sharded": counters.get("engine.executor.sharded", 0),
            "engine.executor.vectorized": counters.get("engine.executor.vectorized", 0),
            "engine.pools_created": counters.get("engine.pools_created", 0),
            "engine.sim_seconds": sim_seconds,
            "engine.executor.sim_s_per_s": (
                sim_seconds / executor["total_s"] if executor["total_s"] > 0 else 0.0
            ),
            "engine.served.memory": memory,
            "engine.served.store": store,
            "engine.served.fresh": fresh,
            "engine.hit_ratio": (memory + store) / requests if requests else 0.0,
            "engine.cache.get.share": row("engine.cache.get")["self_s"] / wall,
            "engine.cache.put.share": row("engine.cache.put")["self_s"] / wall,
            "service.store.put.calls": row("service.store.put")["calls"],
            "service.store.put.share": row("service.store.put")["self_s"] / wall,
            "service.store.evict.share": row("service.store.evict")["self_s"] / wall,
            "service.store.entries_scanned": counters.get("service.store.entries_scanned", 0),
            "service.store.bytes_written": row("service.store.put").get("bytes", 0),
            "service.store.get.calls": row("service.store.get")["calls"],
            "service.store.get.share": row("service.store.get")["self_s"] / wall,
            "service.store.bytes_read": row("service.store.get").get("bytes", 0),
        }
    )
    for stage in ("core.stage1", "core.stage2", "core.stage3"):
        metrics[f"{stage}.total_share"] = row(stage)["total_s"] / wall
        metrics[f"{stage}.share"] = row(stage)["self_s"] / wall
    root_self = self_times(spans)[ROOT_ID]
    metrics.update(
        {
            "core.watchdog.share": row("core.watchdog")["self_s"] / wall,
            "core.spaces.sample.calls": row("core.spaces.sample")["calls"],
            "core.spaces.sample.share": row("core.spaces.sample")["self_s"] / wall,
            "core.policy.predict_qoe.share": row("core.policy.predict_qoe")["self_s"] / wall,
            "prototype.measure_slices.calls": row("prototype.measure_slices")["calls"],
            "prototype.measure_slices.total_share": row("prototype.measure_slices")["total_s"] / wall,
            "evalharness.run_case.calls": row("evalharness.run_case")["calls"],
            "evalharness.run_case.share": row("evalharness.run_case")["self_s"] / wall,
            "metrics.kl.calls": row("metrics.kl")["calls"],
            "metrics.kl.share": row("metrics.kl")["self_s"] / wall,
            "trace.run_s": wall,
            "trace.coverage": (wall - root_self) / wall,
            "trace.other_s": root_self,
            "trace.overhead": wall / untraced_wall_s - 1.0 if untraced_wall_s else 0.0,
        }
    )
    return {name: metrics[name] for name in LAYER_METRICS}

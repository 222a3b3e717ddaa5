"""Property-based and multi-process tests of the persistent result store.

Covers the store's contracts in isolation: canonical key encoding (typed,
deterministic, process-independent), blob round-trip identity, eviction
never dropping the entry just written, headroom-gated eviction scans making
the decisions of a scan on every put, corruption detection, and N
processes hammering one store directory with reconcilable cost accounting.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.cache import MeasurementCache
from repro.engine.engine import MeasurementEngine
from repro.engine.protocol import MeasurementRequest
from repro.scenarios import get_scenario
from repro.service.store import (
    ResultStore,
    StoreKeyError,
    canonical_key_bytes,
    key_digest,
)

# Scalars that appear in engine cache keys, plus bytes for completeness.
key_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

#: Nested tuples of key scalars — the shape of real cache keys.
key_trees = st.recursive(
    key_scalars,
    lambda children: st.tuples(children, children) | st.tuples(children, children, children),
    max_leaves=12,
)


@given(key_trees)
@settings(max_examples=100, deadline=None)
def test_canonical_key_bytes_is_deterministic(key):
    assert canonical_key_bytes(key) == canonical_key_bytes(key)
    assert len(key_digest(key)) == 64


@given(key_trees, key_trees)
@settings(max_examples=100, deadline=None)
def test_unequal_keys_have_distinct_bytes(a, b):
    # Injectivity up to equality: two keys that compare unequal must never
    # collide byte-wise (equal-comparing cross-type pairs like 1 == 1.0 are
    # excluded here and covered by the type-tagging test below).
    if a != b:
        assert canonical_key_bytes(a) != canonical_key_bytes(b)


def test_encoding_is_type_tagged():
    values = [1, 1.0, "1", True, b"1", (1,), None]
    encodings = {canonical_key_bytes(v) for v in values}
    assert len(encodings) == len(values)


def test_unencodable_key_raises_store_key_error():
    with pytest.raises(StoreKeyError):
        canonical_key_bytes((1, object()))


def test_engine_cache_key_is_encodable_and_process_stable(tmp_path, child_env):
    """The real engine key digests identically in a separate interpreter."""
    workload = get_scenario("frame-offloading").primary
    simulator = workload.make_simulator(seed=3)
    request = MeasurementRequest(
        config=workload.deployed_config, traffic=4, duration=2.5, seed=11
    )
    key = (simulator.fingerprint(), request.key())
    local = key_digest(key)

    script = (
        "from repro.engine.protocol import MeasurementRequest\n"
        "from repro.scenarios import get_scenario\n"
        "from repro.service.store import key_digest\n"
        "w = get_scenario('frame-offloading').primary\n"
        "sim = w.make_simulator(seed=3)\n"
        "req = MeasurementRequest(config=w.deployed_config, traffic=4, duration=2.5, seed=11)\n"
        "print(key_digest((sim.fingerprint(), req.key())))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=Path(__file__).resolve().parent.parent,
        env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == local


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=64),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_round_trip_identity(tmp_path, values, seed):
    store = ResultStore(tmp_path / "store")
    key = ("round-trip", seed)
    payload = {"latencies": np.asarray(values), "seed": seed}
    store.put(key, payload)
    loaded = store.get(key)
    assert loaded is not None
    assert loaded["seed"] == seed
    assert np.array_equal(loaded["latencies"], payload["latencies"])


def test_eviction_never_drops_the_entry_just_written(tmp_path):
    store = ResultStore(tmp_path / "store", max_bytes=2_000)
    blob = np.zeros(64)  # each entry ~700 bytes with header: budget fits ~2
    evicted_something = False
    for index in range(12):
        key = ("evict", index)
        store.put(key, blob)
        assert store.get(key) is not None, f"entry {index} evicted immediately after put"
        evicted_something = evicted_something or store.stats.evictions > 0
    assert evicted_something, "budget never triggered eviction — test is vacuous"
    assert store.entry_count() < 12


def test_lru_eviction_prefers_cold_entries(tmp_path):
    store = ResultStore(tmp_path / "store", max_bytes=10**9)
    blob = np.zeros(32)
    for index in range(6):
        store.put(("lru", index), blob)
    # Age everything artificially, then touch entry 0 so it is the warmest.
    for path, _, _ in store.entries():
        os.utime(path, (1, 1))
    assert store.get(("lru", 0)) is not None
    store.max_bytes = store.total_bytes() - 1  # force exactly one eviction
    store.evict_if_needed()
    assert store.get(("lru", 0)) is not None, "hit-refreshed entry was evicted before cold ones"


def test_corrupted_blob_is_detected_and_treated_as_miss(tmp_path):
    store = ResultStore(tmp_path / "store")
    key = ("corrupt", 1)
    digest = store.put(key, np.arange(10.0))
    path = store.path_for(digest)
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF  # flip a payload byte: checksum must catch it
    path.write_bytes(bytes(blob))
    assert store.get(key) is None
    assert store.stats.corrupt_dropped == 1
    assert not path.exists(), "corrupt blob must be dropped, not left to re-fail"


def test_truncated_blob_is_detected_and_treated_as_miss(tmp_path):
    store = ResultStore(tmp_path / "store")
    key = ("truncated", 1)
    digest = store.put(key, np.arange(100.0))
    path = store.path_for(digest)
    path.write_bytes(path.read_bytes()[:-20])
    assert store.get(key) is None
    assert store.stats.corrupt_dropped == 1


def test_verify_reports_and_drops_corruption(tmp_path):
    store = ResultStore(tmp_path / "store")
    for index in range(3):
        store.put(("verify", index), np.arange(5.0))
    victim = store.path_for(store.put(("verify", 99), np.arange(5.0)))
    victim.write_bytes(b"not a blob at all")
    outcome = store.verify()
    assert outcome["checked"] == 4
    assert outcome["ok"] == 3
    assert outcome["corrupt"] == [str(victim)]
    assert store.entry_count() == 3


def test_cache_degrades_unencodable_keys_to_store_errors(tmp_path):
    """A key the store cannot address must not break the memory tier."""
    from repro.sim.network import SimulationResult  # noqa: F401 - sanity import

    store = ResultStore(tmp_path / "store")
    cache = MeasurementCache(store=store)
    workload = get_scenario("frame-offloading").primary
    engine = MeasurementEngine(workload.make_simulator(seed=0), cache=cache)
    result = engine.run(workload.deployed_config, traffic=2, duration=2.0, seed=5)
    bad_key = ("unencodable", object())
    cache.put(bad_key, result)
    assert cache.stats.store_errors == 1
    served = cache.get(bad_key)  # memory tier still serves it
    assert served is not None
    assert np.array_equal(served.latencies_ms, result.latencies_ms)


def test_blobs_under_old_three_element_keys_read_back_as_misses(tmp_path):
    """Older stores keyed entries by (fingerprint, request key, numerics tag).

    Engine keys are now (fingerprint, request key), so those blobs are
    unreachable: a lookup is a clean miss, never a wrong hit or corruption.
    """
    workload = get_scenario("frame-offloading").primary
    simulator = workload.make_simulator(seed=0)
    request = MeasurementRequest(config=workload.deployed_config, traffic=2, duration=2.0, seed=5)
    decoy = simulator.run_requests([request.replace(seed=6)])[0]
    store = ResultStore(tmp_path / "store")
    for tag in ("scalar", "vectorized"):
        store.put((simulator.fingerprint(), request.key(), tag), decoy)

    cache = MeasurementCache(store=store)
    engine = MeasurementEngine(simulator, cache=cache)
    result = engine.run_batch([request])[0]
    assert (cache.stats.store_hits, cache.stats.misses, engine.executed_requests) == (0, 1, 1)
    assert store.stats.corrupt_dropped == 0
    assert np.array_equal(result.latencies_ms, simulator.run_requests([request])[0].latencies_ms)
    assert not np.array_equal(result.latencies_ms, decoy.latencies_ms)
    assert store.entry_count() == 3

    fresh = MeasurementCache(store=store)
    MeasurementEngine(simulator, cache=fresh).run_batch([request])
    assert fresh.stats.store_hits == 1


_WORKER_SCRIPT = """
import json, sys
from pathlib import Path
from repro.engine.cache import MeasurementCache
from repro.engine.engine import MeasurementEngine
from repro.scenarios import get_scenario
from repro.service.costs import CostLedger
from repro.service.store import ResultStore

store_dir, out_path, start, stop = sys.argv[1:5]
store = ResultStore(store_dir)
cache = MeasurementCache(store=store)
workload = get_scenario("frame-offloading").primary
engine = MeasurementEngine(workload.make_simulator(seed=0), cache=cache)
ledger = CostLedger(cache=cache, store=store)
for seed in range(int(start), int(stop)):
    engine.run(workload.deployed_config, traffic=3, duration=2.0, seed=seed)
costs = ledger.finish()
Path(out_path).write_text(json.dumps({"costs": costs, "executed": engine.executed_requests}))
"""


def test_concurrent_processes_share_one_store_and_reconcile(tmp_path, child_env):
    """N processes hammer one store directory with overlapping key ranges.

    No corruption, and each process's cost ledger reconciles exactly:
    every executed measurement is a cache miss, every miss was written
    through.  Duplicate recompute is allowed only inside the race window
    (two processes missing the same key before either publishes); a
    sequential rerun afterwards must be served entirely from the store.
    """
    store_dir = tmp_path / "store"
    repo_root = Path(__file__).resolve().parent.parent
    ranges = [(0, 8), (4, 12), (8, 16)]  # overlapping on purpose
    procs = []
    for index, (start, stop) in enumerate(ranges):
        out = tmp_path / f"worker{index}.json"
        procs.append(
            (
                subprocess.Popen(
                    [sys.executable, "-c", _WORKER_SCRIPT, str(store_dir), str(out), str(start), str(stop)],
                    cwd=repo_root,
                    env=child_env,
                    stderr=subprocess.PIPE,
                ),
                out,
            )
        )
    for proc, out in procs:
        _, stderr = proc.communicate(timeout=240)
        assert proc.returncode == 0, stderr.decode()
        payload = json.loads(out.read_text())
        costs = payload["costs"]
        cache = costs["cache"]
        lookups = cache["memory_hits"] + cache["store_hits"] + cache["misses"]
        assert lookups == 8  # one lookup per seed in the worker's range
        assert costs["engine_requests"] == cache["misses"] == payload["executed"]
        assert costs["store"]["puts"] == cache["misses"]
        assert costs["store"]["hits"] == cache["store_hits"]
        assert cache["store_errors"] == 0

    store = ResultStore(store_dir)
    outcome = store.verify()
    assert outcome["corrupt"] == []
    assert outcome["ok"] == outcome["checked"] == 16  # every key 0..15 present once

    # Sequential rerun over the full range: zero recompute beyond the races.
    cache = MeasurementCache(store=store)
    workload = get_scenario("frame-offloading").primary
    engine = MeasurementEngine(workload.make_simulator(seed=0), cache=cache)
    for seed in range(16):
        assert engine.run(workload.deployed_config, traffic=3, duration=2.0, seed=seed) is not None
    assert engine.executed_requests == 0
    assert cache.stats.store_hits == 16


class _ScanEveryPutStore(ResultStore):
    """Reference: the store as it was, rescanning the whole tree on every put."""

    def put(self, key, value):
        digest = super().put(key, value)
        self.evict_if_needed(protect=(digest,))
        return digest


store_ops = st.lists(
    st.tuples(
        st.sampled_from(["put", "put", "put", "get", "evict"]),
        st.integers(min_value=0, max_value=11),
        st.integers(min_value=0, max_value=600),
    ),
    max_size=40,
)


@given(store_ops, st.integers(min_value=300, max_value=4_000))
@settings(max_examples=40, deadline=None)
def test_headroom_gated_scans_match_scan_on_every_put(ops, max_bytes):
    with tempfile.TemporaryDirectory() as tmp:
        stores = [
            ResultStore(Path(tmp) / "gated", max_bytes=max_bytes),
            _ScanEveryPutStore(Path(tmp) / "reference", max_bytes=max_bytes),
        ]
        for tick, (op, index, size) in enumerate(ops, start=1):
            key = ("gated", index)
            for store in stores:
                if op == "put":
                    store.put(key, b"x" * size)
                elif op == "get":
                    store.get(key)
                else:
                    store.evict_if_needed()
                # Coarse filesystem clocks would tie mtimes differently in
                # the two stores; a logical clock keeps their LRU order equal.
                path = store.path_for(key_digest(key))
                if op != "evict" and path.exists():
                    os.utime(path, ns=(tick, tick))
            gated, reference = ({path.name for path, _, _ in s.entries()} for s in stores)
            assert gated == reference
            assert stores[0].stats.evictions == stores[1].stats.evictions


def test_puts_far_below_the_budget_scan_once(tmp_path, monkeypatch):
    store = ResultStore(tmp_path / "store", max_bytes=10**9)
    scans = []
    original = store.evict_if_needed
    monkeypatch.setattr(
        store, "evict_if_needed", lambda protect=(): scans.append(protect) or original(protect)
    )
    for index in range(50):
        store.put(("far", index), np.zeros(16))
    assert len(scans) == 1
    assert store.entry_count() == 50

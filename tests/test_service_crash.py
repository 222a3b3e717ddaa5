"""Crash recovery: SIGKILL a writer mid-``put``, reopen, reproduce bytes.

The helper process (``service_crash_helper.py``) writes store entries in a
tight loop when it is killed, so the kill lands either between puts or mid
``put`` — both must leave the store reopenable with zero corruption.  A
deliberately torn temp file named with the helper's pid stands in for the
worst-case mid-write state deterministically.
"""

import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.engine.cache import MeasurementCache
from repro.engine.engine import MeasurementEngine
from repro.scenarios import get_scenario
from repro.service.store import ResultStore

_HELPER = Path(__file__).resolve().parent / "service_crash_helper.py"
_REPO_ROOT = _HELPER.parent.parent


def _kill_helper_mid_put(store_dir: Path, env: dict) -> None:
    proc = subprocess.Popen(
        [sys.executable, str(_HELPER), str(store_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=_REPO_ROOT,
        env=env,
    )
    try:
        line = proc.stdout.readline()
        assert line.strip() == "READY", (line, proc.stderr.read() if proc.poll() else "")
        time.sleep(0.5)  # let it get deep into the put loop
    finally:
        proc.kill()
        proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL


def test_sigkill_mid_put_reopens_clean_and_reproduces_bytes(tmp_path, child_env):
    store_dir = tmp_path / "store"
    _kill_helper_mid_put(store_dir, child_env)

    # The helper planted one torn temp file and may have left a real one.
    debris = list((store_dir / "tmp").iterdir())
    assert debris, "helper failed to leave its torn temp file"

    store = ResultStore(store_dir, reap=True)
    assert store.stats.reaped_temp >= 1
    assert list((store_dir / "tmp").iterdir()) == [], "dead writer's temp files not reaped"

    outcome = store.verify()
    assert outcome["corrupt"] == [], "published blobs must survive a writer SIGKILL"
    assert outcome["ok"] == outcome["checked"] >= 1

    # Recover the known entry through the store (zero recompute) and rerun
    # it fresh; the two must be byte-identical.
    workload = get_scenario("frame-offloading").primary
    cache = MeasurementCache(store=store)
    warm = MeasurementEngine(workload.make_simulator(seed=0), cache=cache)
    recovered = warm.run(workload.deployed_config, traffic=3, duration=2.0, seed=1234)
    assert warm.executed_requests == 0, "known entry should be served from the store"
    assert cache.stats.store_hits == 1

    fresh = MeasurementEngine(workload.make_simulator(seed=0), cache=False)
    recomputed = fresh.run(workload.deployed_config, traffic=3, duration=2.0, seed=1234)
    assert recovered.latencies_ms.tobytes() == recomputed.latencies_ms.tobytes()
    assert recovered.stage_breakdown_ms == recomputed.stage_breakdown_ms


def test_reap_keeps_live_writers_temp_files(tmp_path):
    store_dir = tmp_path / "store"
    store = ResultStore(store_dir)
    import os

    own = store_dir / "tmp" / f"{'1' * 64}.{os.getpid()}.0.part"
    own.write_bytes(b"half-written by a live writer (this process)")
    dead = store_dir / "tmp" / f"{'2' * 64}.999999999.0.part"
    dead.write_bytes(b"debris from a pid that cannot exist")
    unparsable = store_dir / "tmp" / "garbage-name.part"
    unparsable.write_bytes(b"no pid in the name: always debris")
    reaped = store.reap_temp()
    assert reaped == 2
    assert own.exists()
    assert not dead.exists()
    assert not unparsable.exists()

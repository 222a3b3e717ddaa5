"""Subprocess helper for the crash-recovery test: killed mid-``put``.

Run as ``python service_crash_helper.py <store-dir>``.  It completes one
real measurement through a store-backed cache (so the parent has a known
entry to recover), plants a deliberately torn temp file named with this
process's pid (exactly the debris a SIGKILL mid-``put`` leaves), prints
``READY`` and then writes entries in a tight loop until the parent kills
it.  Never imported by pytest — no ``test_`` prefix.
"""

import os
import sys
from pathlib import Path

from repro.engine.cache import MeasurementCache
from repro.engine.engine import MeasurementEngine
from repro.scenarios import get_scenario
from repro.service.store import ResultStore


def main() -> None:
    store_dir = Path(sys.argv[1])
    store = ResultStore(store_dir)
    cache = MeasurementCache(store=store)
    workload = get_scenario("frame-offloading").primary
    engine = MeasurementEngine(workload.make_simulator(seed=0), cache=cache)
    # The entry the parent recovers and compares byte-for-byte.
    engine.run(workload.deployed_config, traffic=3, duration=2.0, seed=1234)
    # Torn staging file with our (soon to be dead) pid in its name.
    torn = store_dir / "tmp" / f"{'0' * 64}.{os.getpid()}.999.part"
    torn.write_bytes(b"ATLASTORE1\n{\"schema\": \"atlas-store/1\", \"trunc")
    print("READY", flush=True)
    seed = 10_000
    while True:
        engine.run(workload.deployed_config, traffic=3, duration=2.0, seed=seed)
        seed += 1


if __name__ == "__main__":
    main()

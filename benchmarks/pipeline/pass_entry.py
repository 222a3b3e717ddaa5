"""One benchmark pass in a fresh process, or the host probe.

Run from the repository root with ``PYTHONPATH=src``::

    python benchmarks/pipeline/pass_entry.py STAMP [--trace FILE] -- COMMAND...
    python benchmarks/pipeline/pass_entry.py --probe

A pass imports ``repro.cli``, writes the ``time.perf_counter()`` reading
taken right after that import to ``STAMP`` (the parent subtracts its own
spawn reading to get ``setup_s``), then runs ``repro.cli.main(COMMAND)``
exactly as ``python -m repro COMMAND`` would, and exits with its status.

With ``--trace FILE`` the layers' public callables are wrapped first (see
``pipeline_trace.py``) and the spans are written to ``FILE`` when
``main`` returns; the parent then appends ``cli.exit`` (exit handlers and
interpreter shutdown) and ``pass``.  Tracing adds no other difference, so
a traced pass must produce the same output bytes as an untraced one.

``--probe`` runs a fixed NumPy + pure-Python loop, then prints its time
and the host metadata as one JSON line.  It measures how fast the host is
at the moment, so two result files can be compared for host drift.
"""

import sys
import time

START = time.perf_counter()


def run_pass(argv: list[str]) -> int:
    stamp, rest = argv[0], argv[1:]
    trace_path = None
    if rest[:1] == ["--trace"]:
        trace_path, rest = rest[1], rest[2:]
    if rest[:1] != ["--"]:
        raise SystemExit("usage: pass_entry.py STAMP [--trace FILE] -- COMMAND...")
    command = rest[1:]

    import repro.cli

    imported = time.perf_counter()
    with open(stamp, "w") as handle:
        handle.write(repr(imported))
    if trace_path is None:
        return repro.cli.main(command)

    from pipeline_trace import Recorder, install

    from repro.engine import engine_telemetry, pool_diagnostics

    recorder = Recorder()
    recorder.close(recorder.open("cli.import", start=START), "cli.import", end=imported)
    install(recorder)
    telemetry, pools = engine_telemetry(), pool_diagnostics()
    handle = recorder.open("cli.main")
    status = "error"
    try:
        code = repro.cli.main(command)
        status = "ok"
        return code
    finally:
        recorder.close(handle, "cli.main", status)
        after = engine_telemetry()
        recorder.counters["engine.executed_requests"] = (
            after["executed_requests"] - telemetry["executed_requests"]
        )
        recorder.counters["engine.sim_seconds"] = after["sim_seconds"] - telemetry["sim_seconds"]
        recorder.counters["engine.pools_created"] = (
            pool_diagnostics()["pools_created"] - pools["pools_created"]
        )
        recorder.write(trace_path)


def _blas_threads() -> int | None:
    """OpenBLAS's thread count as the library reports it, when it can be asked."""
    import ctypes
    import glob
    import os

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def probe() -> dict:
    """Time the fixed probe loop and collect host metadata."""
    import importlib.metadata
    import os
    import platform

    import numpy as np

    started = time.perf_counter()
    total = 0
    for index in range(1_500_000):
        total += index * index
    rng = np.random.default_rng(0)
    for _ in range(3):
        np.sort(rng.random(1_000_000))
    matrix = rng.random((200, 200))
    for _ in range(50):
        matrix = matrix @ matrix.T
        matrix /= np.abs(matrix).max()
    probe_s = time.perf_counter() - started
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "probe_s": probe_s,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "blas_env": {
            name: os.environ[name]
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if name in os.environ
        },
    }


if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        import json

        print(json.dumps(probe(), sort_keys=True))
        sys.exit(0)
    sys.exit(run_pass(sys.argv[1:]))

"""The engine's one request executor: the whole batch in one vectorized pass.

Every request carries an explicit seed by the time it reaches the executor
(the engine resolves ``seed=None`` beforehand), so each result depends on
its request alone, never on the batch around it.

:class:`VectorizedExecutor` hands the whole batch to the environment's NumPy
batch path (``run_requests``), so N measurements cost one pass instead of
N discrete-event runs.  Environments without the hook run their requests
one by one, in order, in the calling process.

Every engine runs its batches inline, in the process that submits them.
The one parallelism level is :func:`repro.engine.forkpool.fork_map`, which
runs whole eval replays, slice pipelines and online figure jobs side by
side.  An earlier shard pool, which split one batch over worker processes,
did not pay on a paper-scale stage-1 run, on evals or on the pipeline
benchmark's workloads, and was removed.  It did pay on DLDA's grid sweep,
the one batch of hundreds of lanes, which runs 1.3–1.5× slower inline but
moves none of the figure runners past their noise; ``docs/performance.md``
gives the measurements.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.protocol import Environment, MeasurementRequest
    from repro.sim.network import SimulationResult

__all__ = ["EXECUTOR_KINDS", "VectorizedExecutor", "pool_diagnostics"]


def execute_one(environment: "Environment", request: "MeasurementRequest") -> "SimulationResult":
    """Execute a single resolved request against ``environment``."""
    if request.params is not None:
        with_params = getattr(environment, "with_params", None)
        if with_params is None:
            raise TypeError(
                f"{type(environment).__name__} does not support per-request "
                "simulation-parameter overrides (no with_params method)"
            )
        environment = with_params(request.params)
    if request.scenario is not None:
        with_scenario = getattr(environment, "with_scenario", None)
        if with_scenario is None:
            raise TypeError(
                f"{type(environment).__name__} does not support per-request "
                "scenario overrides (no with_scenario method)"
            )
        environment = with_scenario(request.scenario)
    return environment.run(
        request.config,
        traffic=request.traffic,
        duration=request.duration,
        seed=request.seed,
    )


class VectorizedExecutor:
    """Route whole engine batches into one vectorized environment pass.

    Environments that implement ``run_requests(requests)`` — the network
    simulator evaluates every request as one lane of
    :func:`repro.sim.batch.simulate_batch` — receive the entire batch in a
    single call, so N measurements cost one NumPy pass instead of N Python
    event loops.  The engine has already served cache hits before the batch
    reaches the executor, so partial hits shrink the vectorized pass.
    Environments without the hook (after their ``prepare_batch`` resolution,
    the real network resolves to the simulator and *does* have it) fall back
    to running each request through their own ``run``, in order.

    Vectorized results are statistically equivalent to — not byte-identical
    with — the simulator's discrete-event ``run``; see :mod:`repro.sim.batch`
    for the numerical contract.
    """

    kind = "vectorized"

    def map_requests(
        self, environment: "Environment", requests: Sequence["MeasurementRequest"]
    ) -> list["SimulationResult"]:
        """Execute ``requests`` as one vectorized batch (in-order fallback)."""
        requests = list(requests)
        run_requests = getattr(environment, "run_requests", None)
        if run_requests is None:
            return [execute_one(environment, request) for request in requests]
        return run_requests(requests)


#: The executor kinds by name.  One remains; the mapping stays because
#: outside tooling (the pipeline benchmark's tracer) wraps the
#: ``map_requests`` of every class listed here.
EXECUTOR_KINDS: dict[str, type] = {"vectorized": VectorizedExecutor}


def pool_diagnostics() -> dict[str, int]:
    """Process pools the engine has created: always none.

    Engines run every batch inline.  The fork pools of
    :func:`repro.engine.forkpool.fork_map` run whole jobs, not engine
    batches, and are not counted here.
    """
    return {"pools_created": 0}

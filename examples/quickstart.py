"""Quickstart: measure a slice, quantify the sim-to-real gap, run Atlas end to end.

This example walks through the public API in a few minutes of compute:

1. build the offline simulator and the real-network testbed substitute from
   the scenario catalog's ``frame-offloading`` entry,
2. measure one slice configuration on both and compare (the motivation of
   the paper: the sim-to-real discrepancy),
3. run the three Atlas stages with the stage driver, which prints one line
   per stage, and
4. print the simulation parameters and the configuration Atlas converged to.

Budgets follow ``ATLAS_BENCH_SCALE`` (smoke / small / paper); the same
driver runs ``python -m repro run --scenario frame-offloading --stage all``.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import Atlas
from repro.experiments.scale import get_scale
from repro.metrics import histogram_kl_divergence
from repro.scenarios import get_scenario


def main() -> None:
    scale = get_scale()
    duration = scale.measurement_duration_s
    spec = get_scenario("frame-offloading")
    workload = spec.primary
    simulator = workload.make_simulator(seed=0)
    real_network = workload.make_real_network(seed=1)
    sla = workload.sla

    # ------------------------------------------------------------------ step 1
    config = workload.deployed_config
    sim_result = simulator.run(config, traffic=1, duration=duration, seed=1)
    real_result = real_network.measure(config, traffic=1, duration=duration, seed=1)
    discrepancy = histogram_kl_divergence(real_result.latencies_ms, sim_result.latencies_ms)

    print("== The sim-to-real gap under one mid-range configuration ==")
    print(f"simulator : mean latency {sim_result.mean_latency_ms:6.1f} ms, "
          f"QoE(300ms) {sim_result.qoe(sla.latency_threshold_ms):.3f}")
    print(f"real net  : mean latency {real_result.mean_latency_ms:6.1f} ms, "
          f"QoE(300ms) {real_result.qoe(sla.latency_threshold_ms):.3f}")
    print(f"KL divergence between the latency distributions: {discrepancy:.2f}\n")

    # ------------------------------------------------------------------ step 2
    # The driver measures with a simulator seeded 0 and a real network seeded
    # 1, like the two built above; stage 1's parameters build stage 2's
    # simulator, and stage 2's policy starts stage 3.
    print(f"== Running the three Atlas stages ({scale.name} budget) ==")
    summary = Atlas(workload, spec, scale, duration, seed=0).run({"1", "2", "3"})

    parameters = summary["stage1"]["_result"].best_parameters
    print(f"\naugmented simulation parameters: {parameters}")
    final = summary["stage3"]["_best_config"]
    print(f"final online config ({100 * final.resource_usage():.1f}% usage): {final}")


if __name__ == "__main__":
    main()

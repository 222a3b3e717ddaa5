"""Stage-1 walkthrough: calibrate the simulator against real-network measurements.

The scenario mirrors Sec. 8.1 of the paper: a slice application is already
deployed with a mid-range configuration; the operator logs its latency on the
real network (the online collection ``D_r``), then searches the 7 simulation
parameters of Table 3 so that the simulator's latency distribution matches
the log — without drifting unreasonably far from the parameters derived from
technical specifications (the weighted parameter-distance penalty).

Budgets follow ``ATLAS_BENCH_SCALE`` (smoke / small / paper).

Run with:  python examples/sim_to_real_calibration.py
"""

from __future__ import annotations

import numpy as np

from repro.core.atlas import parameter_search_config
from repro.core.simulator_learning import SimulatorParameterSearch
from repro.core.spaces import SimulationParameterSpace
from repro.experiments.scale import get_scale
from repro.metrics import histogram_kl_divergence, summarize_latencies
from repro.prototype.telemetry import OnlineCollection
from repro.scenarios import get_scenario
from repro.sim.parameters import PARAMETER_NAMES


def main() -> None:
    scale = get_scale()
    duration = max(scale.measurement_duration_s, 10.0)
    workload = get_scenario("frame-offloading").primary
    simulator = workload.make_simulator(seed=0)
    real_network = workload.make_real_network(seed=1)
    deployed = workload.deployed_config

    # 1. Build the online collection D_r by logging the deployed configuration.
    collection = OnlineCollection()
    for run in range(max(2, scale.motivation_runs)):
        collection.extend(
            real_network.collect_latencies(deployed, traffic=1, duration=duration, seed=100 + run)
        )
    print(f"online collection D_r: {len(collection)} latency samples, "
          f"mean {summarize_latencies(collection.samples()).mean:.1f} ms")

    # 2. Quantify the discrepancy of the original simulator.
    original_latencies = simulator.collect_latencies(deployed, traffic=1, duration=duration, seed=7)
    original_kl = histogram_kl_divergence(collection.samples(), original_latencies)
    print(f"original simulator discrepancy KL[D_r || D_s] = {original_kl:.2f}")

    # 3. Search the simulation parameters (Alg. 1: BNN + parallel Thompson sampling).
    search = SimulatorParameterSearch(
        simulator=simulator,
        real_collection=collection.samples(),
        deployed_config=deployed,
        space=SimulationParameterSpace(),
        config=parameter_search_config(scale, duration, seed=0, alpha=7.0),
    )
    result = search.run()

    print("\nbest simulation parameters found:")
    for name, original, best in zip(
        PARAMETER_NAMES, search.space.original.to_array(), result.best_parameters.to_array()
    ):
        print(f"  {name:>18}: {original:7.2f} -> {best:7.2f}")
    print(f"discrepancy: {result.original_discrepancy:.2f} -> {result.best_discrepancy:.2f} "
          f"({100 * result.discrepancy_reduction():.0f}% reduction) "
          f"at parameter distance {result.best_distance:.3f}")

    # 4. Validate the augmented simulator on a traffic level it was NOT calibrated on.
    augmented = simulator.with_params(result.best_parameters)
    for traffic in (1, 3):
        real = real_network.collect_latencies(deployed, traffic=traffic, duration=duration, seed=50 + traffic)
        orig = simulator.collect_latencies(deployed, traffic=traffic, duration=duration, seed=50 + traffic)
        aug = augmented.collect_latencies(deployed, traffic=traffic, duration=duration, seed=50 + traffic)
        print(f"traffic {traffic}: KL original {histogram_kl_divergence(real, orig):.2f}  "
              f"KL augmented {histogram_kl_divergence(real, aug):.2f}")

    print("\nprogress of the search (best weighted discrepancy so far):")
    print(np.array2string(result.best_so_far(), precision=2))


if __name__ == "__main__":
    main()

"""Slice lifecycle: admit a video-analytics slice, train offline, learn online.

The scenario is the paper's motivating workload: a mobile augmented-reality /
video-analytics tenant signs an SLA (300 ms end-to-end latency for 90% of
frames) and the operator must configure RAN PRBs, backhaul bandwidth and edge
CPU for the slice — using as little of each as possible.  The example

1. admits the slice through the slice manager and measures the naive
   "give it everything" and "give it the deployed default" configurations,
2. trains the offline configuration policy in the augmented simulator
   (stage 2), and
3. refines it online against the real network with safe exploration
   (stage 3), comparing the outcome against the DLDA baseline.

Budgets follow ``ATLAS_BENCH_SCALE`` (smoke / small / paper).

Run with:  python examples/slice_configuration_lifecycle.py
"""

from __future__ import annotations

import numpy as np

from repro import NetworkSimulator, RealNetwork, SLA, SliceConfig
from repro.baselines.dlda import DLDA, DLDAConfig
from repro.core.atlas import offline_training_config, online_learning_config
from repro.core.offline_training import OfflineConfigurationTrainer
from repro.core.online_learning import OnlineConfigurationLearner
from repro.experiments.scale import get_scale
from repro.prototype.slice_manager import NetworkSlice, SliceManager
from repro.prototype.testbed import default_ground_truth
from repro.sim.scenario import Scenario


def main() -> None:
    scale = get_scale()
    duration = scale.measurement_duration_s
    scenario = Scenario(traffic=2, duration_s=duration)
    sla = SLA(latency_threshold_ms=300.0, availability=0.9)
    real_network = RealNetwork(scenario=scenario, seed=3)

    # The augmented simulator a completed stage-1 search would produce.
    augmented_simulator = NetworkSimulator(scenario=scenario, seed=0).with_params(
        default_ground_truth()
    )

    # ------------------------------------------------------------ admission
    manager = SliceManager(real_network)
    manager.admit(NetworkSlice(name="ar-offloading", sla=sla, traffic=scenario.traffic))
    print("== Naive configurations on the real network ==")
    for label, config in (
        ("everything", SliceConfig.maximum()),
        ("deployed default", SliceConfig()),
    ):
        manager.configure("ar-offloading", config)
        result, qoe, met = manager.measure_slice("ar-offloading", seed=1)
        print(f"{label:>18}: usage {100 * config.resource_usage():5.1f}%  "
              f"QoE {qoe:.3f}  SLA met: {met}")

    # ------------------------------------------------------ offline training
    print("\n== Stage 2: offline training in the augmented simulator ==")
    trainer = OfflineConfigurationTrainer(
        simulator=augmented_simulator,
        sla=sla,
        traffic=scenario.traffic,
        config=offline_training_config(scale, duration, seed=0),
    )
    offline = trainer.run()
    policy = offline.policy
    print(f"best offline config: {policy.best_config}")
    print(f"  simulator QoE {policy.best_qoe:.3f} at {100 * policy.best_usage:.1f}% usage")

    measurement = real_network.measure(policy.best_config, traffic=scenario.traffic, seed=11)
    print(f"  ...but on the real network it delivers QoE "
          f"{measurement.qoe(sla.latency_threshold_ms):.3f} (the sim-to-real gap)")

    # -------------------------------------------------------- online learning
    print("\n== Stage 3: safe online learning on the real network ==")
    learner = OnlineConfigurationLearner(
        offline_policy=policy,
        simulator=augmented_simulator,
        real_network=real_network,
        sla=sla,
        traffic=scenario.traffic,
        config=online_learning_config(scale, duration, seed=0),
    )
    online = learner.run()
    qoes = online.qoes()
    usages = online.usages()
    print(f"QoE per iteration   : {np.array2string(qoes, precision=2)}")
    print(f"usage per iteration : {np.array2string(usages, precision=2)}")
    print(f"avg usage regret {100 * online.average_usage_regret():+.2f}%, "
          f"avg QoE regret {online.average_qoe_regret():.3f}, "
          f"SLA violation rate {100 * online.sla_violation_rate():.0f}%")
    print(f"final recommended configuration: {online.policy.best_config}")

    # --------------------------------------------------------- DLDA baseline
    print("\n== DLDA baseline under the same budget ==")
    dlda = DLDA(
        simulator=NetworkSimulator(scenario=scenario, seed=0),
        sla=sla,
        traffic=scenario.traffic,
        config=DLDAConfig(
            grid_points_per_dim=scale.dlda_grid_points,
            selection_pool=scale.dlda_selection_pool,
            online_iterations=scale.stage3_iterations,
            measurement_duration_s=duration,
        ),
    )
    dlda_result = dlda.run_online(RealNetwork(scenario=scenario, seed=4))
    print(f"DLDA mean usage {100 * float(np.mean(dlda_result.usages())):.1f}%  "
          f"mean QoE {float(np.mean(dlda_result.qoes())):.3f}  "
          f"SLA violation rate {100 * dlda_result.sla_violation_rate():.0f}%")
    print(f"Atlas mean usage {100 * float(np.mean(usages)):.1f}%  "
          f"mean QoE {float(np.mean(qoes)):.3f}")


if __name__ == "__main__":
    main()

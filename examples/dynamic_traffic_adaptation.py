"""Dynamic traffic: reconfigure a slice as its user load changes.

Network state changes (here, the number of on-the-fly frames emulating 1–4
users) are part of the state ``s_t`` Atlas conditions on.  This example trains
one offline policy per traffic level in the augmented simulator, then learns
online at each level with a relaxed 500 ms threshold (the setup of
Figs. 25–26), and reports how the recommended configuration scales with load.

The traffic levels are drawn from the scenario catalog's diurnal trace and
the budgets follow ``ATLAS_BENCH_SCALE`` (smoke / small / paper).

Run with:  python examples/dynamic_traffic_adaptation.py
"""

from __future__ import annotations

import numpy as np

from repro import NetworkSimulator, RealNetwork, SLA
from repro.core.atlas import offline_training_config, online_learning_config
from repro.core.offline_training import OfflineConfigurationTrainer
from repro.core.online_learning import OnlineConfigurationLearner
from repro.experiments.scale import get_scale
from repro.prototype.testbed import default_ground_truth
from repro.sim.scenario import Scenario


def configure_for_traffic(traffic: int) -> dict:
    """Train offline and learn online for one traffic level; return a summary."""
    scale = get_scale()
    duration = scale.measurement_duration_s
    scenario = Scenario(traffic=traffic, duration_s=duration)
    sla = SLA(latency_threshold_ms=500.0, availability=0.9)
    augmented_simulator = NetworkSimulator(scenario=scenario, seed=0).with_params(
        default_ground_truth()
    )
    real_network = RealNetwork(scenario=scenario, seed=10 + traffic)

    trainer = OfflineConfigurationTrainer(
        simulator=augmented_simulator,
        sla=sla,
        traffic=traffic,
        config=offline_training_config(scale, duration, seed=traffic),
    )
    policy = trainer.run().policy

    learner = OnlineConfigurationLearner(
        offline_policy=policy,
        simulator=augmented_simulator,
        real_network=real_network,
        sla=sla,
        traffic=traffic,
        config=online_learning_config(scale, duration, seed=traffic),
    )
    online = learner.run()
    best = online.policy.best_config
    return {
        "traffic": traffic,
        "offline_usage": policy.best_usage,
        "online_usage": best.resource_usage() if best is not None else float("nan"),
        "mean_online_qoe": float(np.mean(online.qoes())),
        "uplink_prbs": best.bandwidth_ul,
        "backhaul_mbps": best.backhaul_bw,
        "cpu_ratio": best.cpu_ratio,
    }


def main() -> None:
    from repro.scenarios import get_scenario

    # Train one policy per representative point of the diurnal day/night
    # curve: the trough (step 0), the rounded mean, and the peak (half a
    # period in).
    trace = get_scenario("frame-offloading-diurnal").primary.trace
    levels = sorted({trace.level(0), round(trace.mean_level()), trace.level(trace.period // 2)})
    print(f"diurnal trace levels: trough/mean/peak -> {levels}")
    print("traffic | offline usage | online usage | mean QoE | UL PRBs | backhaul | CPU")
    print("-" * 80)
    summaries = [configure_for_traffic(traffic) for traffic in levels]
    for row in summaries:
        print(f"{row['traffic']:^7d} | {100 * row['offline_usage']:12.1f}% "
              f"| {100 * row['online_usage']:11.1f}% | {row['mean_online_qoe']:8.3f} "
              f"| {row['uplink_prbs']:7.1f} | {row['backhaul_mbps']:8.1f} | {row['cpu_ratio']:.2f}")
    # Heavier traffic should require more resources to keep the SLA.
    if summaries[-1]["online_usage"] >= summaries[0]["online_usage"]:
        print("\nAs expected, the recommended allocation grows with the slice's load.")
    else:
        print("\nNote: at this small budget the allocations did not grow monotonically "
              "with load; rerun with more iterations for the full effect.")


if __name__ == "__main__":
    main()

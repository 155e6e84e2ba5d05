#!/usr/bin/env python3
"""Planning node groups for a larger cluster (the paper's future-work knob).

Raising fault tolerance by adding parity nodes raises every device's
checkpoint traffic (m shard-sizes per device).  Grouping bounds that cost:
split the cluster into groups and erasure code inside each.  This example
uses the closed-form grouping planner to pick the cheapest configuration
meeting a target cluster recovery rate.

Run:
    python examples/grouped_large_cluster.py
"""

from repro.analysis.grouping import plan_grouping


def main() -> None:
    num_nodes, p, target = 16, 0.05, 0.999
    plan = plan_grouping(num_nodes=num_nodes, p=p, target_rate=target)
    print(f"planning for {num_nodes} nodes, per-node failure prob {p}, "
          f"target cluster recovery rate {target}:")
    print(f"  -> groups of {plan.group_size} (k={plan.k}, m={plan.m}), "
          f"{plan.num_groups} groups")
    print(f"  -> predicted recovery rate {plan.cluster_recovery_rate:.6f}")
    print(f"  -> per-device checkpoint traffic: {plan.per_device_comm_units} "
          f"shard-size(s)")


if __name__ == "__main__":
    main()

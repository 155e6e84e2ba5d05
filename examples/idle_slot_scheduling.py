#!/usr/bin/env python3
"""Idle-slot communication scheduling (paper Sec. IV-B3, Fig. 12).

Builds a pipeline-parallel training timeline, profiles its network idle
slots, and shows how ECCheck's checkpoint traffic hides inside them —
until the checkpoint frequency outruns the idle capacity and overflow
starts inflating iteration time.

Run:
    python examples/idle_slot_scheduling.py
"""

from repro.bench.harness import make_testbed_job
from repro.core.eccheck import ECCheckConfig, ECCheckEngine
from repro.core.scheduler import profile_idle_slots, schedule_checkpoint_comm
from repro.sim.network import gbps
from repro.sim.timeline import pipeline_schedule_timeline


def main() -> None:
    job = make_testbed_job(model="gpt2-5.3B")
    tm = job.time_model
    timeline = pipeline_schedule_timeline(
        stages=4, microbatches=8, forward_time=0.35,
        activation_bytes=200e6, time_model=tm,
    )
    profile = profile_idle_slots(timeline, profile_iterations=50)
    print(f"iteration time: {timeline.iteration_time:.3f}s")
    for stage in sorted(profile.idle_seconds_per_stage):
        idle = profile.idle_seconds_per_stage[stage]
        print(f"  stage {stage}: {idle:6.3f}s idle "
              f"({100 * idle / timeline.iteration_time:.0f}% of the iteration, "
              f"{len(profile.slots_per_stage[stage])} slots)")

    engine = ECCheckEngine(job, ECCheckConfig(k=2, m=2))
    report = engine.save()
    per_node = report.bytes_inter_node / job.cluster.num_nodes
    comm = {s: per_node / gbps(tm.inter_node_gbps) for s in range(4)}
    print(f"\nECCheck checkpoint traffic: {comm[0]:.3f}s of NIC time per node")

    print(f"\n{'interval':>10s} {'fits?':>6s} {'overflow/ckpt':>14s} "
          f"{'added per iter':>15s}")
    for interval in (64, 32, 16, 8, 4, 2, 1):
        outcome = schedule_checkpoint_comm(profile, comm, interval)
        print(f"{interval:>10d} {str(outcome.fits_in_idle):>6s} "
              f"{outcome.overflow_seconds:>13.3f}s "
              f"{outcome.added_iteration_seconds:>14.4f}s")


if __name__ == "__main__":
    main()

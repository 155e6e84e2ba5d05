"""base1: synchronous torch.save-style checkpointing to remote storage.

The conventional PyTorch approach the paper baselines against: each worker
serializes its full ``state_dict`` and pushes the blob to remote persistent
storage, with training blocked until everything lands.  Both the
serialization (Fig. 4's overhead) and the thin shared remote pipe are on
the critical path, so stall time equals checkpoint time.
"""

from __future__ import annotations

from repro.checkpoint.base import CheckpointEngine, RecoveryReport, SaveReport
from repro.sim.network import REMOTE, TransferRequest
from repro.tensors.serialization import serialize_state_dict


class SyncRemoteEngine(CheckpointEngine):
    """The paper's **base1**."""

    name = "base1"

    #: Fault injection: fires before each worker's blob lands in remote
    #: storage, so a crash leaves a torn remote version behind.
    crash_points = ("mid_persist",)

    def _save_impl(self) -> SaveReport:
        self.version += 1
        tm = self.job.time_model
        requests = []
        bytes_to_remote = 0
        serialize_times = {}
        for worker in range(self.job.world_size):
            self.fire("mid_persist", version=self.version, worker=worker)
            blob = serialize_state_dict(self.job.state_of(worker))
            self.remote.put(("ckpt", self.version, worker), blob)
            logical = self.job.logical_shard_bytes(worker)
            bytes_to_remote += logical
            serialize_times[worker] = tm.serialize_time(logical)
            # Each worker's upload starts once its serialization finishes.
            requests.append(
                TransferRequest(
                    src=self.job.node_of(worker),
                    dst=REMOTE,
                    nbytes=logical,
                    start_delay=serialize_times[worker],
                )
            )
        result = self.network.bill(requests)
        serialize_phase = max(serialize_times.values())
        total = result.makespan
        report = SaveReport(
            engine=self.name,
            version=self.version,
            stall_time=total,  # synchronous: training blocked throughout
            checkpoint_time=total,
            breakdown={
                "serialize": serialize_phase,
                "transfer_remote": total - serialize_phase,
            },
            bytes_to_remote=bytes_to_remote,
        )
        return report

    def _restore_impl(self, failed_nodes: set[int]) -> RecoveryReport:
        self.on_failure(failed_nodes)
        self.latest_version()  # raises if nothing was ever saved
        return self._restore_newest_remote("load_remote")

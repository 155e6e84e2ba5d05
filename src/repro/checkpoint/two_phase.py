"""base2: CheckFreq-style two-phase checkpointing (snapshot + persist).

Phase one ("snapshot") copies training state from GPU to host memory and
is the only part that blocks training.  Phase two ("persist") serializes
the snapshot and writes it to remote storage asynchronously.  The stall is
tiny, but the *checkpoint time* — how long until the checkpoint is durable,
which caps the checkpoint frequency — still pays serialization plus the
thin remote pipe, which is exactly why Fig. 12 shows base2 degrading at
high checkpoint frequencies.
"""

from __future__ import annotations

from repro.checkpoint.base import CheckpointEngine, RecoveryReport, SaveReport
from repro.sim.network import REMOTE, TransferRequest
from repro.tensors.serialization import serialize_state_dict
from repro.tensors.state_dict import map_tensors
from repro.tensors.tensor import CPU


class TwoPhaseEngine(CheckpointEngine):
    """The paper's **base2**."""

    name = "base2"

    #: Fault injection: after the snapshot phase (checkpoint exists only
    #: in volatile host memory) and before each worker's remote persist.
    crash_points = ("post_snapshot", "mid_persist")

    def _save_impl(self) -> SaveReport:
        self.version += 1
        tm = self.job.time_model
        # Phase 1 — snapshot: DtoH copy into host memory; training resumes
        # right after.  The snapshot (not the live state) is what persists,
        # keeping the checkpoint consistent while training advances.
        snapshots = {}
        dtoh_times = []
        bytes_dtoh = 0
        for worker in range(self.job.world_size):
            state = self.job.state_of(worker)
            snapshots[worker] = map_tensors(state, lambda t: t.to(CPU))
            logical = self.job.logical_shard_bytes(worker)
            bytes_dtoh += logical
            dtoh_times.append(tm.dtoh_time(logical))
        stall = max(dtoh_times, default=0.0)
        self.fire("post_snapshot", version=self.version)

        # Phase 2 — persist: serialize the snapshot, stream to remote.
        requests = []
        bytes_to_remote = 0
        for worker, snapshot in snapshots.items():
            self.fire("mid_persist", version=self.version, worker=worker)
            blob = serialize_state_dict(snapshot)
            self.remote.put(("ckpt", self.version, worker), blob)
            logical = self.job.logical_shard_bytes(worker)
            bytes_to_remote += logical
            serialize = tm.serialize_time(logical)
            requests.append(
                TransferRequest(
                    src=self.job.node_of(worker),
                    dst=REMOTE,
                    nbytes=logical,
                    start_delay=stall + serialize,
                )
            )
        result = self.network.bill(requests)
        # Attribute the persist phase along the *critical* request — the one
        # whose flow finishes last — using its actual start delay.  Splitting
        # ``makespan - stall - max(serialize_times)`` instead misattributes
        # cost whenever per-worker serialize times differ (the worker with
        # the longest serialization is not necessarily the one whose
        # transfer finishes last), and ``max()`` raises outright on an
        # empty writer set.
        if requests:
            finish = result.request_finish_times
            critical = max(range(len(requests)), key=finish.__getitem__)
            critical_delay = requests[critical].start_delay
            serialize_attr = critical_delay - stall
            transfer_attr = result.makespan - critical_delay
            checkpoint_time = result.makespan
        else:
            serialize_attr = 0.0
            transfer_attr = 0.0
            checkpoint_time = stall
        return SaveReport(
            engine=self.name,
            version=self.version,
            stall_time=stall,
            checkpoint_time=checkpoint_time,
            breakdown={
                "snapshot_dtoh": stall,
                "serialize": serialize_attr,
                "transfer_remote": transfer_attr,
            },
            bytes_dtoh=bytes_dtoh,
            bytes_to_remote=bytes_to_remote,
        )

    def _restore_impl(self, failed_nodes: set[int]) -> RecoveryReport:
        self.on_failure(failed_nodes)
        self.latest_version()  # raises if nothing was ever saved
        return self._restore_newest_remote("load_remote")

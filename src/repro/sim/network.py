"""Flow-level network simulation with max-min fair bandwidth sharing.

Transfers are fluid flows over one or more links.  Whenever a flow starts
or finishes, rates are recomputed by *progressive filling* (the classic
max-min fairness algorithm): repeatedly saturate the most contended link,
freeze its flows at the fair share, and continue with the residual network.
This captures the two contention effects the paper's evaluation hinges on:

* every worker pushing a checkpoint shard into remote storage shares the
  storage's small aggregate bandwidth (base1/base2's bottleneck), and
* checkpoint traffic between nodes shares each node's NIC with other
  checkpoint flows (and, without idle-slot scheduling, with training
  traffic).

:class:`TimeModel` collects the calibrated constants (bandwidths and CPU
throughputs).  Defaults follow the paper's testbed: 100 Gbps inter-node
links, 5 Gbps aggregate to remote storage, PCIe-4 DtoH, and the ~40 Gbps
CPU erasure-coding throughput the paper cites as achievable.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.sim.events import EventHandle, Simulator


def gbps(value: float) -> float:
    """Convert gigabits/second to bytes/second."""
    return value * 1e9 / 8.0


@dataclass(frozen=True)
class TimeModel:
    """Calibrated bandwidths and throughputs of the simulated testbed.

    All ``*_gbps`` values are gigabits per second.  CPU-side throughputs
    are per worker process unless stated otherwise.

    Attributes:
        dtoh_gbps: GPU-to-host copy bandwidth per GPU (PCIe 4.0 x16).
        htod_gbps: host-to-GPU copy bandwidth per GPU (the restore-path
            direction; PCIe is symmetric so the default matches
            ``dtoh_gbps``, but pinned-memory setups can differ).
        nvlink_gbps: intra-node GPU interconnect bandwidth per node.
        inter_node_gbps: NIC bandwidth per node, full duplex (the paper's
            100 Gbps fabric).
        remote_storage_gbps: *aggregate* bandwidth from the whole cluster
            to persistent storage (the paper's 5 Gbps).
        serialize_gbps: torch.save-style serialization throughput.
        deserialize_gbps: checkpoint load/deserialization throughput.
        encode_gbps: erasure-coding throughput per worker with the thread
            pool enabled (paper cites > 40 Gbps as achievable on CPUs).
        encode_threads: threads in the encoding pool (throughput scales
            linearly below ``encode_gbps``).
        memcpy_gbps: host-memory copy throughput (buffer staging).
        disk_write_gbps: per-node local-NVMe write bandwidth (the
            demotion path of the tier stack; ~2 GB/s sustained).
        disk_read_gbps: per-node local-NVMe read bandwidth (the
            promotion/restore path; ~3.5 GB/s sustained).
        decompose_overhead_s: fixed per-save cost of analysing and
            decomposing the ``state_dict`` (step 1 bookkeeping).
    """

    dtoh_gbps: float = 128.0
    htod_gbps: float = 128.0
    nvlink_gbps: float = 1200.0
    inter_node_gbps: float = 100.0
    remote_storage_gbps: float = 5.0
    serialize_gbps: float = 8.0
    deserialize_gbps: float = 12.0
    encode_gbps: float = 40.0
    encode_threads: int = 4
    memcpy_gbps: float = 200.0
    disk_write_gbps: float = 16.0
    disk_read_gbps: float = 28.0
    decompose_overhead_s: float = 0.01

    # ------------------------------------------------------------------
    def dtoh_time(self, nbytes: int) -> float:
        """Seconds to copy ``nbytes`` from one GPU to host memory."""
        return nbytes / gbps(self.dtoh_gbps)

    def htod_time(self, nbytes: int) -> float:
        """Seconds to copy ``nbytes`` from host memory to one GPU."""
        return nbytes / gbps(self.htod_gbps)

    def serialize_time(self, nbytes: int) -> float:
        """Seconds for one worker to serialize ``nbytes`` of state."""
        return nbytes / gbps(self.serialize_gbps)

    def deserialize_time(self, nbytes: int) -> float:
        """Seconds for one worker to deserialize ``nbytes``."""
        return nbytes / gbps(self.deserialize_gbps)

    def encode_time(self, nbytes: int, threads: int | None = None) -> float:
        """Seconds to erasure-encode ``nbytes`` on one worker's CPU share."""
        threads = self.encode_threads if threads is None else threads
        effective = self.encode_gbps * min(1.0, threads / self.encode_threads)
        return nbytes / gbps(effective)

    def memcpy_time(self, nbytes: int) -> float:
        """Seconds for a host-memory buffer copy."""
        return nbytes / gbps(self.memcpy_gbps)

    def disk_write_time(self, nbytes: int) -> float:
        """Seconds to write ``nbytes`` to one node's local disk."""
        return nbytes / gbps(self.disk_write_gbps)

    def disk_read_time(self, nbytes: int) -> float:
        """Seconds to read ``nbytes`` from one node's local disk."""
        return nbytes / gbps(self.disk_read_gbps)

    def with_shared_bottleneck(
        self,
        remote_share: float = 1.0,
        inter_node_share: float = 1.0,
    ) -> "TimeModel":
        """Derive a model whose *shared* resources are scaled to a share.

        In a multi-tenant fleet the remote store's aggregate pipe and the
        cross-rack fabric are shared bottlenecks: an arbiter grants each
        tenant a fraction of them, and the tenant's transfers then run
        against a time model carrying only that fraction.  Node-local
        resources (PCIe, NVLink, disks, CPU throughputs) are unaffected —
        they are never shared across tenants.

        Args:
            remote_share: fraction of ``remote_storage_gbps`` granted.
            inter_node_share: fraction of ``inter_node_gbps`` granted
                (models cross-rack trunk contention).

        Raises:
            SimulationError: for a share outside ``(0, 1]``.
        """
        for name, share in (
            ("remote_share", remote_share),
            ("inter_node_share", inter_node_share),
        ):
            if not 0.0 < share <= 1.0:
                raise SimulationError(f"{name} must be in (0, 1], got {share}")
        if remote_share == 1.0 and inter_node_share == 1.0:
            return self
        return dataclasses.replace(
            self,
            remote_storage_gbps=self.remote_storage_gbps * remote_share,
            inter_node_gbps=self.inter_node_gbps * inter_node_share,
        )


# ---------------------------------------------------------------------------
# Flow-level simulation
# ---------------------------------------------------------------------------
@dataclass
class Link:
    """A capacity-constrained resource flows traverse."""

    name: str
    capacity: float  # bytes/second
    flows: set["Flow"] = field(default_factory=set)


class Flow:
    """One fluid transfer across a set of links."""

    __slots__ = (
        "links", "remaining", "nbytes", "rate", "start_time",
        "finish_time", "on_complete", "_completion",
    )

    def __init__(self, links: list[Link], nbytes: float, start_time: float, on_complete=None):
        self.links = links
        self.nbytes = float(nbytes)
        self.remaining = float(nbytes)
        self.rate = 0.0
        self.start_time = start_time
        self.finish_time: float | None = None
        self.on_complete = on_complete
        self._completion: EventHandle | None = None

    @property
    def done(self) -> bool:
        return self.finish_time is not None

    @property
    def duration(self) -> float:
        """Elapsed transfer time (only valid once the flow finished)."""
        if self.finish_time is None:
            raise SimulationError("flow has not finished")
        return self.finish_time - self.start_time


class Network:
    """Links plus max-min fair rate allocation, driven by a Simulator."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.links: dict[str, Link] = {}
        self._active: set[Flow] = set()
        self._last_update = 0.0

    def add_link(self, name: str, capacity_bytes_per_s: float) -> Link:
        """Register a link; capacities must be positive."""
        if capacity_bytes_per_s <= 0:
            raise SimulationError(f"link {name!r} needs positive capacity")
        if name in self.links:
            raise SimulationError(f"duplicate link {name!r}")
        link = Link(name=name, capacity=capacity_bytes_per_s)
        self.links[name] = link
        return link

    def start_flow(
        self, link_names: list[str], nbytes: float, on_complete=None
    ) -> Flow:
        """Begin a transfer over the named links (in-order route).

        Zero-byte flows complete immediately.
        """
        try:
            links = [self.links[name] for name in link_names]
        except KeyError as exc:
            raise SimulationError(f"unknown link {exc.args[0]!r}") from None
        if not links:
            raise SimulationError("a flow needs at least one link")
        flow = Flow(links, nbytes, self.sim.now, on_complete)
        if nbytes <= 0:
            flow.finish_time = self.sim.now
            if on_complete:
                on_complete(flow)
            return flow
        self._advance_to_now()
        self._active.add(flow)
        for link in links:
            link.flows.add(flow)
        self._reallocate()
        return flow

    # ------------------------------------------------------------------
    def _advance_to_now(self) -> None:
        """Drain bytes transferred since the last rate change."""
        dt = self.sim.now - self._last_update
        if dt > 0:
            for flow in self._active:
                flow.remaining = max(0.0, flow.remaining - flow.rate * dt)
        self._last_update = self.sim.now

    def _reallocate(self) -> None:
        """Progressive filling: recompute max-min fair rates, reschedule."""
        unfrozen = set(self._active)
        residual = {link.name: link.capacity for link in self.links.values()}
        for flow in self._active:
            if flow._completion is not None:
                flow._completion.cancel()
                flow._completion = None
            flow.rate = 0.0
        while unfrozen:
            # The bottleneck link is the one offering the smallest fair share.
            best_share = None
            bottleneck_flows: set[Flow] = set()
            for link in self.links.values():
                live = {f for f in link.flows if f in unfrozen}
                if not live:
                    continue
                share = residual[link.name] / len(live)
                if best_share is None or share < best_share:
                    best_share = share
                    bottleneck_flows = live
            if best_share is None:
                break
            for flow in bottleneck_flows:
                flow.rate = best_share
                for link in flow.links:
                    residual[link.name] = max(
                        0.0, residual[link.name] - best_share
                    )
                unfrozen.discard(flow)
        # Schedule each flow's completion at its new rate.
        for flow in self._active:
            if flow.rate <= 0:
                raise SimulationError(
                    f"flow over {[l.name for l in flow.links]} starved"
                )
            delay = flow.remaining / flow.rate
            flow._completion = self.sim.schedule(
                delay, lambda f=flow: self._complete(f)
            )

    def _complete(self, flow: Flow) -> None:
        self._advance_to_now()
        flow.remaining = 0.0
        flow.finish_time = self.sim.now
        self._active.discard(flow)
        for link in flow.links:
            link.flows.discard(flow)
        if self._active:
            self._reallocate()
        if flow.on_complete:
            flow.on_complete(flow)


# ---------------------------------------------------------------------------
# Cluster-shaped convenience wrapper
# ---------------------------------------------------------------------------
REMOTE = "remote"


@dataclass(frozen=True)
class TransferRequest:
    """One checkpoint transfer: node to node, node to/from remote storage.

    ``src``/``dst`` are node indices, or :data:`REMOTE` for the persistent
    store.  ``start_delay`` lets callers stagger flows (e.g. after a
    serialization phase of known length).
    """

    src: int | str
    dst: int | str
    nbytes: float
    start_delay: float = 0.0


class ClusterNetwork:
    """The testbed's network: per-node duplex NICs plus a shared remote pipe.

    Intra-node transfers ride the node's NVLink; inter-node transfers use
    the source's TX and destination's RX NIC links; remote transfers are
    additionally squeezed through the storage's aggregate link.

    A transfer plan is priced with :meth:`bill`.  A save's plan repeats
    save after save, a failure pattern's restore plans likewise, so
    :meth:`bill` keeps a memo and runs :meth:`simulate` (the uncached
    flow simulation) once per distinct plan.  The key holds the
    ``time_model`` of the moment, so replacing it — the fleet arbiter
    does, around a save — is never served a stale bill.
    """

    #: Plans kept (LRU); a delta save's plan rarely repeats, hence a bound.
    BILL_CACHE_SIZE = 64

    def __init__(self, num_nodes: int, time_model: TimeModel | None = None):
        if num_nodes < 1:
            raise SimulationError(f"num_nodes must be >= 1, got {num_nodes}")
        self.num_nodes = num_nodes
        self.time_model = time_model or TimeModel()
        self._bills: OrderedDict[tuple, TransferResult] = OrderedDict()

    def bill(self, requests: list[TransferRequest]) -> "TransferResult":
        """:meth:`simulate`'s result for ``requests``; its lists are copies."""
        key = (self.time_model, tuple(requests))
        result = self._bills.get(key)
        if result is None:
            result = self._bills[key] = self.simulate(requests)
            if len(self._bills) > self.BILL_CACHE_SIZE:
                self._bills.popitem(last=False)
        else:
            self._bills.move_to_end(key)
        return dataclasses.replace(
            result,
            flow_finish_times=list(result.flow_finish_times),
            request_finish_times=list(result.request_finish_times),
        )

    def _build(self, sim: Simulator) -> Network:
        tm = self.time_model
        net = Network(sim)
        for node in range(self.num_nodes):
            net.add_link(f"node{node}.tx", gbps(tm.inter_node_gbps))
            net.add_link(f"node{node}.rx", gbps(tm.inter_node_gbps))
            net.add_link(f"node{node}.nvlink", gbps(tm.nvlink_gbps))
        net.add_link("remote.rx", gbps(tm.remote_storage_gbps))
        net.add_link("remote.tx", gbps(tm.remote_storage_gbps))
        return net

    def route(self, src: int | str, dst: int | str) -> list[str]:
        """Link names a transfer traverses.

        Raises:
            SimulationError: for out-of-range nodes or a remote-to-remote
                route.
        """
        if src == REMOTE and dst == REMOTE:
            raise SimulationError("remote-to-remote transfers are meaningless")
        if src == REMOTE:
            self._check_node(dst)
            return ["remote.tx", f"node{dst}.rx"]
        if dst == REMOTE:
            self._check_node(src)
            return [f"node{src}.tx", "remote.rx"]
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            return [f"node{src}.nvlink"]
        return [f"node{src}.tx", f"node{dst}.rx"]

    def _check_node(self, node: int | str) -> None:
        if not isinstance(node, int) or not 0 <= node < self.num_nodes:
            raise SimulationError(f"bad node {node!r}")

    def simulate(self, requests: list[TransferRequest]) -> "TransferResult":
        """Run all transfers to completion and report timings (uncached)."""
        sim = Simulator()
        net = self._build(sim)
        flows: list[Flow] = []
        by_request: list[Flow | None] = [None] * len(requests)

        def launch(index: int, request: TransferRequest) -> None:
            flow = net.start_flow(
                self.route(request.src, request.dst), request.nbytes
            )
            flows.append(flow)
            by_request[index] = flow

        for index, request in enumerate(requests):
            sim.schedule(
                request.start_delay, lambda i=index, r=request: launch(i, r)
            )
        sim.run()
        makespan = max((f.finish_time for f in flows), default=0.0)
        return TransferResult(
            makespan=makespan,
            flow_finish_times=[f.finish_time for f in flows],
            total_bytes=sum(f.nbytes for f in flows),
            request_finish_times=[
                f.finish_time if f is not None else 0.0 for f in by_request
            ],
        )


# ---------------------------------------------------------------------------
# Admission-time arbitration of one shared fleet bottleneck
# ---------------------------------------------------------------------------
@dataclass
class BandwidthClaim:
    """One tenant's live claim on a shared bottleneck.

    ``fraction`` and ``rate`` are recomputed by the arbiter on every
    acquire/release, so a held claim always reflects the current mix.
    """

    name: str
    weight: float
    priority: int
    fraction: float = 0.0
    rate: float = 0.0  # bytes/second


class BandwidthArbiter:
    """Weighted fair-share / priority arbitration of one shared resource.

    The flow-level :class:`Network` resolves contention *within* one
    tenant's transfer phase; the arbiter resolves contention *between*
    tenants at admission time: each concurrent claimant is granted a
    fraction of the capacity, and its transfers then run against a
    :meth:`TimeModel.with_shared_bottleneck` model carrying that share.

    Two modes:

    * ``"fair"`` — grants are proportional to claim weights; with every
      weight equal this is plain max-min sharing.
    * ``"priority"`` — each priority level multiplies the effective
      weight by :data:`PRIORITY_BOOST`; higher levels dominate but lower
      levels keep a positive floor, so no claimant is starved outright
      (waits stay bounded).

    Invariants (the Hypothesis suite pins them):

    * granted rates never sum above capacity;
    * with any claims active the grants sum to exactly the capacity
      (work conservation — the arbiter rebalances on every change);
    * within one priority level, ``fraction_i / fraction_j ==
      weight_i / weight_j``.
    """

    PRIORITY_BOOST = 8.0

    def __init__(self, capacity: float, mode: str = "fair"):
        if capacity <= 0:
            raise SimulationError(f"capacity must be positive, got {capacity}")
        if mode not in ("fair", "priority"):
            raise SimulationError(f"unknown arbitration mode {mode!r}")
        self.capacity = float(capacity)
        self.mode = mode
        self.claims: dict[str, BandwidthClaim] = {}

    def _effective_weight(self, claim: BandwidthClaim) -> float:
        if self.mode == "priority":
            return claim.weight * self.PRIORITY_BOOST**claim.priority
        return claim.weight

    def _rebalance(self) -> None:
        total = sum(self._effective_weight(c) for c in self.claims.values())
        for claim in self.claims.values():
            claim.fraction = self._effective_weight(claim) / total
            claim.rate = self.capacity * claim.fraction

    def acquire(
        self, name: str, weight: float = 1.0, priority: int = 0
    ) -> BandwidthClaim:
        """Admit a claimant; returns its (live) claim.

        Raises:
            SimulationError: for a duplicate claimant, non-positive
                weight, or negative priority.
        """
        if name in self.claims:
            raise SimulationError(f"duplicate claim {name!r}")
        if weight <= 0:
            raise SimulationError(f"weight must be positive, got {weight}")
        if priority < 0:
            raise SimulationError(f"priority must be >= 0, got {priority}")
        claim = BandwidthClaim(name=name, weight=weight, priority=priority)
        self.claims[name] = claim
        self._rebalance()
        return claim

    def release(self, name: str) -> None:
        """Drop a claim and rebalance the survivors.

        Raises:
            SimulationError: for an unknown claimant.
        """
        if name not in self.claims:
            raise SimulationError(f"unknown claim {name!r}")
        del self.claims[name]
        if self.claims:
            self._rebalance()

    @property
    def allocated(self) -> float:
        """Sum of granted rates (== capacity when any claims are live)."""
        return sum(c.rate for c in self.claims.values())


@dataclass(frozen=True)
class TransferResult:
    """Outcome of a simulated transfer phase.

    ``flow_finish_times`` is ordered by flow *launch* (ascending start
    delay); ``request_finish_times`` is aligned with the request list the
    caller passed to :meth:`ClusterNetwork.bill`, so per-request cost
    attribution does not depend on launch order.
    """

    makespan: float
    flow_finish_times: list[float]
    total_bytes: float
    request_finish_times: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Piggyback accounting: a replication flow riding the cross-rack trunk
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class PiggybackSlice:
    """One piggybacked transfer's share of the trunk while it was live."""

    seconds: float
    nbytes: int
    fraction: float  # trunk fraction granted to the replication flow
    rate: float  # bytes/second actually granted


class PiggybackChannel:
    """Gradient replication sharing the cross-rack trunk with collectives.

    Checkmate-style engines do not open a dedicated checkpoint network:
    the per-iteration gradient copy rides the same inter-node trunk the
    training collectives (all-reduce / pipeline sends) already saturate.
    This channel models that contention with a :class:`BandwidthArbiter`
    over the trunk capacity: a standing ``collective`` claim holds the
    training job's share, and each replicated payload acquires a
    transient ``replication`` claim, transfers at the granted rate, and
    releases.  Fully deterministic — no rng, no wall clock.

    Args:
        time_model: supplies the trunk capacity (``inter_node_gbps``).
        collective_weight: standing weight of the training collectives.
            With ``replication_weight=1.0`` the replication flow is
            granted ``1 / (1 + collective_weight)`` of the trunk — the
            default 3.0 leaves collectives 75% of the capacity.
        replication_weight: weight of each transient replication claim.
    """

    def __init__(
        self,
        time_model: "TimeModel",
        collective_weight: float = 3.0,
        replication_weight: float = 1.0,
    ):
        if collective_weight <= 0 or replication_weight <= 0:
            raise SimulationError(
                "piggyback weights must be positive, got "
                f"collective={collective_weight}, replication={replication_weight}"
            )
        self.time_model = time_model
        self.collective_weight = float(collective_weight)
        self.replication_weight = float(replication_weight)
        self.arbiter = BandwidthArbiter(gbps(time_model.inter_node_gbps))
        self.arbiter.acquire("collective", weight=self.collective_weight)

    def transfer(self, nbytes: int) -> PiggybackSlice:
        """Ship ``nbytes`` over the shared trunk; returns the time slice.

        Zero-byte transfers (a fully clean delta) cost nothing and do
        not touch the arbiter.
        """
        if nbytes < 0:
            raise SimulationError(f"nbytes must be >= 0, got {nbytes}")
        if nbytes == 0:
            return PiggybackSlice(seconds=0.0, nbytes=0, fraction=0.0, rate=0.0)
        claim = self.arbiter.acquire(
            "replication", weight=self.replication_weight
        )
        try:
            seconds = nbytes / claim.rate
            slice_ = PiggybackSlice(
                seconds=seconds,
                nbytes=int(nbytes),
                fraction=claim.fraction,
                rate=claim.rate,
            )
        finally:
            self.arbiter.release("replication")
        return slice_

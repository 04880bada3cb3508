"""The simulated scale-out cluster: nodes, network model, accounting.

Substitution note (DESIGN.md): the paper's SOE targets "thousands of
nodes" over real fabrics. The reproduction runs every node in-process and
replaces the physical network with an explicit cost model — every transfer
is charged ``latency + bytes / bandwidth`` of *simulated* seconds and
counted, so distributed plans can be compared by the same currency the
paper's plan generator optimises (communication volume), deterministically
and at laptop scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from repro.errors import ClusterError, NetworkPartitionedError, NodeUnavailableError
from repro.sql.expressions import Coded, Column


@dataclass
class NetworkModel:
    """Latency/bandwidth cost model for inter-node transfers."""

    latency_seconds: float = 0.0005
    bandwidth_bytes_per_second: float = 1e9

    def cost(self, payload_bytes: int) -> float:
        """Simulated seconds for one transfer."""
        return self.latency_seconds + payload_bytes / self.bandwidth_bytes_per_second


@dataclass
class TransferStats:
    """Accumulated communication accounting."""

    messages: int = 0
    bytes_total: int = 0
    simulated_seconds: float = 0.0

    def snapshot(self) -> dict[str, float]:
        return {
            "messages": float(self.messages),
            "bytes_total": float(self.bytes_total),
            "simulated_seconds": self.simulated_seconds,
        }


class Node:
    """One cluster node hosting named services."""

    def __init__(self, node_id: str, cluster: "SimulatedCluster") -> None:
        self.node_id = node_id
        self.cluster = cluster
        self.services: dict[str, Any] = {}
        self.alive = True
        #: rough work counter for hotspot detection (rows processed)
        self.work_done = 0

    def host(self, service_name: str, service: Any) -> None:
        self.services[service_name] = service

    def check_available(self, service_name: str = "") -> None:
        """The service-access seam: chaos hook first (a scheduled crash
        fires here), then the liveness gate. Raises
        :class:`NodeUnavailableError` (retryable — the failure-aware
        coordinator fails partition reads over to a replica)."""
        chaos = self.cluster.chaos
        if chaos is not None:
            chaos.on_service(self.node_id, service_name)
        if not self.alive:
            raise NodeUnavailableError(self.node_id)

    def service(self, service_name: str) -> Any:
        self.check_available(service_name)
        try:
            return self.services[service_name]
        except KeyError:
            raise ClusterError(
                f"node {self.node_id} hosts no service {service_name!r}"
            ) from None

    def __repr__(self) -> str:
        return f"Node({self.node_id}, services={sorted(self.services)})"


@dataclass
class SimulatedCluster:
    """The node collection plus shared network accounting.

    Failure model: beyond the crash-stop ``Node.alive`` bit, the cluster
    keeps a pairwise, *asymmetric* reachability matrix — a set of cut
    directed links plus a set of fully-isolated nodes. ``transfer``
    consults it, so a partitioned link drops messages
    (:class:`NetworkPartitionedError`, retryable) while both endpoints
    keep running: the gray failures that split-brain ownership unless
    leases fence the writers (see ``repro.soe.membership``). Crash-stop
    is the special case "partitioned from everyone": ``kill`` also
    isolates the node so heartbeats and transfers fail symmetrically.
    """

    network: NetworkModel = field(default_factory=NetworkModel)
    nodes: dict[str, Node] = field(default_factory=dict)
    stats: TransferStats = field(default_factory=TransferStats)
    #: optional fault injector (repro.chaos.ChaosController); consulted by
    #: the transfer and service seams when installed
    chaos: Any = None
    #: nodes partitioned from *everyone* (both directions)
    _isolated: set[str] = field(default_factory=set)
    #: directed (source, target) links currently cut
    _cut_links: set[tuple[str, str]] = field(default_factory=set)
    #: (on_failed, on_restored) pairs notified by kill()/revive() — the
    #: DiscoveryService subscribes so lookups never hand out a dead address
    _membership_callbacks: list[tuple[Callable[[str], Any], Callable[[str], Any]]] = field(
        default_factory=list
    )
    _counter: itertools.count = field(default_factory=lambda: itertools.count(1))

    def add_node(self, node_id: str | None = None) -> Node:
        """Create and register a node."""
        if node_id is None:
            node_id = f"node{next(self._counter)}"
        if node_id in self.nodes:
            raise ClusterError(f"duplicate node id {node_id!r}")
        node = Node(node_id, self)
        self.nodes[node_id] = node
        return node

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise ClusterError(f"unknown node {node_id!r}") from None

    def alive_nodes(self) -> list[Node]:
        return [node for node in self.nodes.values() if node.alive]

    def kill(self, node_id: str) -> None:
        """Simulate a crash-stop failure: the node stops *and* is
        partitioned from everyone (heartbeats, transfers, and service
        calls all fail). Membership subscribers are notified so service
        discovery withdraws the address immediately."""
        node = self.node(node_id)
        was_alive = node.alive
        node.alive = False
        self._isolated.add(node_id)
        if was_alive:
            for on_failed, _ in self._membership_callbacks:
                on_failed(node_id)

    def revive(self, node_id: str) -> None:
        node = self.node(node_id)
        was_dead = not node.alive
        node.alive = True
        self._isolated.discard(node_id)
        if was_dead:
            for _, on_restored in self._membership_callbacks:
                on_restored(node_id)

    def notify_membership(
        self,
        on_failed: Callable[[str], Any],
        on_restored: Callable[[str], Any],
    ) -> None:
        """Subscribe to kill/revive transitions (e.g. discovery withdraw
        /announce). Callbacks fire only on actual state changes."""
        self._membership_callbacks.append((on_failed, on_restored))

    def partition(self, source: str, target: str, *, symmetric: bool = False) -> None:
        """Cut the directed link ``source -> target`` (both directions
        when ``symmetric``). Both nodes stay alive — this is the gray
        failure crash-stop testing never exercises."""
        self.node(source)
        self.node(target)
        self._cut_links.add((source, target))
        if symmetric:
            self._cut_links.add((target, source))

    def isolate(self, node_id: str) -> None:
        """Partition a node from every other node, both directions,
        while it keeps running (the zombie-owner scenario)."""
        self.node(node_id)
        self._isolated.add(node_id)

    def heal(self, source: str | None = None, target: str | None = None) -> None:
        """Heal partitions. ``heal()`` clears every cut link and
        isolation; ``heal(a)`` un-isolates ``a`` and restores all links
        touching it; ``heal(a, b)`` restores both directions of one pair."""
        if source is None:
            self._cut_links.clear()
            self._isolated.clear()
        elif target is None:
            self._isolated.discard(source)
            self._cut_links = {
                link for link in self._cut_links if source not in link
            }
        else:
            self._cut_links.discard((source, target))
            self._cut_links.discard((target, source))

    def reachable(self, source: str, target: str) -> bool:
        """Can a message flow ``source -> target`` right now? Dead nodes
        are unreachable in both directions (crash-stop == isolated)."""
        if source == target:
            return True
        for endpoint in (source, target):
            if endpoint in self._isolated:
                return False
            node = self.nodes.get(endpoint)
            if node is not None and not node.alive:
                return False
        return (source, target) not in self._cut_links

    def isolated_nodes(self) -> list[str]:
        """Nodes currently partitioned from everyone (sorted)."""
        return sorted(self._isolated)

    def transfer(self, source: str, target: str, payload_bytes: int) -> float:
        """Charge one transfer between nodes; returns simulated seconds.

        Local (same-node) moves are free — exactly the asymmetry that makes
        co-partitioned plans and SOE-on-HDFS-datanode locality win.

        The chaos drop seam fires on every transfer *attempt* — before
        the reachability gate — so seam event indices are stable whether
        or not a partition is active (existing recorded fault schedules
        replay unchanged). A transfer across a cut link then raises
        :class:`NetworkPartitionedError` before any accounting: the
        message never leaves the source.
        """
        if source == target:
            return 0.0
        extra = 0.0
        if self.chaos is not None:
            # may raise TransferDroppedError (retryable: the sender resends)
            extra = self.chaos.on_transfer(source, target, payload_bytes)
        if not self.reachable(source, target):
            raise NetworkPartitionedError(source, target)
        seconds = self.network.cost(payload_bytes) + extra
        self.stats.messages += 1
        self.stats.bytes_total += payload_bytes
        self.stats.simulated_seconds += seconds
        return seconds

    def reset_stats(self) -> TransferStats:
        """Swap in a fresh stats object; returns the old one."""
        old = self.stats
        self.stats = TransferStats()
        return old


def approx_values_bytes(values: Iterable[Any]) -> int:
    """Rough serialised size of a run of values — a row, a column, a group
    key: strings ship their text plus a terminator, everything else 8 bytes.
    The one sizing rule behind every transfer the SOE accounts for."""
    return sum(len(value) + 1 if isinstance(value, str) else 8 for value in values)


def approx_column_bytes(column: Column) -> int:
    """:func:`approx_values_bytes` of a column in array form: a coded column
    is sized per table entry, numbers without a visit to the rows."""
    if isinstance(column, Coded):
        return int(_entry_bytes(column.values)[column.codes].sum())
    return int(_entry_bytes(column).sum()) if column.dtype == object else 8 * len(column)


def _entry_bytes(values: np.ndarray) -> np.ndarray:
    """:func:`approx_values_bytes` of each entry of an object array, with
    no Python-level loop: ``map`` over built-ins, iterated in C."""
    sizes = np.full(len(values), 8, dtype=np.int64)
    strings = np.fromiter(map(isinstance, values, itertools.repeat(str)), dtype=bool, count=len(values))
    sizes[strings] = np.fromiter(map(len, values[strings]), dtype=np.int64, count=int(strings.sum())) + 1
    return sizes


def approx_row_bytes(row: Any) -> int:
    """Rough serialised size of one row (values plus a 2-byte row header)."""
    return 2 + approx_values_bytes(row)

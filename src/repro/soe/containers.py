"""Service containerisation (§IV.B).

"All these services (including global transaction blocker and database
services) can be isolated by a container infrastructure like Docker."

The simulated runtime provides the properties the paper relies on:

* **isolation** — a service runs inside exactly one container; resource
  accounting (memory/CPU-share) is per container against declared limits,
* **lifecycle** — containers start/stop/restart independently of the node
  hosting them; a crash is contained (the container flips to ``FAILED``,
  the service is withdrawn from discovery, the node survives),
* **scheduling** — the runtime places containers on nodes with free
  capacity, the same way the cluster manager "can dynamically start and
  stop other query processing services".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

from repro.errors import ClusterError
from repro.soe.cluster import SimulatedCluster


@dataclass
class ResourceLimits:
    """Declared container limits."""

    memory_bytes: int = 256 * 1024 * 1024
    cpu_shares: int = 1


@dataclass
class ServiceContainer:
    """One isolated service instance."""

    container_id: int
    node_id: str
    service_kind: str
    service: Any
    limits: ResourceLimits
    state: str = "RUNNING"  # RUNNING | STOPPED | FAILED
    memory_used: int = 0
    restarts: int = 0

    def charge_memory(self, amount: int) -> None:
        """Account a memory allocation; exceeding the limit kills the
        container (OOM), not the node."""
        if self.state != "RUNNING":
            raise ClusterError(f"container {self.container_id} is {self.state}")
        self.memory_used += amount
        if self.memory_used > self.limits.memory_bytes:
            self.state = "FAILED"
            raise ClusterError(
                f"container {self.container_id} ({self.service_kind}) exceeded "
                f"its memory limit and was killed"
            )


class ContainerRuntime:
    """Places and supervises service containers on cluster nodes."""

    def __init__(self, cluster: SimulatedCluster, node_cpu_capacity: int = 4) -> None:
        self.cluster = cluster
        self.node_cpu_capacity = node_cpu_capacity
        self._containers: dict[int, ServiceContainer] = {}
        self._ids = itertools.count(1)

    # -- placement ------------------------------------------------------------

    def _cpu_used(self, node_id: str) -> int:
        return sum(
            container.limits.cpu_shares
            for container in self._containers.values()
            if container.node_id == node_id and container.state == "RUNNING"
        )

    def deploy(
        self,
        service_kind: str,
        service: Any,
        node_id: str | None = None,
        limits: ResourceLimits | None = None,
    ) -> ServiceContainer:
        """Start a service inside a new container.

        Without an explicit node the runtime picks the live node with the
        most free CPU shares; deployment fails when nothing fits.
        """
        limits = limits or ResourceLimits()
        if node_id is None:
            candidates = [
                node
                for node in self.cluster.alive_nodes()
                if self.node_cpu_capacity - self._cpu_used(node.node_id)
                >= limits.cpu_shares
            ]
            if not candidates:
                raise ClusterError("no node has free CPU shares for the container")
            node_id = max(
                candidates,
                key=lambda node: self.node_cpu_capacity - self._cpu_used(node.node_id),
            ).node_id
        else:
            node = self.cluster.node(node_id)
            if not node.alive:
                raise ClusterError(f"node {node_id} is down")
            if self.node_cpu_capacity - self._cpu_used(node_id) < limits.cpu_shares:
                raise ClusterError(f"node {node_id} has no free CPU shares")
        container = ServiceContainer(
            container_id=next(self._ids),
            node_id=node_id,
            service_kind=service_kind,
            service=service,
            limits=limits,
        )
        self._containers[container.container_id] = container
        self.cluster.node(node_id).host(service_kind, service)
        return container

    # -- lifecycle ----------------------------------------------------------------

    def container(self, container_id: int) -> ServiceContainer:
        try:
            return self._containers[container_id]
        except KeyError:
            raise ClusterError(f"unknown container {container_id}") from None

    def stop(self, container_id: int) -> None:
        container = self.container(container_id)
        container.state = "STOPPED"
        node = self.cluster.node(container.node_id)
        node.services.pop(container.service_kind, None)

    def restart(self, container_id: int) -> ServiceContainer:
        """Restart a stopped/failed container in place (fresh accounting)."""
        container = self.container(container_id)
        if container.state == "RUNNING":
            return container
        if not self.cluster.node(container.node_id).alive:
            raise ClusterError(f"node {container.node_id} is down; reschedule instead")
        container.state = "RUNNING"
        container.memory_used = 0
        container.restarts += 1
        self.cluster.node(container.node_id).host(
            container.service_kind, container.service
        )
        return container

    def handle_node_failure(self, node_id: str) -> list[ServiceContainer]:
        """Mark every container on a dead node FAILED; returns them."""
        failed = []
        for container in self._containers.values():
            if container.node_id == node_id and container.state == "RUNNING":
                container.state = "FAILED"
                failed.append(container)
        return failed

    def reschedule(self, container_id: int) -> ServiceContainer:
        """Move a container off a dead node onto a live one."""
        old = self.container(container_id)
        replacement = self.deploy(old.service_kind, old.service, limits=old.limits)
        old.state = "STOPPED"
        return replacement

    # -- introspection ----------------------------------------------------------------

    def statistics(self) -> dict[str, Any]:
        by_state: dict[str, int] = {}
        for container in self._containers.values():
            by_state[container.state] = by_state.get(container.state, 0) + 1
        return {
            "containers": len(self._containers),
            "by_state": by_state,
            "cpu_used": {
                node_id: self._cpu_used(node_id) for node_id in self.cluster.nodes
            },
        }

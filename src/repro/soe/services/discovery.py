"""v2disc&auth: cluster discovery + authorization (§IV.B, Figure 3).

"An authorization and a cluster discovery service are bundled together to
store cluster access rights and keep track of availability of services
across the cluster."

**Role in the query path:** control plane only — the cluster manager
announces/withdraws services here and rebalancing looks up live v2lqp
hosts; no per-query traffic flows through it.

**Concurrency:** both registries are mutated from whatever thread starts
or stops services, so every write happens under the instance lock and
reads hand out copies (rule RA103 of ``tools/analyze`` enforces the
write side).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.analysis.racecheck import track_fields
from repro.errors import ClusterError


def _announce_into(services: dict[str, list[str]], kind: str, node_id: str) -> None:
    """Registry insert; the caller holds the registry's lock."""
    nodes = services.setdefault(kind, [])
    if node_id not in nodes:
        nodes.append(node_id)


def _withdraw_from(services: dict[str, list[str]], kind: str, node_id: str) -> None:
    """Registry remove; the caller holds the registry's lock."""
    nodes = services.get(kind, [])
    if node_id in nodes:
        nodes.remove(node_id)


@track_fields("_services")
@dataclass
class DiscoveryService:
    """Service registry: which nodes host which service kind.

    Liveness-aware: :meth:`mark_failed` routes a node's announcements
    through the same withdraw path lookups read, so ``locate`` /
    ``locate_one`` can never hand out a dead address — the dead-node
    leakage that used to send rebalancing and failover at corpses.
    :meth:`restore` re-announces exactly what was withdrawn. Both are
    driven by cluster kill/revive transitions and by failure-detector
    verdicts (``repro.soe.membership.FailureDetector``), which also
    covers gray failures crash-stop wiring never sees.
    """

    _services: dict[str, list[str]] = field(default_factory=dict)
    #: node id -> service kinds withdrawn by mark_failed, owed on restore
    _failed: dict[str, list[str]] = field(default_factory=dict)
    _lock: threading.Lock = field(
        # a lambda, not `threading.Lock` itself: the factory must be
        # looked up at *instance* creation so sanitizer/scheduler lock
        # layers installed after this module imported still wrap it
        default_factory=lambda: threading.Lock(),
        repr=False,
        compare=False,
    )

    def announce(self, service_kind: str, node_id: str) -> None:
        with self._lock:
            if node_id in self._failed:
                # the node is marked failed: remember the announcement
                # for restore, but never expose a dead address
                kinds = self._failed[node_id]
                if service_kind not in kinds:
                    kinds.append(service_kind)
                return
            _announce_into(self._services, service_kind, node_id)

    def withdraw(self, service_kind: str, node_id: str) -> None:
        with self._lock:
            _withdraw_from(self._services, service_kind, node_id)
            kinds = self._failed.get(node_id)
            if kinds is not None and service_kind in kinds:
                kinds.remove(service_kind)

    def mark_failed(self, node_id: str) -> list[str]:
        """Withdraw every announcement of ``node_id`` (remembering them),
        so lookups stop returning it immediately. Idempotent; returns the
        kinds withdrawn by this call."""
        with self._lock:
            withdrawn = sorted(
                kind for kind, nodes in self._services.items() if node_id in nodes
            )
            for kind in withdrawn:
                _withdraw_from(self._services, kind, node_id)
            owed = self._failed.setdefault(node_id, [])
            for kind in withdrawn:
                if kind not in owed:
                    owed.append(kind)
            return withdrawn

    def restore(self, node_id: str) -> list[str]:
        """Re-announce everything :meth:`mark_failed` withdrew (plus any
        announcement that arrived while the node was down). Idempotent;
        returns the kinds re-announced."""
        with self._lock:
            owed = self._failed.pop(node_id, [])
            for kind in owed:
                _announce_into(self._services, kind, node_id)
            return sorted(owed)

    def is_failed(self, node_id: str) -> bool:
        with self._lock:
            return node_id in self._failed

    def locate(self, service_kind: str) -> list[str]:
        """Node ids currently announcing ``service_kind`` (failed nodes
        are withdrawn, so they never appear here)."""
        with self._lock:
            return list(self._services.get(service_kind, []))

    def locate_one(self, service_kind: str) -> str:
        nodes = self.locate(service_kind)
        if not nodes:
            raise ClusterError(f"no node announces service {service_kind!r}")
        return nodes[0]


@track_fields("_grants", "_credentials")
@dataclass
class AuthorizationService:
    """Credentials and access-rights store (deliberately simple ACLs)."""

    _grants: dict[str, set[str]] = field(default_factory=dict)
    _credentials: dict[str, str] = field(default_factory=dict)
    _lock: threading.Lock = field(
        # a lambda, not `threading.Lock` itself: the factory must be
        # looked up at *instance* creation so sanitizer/scheduler lock
        # layers installed after this module imported still wrap it
        default_factory=lambda: threading.Lock(),
        repr=False,
        compare=False,
    )

    def create_user(self, user: str, secret: str) -> None:
        with self._lock:
            if user in self._credentials:
                raise ClusterError(f"user {user!r} already exists")
            self._credentials[user] = secret
            self._grants.setdefault(user, set())

    def authenticate(self, user: str, secret: str) -> bool:
        with self._lock:
            return self._credentials.get(user) == secret

    def grant(self, user: str, action: str) -> None:
        with self._lock:
            if user not in self._credentials:
                raise ClusterError(f"unknown user {user!r}")
            self._grants.setdefault(user, set()).add(action)

    def revoke(self, user: str, action: str) -> None:
        with self._lock:
            self._grants.get(user, set()).discard(action)

    def check(self, user: str, action: str) -> bool:
        with self._lock:
            grants = self._grants.get(user, set())
            return action in grants or "*" in grants

    def require(self, user: str, action: str) -> None:
        if not self.check(user, action):
            raise ClusterError(f"user {user!r} is not authorised for {action!r}")

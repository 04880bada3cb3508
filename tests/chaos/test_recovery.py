"""Failure-aware execution: retry, failover, deadlines, and determinism.

Every scenario here injects faults through repro.chaos and asserts the
landscape's recovery machinery — coordinator re-planning, replica
failover, broker seal-and-reopen, federation retries — produces the
same answers a fault-free run produces (or fails cleanly when the data
is truly gone).
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.chaos import ChaosController, FaultPlan, FaultSpec
from repro.core.database import Database
from repro.errors import (
    ClusterError,
    CoordinationError,
    DeadlineExceededError,
    FederationError,
    RetryableError,
)
from repro.federation.adapters import HanaAdapter
from repro.federation.sda import SmartDataAccess
from repro.soe.engine import SoeEngine
from repro.util.retry import RetryPolicy


def build_soe(replication: int = 2, **kwargs) -> SoeEngine:
    soe = SoeEngine(node_count=3, node_modes="olap", replication=replication, **kwargs)
    soe.create_table(
        "readings", ["sensor_id", "region", "value"], ["sensor_id"], partition_count=6
    )
    soe.load("readings", [[i, f"r{i % 3}", float(i % 100)] for i in range(600)])
    return soe


BASELINE_GROUPS = sorted(
    build_soe().aggregate("readings", group_by=["region"])[0]
)


class TestReplicaFailover:
    def test_failover_preserves_results_and_is_counted(self):
        soe = build_soe(replication=2)
        soe.cluster.kill("worker0")
        rows, cost = soe.aggregate("readings", group_by=["region"])
        assert sorted(rows) == BASELINE_GROUPS
        # worker0 is the deterministic primary of two partitions
        assert cost.failovers == 2
        assert not cost.degraded  # bound 0 forces full catch-up

    def test_strong_reads_survive_failover(self):
        soe = build_soe(replication=2)
        soe.insert("readings", [[1000 + i, "new", 1.0] for i in range(10)])
        soe.cluster.kill("worker0")
        rows, cost = soe.aggregate("readings", consistency="strong")
        assert rows == [[610]]
        assert cost.failovers >= 1

    def test_stale_replica_within_bound_marks_degraded(self):
        soe = build_soe(replication=2, staleness_bound=100)
        soe.insert("readings", [[2000, "new", 5.0]])  # nobody catches up
        soe.cluster.kill("worker0")
        rows, cost = soe.aggregate("readings")
        # the stale fallback serves without catching up: the insert is
        # invisible, exactly the degraded answer the flag advertises
        assert rows == [[600]]
        assert cost.degraded
        assert cost.failovers == 2

    def test_failover_disabled_raises_retryable_cluster_error(self):
        soe = build_soe(replication=2, failover=False)
        soe.cluster.kill("worker0")
        with pytest.raises(ClusterError) as exc_info:
            soe.aggregate("readings")
        assert isinstance(exc_info.value, RetryableError)

    def test_unreplicated_partition_loss_fails_cleanly(self):
        soe = build_soe(replication=1)
        soe.cluster.kill("worker1")
        with pytest.raises(CoordinationError):
            soe.aggregate("readings")

    def test_joins_survive_failover(self):
        soe = build_soe(replication=2)
        soe.create_table("sensors", ["sensor_id", "kind"], ["sensor_id"], partition_count=6)
        soe.load("sensors", [[i, f"k{i % 2}"] for i in range(600)])
        baseline = sorted(
            soe.join(
                "readings", "sensors", "sensor_id", "sensor_id", "kind",
                [("sum", "value")], strategy="broadcast",
            )[0]
        )
        soe.cluster.kill("worker0")
        for strategy in ("broadcast", "repartition", "colocated"):
            rows, cost = soe.join(
                "readings", "sensors", "sensor_id", "sensor_id", "kind",
                [("sum", "value")], strategy=strategy,
            )
            assert sorted(rows) == baseline, strategy
            assert cost.failovers >= 1, strategy


class TestChaosDrivenRecovery:
    def test_dropped_transfers_are_resent(self):
        plan = FaultPlan(
            [FaultSpec("drop", "transfer", 0), FaultSpec("drop", "transfer", 2)]
        )
        soe = build_soe(replication=2, chaos=ChaosController(plan))
        rows, cost = soe.aggregate("readings", group_by=["region"])
        assert sorted(rows) == BASELINE_GROUPS
        assert cost.retries >= 2
        assert soe.clock.now > 0.0  # backoff charged to the simulated clock

    def test_service_crash_mid_plan_recovers_via_replan(self):
        plan = FaultPlan([FaultSpec("crash", "service", 0, target="worker0")])
        soe = build_soe(replication=2, chaos=ChaosController(plan))
        rows, cost = soe.aggregate("readings", group_by=["region"])
        assert sorted(rows) == BASELINE_GROUPS
        assert cost.retries >= 1
        assert cost.failovers >= 1
        assert not soe.cluster.node("worker0").alive

    @pytest.mark.parametrize("strategy", ["repartition", "colocated"])
    def test_probe_worker_crash_recovers_via_replan(self, strategy):
        """A worker dying at its probe — for a repartition join that is
        after the shuffle shipped it its bucket — is re-planned like any
        other task failure, identically for every strategy and every run."""

        def run(plan: FaultPlan):
            controller = ChaosController(plan)
            soe = build_soe(replication=2, chaos=controller)
            soe.create_table("sensors", ["sensor_id", "kind"], ["sensor_id"], partition_count=6)
            soe.load("sensors", [[i, f"k{i % 2}"] for i in range(600)])
            rows, cost = soe.join(
                "readings", "sensors", "sensor_id", "sensor_id", "kind",
                [("sum", "value")], strategy=strategy,
            )
            return sorted(rows), cost, controller

        baseline, clean_cost, clean = run(FaultPlan())
        assert clean_cost.retries == 0
        # the last worker task of every join plan is a probe
        last_probe = clean.events_seen("service") - 1
        plan = FaultPlan([FaultSpec("crash", "service", last_probe)])
        rows, cost, controller = run(plan)
        assert rows == baseline
        assert cost.retries == 1
        assert cost.failovers >= 1
        assert [event.kind for event in controller.fired] == ["crash"]
        replay = run(plan)[2]
        assert replay.schedule_fingerprint() == controller.schedule_fingerprint()

    def test_tick_schedule_kill_and_revive(self):
        plan = FaultPlan.kill_schedule(
            seed=42, ticks=20, rate=0.3, nodes=["worker0", "worker1", "worker2"]
        )
        controller = ChaosController(plan)
        soe = build_soe(replication=2, chaos=controller)
        for _ in range(20):
            controller.tick()
            rows, _cost = soe.aggregate("readings", group_by=["region"])
            assert sorted(rows) == BASELINE_GROUPS
        assert any(event.kind == "crash" for event in controller.fired)

    def test_deadline_aborts_are_not_retried(self):
        soe = build_soe(replication=2, deadline_seconds=0.0)
        with pytest.raises(DeadlineExceededError):
            soe.aggregate("readings")

    def test_generous_deadline_passes(self):
        soe = build_soe(replication=2, deadline_seconds=60.0)
        rows, _cost = soe.aggregate("readings", group_by=["region"])
        assert sorted(rows) == BASELINE_GROUPS


class TestBrokerLogRecovery:
    def test_chaos_seal_triggers_reconfigure_and_commit_succeeds(self):
        plan = FaultPlan([FaultSpec("seal", "log_append", 0)])
        soe = build_soe(replication=2, chaos=ChaosController(plan))
        lsn = soe.insert("readings", [[5000, "late", 9.0]])
        assert lsn == 0  # the sealed attempt never burned an address
        assert soe.broker.log_recoveries == 1
        assert soe.log.epoch == 1
        rows, _ = soe.aggregate("readings", consistency="strong")
        assert rows == [[601]]

    def test_chaos_stall_is_retried_with_backoff(self):
        plan = FaultPlan(
            [FaultSpec("stall", "log_append", 0), FaultSpec("stall", "log_append", 1)]
        )
        soe = build_soe(replication=2, chaos=ChaosController(plan))
        soe.insert("readings", [[5001, "late", 9.0]])
        assert soe.broker.retries == 2
        assert soe.clock.now > 0.0

    def test_persistent_stall_exhausts_and_reraises(self):
        plan = FaultPlan(
            [FaultSpec("stall", "log_append", event) for event in range(10)]
        )
        soe = build_soe(
            replication=2,
            chaos=ChaosController(plan),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        from repro.errors import LogError

        with pytest.raises(LogError):
            soe.insert("readings", [[5002, "late", 9.0]])
        assert soe.broker.retries == 2  # attempts 1 and 2 of 3


class TestFederationRetry:
    def _sda_with_chaos(self, plan: FaultPlan):
        remote = Database(name="remote")
        remote.execute("CREATE TABLE inventory (sku VARCHAR, qty INT)")
        remote.execute("INSERT INTO inventory VALUES ('a', 5), ('b', 9)")
        controller = ChaosController(plan)
        local = Database(name="local")
        access = SmartDataAccess(local, clock=controller.clock)
        access.register_source(controller.wrap_source(HanaAdapter("erp", remote)))
        return access, controller

    def test_transient_outage_is_retried(self):
        plan = FaultPlan([FaultSpec("outage", "remote_scan", 0)])
        access, controller = self._sda_with_chaos(plan)
        rows = access.pushdown_aggregate("erp", "inventory", [], [("sum", "qty")])
        assert rows == [[14]]
        assert controller.clock.now > 0.0

    def test_virtual_table_scan_retries_and_succeeds(self):
        plan = FaultPlan(
            [FaultSpec("outage", "remote_scan", 0), FaultSpec("outage", "remote_scan", 1)]
        )
        access, _ = self._sda_with_chaos(plan)
        virtual = access.create_virtual_table("inv", "erp", "inventory")
        rows = virtual.scan(snapshot_cid=0)
        assert sorted(rows) == [["a", 5], ["b", 9]]

    def test_persistent_outage_surfaces_federation_error(self):
        plan = FaultPlan(
            [FaultSpec("outage", "remote_scan", event) for event in range(8)]
        )
        access, _ = self._sda_with_chaos(plan)
        with pytest.raises(FederationError):
            access.pushdown_aggregate("erp", "inventory", [], [("sum", "qty")])


class TestDeterministicReplay:
    SEED = 1234

    def _run_once(self):
        """One seeded chaos session; returns every observable artefact."""
        workers = ["worker0", "worker1", "worker2"]
        plan = FaultPlan.from_seed(
            self.SEED,
            horizon=120,
            nodes=workers,
            drop_rate=0.05,
            delay_rate=0.05,
            stall_rate=0.1,
        ) + FaultPlan.kill_schedule(
            self.SEED, ticks=10, rate=0.4, nodes=workers
        )
        controller = ChaosController(plan)
        obs.reset()
        obs.enable()
        try:
            soe = build_soe(replication=2, chaos=controller)
            outcomes = []
            for step in range(10):
                controller.tick()
                if step % 3 == 2:
                    soe.insert("readings", [[9000 + step, "x", 1.0]])
                rows, cost = soe.aggregate(
                    "readings", group_by=["region"], consistency="strong"
                )
                outcomes.append((sorted(rows), cost.retries, cost.failovers))
            counters = {
                key: summary["value"]
                for key, summary in obs.metrics_dump().items()
                if summary.get("type") == "counter"
            }
        finally:
            obs.reset()
        return controller.schedule_fingerprint(), outcomes, counters

    def test_identical_seed_identical_faults_and_recovery(self):
        first = self._run_once()
        second = self._run_once()
        assert first[0] == second[0]  # same faults at the same events
        assert first[1] == second[1]  # same results and recovery counts
        assert first[2] == second[2]  # same obs counters, bit for bit
        assert len(first[0]) > 0  # the schedule actually fired something

"""Tests for repro.soe.movement: the five-phase online migration protocol.

Happy path, concurrent-write catch-up, query pinning/drain/trim, retry
under transfer drops, governor charging/deferral, and deterministic
journal-driven resume. The chaos kill matrix lives in
tests/chaos/test_movement_chaos.py.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosController, FaultPlan, FaultSpec
from repro.errors import BudgetExceededError, MoveAbortedError, MoveError
from repro.qos.governor import QueryBudget, ResourceGovernor
from repro.soe.engine import SoeEngine
from repro.soe.movement import MoveJournal, MoveState, PartitionMover, PHASES
from repro.util.retry import RetryPolicy


def build_soe(chaos: ChaosController | None = None, **kwargs) -> SoeEngine:
    soe = SoeEngine(node_count=3, node_modes="olap", chaos=chaos, **kwargs)
    soe.create_table("t", ["k", "v"], ["k"], partition_count=6)
    soe.load("t", [[i, float(i)] for i in range(600)])
    return soe


def partition_on(soe: SoeEngine, node_id: str) -> int:
    return soe.catalog.partitions_on("t", node_id)[0]


def total_count(soe: SoeEngine) -> int:
    # strong: force full catch-up, so log-committed inserts are counted
    rows, _ = soe.aggregate("t", aggregates=[("count", None)], consistency="strong")
    return rows[0][0]


class TestHappyPath:
    def test_online_move_preserves_data_and_catalog(self):
        soe = build_soe()
        pid = partition_on(soe, "worker0")
        mover = soe.make_mover()
        state = mover.move("t", pid, "worker0", "worker1")
        assert state.phase == "done"
        assert not state.aborted
        assert state.history == [*PHASES, "done"]
        assert soe.catalog.nodes_of("t", pid) == ["worker1"]
        assert pid in soe.data_nodes["worker1"].owned_partitions("t")
        assert pid not in soe.data_nodes["worker0"].owned_partitions("t")
        # trim freed the donor's retained copy
        assert state.trimmed
        assert not soe.data_nodes["worker0"].store.has_partition("t", pid)
        assert total_count(soe) == 600

    def test_every_phase_is_journaled(self):
        soe = build_soe()
        pid = partition_on(soe, "worker0")
        mover = soe.make_mover()
        state = mover.move("t", pid, "worker0", "worker1")
        phases = [r["phase"] for r in mover.journal.entries(state.move_id)]
        for phase in PHASES:
            assert phase in phases
        assert phases[-1] == "done"
        assert mover.journal.open_moves() == []

    def test_queries_run_at_every_phase_boundary(self):
        soe = build_soe()
        pid = partition_on(soe, "worker0")
        observed: list[tuple[str, int, int]] = []

        def hook(state: MoveState) -> None:
            owners = soe.catalog.nodes_of("t", state.partition_id)
            observed.append((state.phase, len(owners), total_count(soe)))

        mover = soe.make_mover(phase_hook=hook)
        state = mover.move("t", pid, "worker0", "worker1")
        assert not state.aborted
        assert [phase for phase, _, _ in observed] == list(PHASES)
        # exactly one catalog owner and a complete answer at every boundary
        assert all(owners == 1 for _, owners, _ in observed)
        assert all(count == 600 for _, _, count in observed)

    def test_repartition_join_runs_at_every_phase_boundary(self):
        # the join's bucket tasks read shipped partitions, not local ones:
        # they must neither pin nor look up the partition being moved
        soe = build_soe()
        soe.create_table("d", ["k", "grp"], ["k"], partition_count=6)
        soe.load("d", [[i, f"g{i % 3}"] for i in range(600)])

        def join() -> list[list]:
            rows, _cost = soe.join(
                "t", "d", "k", "k", "grp", [("count", None), ("sum", "v")],
                strategy="repartition",
            )
            return rows

        reference = [
            [f"g{g}", 200, float(sum(i for i in range(600) if i % 3 == g))] for g in range(3)
        ]
        assert join() == reference
        observed: list[str] = []

        def hook(state: MoveState) -> None:
            assert join() == reference, state.phase
            observed.append(state.phase)

        mover = soe.make_mover(phase_hook=hook)
        state = mover.move("t", partition_on(soe, "worker0"), "worker0", "worker1")
        assert not state.aborted
        assert observed == list(PHASES)
        assert join() == reference

    def test_concurrent_inserts_are_caught_up(self):
        soe = build_soe()
        pid = partition_on(soe, "worker0")
        inserted: list[int] = []

        def hook(state: MoveState) -> None:
            # commit writes while the copy is in flight: catch-up (and the
            # flip's install alignment) must absorb them exactly once
            if state.phase in ("snapshot_copy", "catch_up"):
                base = 10_000 + 100 * len(inserted)
                soe.insert("t", [[base + i, 1.0] for i in range(50)])
                inserted.append(base)

        mover = soe.make_mover(phase_hook=hook)
        state = mover.move("t", pid, "worker0", "worker1")
        assert not state.aborted
        assert total_count(soe) == 600 + 50 * len(inserted)

    def test_move_reports_copy_and_catchup_stats(self):
        soe = build_soe()
        pid = partition_on(soe, "worker0")
        soe.insert("t", [[5000 + i, 2.0] for i in range(30)])
        mover = soe.make_mover()
        state = mover.move("t", pid, "worker0", "worker1")
        assert state.bytes_copied > 0
        assert state.snapshot_lsn >= 0
        assert state.applied_lsn >= state.snapshot_lsn


class TestValidation:
    def test_rejects_same_node(self):
        soe = build_soe()
        with pytest.raises(MoveError):
            soe.make_mover().move("t", 0, "worker0", "worker0")

    def test_rejects_unknown_nodes(self):
        soe = build_soe()
        with pytest.raises(MoveError):
            soe.make_mover().move("t", 0, "worker9", "worker1")
        with pytest.raises(MoveError):
            soe.make_mover().move("t", 0, "worker0", "worker9")

    def test_rejects_unowned_partition(self):
        soe = build_soe()
        pid = partition_on(soe, "worker1")
        with pytest.raises(MoveError):
            soe.make_mover().move("t", pid, "worker0", "worker2")

    def test_rejects_recipient_that_already_owns(self):
        soe = build_soe()
        pid = partition_on(soe, "worker0")
        with pytest.raises(MoveError):
            soe.make_mover().move("t", pid, "worker0", "worker0")


class TestDrainAndTrim:
    def test_pinned_donor_copy_defers_trim(self):
        soe = build_soe()
        pid = partition_on(soe, "worker0")
        donor = soe.data_nodes["worker0"]
        donor.pin_partition("t", pid)  # a long-running query holds the copy
        mover = soe.make_mover(drain_rounds=2)
        state = mover.move("t", pid, "worker0", "worker1")
        assert not state.aborted
        assert not state.trimmed
        # the retained copy survives for the pinned reader...
        assert donor.store.has_partition("t", pid)
        # ...but ownership (and log application) already moved
        assert pid not in donor.owned_partitions("t")
        donor.unpin_partition("t", pid)
        assert donor.drop_retained("t", pid)
        assert not donor.store.has_partition("t", pid)

    def test_query_service_pins_partitions_during_execution(self):
        soe = build_soe()
        pid = partition_on(soe, "worker0")
        donor = soe.data_nodes["worker0"]
        seen: list[int] = []

        original = donor.store.partition

        def spying_partition(table, partition_id):
            seen.append(donor.pin_count("t", pid))
            return original(table, partition_id)

        donor.store.partition = spying_partition
        try:
            total_count(soe)
        finally:
            donor.store.partition = original
        assert any(count > 0 for count in seen)
        assert donor.pin_count("t", pid) == 0  # released after the task


class TestRetriesAndBreaker:
    def test_transfer_drops_are_retried(self):
        plan = FaultPlan(
            [
                FaultSpec("drop", "transfer", 0),
                FaultSpec("drop", "transfer", 1),
            ]
        )
        chaos = ChaosController(plan)
        soe = build_soe(chaos=chaos)
        pid = partition_on(soe, "worker0")
        mover = soe.make_mover()
        state = mover.move("t", pid, "worker0", "worker1")
        assert not state.aborted
        assert state.retries == 2
        assert soe.catalog.nodes_of("t", pid) == ["worker1"]
        assert total_count(soe) == 600

    def test_exhausted_retries_roll_back(self):
        drops = FaultPlan([FaultSpec("drop", "transfer", e) for e in range(10)])
        chaos = ChaosController(drops)
        soe = build_soe(chaos=chaos, retry_policy=RetryPolicy(max_attempts=2))
        pid = partition_on(soe, "worker0")
        mover = soe.make_mover()
        state = mover.move("t", pid, "worker0", "worker1")
        assert state.aborted
        assert "TransferDroppedError" in state.error
        # the donor never stopped being the owner
        assert soe.catalog.nodes_of("t", pid) == ["worker0"]
        assert pid in soe.data_nodes["worker0"].owned_partitions("t")
        assert pid not in soe.data_nodes["worker1"].owned_partitions("t")

    def test_raise_on_abort(self):
        drops = FaultPlan([FaultSpec("drop", "transfer", e) for e in range(10)])
        soe = build_soe(
            chaos=ChaosController(drops), retry_policy=RetryPolicy(max_attempts=2)
        )
        pid = partition_on(soe, "worker0")
        with pytest.raises(MoveAbortedError):
            soe.make_mover().move("t", pid, "worker0", "worker1", raise_on_abort=True)


class TestGovernor:
    def test_copy_work_is_charged(self):
        soe = build_soe()
        pid = partition_on(soe, "worker0")
        governor = ResourceGovernor(QueryBudget(hard_rows=1_000_000))
        mover = soe.make_mover(governor=governor)
        state = mover.move("t", pid, "worker0", "worker1")
        assert not state.aborted
        snapshot = governor.snapshot()
        assert snapshot["rows"] > 0
        assert snapshot["bytes"] >= state.bytes_copied

    def test_degraded_landscape_defers_the_move(self):
        soe = build_soe()
        pid = partition_on(soe, "worker0")
        governor = ResourceGovernor(QueryBudget(soft_rows=1))
        governor.charge(rows=10)  # trips the soft limit -> should_stop
        mover = soe.make_mover(governor=governor)
        with pytest.raises(MoveError, match="deferred"):
            mover.move("t", pid, "worker0", "worker1")
        # nothing moved, nothing journaled
        assert soe.catalog.nodes_of("t", pid) == ["worker0"]
        assert mover.journal.move_ids() == []

    def test_blown_hard_budget_mid_copy_rolls_back(self):
        soe = build_soe()
        pid = partition_on(soe, "worker0")
        governor = ResourceGovernor(QueryBudget(hard_rows=10))
        mover = soe.make_mover(governor=governor)
        state = mover.move("t", pid, "worker0", "worker1")
        assert state.aborted
        assert "BudgetExceededError" in state.error
        assert soe.catalog.nodes_of("t", pid) == ["worker0"]
        assert total_count(soe) == 600


class TestResume:
    def test_resume_before_flip_rolls_back(self):
        soe = build_soe()
        pid = partition_on(soe, "worker0")
        mover = soe.make_mover()
        # a crashed mover left a journal mid-catch-up, copy lost with the
        # process: resume must leave the donor authoritative
        crashed = MoveState(
            move_id="move-crashed",
            table="t",
            partition_id=pid,
            donor="worker0",
            recipient="worker1",
            phase="catch_up",
        )
        mover.journal.record(crashed)
        resumed = mover.resume("move-crashed")
        assert resumed.aborted
        assert not resumed.flip_committed
        assert soe.catalog.nodes_of("t", pid) == ["worker0"]
        assert pid in soe.data_nodes["worker0"].owned_partitions("t")
        assert total_count(soe) == 600

    def test_resume_after_flip_commit_rolls_forward(self):
        soe = build_soe()
        pid = partition_on(soe, "worker0")
        donor = soe.data_nodes["worker0"]
        recipient = soe.data_nodes["worker1"]
        # reproduce a crash *between* the catalog swap and the donor
        # release: install + swap happened, release did not
        clone, lsn = donor.snapshot_partition("t", pid)
        key_positions, partition_count = donor.ownership_meta("t")
        recipient.install_ownership("t", clone, key_positions, partition_count, lsn)
        soe.catalog.swap_placement("t", pid, "worker0", "worker1")
        mover = soe.make_mover()
        crashed = MoveState(
            move_id="move-crashed",
            table="t",
            partition_id=pid,
            donor="worker0",
            recipient="worker1",
            phase="flip",
            flip_committed=True,
        )
        mover.journal.record(crashed)
        resumed = mover.resume("move-crashed")
        assert resumed.rolled_forward
        assert not resumed.aborted
        assert resumed.trimmed
        assert soe.catalog.nodes_of("t", pid) == ["worker1"]
        assert pid not in donor.owned_partitions("t")
        assert not donor.store.has_partition("t", pid)
        assert total_count(soe) == 600

    def test_recover_all_resumes_every_open_move(self):
        soe = build_soe()
        pid = partition_on(soe, "worker0")
        mover = soe.make_mover()
        mover.journal.record(
            MoveState(
                move_id="move-open",
                table="t",
                partition_id=pid,
                donor="worker0",
                recipient="worker1",
                phase="snapshot_copy",
            )
        )
        states = mover.recover_all()
        assert [s.move_id for s in states] == ["move-open"]
        assert states[0].done
        assert mover.journal.open_moves() == []

    def test_resume_unknown_move_rejected(self):
        soe = build_soe()
        with pytest.raises(MoveError):
            soe.make_mover().resume("move-nope")


class TestJournal:
    def test_shared_journal_survives_mover_restart(self):
        soe = build_soe()
        pid = partition_on(soe, "worker0")
        journal = MoveJournal()
        first = soe.make_mover(journal=journal)
        state = first.move("t", pid, "worker0", "worker1")
        # a "restarted" mover sees the finished move through the journal
        second = soe.make_mover(journal=journal)
        assert second.journal.latest(state.move_id)["phase"] == "done"
        assert second.recover_all() == []

    def test_state_round_trips_through_dict(self):
        state = MoveState(
            move_id="m", table="t", partition_id=3, donor="a", recipient="b"
        )
        state.phase = "flip"
        state.flip_committed = True
        state.history = ["snapshot_copy", "catch_up", "flip"]
        clone = MoveState.from_dict(state.to_dict())
        assert clone.to_dict() == state.to_dict()


class TestAutoRebalancer:
    def _skew(self, soe: SoeEngine) -> None:
        for pid, nodes in soe.catalog.placement_of("t").items():
            if nodes[0] != "worker0":
                soe.manager.move_partition("t", pid, nodes[0], "worker0")

    def test_hotspot_is_shed_and_throughput_respreads(self):
        soe = build_soe()
        self._skew(soe)
        rebalancer = soe.make_rebalancer(max_moves_per_step=2)
        moved = []
        for _ in range(8):
            total_count(soe)  # all scan load lands on worker0
            moved.extend(rebalancer.step())
        assert moved
        assert all(not m.aborted for m in moved)
        counts = {
            worker: len(soe.catalog.partitions_on("t", worker))
            for worker in soe.worker_ids
        }
        assert max(counts.values()) < 6  # no longer all on worker0
        assert total_count(soe) == 600

    def test_no_hotspot_no_moves(self):
        soe = build_soe()
        rebalancer = soe.make_rebalancer()
        total_count(soe)  # balanced placement -> balanced load
        assert rebalancer.step() == []

    def test_windowed_load_does_not_oscillate(self):
        soe = build_soe()
        self._skew(soe)
        rebalancer = soe.make_rebalancer(max_moves_per_step=6)
        total_count(soe)
        rebalancer.step()
        # with no *new* load, later windows are quiet: no further moves
        follow_ups = [rebalancer.step() for _ in range(3)]
        assert all(step == [] for step in follow_ups)

    def test_governor_defers_rebalancing(self):
        soe = build_soe()
        self._skew(soe)
        governor = ResourceGovernor(QueryBudget(soft_rows=1))
        governor.charge(rows=10)
        rebalancer = soe.make_rebalancer(governor=governor)
        total_count(soe)
        assert rebalancer.step() == []

    def test_dead_target_is_never_chosen(self):
        soe = build_soe()
        self._skew(soe)
        soe.cluster.kill("worker2")
        rebalancer = soe.make_rebalancer(max_moves_per_step=6)
        total_count(soe)
        moved = rebalancer.step()
        assert all(m.recipient != "worker2" for m in moved)

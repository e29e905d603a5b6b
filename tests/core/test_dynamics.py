"""Unit/integration tests for topology dynamics (join/leave/reparent)."""

import random

import pytest

from repro.core.dynamics import TopologyManager
from repro.core.manager import HarpNetwork
from repro.core.partition import Partition, PartitionIsolationError
from repro.net.slotframe import Cell, ScheduleConflictError, SlotframeConfig
from repro.net.tasks import Task, e2e_task_per_node
from repro.net.topology import (
    Direction,
    LinkRef,
    TopologyError,
    TreeTopology,
    layered_random_tree,
)
from repro.packing.geometry import PlacedRect


@pytest.fixture
def harp():
    topo = TreeTopology({1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 3})
    network = HarpNetwork(
        topo, e2e_task_per_node(topo), SlotframeConfig(num_slots=80),
        case1_slack=1, distribute_slack=True,
    )
    network.allocate()
    return network


class TestTopologyMutators:
    def test_with_attached(self):
        topo = TreeTopology({1: 0})
        bigger = topo.with_attached(2, 1)
        assert bigger.parent_of(2) == 1
        assert 2 not in topo  # original untouched

    def test_attach_duplicate_rejected(self):
        topo = TreeTopology({1: 0})
        with pytest.raises(TopologyError):
            topo.with_attached(1, 0)

    def test_attach_unknown_parent_rejected(self):
        topo = TreeTopology({1: 0})
        with pytest.raises(TopologyError):
            topo.with_attached(2, 9)

    def test_with_detached_removes_subtree(self):
        topo = TreeTopology({1: 0, 2: 1, 3: 1, 4: 0})
        smaller = topo.with_detached(1)
        assert list(smaller.nodes) == [0, 4]

    def test_detach_gateway_rejected(self):
        with pytest.raises(TopologyError):
            TreeTopology({1: 0}).with_detached(0)

    def test_with_reparented(self):
        topo = TreeTopology({1: 0, 2: 0, 3: 1})
        moved = topo.with_reparented(3, 2)
        assert moved.parent_of(3) == 2
        assert moved.depth_of(3) == 2

    def test_reparent_into_own_subtree_rejected(self):
        topo = TreeTopology({1: 0, 2: 1, 3: 2})
        with pytest.raises(TopologyError):
            topo.with_reparented(1, 3)

    def test_reparent_gateway_rejected(self):
        with pytest.raises(TopologyError):
            TreeTopology({1: 0}).with_reparented(0, 1)


class TestAttach:
    def test_new_node_gets_scheduled(self, harp):
        mgr = TopologyManager(harp)
        report = mgr.attach(9, 2, Task(task_id=9, source=9, rate=1.0, echo=True))
        assert report.success
        harp.validate()
        assert 9 in harp.topology
        up = harp.schedule.cells_of(LinkRef(9, Direction.UP))
        down = harp.schedule.cells_of(LinkRef(9, Direction.DOWN))
        assert len(up) >= 1 and len(down) >= 1

    def test_forwarding_demand_grows_on_path(self, harp):
        mgr = TopologyManager(harp)
        before = len(harp.schedule.cells_of(LinkRef(2, Direction.UP)))
        mgr.attach(9, 5, Task(task_id=9, source=9, rate=1.0, echo=True))
        harp.validate()
        after = len(harp.schedule.cells_of(LinkRef(2, Direction.UP)))
        assert after > before

    def test_attach_without_task_costs_nothing_in_data_plane(self, harp):
        mgr = TopologyManager(harp)
        report = mgr.attach(9, 2)
        assert report.success
        harp.validate()
        assert harp.schedule.cells_of(LinkRef(9, Direction.UP)) == []

    def test_task_source_mismatch_rejected(self, harp):
        mgr = TopologyManager(harp)
        with pytest.raises(ValueError):
            mgr.attach(9, 2, Task(task_id=9, source=4))


class TestDetach:
    def test_leaf_leaves_cleanly(self, harp):
        mgr = TopologyManager(harp)
        report = mgr.detach(6)
        assert report.success
        harp.validate()
        assert 6 not in harp.topology
        assert harp.schedule.cells_of(LinkRef(6, Direction.UP)) == []

    def test_subtree_leaves_and_demand_shrinks(self, harp):
        mgr = TopologyManager(harp)
        before = len(harp.schedule.cells_of(LinkRef(1, Direction.UP)))
        report = mgr.detach(3)  # subtree {3, 6}
        assert report.success
        harp.validate()
        after = len(harp.schedule.cells_of(LinkRef(1, Direction.UP)))
        assert after < before
        assert 3 not in harp.topology and 6 not in harp.topology

    def test_detach_is_release_only(self, harp):
        """The paper's rule: decreases never move partitions."""
        mgr = TopologyManager(harp)
        report = mgr.detach(6)
        assert report.partition_messages == 0
        assert not report.rebootstrapped


class TestReparent:
    def test_subtree_moves_and_stays_valid(self, harp):
        mgr = TopologyManager(harp)
        report = mgr.reparent(3, 2)  # subtree {3, 6} from under 1 to under 2
        assert report.success
        harp.validate()
        assert harp.topology.parent_of(3) == 2
        # Traffic still served end to end.
        for link, demand in harp.link_demands.items():
            assert len(harp.schedule.cells_of(link)) >= demand

    def test_depth_change_relayers_subtree(self, harp):
        mgr = TopologyManager(harp)
        # Node 5 (depth 2 under 2) moves under the gateway: depth 1.
        report = mgr.reparent(5, 0)
        assert report.success
        harp.validate()
        assert harp.topology.depth_of(5) == 1

    def test_sequence_of_changes(self, harp):
        mgr = TopologyManager(harp)
        assert mgr.reparent(3, 2).success
        harp.validate()
        assert mgr.attach(9, 3, Task(task_id=9, source=9)).success
        harp.validate()
        assert mgr.detach(4).success
        harp.validate()
        assert mgr.reparent(9, 1).success
        harp.validate()


def _spy_audits(monkeypatch, harp):
    """Log calls to the whole-network audit and the re-bootstrap, and
    capture what the scoped audit raises."""
    log, caught = [], []
    for name in ("validate", "rebootstrap"):
        original = getattr(harp, name)

        def spy(original=original, name=name):
            log.append(name)
            return original()

        monkeypatch.setattr(harp, name, spy)
    scoped = harp.validate_changes

    def scoped_spy():
        try:
            scoped()
        except Exception as error:
            caught.append(error)
            raise

    monkeypatch.setattr(harp, "validate_changes", scoped_spy)
    return log, caught


def _plant_during_op(monkeypatch, mgr, plant):
    """Run ``plant`` inside the next topology op, after reconciliation
    and before the audit."""
    original = mgr._reconcile_managers

    def planted(report, dirty=None):
        original(report, dirty)
        plant()

    monkeypatch.setattr(mgr, "_reconcile_managers", planted)


class TestScopedAudit:
    """The per-op audit certifies only what changed since the last
    certificate; planted faults must still reach the re-bootstrap."""

    def test_first_op_audits_whole_network(self, harp, monkeypatch):
        log, _ = _spy_audits(monkeypatch, harp)
        report = TopologyManager(harp).detach(6)
        assert not report.rebootstrapped
        assert log == ["validate"]  # nothing was being recorded yet

    def test_later_ops_skip_whole_network_audit(self, harp, monkeypatch):
        mgr = TopologyManager(harp)
        harp.validate()
        log, caught = _spy_audits(monkeypatch, harp)
        assert not mgr.detach(6).rebootstrapped
        assert not mgr.reparent(5, 1).rebootstrapped
        assert log == [] and caught == []
        harp.validate()

    def test_catches_sibling_overlap(self, harp, monkeypatch):
        mgr = TopologyManager(harp)
        harp.validate()
        log, caught = _spy_audits(monkeypatch, harp)
        sibling = harp.partitions.require(1, 2, Direction.UP)
        _plant_during_op(monkeypatch, mgr, lambda: harp.partitions.set(
            Partition(2, 2, Direction.UP, sibling.region)
        ))
        report = mgr.detach(6)
        assert report.rebootstrapped
        assert log == ["rebootstrap", "validate"]
        assert isinstance(caught[0], PartitionIsolationError)
        assert "overlap" in str(caught[0])
        harp.validate()

    def test_catches_child_escaping_parent(self, harp, monkeypatch):
        mgr = TopologyManager(harp)
        harp.validate()
        log, caught = _spy_audits(monkeypatch, harp)
        parent = harp.partitions.require(0, 2, Direction.UP).region
        outside = PlacedRect(parent.x2, 8, 3, 1)
        _plant_during_op(monkeypatch, mgr, lambda: harp.partitions.set(
            Partition(2, 2, Direction.UP, outside)
        ))
        report = mgr.detach(6)
        assert report.rebootstrapped
        assert log == ["rebootstrap", "validate"]
        assert isinstance(caught[0], PartitionIsolationError)
        assert "escapes" in str(caught[0])
        harp.validate()

    def test_catches_node_active_twice_in_a_slot(self, harp, monkeypatch):
        mgr = TopologyManager(harp)
        harp.validate()
        log, caught = _spy_audits(monkeypatch, harp)

        def plant():
            # Node 1 receives on both of these links: a second cell in
            # the slot of (4, up)'s first cell, on another channel.
            slot, channel = harp.schedule.cells_of(LinkRef(4, Direction.UP))[0]
            harp.schedule.assign(
                Cell(slot, channel + 5), LinkRef(3, Direction.UP)
            )

        _plant_during_op(monkeypatch, mgr, plant)
        report = mgr.detach(6)
        assert report.rebootstrapped
        assert log == ["rebootstrap", "validate"]
        assert isinstance(caught[0], ScheduleConflictError)
        assert caught[0].report.node_conflicts
        harp.validate()

    def test_rate_change_collision_caught_by_next_detach(
        self, harp, monkeypatch
    ):
        mgr = TopologyManager(harp)
        harp.validate()
        log, caught = _spy_audits(monkeypatch, harp)
        original = harp.request_rate_change

        def planted_rate_change(task_id, new_rate):
            report = original(task_id, new_rate)
            cell = harp.schedule.cells_of(LinkRef(6, Direction.UP))[0]
            harp.schedule.assign(cell, LinkRef(3, Direction.DOWN))
            return report

        monkeypatch.setattr(harp, "request_rate_change", planted_rate_change)
        assert mgr.apply_event("rate_change", 6, rate=2.0).success
        assert log == []  # a rate change certifies nothing by itself
        # Node 5 hangs under node 2: the detach never reschedules the
        # links the collision was planted on.
        report = mgr.detach(5)
        assert report.rebootstrapped
        assert log == ["rebootstrap", "validate"]
        assert isinstance(caught[0], ScheduleConflictError)
        assert caught[0].report.cell_conflicts
        harp.validate()


class TestScale:
    def test_random_reparents_on_larger_network(self):
        topo = layered_random_tree(30, 4, random.Random(3))
        harp = HarpNetwork(
            topo, e2e_task_per_node(topo), SlotframeConfig(num_slots=299),
            case1_slack=1, distribute_slack=True,
        )
        harp.allocate()
        mgr = TopologyManager(harp)
        rng = random.Random(7)
        changes = 0
        for _ in range(6):
            nodes = [n for n in harp.topology.device_nodes
                     if harp.topology.depth_of(n) >= 2]
            node = rng.choice(nodes)
            subtree = set(harp.topology.subtree_nodes(node))
            candidates = [
                n for n in harp.topology.nodes
                if n not in subtree
                and harp.topology.depth_of(n) < harp.topology.max_layer
            ]
            new_parent = rng.choice(candidates)
            if harp.topology.parent_of(node) == new_parent:
                continue
            report = mgr.reparent(node, new_parent)
            assert report.success
            harp.validate()
            changes += 1
        assert changes >= 3

"""Unit tests for distributed schedule generation (Sec. IV-D)."""

import pytest

from repro.core import link_sched
from repro.core.allocation import allocate_partitions
from repro.core.interface_gen import generate_interfaces
from repro.core.link_sched import (
    ScheduleGenerationError,
    build_schedule,
    edf_priority,
    id_priority,
    partition_cells,
    rate_monotonic_priority,
    schedule_node_links,
)
from repro.core.partition import Partition
from repro.net.slotframe import Cell, SlotframeConfig
from repro.net.tasks import Task, TaskSet, e2e_task_per_node
from repro.net.topology import Direction, LinkRef, TreeTopology
from repro.packing.geometry import PlacedRect


@pytest.fixture
def tree():
    return TreeTopology({1: 0, 2: 0, 3: 1})


@pytest.fixture
def config():
    return SlotframeConfig(num_slots=40, num_channels=8)


class TestPartitionCells:
    def test_slot_major_enumeration(self, config):
        part = Partition(1, 1, Direction.UP, PlacedRect(10, 2, 2, 2))
        cells = partition_cells(part, config)
        assert cells == [Cell(10, 2), Cell(10, 3), Cell(11, 2), Cell(11, 3)]

    def test_wrap_slots(self, config):
        part = Partition(1, 1, Direction.UP, PlacedRect(39, 0, 3, 1))
        cells = partition_cells(part, config, wrap_slots=40)
        assert [c.slot for c in cells] == [39, 0, 1]

    @pytest.mark.parametrize("wrap_slots", [None, 40])
    def test_limit_is_a_prefix(self, config, wrap_slots):
        part = Partition(1, 1, Direction.UP, PlacedRect(36, 2, 7, 3))
        full = partition_cells(part, config, wrap_slots)
        for limit in range(len(full) + 3):
            assert partition_cells(part, config, wrap_slots, limit) == (
                full[:limit]
            )

    @pytest.mark.parametrize("wrap_slots", [None, 40])
    @pytest.mark.parametrize("interleave", [False, True])
    @pytest.mark.parametrize("distribute_idle", [False, True])
    def test_assignment_unchanged_by_prefix_enumeration(
        self, tree, config, monkeypatch, wrap_slots, interleave,
        distribute_idle,
    ):
        """Handing out cells from the enumerated prefix gives the same
        assignment as enumerating the whole partition."""
        part = Partition(0, 1, Direction.UP, PlacedRect(36, 2, 7, 3))
        demands = {1: 4, 2: 3}

        def assign():
            return schedule_node_links(
                tree, 0, Direction.UP, part, demands, config,
                id_priority(), wrap_slots, distribute_idle, interleave,
            )

        prefix = assign()
        whole = link_sched.partition_cells
        monkeypatch.setattr(
            link_sched, "partition_cells",
            lambda partition, config, wrap_slots=None, limit=None: whole(
                partition, config, wrap_slots
            ),
        )
        assert assign() == prefix


class TestPriorities:
    def test_rate_monotonic_orders_by_period(self, tree):
        tasks = TaskSet([
            Task(task_id=1, source=1, rate=1.0, echo=False),
            Task(task_id=2, source=2, rate=4.0, echo=False),
        ])
        priority = rate_monotonic_priority(tasks)
        fast = priority(tree, LinkRef(2, Direction.UP))
        slow = priority(tree, LinkRef(1, Direction.UP))
        assert fast < slow  # higher rate = shorter period = earlier cells

    def test_rate_monotonic_deltas_match_fresh_build(self, tree):
        tasks = TaskSet([
            Task(task_id=1, source=1, rate=1.0),
            Task(task_id=3, source=3, rate=4.0),
            Task(task_id=2, source=2, rate=2.0),
        ])
        priority = rate_monotonic_priority(tasks)
        priority(tree, LinkRef(1, Direction.UP))  # build the table
        # Task 3 held link 1's unique minimum; slowing it down forces a
        # recompute from what is left on the link.
        slower = tasks.with_rate(3, 0.5)
        priority.change_rate(tree, tasks, slower, 3)
        moved = tree.with_reparented(3, 2)
        priority.apply_change("reparent", 3, tree, moved, slower, slower)
        fresh = rate_monotonic_priority(slower)
        for link in moved.links():
            assert priority(moved, link) == fresh(moved, link)

    def test_edf_priority(self, tree):
        priority = edf_priority({1: 5.0, 2: 1.0})
        assert priority(tree, LinkRef(2, Direction.UP)) < priority(
            tree, LinkRef(1, Direction.UP)
        )

    def test_id_priority_deterministic(self, tree):
        priority = id_priority()
        assert priority(tree, LinkRef(1, Direction.UP)) < priority(
            tree, LinkRef(2, Direction.UP)
        )


class TestScheduleNodeLinks:
    def test_demands_met_exactly(self, tree, config):
        part = Partition(0, 1, Direction.UP, PlacedRect(0, 0, 6, 1))
        assignment = schedule_node_links(
            tree, 0, Direction.UP, part, {1: 2, 2: 3}, config, id_priority()
        )
        assert len(assignment[1]) == 2
        assert len(assignment[2]) == 3
        all_cells = assignment[1] + assignment[2]
        assert len(set(all_cells)) == 5

    def test_higher_priority_gets_earlier_cells(self, tree, config):
        tasks = TaskSet([
            Task(task_id=1, source=1, rate=1.0, echo=False),
            Task(task_id=2, source=2, rate=4.0, echo=False),
        ])
        part = Partition(0, 1, Direction.UP, PlacedRect(0, 0, 6, 1))
        assignment = schedule_node_links(
            tree, 0, Direction.UP, part, {1: 1, 2: 1}, config,
            rate_monotonic_priority(tasks),
        )
        assert assignment[2][0].slot < assignment[1][0].slot

    def test_overflowing_demand_raises(self, tree, config):
        part = Partition(0, 1, Direction.UP, PlacedRect(0, 0, 2, 1))
        with pytest.raises(ScheduleGenerationError):
            schedule_node_links(
                tree, 0, Direction.UP, part, {1: 2, 2: 2}, config,
                id_priority(),
            )


class TestBuildSchedule:
    def test_collision_free_end_to_end(self, tree, config):
        tasks = e2e_task_per_node(tree, rate=1.0)
        demands = tasks.link_demands(tree)
        tables = {
            d: generate_interfaces(tree, demands, d, config.num_channels)
            for d in (Direction.UP, Direction.DOWN)
        }
        partitions, _ = allocate_partitions(tree, tables, config)
        schedule = build_schedule(tree, partitions, demands, config)
        schedule.validate_collision_free(tree)
        # Every link got exactly its demand.
        for link, count in demands.items():
            assert len(schedule.cells_of(link)) == count

    def test_cells_inside_owning_partition(self, tree, config):
        tasks = e2e_task_per_node(tree, rate=1.0)
        demands = tasks.link_demands(tree)
        tables = {
            d: generate_interfaces(tree, demands, d, config.num_channels)
            for d in (Direction.UP, Direction.DOWN)
        }
        partitions, _ = allocate_partitions(tree, tables, config)
        schedule = build_schedule(tree, partitions, demands, config)
        for link in schedule.links:
            parent = tree.parent_of(link.child)
            part = partitions.get(
                parent, tree.node_layer(parent), link.direction
            )
            for cell in schedule.cells_of(link):
                assert part.region.contains_cell(cell.slot, cell.channel)

    def test_missing_partition_raises(self, tree, config):
        from repro.core.partition import PartitionTable

        demands = {LinkRef(1, Direction.UP): 1}
        with pytest.raises(ScheduleGenerationError):
            build_schedule(tree, PartitionTable(), demands, config)

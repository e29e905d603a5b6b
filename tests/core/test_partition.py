"""Unit tests for partitions and the partition table."""

import pytest

from repro.core.partition import (
    Partition,
    PartitionIsolationError,
    PartitionTable,
)
from repro.net.topology import Direction, TreeTopology
from repro.packing.geometry import PlacedRect


@pytest.fixture
def tree():
    return TreeTopology({1: 0, 2: 0, 3: 1})


def make_partition(owner, layer, x, width, y=0, height=1,
                   direction=Direction.UP):
    return Partition(owner, layer, direction, PlacedRect(x, y, width, height))


class TestPartition:
    def test_paper_notation_fields(self):
        part = make_partition(3, 2, x=10, width=5, y=2, height=3)
        assert part.start_slot == 10
        assert part.start_channel == 2
        assert part.n_slots == 5
        assert part.n_channels == 3
        assert part.capacity == 15

    def test_key(self):
        part = make_partition(3, 2, 0, 1)
        assert part.key == (3, 2, Direction.UP)

    def test_moved_to(self):
        part = make_partition(3, 2, 0, 5)
        moved = part.moved_to(PlacedRect(7, 1, 5, 1))
        assert moved.start_slot == 7
        assert moved.owner == 3


class TestPartitionTable:
    def test_set_get_remove(self):
        table = PartitionTable()
        part = make_partition(1, 2, 0, 3)
        table.set(part)
        assert table.get(1, 2, Direction.UP) == part
        assert table.get(1, 2, Direction.DOWN) is None
        table.remove(1, 2, Direction.UP)
        assert table.get(1, 2, Direction.UP) is None

    def test_require_raises(self):
        with pytest.raises(KeyError):
            PartitionTable().require(1, 1, Direction.UP)

    def test_of_node_and_at_layer(self):
        table = PartitionTable()
        table.set(make_partition(1, 1, 0, 2))
        table.set(make_partition(1, 2, 2, 2))
        table.set(make_partition(2, 2, 4, 2))
        assert len(table.of_node(1)) == 2
        assert [p.owner for p in table.at_layer(2, Direction.UP)] == [1, 2]

    def test_roll_back_undoes_sets_and_removes(self):
        table = PartitionTable()
        table.set(make_partition(1, 1, 0, 2))
        table.set(make_partition(1, 2, 2, 2))
        before = {p.key: p for p in table}
        table.undo = []
        table.set(make_partition(2, 1, 2, 2))
        table.set(make_partition(1, 1, 4, 2))
        table.remove(1, 2, Direction.UP)
        table.set(make_partition(1, 2, 6, 2))
        table.roll_back()
        assert table.undo is None
        assert {p.key: p for p in table} == before
        assert table.of_node(1) == [before[k] for k in sorted(before)]
        assert table.of_node(2) == []

    def test_iteration_sorted(self):
        table = PartitionTable()
        table.set(make_partition(2, 1, 0, 1))
        table.set(make_partition(1, 1, 1, 1))
        assert [p.owner for p in table] == [1, 2]


class TestIsolationInvariants:
    def test_valid_nesting_passes(self, tree):
        table = PartitionTable()
        table.set(make_partition(0, 1, 0, 4))
        table.set(make_partition(0, 2, 4, 4))
        table.set(make_partition(1, 2, 4, 2))
        table.set(make_partition(2, 2, 6, 2))
        table.validate_isolation(tree)

    def test_gateway_overlap_detected(self, tree):
        table = PartitionTable()
        table.set(make_partition(0, 1, 0, 4))
        table.set(make_partition(0, 2, 3, 4))
        with pytest.raises(PartitionIsolationError):
            table.validate_isolation(tree)

    def test_child_escaping_parent_detected(self, tree):
        table = PartitionTable()
        table.set(make_partition(0, 2, 0, 4))
        table.set(make_partition(1, 2, 3, 3))  # x2=6 > parent's 4
        with pytest.raises(PartitionIsolationError):
            table.validate_isolation(tree)

    def test_missing_parent_partition_detected(self, tree):
        table = PartitionTable()
        table.set(make_partition(1, 2, 0, 2))
        with pytest.raises(PartitionIsolationError):
            table.validate_isolation(tree)

    def test_sibling_overlap_detected(self, tree):
        table = PartitionTable()
        table.set(make_partition(0, 2, 0, 8))
        table.set(make_partition(1, 2, 0, 3))
        table.set(make_partition(2, 2, 2, 3))
        with pytest.raises(PartitionIsolationError):
            table.validate_isolation(tree)

    def test_siblings_stacked_on_channels_ok(self, tree):
        table = PartitionTable()
        table.set(Partition(0, 2, Direction.UP, PlacedRect(0, 0, 4, 2)))
        table.set(Partition(1, 2, Direction.UP, PlacedRect(0, 0, 4, 1)))
        table.set(Partition(2, 2, Direction.UP, PlacedRect(0, 1, 4, 1)))
        table.validate_isolation(tree)

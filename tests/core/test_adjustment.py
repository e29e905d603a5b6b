"""Unit tests for dynamic partition adjustment (Sec. V, Alg. 2)."""

import pytest

from repro.core.component import ResourceComponent
from repro.core.manager import HarpNetwork
from repro.core.partition import Partition
from repro.net.slotframe import SlotframeConfig
from repro.net.tasks import e2e_task_per_node
from repro.net.topology import Direction, TreeTopology, balanced_tree_with_layers
from repro.packing.geometry import PlacedRect


@pytest.fixture
def tree():
    # 0 -> {1, 2}; 1 -> {3, 4}; 2 -> {5, 6}; 3 -> 7
    return TreeTopology({1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2, 7: 3})


def make_harp(tree, num_slots=80, **kwargs):
    config = SlotframeConfig(num_slots=num_slots, num_channels=16)
    harp = HarpNetwork(
        tree, e2e_task_per_node(tree, rate=1.0), config, **kwargs
    )
    harp.allocate()
    return harp


class TestLocalAbsorption:
    def test_fits_in_region_is_local(self, tree):
        harp = make_harp(tree, distribute_slack=True)
        comp = harp.tables[Direction.UP].component(3, 3)
        region = harp.partitions.get(3, 3, Direction.UP).region
        if region.width > comp.n_slots:
            outcome = harp.adjuster.request_component_increase(
                3, 3, Direction.UP, region.width
            )
            assert outcome.case == "local-schedule"
            assert outcome.partition_messages == 0
            harp.validate()

    def test_release_never_moves_partitions(self, tree):
        harp = make_harp(tree)
        before = {p.key: p.region for p in harp.partitions}
        outcome = harp.adjuster.release_component(1, 2, Direction.UP, 1)
        assert outcome.partition_messages == 0
        after = {p.key: p.region for p in harp.partitions}
        assert before == after


class TestEscalation:
    def test_growth_succeeds_and_stays_valid(self, tree):
        harp = make_harp(tree)
        comp = harp.tables[Direction.UP].component(1, 2)
        outcome = harp.adjuster.request_component_increase(
            1, 2, Direction.UP, comp.n_slots + 2
        )
        assert outcome.success
        harp.validate()
        # The component now reflects the new size.
        assert harp.tables[Direction.UP].component(1, 2).n_slots >= comp.n_slots + 2
        # The in-force region holds it.
        region = harp.partitions.get(1, 2, Direction.UP).region
        assert region.width >= comp.n_slots + 2

    def test_messages_flow_through_plane(self, tree):
        harp = make_harp(tree)
        before = harp.plane.stats.total_messages
        comp = harp.tables[Direction.UP].component(3, 3)
        outcome = harp.adjuster.request_component_increase(
            3, 3, Direction.UP, comp.n_slots + 2
        )
        sent = harp.plane.stats.total_messages - before
        assert sent == outcome.partition_messages
        assert outcome.elapsed_slots > 0 or outcome.partition_messages == 0

    def test_involved_nodes_contains_path(self, tree):
        harp = make_harp(tree)
        comp = harp.tables[Direction.UP].component(3, 3)
        outcome = harp.adjuster.request_component_increase(
            3, 3, Direction.UP, comp.n_slots + 3
        )
        assert 3 in outcome.involved_nodes
        if outcome.layers_climbed:
            assert 1 in outcome.involved_nodes

    def test_channel_growth_on_composed_component(self, tree):
        harp = make_harp(tree)
        comp = harp.tables[Direction.UP].component(1, 3)
        outcome = harp.adjuster.request_component_increase(
            1, 3, Direction.UP, comp.n_slots, comp.n_channels + 1
        )
        assert outcome.success
        harp.validate()

    def test_case1_channel_growth_rejected(self, tree):
        harp = make_harp(tree)
        with pytest.raises(ValueError):
            harp.adjuster.request_component_increase(
                1, 2, Direction.UP, 5, 2
            )

    def test_schedule_still_satisfies_demands(self, tree):
        harp = make_harp(tree)
        comp = harp.tables[Direction.UP].component(2, 2)
        harp.adjuster.request_component_increase(
            2, 2, Direction.UP, comp.n_slots + 2
        )
        for link, demand in harp.link_demands.items():
            assert len(harp.schedule.cells_of(link)) >= demand


class TestRejection:
    def test_impossible_growth_rolls_back(self, tree):
        harp = make_harp(tree, num_slots=24)
        before_regions = {p.key: p.region for p in harp.partitions}
        before_comp = harp.tables[Direction.UP].component(1, 2)
        outcome = harp.adjuster.request_component_increase(
            1, 2, Direction.UP, 1000
        )
        assert not outcome.success
        assert outcome.case == "rejected"
        after_regions = {p.key: p.region for p in harp.partitions}
        assert before_regions == after_regions
        assert (
            harp.tables[Direction.UP].component(1, 2).n_slots
            == before_comp.n_slots
        )
        harp.validate()

    def test_rollback_after_a_set_restores_both_indexes(
        self, tree, monkeypatch
    ):
        """A gateway strategy that moves partitions before giving up:
        the rollback must restore the per-owner index as well as the
        table, or ``of_node`` keeps serving the abandoned regions."""
        harp = make_harp(tree, num_slots=24)
        adjuster = harp.adjuster
        partitions = harp.partitions
        before = {node: partitions.of_node(node) for node in tree.nodes}

        def relocate_then_fail(direction, outcome, trigger_layer, component):
            moved = partitions.require(1, 2, direction)
            partitions.set(moved.moved_to(PlacedRect(20, 9, 1, 1)))
            partitions.set(Partition(4, 2, direction, PlacedRect(21, 9, 1, 1)))
            return False

        monkeypatch.setattr(adjuster, "_gateway_relocate", relocate_then_fail)
        monkeypatch.setattr(
            adjuster, "_gateway_sequential", lambda *args: False
        )
        outcome = adjuster.request_component_increase(
            1, 2, Direction.UP, 1000
        )
        assert outcome.case == "rejected"
        assert {node: partitions.of_node(node) for node in tree.nodes} == before
        harp.validate()


    def test_rollback_restores_every_index_key_by_key(
        self, tree, monkeypatch
    ):
        """Gateway strategies that write a component, a layout and both
        kinds of partition edit before giving up: after the rejection
        every index equals a copy taken before the request."""
        harp = make_harp(tree, num_slots=24)
        adjuster = harp.adjuster
        partitions = harp.partitions
        table = harp.tables[Direction.UP]

        def indexes():
            return {
                "interfaces": {
                    direction: {
                        node: dict(interface.components)
                        for node, interface in t.interfaces.items()
                    }
                    for direction, t in harp.tables.items()
                },
                "layouts": {
                    direction: {key: dict(layout) for key, layout in t.layouts.items()}
                    for direction, t in harp.tables.items()
                },
                "table": dict(partitions._table),
                "by_owner": {
                    owner: dict(owned)
                    for owner, owned in partitions._by_owner.items()
                },
                "of_node": {node: partitions.of_node(node) for node in tree.nodes},
            }

        before = indexes()
        assert 7 not in table.interfaces  # a leaf: the write creates one
        assert not table.has_component(1, 4)

        def write_then_fail(direction, outcome, trigger_layer, component):
            table.set_component(ResourceComponent(2, 2, 9, 2))
            table.set_component(ResourceComponent(1, 4, 3, 1))
            table.set_component(ResourceComponent(7, 4, 1, 1))
            table.set_layout(2, 3, {5: PlacedRect(0, 0, 1, 1, 5)})
            table.set_layout(4, 9, {})
            moved = partitions.require(2, 2, direction)
            partitions.set(moved.moved_to(PlacedRect(20, 9, 1, 1)))
            partitions.set(Partition(4, 2, direction, PlacedRect(21, 9, 1, 1)))
            partitions.remove(1, 2, direction)
            partitions.set(Partition(1, 2, direction, PlacedRect(22, 9, 1, 1)))
            partitions.remove(0, 1, direction)
            return False

        monkeypatch.setattr(adjuster, "_gateway_relocate", write_then_fail)
        monkeypatch.setattr(
            adjuster, "_gateway_sequential", lambda *args: False
        )
        outcome = adjuster.request_component_increase(
            1, 2, Direction.UP, 1000
        )
        assert outcome.case == "rejected"
        after = indexes()
        for name in before:
            assert after[name] == before[name], name
        assert table.undo is None and partitions.undo is None
        harp.validate()

    def test_requests_leave_no_open_undo_log(self, tree):
        """The undo log lives for one request only: a success, a Case-1
        update and a rejection all close it, so nothing grows across
        operations."""
        harp = make_harp(tree, num_slots=80)
        adjuster = harp.adjuster
        table = harp.tables[Direction.UP]
        comp = table.component(1, 2)
        grown = adjuster.request_component_increase(
            1, 2, Direction.UP, comp.n_slots + 2
        )
        assert grown.success and grown.case != "local-schedule"
        assert table.undo is None and harp.partitions.undo is None
        comp = table.component(3, 3)
        local = adjuster.request_component_increase(
            3, 3, Direction.UP, comp.n_slots
        )
        assert local.case == "local-schedule"
        assert table.undo is None and harp.partitions.undo is None
        rejected = adjuster.request_component_increase(
            1, 2, Direction.UP, 1000
        )
        assert rejected.case == "rejected"
        assert table.undo is None and harp.partitions.undo is None
        harp.validate()


class TestGatewayCases:
    def test_gateway_own_row_growth(self, tree):
        harp = make_harp(tree)
        comp = harp.tables[Direction.UP].component(0, 1)
        outcome = harp.adjuster.request_component_increase(
            0, 1, Direction.UP, comp.n_slots + 2
        )
        assert outcome.success
        assert outcome.case in ("local-schedule", "gateway-local")
        harp.validate()

    def test_repeated_growth_remains_consistent(self, tree):
        harp = make_harp(tree)
        for extra in (1, 2, 3):
            comp = harp.tables[Direction.UP].component(3, 3)
            outcome = harp.adjuster.request_component_increase(
                3, 3, Direction.UP, comp.n_slots + 1
            )
            assert outcome.success
            harp.validate()


class TestScaleScenario:
    def test_many_adjustments_on_testbed_tree(self):
        topo = balanced_tree_with_layers([6, 8, 8, 6])
        harp = make_harp(topo, num_slots=199, distribute_slack=True)
        table = harp.tables[Direction.UP]
        grown = 0
        for node in topo.non_leaf_nodes():
            layer = topo.node_layer(node)
            if node == topo.gateway_id or not table.has_component(node, layer):
                continue
            comp = table.component(node, layer)
            outcome = harp.adjuster.request_component_increase(
                node, layer, Direction.UP, comp.n_slots + 1
            )
            if outcome.success:
                grown += 1
            harp.validate()
        assert grown > 0

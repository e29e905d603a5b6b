"""Dynamic partition adjustment (Sec. V, Problems 2–3, Algorithm 2).

When a link's cell requirement grows, its managing node first tries to
absorb the change inside its current partition (schedule update, Case 1).
Otherwise it sends its parent a PUT-intf with the enlarged component and
the request climbs the tree until some ancestor can restructure its own
partition to fit it (Case 2) — in the worst case the gateway re-places
its top-level partitions.

At each ancestor the *feasibility test* (Problem 2) and the *cost-aware
adjustment* (Problem 3 / Alg. 2) run:

1. try to place the grown component into the idle area around the
   sibling partitions (zero siblings moved);
2. failing that, repeatedly evict the sibling partition *closest* to the
   grown one and retry — a consecutive idle region accommodates a set of
   partitions more easily, and evicting near neighbours first keeps the
   number of moved partitions (hence downstream PUT-part storms) small;
3. failing everything, fall back to a full re-pack with the best-fit
   skyline heuristic (the RPP of Problem 2); if even that fails, escalate.

Every moved partition is propagated to the owning subtree: a PUT-part per
notified node, then either deeper propagation (translated or freshly
recomposed layouts) or a local reschedule at the layer's managing nodes.
All messages flow through the management plane so that counts and timing
(Table II, Fig. 12) come out of the same mechanism that delivers them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Set, Tuple

from ..net.protocol.messages import PutInterface, PutPartition
from ..net.protocol.transport import ManagementPlane
from ..net.slotframe import SlotframeConfig
from ..net.topology import Direction, TreeTopology
from ..packing.composition import CompositionCache
from ..packing.free_space import pack_with_obstacles
from ..packing.geometry import PlacedRect, Rect
from ..packing.rpp import can_pack
from .component import ResourceComponent
from .interface_gen import InterfaceTable, recompose_at
from .partition import Partition, PartitionKey, PartitionTable

#: Callback regenerating one node's local link schedule after its
#: scheduling partition changed; returns the number of schedule-update
#: messages sent to children (typically the node's changed link count).
Rescheduler = Callable[[int, Direction], int]


@dataclass
class AdjustmentOutcome:
    """Everything the evaluation reports about one adjustment (Table II)."""

    owner: int
    layer: int
    direction: Direction
    success: bool = True
    case: str = "no-change"
    put_intf_messages: int = 0
    put_part_messages: int = 0
    schedule_update_messages: int = 0
    layers_climbed: int = 0
    involved_nodes: Set[int] = field(default_factory=set)
    moved_partitions: List[PartitionKey] = field(default_factory=list)
    start_slot: int = 0
    end_slot: int = 0

    @property
    def partition_messages(self) -> int:
        """HARP protocol messages (PUT-intf + PUT-part)."""
        return self.put_intf_messages + self.put_part_messages

    @property
    def total_messages(self) -> int:
        """All management packets including schedule updates."""
        return self.partition_messages + self.schedule_update_messages

    @property
    def elapsed_slots(self) -> int:
        """Virtual time the adjustment took."""
        return self.end_slot - self.start_slot

    def elapsed_seconds(self, config: SlotframeConfig) -> float:
        """Adjustment latency in seconds (Table II 'Time')."""
        return self.elapsed_slots * config.slot_duration_s

    def elapsed_slotframes(self, config: SlotframeConfig) -> int:
        """Whole slotframes spanned (Table II 'SF')."""
        return -(-self.elapsed_slots // config.num_slots)

    _depths: List[int] = field(default_factory=list, repr=False)

    @property
    def layers_involved(self) -> int:
        """Distinct tree layers the involved nodes span."""
        return len(set(self._depths))


class PartitionAdjuster:
    """Stateful executor of dynamic partition adjustments.

    Mutates the interface tables and the partition table in place; on a
    rejected request (insufficient network resources) all state is rolled
    back so the network keeps its previous feasible configuration.
    """

    #: Available Alg. 2 eviction orders.  ``closest`` is the paper's
    #: heuristic (consecutive idle areas form fastest around the grown
    #: partition); ``random`` is the naive alternative the paper's
    #: wording also mentions; ``farthest`` and ``largest`` are
    #: counter-heuristics for the ablation benchmark.
    EVICTION_POLICIES = ("closest", "random", "farthest", "largest")

    def __init__(
        self,
        topology: TreeTopology,
        tables: Mapping[Direction, InterfaceTable],
        partitions: PartitionTable,
        config: SlotframeConfig,
        plane: ManagementPlane,
        rescheduler: Rescheduler,
        allow_overflow: bool = False,
        eviction_policy: str = "closest",
        rng: Optional[random.Random] = None,
        composition_cache: Optional[CompositionCache] = None,
    ) -> None:
        if eviction_policy not in self.EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {eviction_policy!r}; "
                f"choose from {self.EVICTION_POLICIES}"
            )
        self.topology = topology
        self.tables = dict(tables)
        self.partitions = partitions
        self.config = config
        self.plane = plane
        self.rescheduler = rescheduler
        self.allow_overflow = allow_overflow
        self.eviction_policy = eviction_policy
        self.rng = rng or random.Random(0)
        self.composition_cache = composition_cache

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def request_component_increase(
        self,
        owner: int,
        layer: int,
        direction: Direction,
        n_slots: int,
        n_channels: int = 1,
    ) -> AdjustmentOutcome:
        """Grow subtree ``owner``'s component at ``layer`` to
        ``[n_slots, n_channels]`` (the Table II event format, e.g.
        ``C_{5,2}: [1,1] -> [3,1]``) and reconfigure the network.

        Returns the adjustment report; on failure the previous state is
        restored and ``success`` is False.

        The interface and partition tables log the prior value of every
        key this request writes; a rejection replays that undo log, and
        the log is dropped when the request returns.
        """
        if layer == self.topology.node_layer(owner) and n_channels > 1:
            raise ValueError(
                f"Case-1 component of node {owner} at its own layer {layer} "
                "must stay one channel tall: its links share the half-duplex "
                "node and can never occupy the same slot"
            )
        table = self.tables[direction]
        table.undo = []
        self.partitions.undo = []
        try:
            return self._increase(table, owner, layer, direction, n_slots, n_channels)
        finally:
            table.undo = self.partitions.undo = None

    def _increase(
        self,
        table: InterfaceTable,
        owner: int,
        layer: int,
        direction: Direction,
        n_slots: int,
        n_channels: int,
    ) -> AdjustmentOutcome:
        """:meth:`request_component_increase` with the undo logs open."""
        outcome = AdjustmentOutcome(
            owner=owner,
            layer=layer,
            direction=direction,
            start_slot=self.plane.now_slot,
        )
        outcome.involved_nodes.add(owner)

        current_part = self.partitions.get(owner, layer, direction)
        table.set_component(ResourceComponent(owner, layer, n_slots, n_channels))

        # Case 1: the enlarged component still fits the current region.
        if (
            current_part is not None
            and n_slots <= current_part.region.width
            and n_channels <= current_part.region.height
        ):
            outcome.case = "local-schedule"
            if layer == self.topology.node_layer(owner):
                outcome.schedule_update_messages += self.rescheduler(
                    owner, direction
                )
            outcome.end_slot = self.plane.now_slot
            self._finalize_depths(outcome)
            return outcome

        # Case 2: climb until some ancestor accommodates the component.
        current = owner
        comp_rect = Rect(n_slots, n_channels, tag=owner)
        while True:
            if current == self.topology.gateway_id:
                # The gateway's own component changed (e.g. its Case-1
                # row at layer 1): resize its top-level layout directly.
                if self._gateway_resize(direction, outcome, layer):
                    outcome.case = "gateway-local"
                else:
                    table.roll_back()
                    self.partitions.roll_back()
                    outcome.success = False
                    outcome.case = "rejected"
                break
            parent = self.topology.parent_of(current)
            outcome.put_intf_messages += 1
            outcome.layers_climbed += 1
            outcome.involved_nodes.update((current, parent))
            self.plane.deliver(
                PutInterface(
                    src=current,
                    dst=parent,
                    layer=layer,
                    direction=direction,
                    n_slots=comp_rect.width,
                    n_channels=comp_rect.height,
                )
            )
            fit = self._fit_within(parent, layer, direction, current, comp_rect)
            if fit is not None:
                self._apply_fit(parent, layer, direction, fit, outcome)
                outcome.case = (
                    "parent-fit" if outcome.layers_climbed == 1 else "escalated"
                )
                break
            if parent == self.topology.gateway_id:
                # Only the gateway can grow a partition's region: extend
                # its layer partition and move just the grown child in.
                if self._gateway_resize(
                    direction, outcome, layer,
                    grown_child=current, grown_rect=comp_rect,
                ):
                    outcome.case = "gateway-resize"
                else:
                    table.roll_back()
                    self.partitions.roll_back()
                    outcome.success = False
                    outcome.case = "rejected"
                break
            # Parent cannot fit it: recompose and forward upward.  Pass
            # the sibling partitions' in-force sizes so slack-stretched
            # branches are not shrunk beneath their interior layouts; the
            # requester itself uses its new (grown) component size.
            region_sizes = {
                child: (part.region.width, part.region.height)
                for child in self.topology.children_of(parent)
                if child != current
                for part in [self.partitions.get(child, layer, direction)]
                if part is not None
            }
            component = recompose_at(
                self.topology, table, parent, layer,
                self.config.num_channels, region_sizes,
                cache=self.composition_cache,
            )
            comp_rect = component.to_rect()
            current = parent

        outcome.end_slot = self.plane.now_slot
        self._finalize_depths(outcome)
        return outcome

    def release_component(
        self, owner: int, layer: int, direction: Direction, n_slots: int,
        n_channels: int = 1,
    ) -> AdjustmentOutcome:
        """Shrink a component in place (rate decreases, Sec. V intro).

        The parent "readily releases the corresponding cells" — the
        partition region is left untouched (it simply has idle cells),
        so no partition messages are needed; only the local schedule is
        rebuilt.
        """
        outcome = AdjustmentOutcome(
            owner=owner,
            layer=layer,
            direction=direction,
            case="release",
            start_slot=self.plane.now_slot,
        )
        outcome.involved_nodes.add(owner)
        table = self.tables[direction]
        table.set_component(ResourceComponent(owner, layer, n_slots, n_channels))
        if layer == self.topology.node_layer(owner):
            outcome.schedule_update_messages += self.rescheduler(owner, direction)
        outcome.end_slot = self.plane.now_slot
        self._finalize_depths(outcome)
        return outcome

    # ------------------------------------------------------------------
    # feasibility + Alg. 2
    # ------------------------------------------------------------------

    def _fit_within(
        self,
        parent: int,
        layer: int,
        direction: Direction,
        grown_child: int,
        comp_rect: Rect,
    ) -> Optional[Dict[int, PlacedRect]]:
        """Try to lay out all of ``parent``'s layer-``layer`` child
        partitions, with ``grown_child`` enlarged, inside the parent's
        existing partition.  Returns child -> absolute region, or None.
        """
        parent_part = self.partitions.get(parent, layer, direction)
        if parent_part is None:
            return None
        region = parent_part.region

        fixed: Dict[int, PlacedRect] = {}
        for child in self.topology.children_of(parent):
            if child == grown_child:
                continue
            part = self.partitions.get(child, layer, direction)
            if part is not None:
                fixed[child] = part.region
        old_grown = self.partitions.get(grown_child, layer, direction)
        anchor = old_grown.region if old_grown is not None else region
        layout = self._alg2_fit(region, fixed, comp_rect, anchor)
        if layout is None:
            return None
        return {int(tag): placed for tag, placed in layout.items()}

    def _alg2_fit(
        self,
        region: PlacedRect,
        fixed: Dict[Hashable, PlacedRect],
        comp_rect: Rect,
        anchor: PlacedRect,
    ) -> Optional[Dict[Hashable, PlacedRect]]:
        """Algorithm 2 over a generic container.

        ``fixed`` maps sibling tags to their current absolute regions;
        ``comp_rect`` is the grown component (tagged); ``anchor`` is the
        grown partition's previous region (eviction proximity reference).
        Returns tag -> absolute region for *all* partitions, or None.
        """
        # Alg. 2 main loop: grow the moved set from the nearest neighbour
        # outward until the moved components fit the idle space.
        moved: List[Rect] = [comp_rect]
        remaining = dict(fixed)
        while True:
            layout = pack_with_obstacles(
                moved, region, obstacles=list(remaining.values())
            )
            if layout is not None:
                result: Dict[Hashable, PlacedRect] = dict(remaining)
                result.update(layout)
                return result
            if not remaining:
                break
            victim = self._pick_victim(remaining, anchor)
            rect = remaining.pop(victim)
            moved.append(Rect(rect.width, rect.height, tag=victim))

        # Line 15: full re-pack of every partition (the RPP of Sec. V-A).
        all_rects = [comp_rect] + [
            Rect(r.width, r.height, tag=c) for c, r in fixed.items()
        ]
        feasibility = can_pack(all_rects, region.width, region.height)
        if not feasibility.feasible:
            return None
        return {
            tag: placed.translated(region.x, region.y)
            for tag, placed in feasibility.layout.items()
        }

    def _pick_victim(
        self, remaining: Dict[Hashable, PlacedRect], anchor: PlacedRect
    ) -> Hashable:
        """Next partition to evict, per the configured policy."""
        if self.eviction_policy == "random":
            return self.rng.choice(sorted(remaining, key=repr))
        if self.eviction_policy == "farthest":
            return max(
                remaining,
                key=lambda c: (remaining[c].distance_to(anchor), repr(c)),
            )
        if self.eviction_policy == "largest":
            return max(
                remaining, key=lambda c: (remaining[c].area, repr(c))
            )
        return min(
            remaining,
            key=lambda c: (remaining[c].distance_to(anchor), repr(c)),
        )

    # ------------------------------------------------------------------
    # applying layouts and propagating downward
    # ------------------------------------------------------------------

    def _apply_fit(
        self,
        parent: int,
        layer: int,
        direction: Direction,
        new_layout: Dict[int, PlacedRect],
        outcome: AdjustmentOutcome,
    ) -> None:
        """Install ``new_layout`` under ``parent`` and notify children."""
        parent_part = self.partitions.require(parent, layer, direction)
        region = parent_part.region
        table = self.tables[direction]
        table.set_layout(
            parent,
            layer,
            {
                child: PlacedRect(
                    r.x - region.x, r.y - region.y, r.width, r.height, child
                )
                for child, r in new_layout.items()
            },
        )
        for child in sorted(new_layout):
            child_region = new_layout[child]
            old = self.partitions.get(child, layer, direction)
            if old is not None and old.region == child_region:
                continue
            outcome.put_part_messages += 1
            outcome.involved_nodes.add(child)
            outcome.moved_partitions.append((child, layer, direction))
            self.plane.deliver(
                PutPartition(
                    src=parent,
                    dst=child,
                    layer=layer,
                    direction=direction,
                    start_slot=child_region.x,
                    start_channel=child_region.y,
                    n_slots=child_region.width,
                    n_channels=child_region.height,
                )
            )
            self._propagate_region(child, layer, direction, child_region, outcome)

    def _propagate_region(
        self,
        node: int,
        layer: int,
        direction: Direction,
        region: PlacedRect,
        outcome: AdjustmentOutcome,
    ) -> None:
        """``node``'s partition at (layer, direction) becomes ``region``;
        re-derive the interior and notify affected descendants."""
        self.partitions.set(Partition(node, layer, direction, region))
        if layer <= self.topology.node_layer(node):
            # This is the node's own scheduling block: rebuild the local
            # schedule and notify the children of their new cells.
            outcome.schedule_update_messages += self.rescheduler(node, direction)
            return
        table = self.tables[direction]
        layout = table.layouts.get((node, layer))
        if layout is None:
            return
        for child in sorted(layout, key=int):
            child_region = layout[child].translated(region.x, region.y)
            old = self.partitions.get(int(child), layer, direction)
            if old is not None and old.region == child_region:
                continue
            outcome.put_part_messages += 1
            outcome.involved_nodes.add(int(child))
            outcome.moved_partitions.append((int(child), layer, direction))
            self.plane.deliver(
                PutPartition(
                    src=node,
                    dst=int(child),
                    layer=layer,
                    direction=direction,
                    start_slot=child_region.x,
                    start_channel=child_region.y,
                    n_slots=child_region.width,
                    n_channels=child_region.height,
                )
            )
            self._propagate_region(
                int(child), layer, direction, child_region, outcome
            )

    # ------------------------------------------------------------------
    # gateway resize
    # ------------------------------------------------------------------

    def _gateway_resize(
        self,
        direction: Direction,
        outcome: AdjustmentOutcome,
        trigger_layer: int,
        grown_child: Optional[int] = None,
        grown_rect: Optional[Rect] = None,
    ) -> bool:
        """Accommodate growth that reached the gateway, cheapest first.

        Strategies, in the spirit of Fig. 6(c) (accept holes, minimize
        moved partitions):

        1. **Extend** — when the request comes from one gateway child
           (``grown_child``): widen the layer partition by the grown
           component's width and move *only that child* into the
           extension, leaving its old spot as an internal hole.  All
           siblings keep their exact regions.
        2. **Relocate** — move the whole layer partition into idle
           slotframe space (other layers fixed).  Near layers (|Δl|<=1)
           share nodes with the trigger layer, so their slot ranges are
           blocked by full-height obstacles; far layers may share slots
           on other channels.
        3. **Sequential re-pack** — rebuild the left-to-right layout,
           preserving non-trigger partitions' sizes and order; the
           partitions before the trigger keep their exact regions,
           later ones shift.
        """
        gateway = self.topology.gateway_id
        outcome.involved_nodes.add(gateway)
        table = self.tables[direction]

        if grown_child is not None and grown_rect is not None:
            if self._gateway_extend(
                direction, outcome, trigger_layer, grown_child, grown_rect
            ):
                return True
            # Extension impossible: recompose the trigger layer tightly
            # (keeping unaffected siblings' in-force sizes) and fall
            # through to relocation / sequential re-pack.
            region_sizes = {
                child: (part.region.width, part.region.height)
                for child in self.topology.children_of(gateway)
                if child != grown_child
                for part in [self.partitions.get(child, trigger_layer, direction)]
                if part is not None
            }
            recompose_at(
                self.topology, table, gateway, trigger_layer,
                self.config.num_channels, region_sizes,
                cache=self.composition_cache,
            )

        component = table.component(gateway, trigger_layer)
        if self._gateway_relocate(direction, outcome, trigger_layer, component):
            return True
        return self._gateway_sequential(direction, outcome, trigger_layer, component)

    def _gateway_extend(
        self,
        direction: Direction,
        outcome: AdjustmentOutcome,
        trigger_layer: int,
        grown_child: int,
        grown_rect: Rect,
    ) -> bool:
        """Strategy 1: widen the layer partition, move only the grown
        child into the extension."""
        gateway = self.topology.gateway_id
        table = self.tables[direction]
        part = self.partitions.get(gateway, trigger_layer, direction)
        if part is None:
            return False
        old_region = part.region
        new_width = old_region.width + grown_rect.width
        new_height = max(old_region.height, grown_rect.height)
        if new_height > self.config.num_channels:
            return False
        regions = self._sequential_regions(
            (trigger_layer, direction), new_width, new_height
        )
        if regions is None:
            return False
        trigger_region = regions[(trigger_layer, direction)]
        if trigger_region.x != old_region.x:
            # The extension shifted the trigger partition itself; moving
            # every interior child would defeat the purpose — give up and
            # let relocation / re-pack handle it.
            return False

        layout = dict(table.layouts.get((gateway, trigger_layer), {}))
        layout.pop(grown_child, None)
        layout[grown_child] = PlacedRect(
            old_region.width, 0, grown_rect.width, grown_rect.height,
            grown_child,
        )
        table.set_layout(gateway, trigger_layer, layout)
        table.set_component(
            ResourceComponent(gateway, trigger_layer, new_width, new_height)
        )
        self._apply_gateway_regions(direction, outcome, trigger_layer, regions)
        return True

    def _gateway_relocate(
        self,
        direction: Direction,
        outcome: AdjustmentOutcome,
        trigger_layer: int,
        component: ResourceComponent,
    ) -> bool:
        """Strategy 2: move the whole layer partition into idle space."""
        gateway = self.topology.gateway_id
        container = PlacedRect(
            0, 0, self.config.data_slots, self.config.num_channels
        )
        # Half-duplex safety across layers: links at layers l and l' share
        # nodes whenever |l - l'| <= 1 (regardless of direction), so their
        # gateway partitions must not share time slots.  Partitions of
        # near layers are therefore expanded to the full channel height
        # when used as obstacles; far layers (>= 2 apart) may share slots
        # on other channels and stay as-is.
        obstacles: List[PlacedRect] = []
        for p in self.partitions.of_node(gateway):
            if (p.layer, p.direction) == (trigger_layer, direction):
                continue
            if abs(p.layer - trigger_layer) <= 1:
                obstacles.append(
                    PlacedRect(
                        p.region.x, 0, p.region.width,
                        self.config.num_channels,
                    )
                )
            else:
                obstacles.append(p.region)
        comp_rect = Rect(
            component.n_slots,
            component.n_channels,
            tag=(trigger_layer, direction),
        )
        layout = pack_with_obstacles([comp_rect], container, obstacles)
        if layout is None:
            return False
        self._propagate_region(
            gateway,
            trigger_layer,
            direction,
            layout[(trigger_layer, direction)],
            outcome,
        )
        return True

    def _gateway_sequential(
        self,
        direction: Direction,
        outcome: AdjustmentOutcome,
        trigger_layer: int,
        component: ResourceComponent,
    ) -> bool:
        """Strategy 3: order-preserving sequential re-pack."""
        regions = self._sequential_regions(
            (trigger_layer, direction), component.n_slots, component.n_channels
        )
        if regions is None:
            return False
        self._apply_gateway_regions(direction, outcome, trigger_layer, regions)
        return True

    def _sequential_regions(
        self,
        trigger_key: Tuple[int, Direction],
        trigger_width: int,
        trigger_height: int,
    ) -> Optional[Dict[Tuple[int, Direction], PlacedRect]]:
        """Layout of the gateway's partitions in their current slot order
        with in-force sizes (trigger resized), or None when it exceeds
        the data sub-frame.

        Partitions keep their current positions; a partition shifts right
        only when its predecessor now overlaps it, and existing gaps
        absorb the cascade — so a widened trigger disturbs as few layers
        as possible.
        """
        gateway = self.topology.gateway_id
        current = sorted(
            self.partitions.of_node(gateway), key=lambda p: p.region.x
        )
        entries: List[Tuple[Tuple[int, Direction], int, int, int]] = []
        seen_trigger = False
        tail = 0
        for p in current:
            key = (p.layer, p.direction)
            tail = max(tail, p.region.x2)
            if key == trigger_key:
                entries.append((key, trigger_width, trigger_height, p.region.x))
                seen_trigger = True
            else:
                entries.append(
                    (key, p.region.width, p.region.height, p.region.x)
                )
        if not seen_trigger:
            entries.append((trigger_key, trigger_width, trigger_height, tail))
        cursor = 0
        regions: Dict[Tuple[int, Direction], PlacedRect] = {}
        for key, width, height, old_x in entries:
            x = max(cursor, old_x)
            regions[key] = PlacedRect(x, 0, width, height)
            cursor = x + width
        if cursor > self.config.data_slots and not self.allow_overflow:
            return None
        return regions

    def _apply_gateway_regions(
        self,
        direction: Direction,
        outcome: AdjustmentOutcome,
        trigger_layer: int,
        regions: Dict[Tuple[int, Direction], PlacedRect],
    ) -> None:
        """Install a new top-level layout, propagating moved layers and
        the (possibly in-place) trigger layer."""
        gateway = self.topology.gateway_id
        trigger_key = (trigger_layer, direction)
        old_regions = {
            (p.layer, p.direction): p.region
            for p in self.partitions.of_node(gateway)
        }
        for key in sorted(regions, key=lambda k: regions[k].x):
            layer, p_direction = key
            region = regions[key]
            if old_regions.get(key) == region and key != trigger_key:
                continue
            # Moved region, or the triggering layer whose interior layout
            # changed even if its region happens to match.
            self._propagate_region(gateway, layer, p_direction, region, outcome)

    # ------------------------------------------------------------------
    # state management
    # ------------------------------------------------------------------

    def _finalize_depths(self, outcome: AdjustmentOutcome) -> None:
        outcome._depths = [
            self.topology.depth_of(n) for n in outcome.involved_nodes
        ]

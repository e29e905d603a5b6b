"""Bottom-up resource-interface generation (Sec. IV-B).

Starting from the non-leaf nodes farthest from the gateway, every node
``V_i`` derives the components of its subtree:

* **Case 1** — the layer of its own child links, ``l(V_i)``: links
  sharing the half-duplex node ``V_i`` can never occupy the same slot,
  so the component is one channel row of width ``sum(r(e))``:
  ``C_{i,l(V_i)} = [Σ r(e_m), 1]``.
* **Case 2** — deeper layers: the children's components at that layer
  are composed into one rectangle with Algorithm 1
  (:func:`repro.packing.compose_components`), and the packing layout is
  retained for the top-down partition-allocation phase.

The result is an :class:`InterfaceTable`: every non-leaf node's
interface plus the per-(node, layer) composition layouts, and the count
of POST-intf messages the bottom-up phase costs (one per non-gateway,
non-leaf node).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from ..net.tasks import demands_by_parent, demands_for_parent
from ..net.topology import Direction, LinkRef, TreeTopology
from ..packing.composition import CompositionCache, compose_components
from ..packing.geometry import PlacedRect, Rect
from .component import ResourceComponent, ResourceInterface

#: A composition layout: child subtree root -> placement *relative to the
#: composite component origin* in (slot, channel) coordinates.
Layout = Dict[Hashable, PlacedRect]

#: Undo-log marker: the key was absent before the write.
_ABSENT = object()


@dataclass
class InterfaceTable:
    """All interfaces and composition layouts for one traffic direction."""

    direction: Direction
    interfaces: Dict[int, ResourceInterface] = field(default_factory=dict)
    layouts: Dict[Tuple[int, int], Layout] = field(default_factory=dict)
    post_intf_messages: int = 0
    #: Undo log: None (the default) records nothing; while it is a list,
    #: every write through :meth:`set_component` / :meth:`set_layout`
    #: appends ``(mapping, key, prior value or _ABSENT)``.
    undo: Optional[List[Tuple[dict, Hashable, object]]] = field(
        default=None, repr=False, compare=False
    )

    def interface_of(self, node: int) -> ResourceInterface:
        """Interface of subtree ``G_node`` (KeyError for leaves)."""
        return self.interfaces[node]

    def component(self, node: int, layer: int) -> ResourceComponent:
        """Component of subtree ``G_node`` at ``layer``."""
        return self.interfaces[node].at_layer(layer)

    def has_component(self, node: int, layer: int) -> bool:
        """Whether ``node``'s subtree has a component at ``layer``."""
        return node in self.interfaces and self.interfaces[node].has_layer(layer)

    def layout(self, node: int, layer: int) -> Layout:
        """Composition layout of ``node``'s component at ``layer``
        (only Case-2 components have one)."""
        return self.layouts[(node, layer)]

    def set_component(self, component: ResourceComponent) -> None:
        """Insert or replace a stored component (dynamic adjustment
        bookkeeping), creating the owner's interface when absent."""
        owner = component.owner
        if owner not in self.interfaces:
            self._write(self.interfaces, owner, ResourceInterface(
                owner=owner, direction=self.direction
            ))
        self._write(
            self.interfaces[owner].components, component.layer, component
        )

    def set_layout(self, node: int, layer: int, layout: Layout) -> None:
        """Replace a stored composition layout."""
        self._write(self.layouts, (node, layer), layout)

    def _write(self, mapping: dict, key: Hashable, value: object) -> None:
        if self.undo is not None:
            self.undo.append((mapping, key, mapping.get(key, _ABSENT)))
        mapping[key] = value

    def roll_back(self) -> None:
        """Undo every write in the undo log, newest first, and close it."""
        log, self.undo = self.undo, None
        for mapping, key, prior in reversed(log):
            if prior is _ABSENT:
                del mapping[key]
            else:
                mapping[key] = prior


def generate_interfaces(
    topology: TreeTopology,
    link_demands: Mapping[LinkRef, int],
    direction: Direction,
    num_channels: int,
    case1_slack: int = 0,
    cache: Optional[CompositionCache] = None,
    root: Optional[int] = None,
) -> InterfaceTable:
    """Run the bottom-up interface-generation phase for one direction.

    ``link_demands`` gives ``r(e)`` for every link (links absent or with
    zero demand are skipped).  Nodes are visited deepest-first so that
    every child interface exists before its parent composes it.

    ``case1_slack`` over-provisions every Case-1 component by that many
    extra cells.  The testbed's partitions carry spare cells that let
    small traffic increases be absorbed locally (the first rate step in
    Fig. 10); slack reproduces that headroom and is ablated in the
    benchmarks.

    ``root`` restricts generation to the subtree rooted there — the
    dynamics fast path, since a moved subtree's interfaces depend only
    on demands and interfaces *inside* the subtree.  The per-node
    results are identical to a full-tree run; ``post_intf_messages``
    then counts the subtree's messages only.
    """
    if case1_slack < 0:
        raise ValueError(f"case1_slack must be >= 0, got {case1_slack}")
    table = InterfaceTable(direction=direction)
    if root is None:
        scope = topology.nodes_bottom_up()
        per_parent = demands_by_parent(topology, link_demands, direction)
    else:
        scope = sorted(
            topology.subtree_span(root),
            key=lambda n: (-topology.depth_of(n), n),
        )
        per_parent = None

    for node in scope:
        if topology.is_leaf(node):
            continue
        if per_parent is not None:
            demands = per_parent.get(node, {})
        else:
            demands = demands_for_parent(
                topology, link_demands, node, direction
            )
        interface = ResourceInterface(owner=node, direction=direction)
        own_layer = topology.node_layer(node)

        # Case 1: the node's own child links share the node, hence one
        # channel row of the accumulated width.
        total = sum(demands.values())
        if total > 0:
            interface.add(
                ResourceComponent(
                    node, own_layer,
                    n_slots=total + case1_slack, n_channels=1,
                )
            )

        # Case 2: compose children's components per deeper layer.
        deepest = topology.subtree_max_layer(node)
        for layer in range(own_layer + 1, deepest + 1):
            child_rects = _child_component_rects(topology, table, node, layer)
            if not child_rects:
                continue
            composed = compose_components(child_rects, num_channels, cache)
            interface.add(
                ResourceComponent(
                    node, layer, composed.n_slots, composed.n_channels
                )
            )
            table.layouts[(node, layer)] = composed.layout

        if interface.components:
            table.interfaces[node] = interface
            if node != topology.gateway_id:
                table.post_intf_messages += 1
    return table


def recompose_at(
    topology: TreeTopology,
    table: InterfaceTable,
    node: int,
    layer: int,
    num_channels: int,
    region_sizes: Optional[Mapping[int, Tuple[int, int]]] = None,
    cache: Optional[CompositionCache] = None,
) -> ResourceComponent:
    """Re-run Algorithm 1 for ``node`` at ``layer`` using the currently
    stored child components, updating the table in place.

    Used during dynamic adjustment escalation: after a child's component
    grows, the parent recomposes before forwarding the request upward.
    ``region_sizes`` optionally maps a child to the (slots, channels) of
    its partition *currently in force*; when larger than the stored
    component (slack-stretched allocations) the in-force size is used, so
    recomposition never shrinks an unaffected sibling's partition out
    from under its own interior layout.  Returns the new composite.
    """
    child_rects = _child_component_rects(topology, table, node, layer)
    if region_sizes:
        widened: List[Rect] = []
        for rect in child_rects:
            size = region_sizes.get(int(rect.tag))
            if size is not None:
                widened.append(
                    Rect(max(rect.width, size[0]), max(rect.height, size[1]),
                         rect.tag)
                )
            else:
                widened.append(rect)
        child_rects = widened
    composed = compose_components(child_rects, num_channels, cache)
    component = ResourceComponent(node, layer, composed.n_slots, composed.n_channels)
    table.set_component(component)
    table.set_layout(node, layer, composed.layout)
    return component


def _child_component_rects(
    topology: TreeTopology, table: InterfaceTable, node: int, layer: int
) -> List[Rect]:
    """Children components of ``node`` at ``layer`` as tagged rectangles."""
    rects: List[Rect] = []
    for child in topology.children_of(node):
        if table.has_component(child, layer):
            comp = table.component(child, layer)
            if not comp.is_empty:
                rects.append(comp.to_rect())
    return rects

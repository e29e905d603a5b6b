"""Tree network topologies for industrial wireless networks.

HARP models the routing topology of an IWN as a tree rooted at the
gateway (Sec. II-A): every node has exactly one parent (except the
gateway) and any number of children.  Each *link* connects a child to its
parent and carries a *layer* attribute equal to the child's hop count to
the gateway; the links between a node and all of its children therefore
share one layer value, written ``l(V_i)`` in the paper.

This module provides the :class:`TreeTopology` container plus the
generators used by the evaluation: the deterministic regular tree and the
seeded random trees of Sec. VII ("randomly generate 100 network topologies
with 5 layers and 50 nodes").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

#: Conventional identifier of the gateway / root node.
GATEWAY_ID = 0


class Direction(Enum):
    """Traffic direction of a link relative to the gateway."""

    UP = "up"
    DOWN = "down"

    def __repr__(self) -> str:  # compact in layouts and logs
        return self.value


@dataclass(frozen=True)
class LinkRef:
    """Reference to a directed link between ``child`` and its parent.

    The tree edge is identified by the child node (each node has exactly
    one parent); ``direction`` selects uplink (child -> parent) or
    downlink (parent -> child).  The link's *layer* equals the child's
    hop count to the gateway.
    """

    child: int
    direction: Direction
    # Hash cached at construction: LinkRefs key every demand/schedule
    # dict on the hot paths, so recomputing the field-tuple hash per
    # probe is measurable at scale.
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_hash", hash((LinkRef, self.child, self.direction))
        )

    def __hash__(self) -> int:
        return self._hash

    def sender(self, topology: "TreeTopology") -> int:
        """Node that transmits on this link."""
        if self.direction is Direction.UP:
            return self.child
        return topology.parent_of(self.child)

    def receiver(self, topology: "TreeTopology") -> int:
        """Node that receives on this link."""
        if self.direction is Direction.UP:
            return topology.parent_of(self.child)
        return self.child

    def endpoints(self, topology: "TreeTopology") -> Tuple[int, int]:
        """(sender, receiver) pair."""
        return (self.sender(topology), self.receiver(topology))


class TopologyError(ValueError):
    """Raised for malformed trees (cycles, missing parents, bad ids)."""


@dataclass
class TreeTopology:
    """A rooted tree over integer node ids.

    Built from a ``parent_map``: ``{node_id: parent_id}`` for every
    non-gateway node.  The gateway (``gateway_id``) must not appear as a
    key.  Node depths (hop counts) are derived; the *layer* of the links
    between node ``v`` and its children is ``depth(v) + 1``.
    """

    parent_map: Dict[int, int]
    gateway_id: int = GATEWAY_ID
    _children: Dict[int, List[int]] = field(init=False, repr=False)
    _depth: Dict[int, int] = field(init=False, repr=False)
    # Immutable indices, built once per instance.  TreeTopology is
    # never mutated in place — every mutation surface (``rerooted``,
    # dynamics attach/detach/reparent) constructs a *new* instance, so
    # ``__post_init__`` is the single rebuild point and the indices can
    # never go stale.  ``verify_indices`` is the equivalence oracle.
    _nodes: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _device_nodes: Tuple[int, ...] = field(
        init=False, repr=False, compare=False
    )
    _preorder: List[int] = field(init=False, repr=False, compare=False)
    _tin: Dict[int, int] = field(init=False, repr=False, compare=False)
    _subtree_sizes: Dict[int, int] = field(
        init=False, repr=False, compare=False
    )
    _subtree_max_depth: Dict[int, int] = field(
        init=False, repr=False, compare=False
    )
    _max_layer: int = field(init=False, repr=False, compare=False)
    _bottom_up: Tuple[int, ...] = field(
        init=False, repr=False, compare=False
    )
    _top_down: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _non_leaf: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _by_depth: Dict[int, Tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )
    _links_cache: Dict[Optional[Direction], Tuple["LinkRef", ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _up_paths: Dict[int, Tuple["LinkRef", ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _down_paths: Dict[int, Tuple["LinkRef", ...]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.gateway_id in self.parent_map:
            raise TopologyError(
                f"gateway {self.gateway_id} must not have a parent"
            )
        nodes = {self.gateway_id} | set(self.parent_map)
        for child, parent in self.parent_map.items():
            if parent not in nodes:
                raise TopologyError(
                    f"node {child} references unknown parent {parent}"
                )
            if child == parent:
                raise TopologyError(f"node {child} is its own parent")
        self._children = {node: [] for node in nodes}
        for child in sorted(self.parent_map):
            self._children[self.parent_map[child]].append(child)
        self._depth = {self.gateway_id: 0}
        frontier = [self.gateway_id]
        while frontier:
            node = frontier.pop()
            for child in self._children[node]:
                self._depth[child] = self._depth[node] + 1
                frontier.append(child)
        if len(self._depth) != len(nodes):
            unreachable = sorted(nodes - set(self._depth))
            raise TopologyError(
                f"nodes unreachable from gateway (cycle?): {unreachable}"
            )
        self._build_indices()

    def _build_indices(self) -> None:
        """Precompute the query indices (one O(n log n) pass).

        * sorted node tuples (``nodes``/``device_nodes``/orderings),
        * a preorder array with per-node subtree spans (Euler-tour style)
          making ``subtree_nodes``/``subtree_size``/``is_ancestor``
          index lookups instead of traversals,
        * per-node deepest-descendant depths for ``subtree_max_layer``.
        """
        depth = self._depth
        children = self._children
        self._nodes = tuple(sorted(depth))
        gateway = self.gateway_id
        self._device_nodes = tuple(
            n for n in self._nodes if n != gateway
        )
        self._max_layer = (
            max(depth.values()) if len(depth) > 1 else 0
        )

        # Preorder (children visited ascending) + subtree spans.
        preorder: List[int] = []
        stack = [gateway]
        while stack:
            node = stack.pop()
            preorder.append(node)
            stack.extend(reversed(children[node]))
        tin = {node: i for i, node in enumerate(preorder)}
        sizes: Dict[int, int] = {}
        deepest: Dict[int, int] = {}
        for node in reversed(preorder):
            size = 1
            deep = depth[node]
            for child in children[node]:
                size += sizes[child]
                if deepest[child] > deep:
                    deep = deepest[child]
            sizes[node] = size
            deepest[node] = deep
        self._preorder = preorder
        self._tin = tin
        self._subtree_sizes = sizes
        self._subtree_max_depth = deepest

        self._bottom_up = tuple(
            sorted(self._nodes, key=lambda n: (-depth[n], n))
        )
        self._top_down = tuple(
            sorted(self._nodes, key=lambda n: (depth[n], n))
        )
        self._non_leaf = tuple(
            n for n in self._nodes if children[n]
        )
        by_depth: Dict[int, List[int]] = {}
        for node in self._nodes:   # ascending ids -> sorted buckets
            by_depth.setdefault(depth[node], []).append(node)
        self._by_depth = {d: tuple(ns) for d, ns in by_depth.items()}
        self._links_cache = {}
        self._up_paths = {}
        self._down_paths = {}

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> Tuple[int, ...]:
        """All node ids including the gateway, ascending (an immutable
        tuple, computed once; use :meth:`nodes_list` for a fresh list)."""
        return self._nodes

    @property
    def device_nodes(self) -> Tuple[int, ...]:
        """All node ids except the gateway, ascending (immutable tuple;
        use :meth:`device_nodes_list` for a fresh list)."""
        return self._device_nodes

    def nodes_list(self) -> List[int]:
        """Mutable copy of :attr:`nodes` for callers that edit it."""
        return list(self._nodes)

    def device_nodes_list(self) -> List[int]:
        """Mutable copy of :attr:`device_nodes`."""
        return list(self._device_nodes)

    @property
    def num_nodes(self) -> int:
        """Total node count including the gateway."""
        return len(self._depth)

    def parent_of(self, node: int) -> int:
        """Parent id of ``node``; the gateway has no parent."""
        if node == self.gateway_id:
            raise TopologyError("gateway has no parent")
        return self.parent_map[node]

    def children_of(self, node: int) -> List[int]:
        """Children ids of ``node``, ascending."""
        return list(self._children[node])

    def is_leaf(self, node: int) -> bool:
        """True when ``node`` has no children."""
        return not self._children[node]

    def depth_of(self, node: int) -> int:
        """Hop count from ``node`` to the gateway (gateway = 0)."""
        return self._depth[node]

    def node_layer(self, node: int) -> int:
        """``l(V_i)``: the layer of links between ``node`` and its
        children (meaningful for non-leaf nodes)."""
        return self._depth[node] + 1

    def link_layer(self, child: int) -> int:
        """Layer of the link between ``child`` and its parent."""
        return self._depth[child]

    @property
    def max_layer(self) -> int:
        """Deepest link layer in the tree."""
        return self._max_layer

    def subtree_nodes(self, root: int) -> List[int]:
        """All nodes of the subtree rooted at ``root`` (inclusive),
        ascending — a sorted slice of the precomputed preorder span."""
        start = self._tin[root]
        return sorted(self._preorder[start:start + self._subtree_sizes[root]])

    def subtree_span(self, root: int) -> Sequence[int]:
        """The subtree's nodes in *preorder* (no sort) — the cheapest
        way to iterate a subtree when order does not matter."""
        start = self._tin[root]
        return self._preorder[start:start + self._subtree_sizes[root]]

    def subtree_size(self, root: int) -> int:
        """Number of nodes in the subtree rooted at ``root`` (O(1))."""
        return self._subtree_sizes[root]

    def subtree_max_layer(self, root: int) -> int:
        """``l(G_{V_i})``: the deepest link layer within the subtree
        (O(1) via the precomputed deepest-descendant index)."""
        return self._subtree_max_depth[root]

    def is_ancestor(self, ancestor: int, node: int) -> bool:
        """True when ``node`` lies in ``ancestor``'s subtree (inclusive)
        — an O(1) preorder-span containment test."""
        start = self._tin[ancestor]
        return start <= self._tin[node] < start + self._subtree_sizes[ancestor]

    def path_to_gateway(self, node: int) -> List[int]:
        """Node ids from ``node`` up to and including the gateway."""
        path = [node]
        while path[-1] != self.gateway_id:
            path.append(self.parent_map[path[-1]])
        return path

    def uplink_refs(self, node: int) -> Tuple[LinkRef, ...]:
        """Uplink links from ``node`` to the gateway, as a lazily cached
        immutable tuple (LinkRef construction dominates repeated
        per-task path walks on large trees)."""
        cached = self._up_paths.get(node)
        if cached is None:
            cached = tuple(
                LinkRef(n, Direction.UP)
                for n in self.path_to_gateway(node)
                if n != self.gateway_id
            )
            self._up_paths[node] = cached
        return cached

    def downlink_refs(self, node: int) -> Tuple[LinkRef, ...]:
        """Downlink links from the gateway to ``node`` (cached tuple)."""
        cached = self._down_paths.get(node)
        if cached is None:
            cached = tuple(
                LinkRef(link.child, Direction.DOWN)
                for link in reversed(self.uplink_refs(node))
            )
            self._down_paths[node] = cached
        return cached

    def uplink_path(self, node: int) -> List[LinkRef]:
        """Uplink links traversed by a packet from ``node`` to gateway."""
        return list(self.uplink_refs(node))

    def downlink_path(self, node: int) -> List[LinkRef]:
        """Downlink links traversed from the gateway to ``node``."""
        return list(self.downlink_refs(node))

    def links(self, direction: Optional[Direction] = None) -> Tuple[LinkRef, ...]:
        """All links in the tree, optionally filtered by direction.

        Returns a lazily built, cached immutable tuple; use
        :meth:`links_list` for a fresh mutable list.
        """
        cached = self._links_cache.get(direction)
        if cached is None:
            directions = (
                (direction,) if direction else (Direction.UP, Direction.DOWN)
            )
            cached = tuple(
                LinkRef(child, d)
                for d in directions
                for child in self._device_nodes
            )
            self._links_cache[direction] = cached
        return cached

    def links_list(self, direction: Optional[Direction] = None) -> List[LinkRef]:
        """Mutable copy of :meth:`links` for callers that edit it."""
        return list(self.links(direction))

    def non_leaf_nodes(self) -> Tuple[int, ...]:
        """Nodes with at least one child, ascending (cached tuple)."""
        return self._non_leaf

    def nodes_bottom_up(self) -> Tuple[int, ...]:
        """Nodes ordered by decreasing depth (ties by id) — the order in
        which resource interfaces are generated (cached tuple)."""
        return self._bottom_up

    def nodes_top_down(self) -> Tuple[int, ...]:
        """Nodes ordered by increasing depth (ties by id) — the order in
        which partitions are propagated (cached tuple)."""
        return self._top_down

    def nodes_at_depth(self, depth: int) -> Tuple[int, ...]:
        """Node ids at an exact hop count, ascending (cached tuple)."""
        return self._by_depth.get(depth, ())

    def verify_indices(self) -> None:
        """Equivalence oracle: recompute every index naively and assert
        it matches the precomputed answer.  Used by the property tests
        guarding against cache-invalidation bugs on the mutation
        surfaces (attach/detach/reparent/reroot)."""
        depth = self._depth
        children = self._children
        assert self._nodes == tuple(sorted(depth))
        assert self._device_nodes == tuple(
            n for n in sorted(depth) if n != self.gateway_id
        )
        naive_max = max(depth.values()) if len(depth) > 1 else 0
        assert self._max_layer == naive_max
        assert self._bottom_up == tuple(
            sorted(depth, key=lambda n: (-depth[n], n))
        )
        assert self._top_down == tuple(
            sorted(depth, key=lambda n: (depth[n], n))
        )
        assert self._non_leaf == tuple(
            sorted(n for n in depth if children[n])
        )
        for d in range(naive_max + 1):
            assert self.nodes_at_depth(d) == tuple(
                sorted(n for n in depth if depth[n] == d)
            )
        for node in self._nodes:
            naive_subtree: List[int] = []
            frontier = [node]
            while frontier:
                cur = frontier.pop()
                naive_subtree.append(cur)
                frontier.extend(children[cur])
            assert self.subtree_nodes(node) == sorted(naive_subtree)
            assert self.subtree_size(node) == len(naive_subtree)
            assert self.subtree_max_layer(node) == max(
                depth[n] for n in naive_subtree
            )
            member_set = set(naive_subtree)
            for other in self._nodes:
                assert self.is_ancestor(node, other) == (other in member_set)
        for d in (None, Direction.UP, Direction.DOWN):
            directions = (d,) if d else (Direction.UP, Direction.DOWN)
            assert self.links(d) == tuple(
                LinkRef(child, dd)
                for dd in directions
                for child in sorted(self.parent_map)
            )

    def __contains__(self, node: int) -> bool:
        return node in self._depth

    def __iter__(self) -> Iterator[int]:
        return iter(self.nodes)

    # ------------------------------------------------------------------
    # derived topologies (network dynamics)
    # ------------------------------------------------------------------

    def _with_paths_from(
        self, old: "TreeTopology", moved: Iterable[int] = ()
    ) -> "TreeTopology":
        """Seed this topology's lazy path caches from ``old``.

        A node's gateway path (as a LinkRef sequence) only changes when
        an ancestor link of that node changes — i.e. for nodes inside
        the ``moved`` subtree of a mutation.  Everyone else can reuse
        the already-built tuples, which removes the dominant LinkRef
        reconstruction cost of per-operation demand recomputation on
        large trees.  Nodes absent from this topology are skipped.
        """
        moved_set = set(moved)
        depth = self._depth
        for n, refs in old._up_paths.items():
            if n in depth and n not in moved_set:
                self._up_paths[n] = refs
        for n, refs in old._down_paths.items():
            if n in depth and n not in moved_set:
                self._down_paths[n] = refs
        return self

    def with_attached(self, node: int, parent: int) -> "TreeTopology":
        """A new topology with ``node`` joined under ``parent``."""
        if node in self._depth:
            raise TopologyError(f"node {node} already in the network")
        if parent not in self._depth:
            raise TopologyError(f"parent {parent} not in the network")
        parent_map = dict(self.parent_map)
        parent_map[node] = parent
        return TreeTopology(
            parent_map, gateway_id=self.gateway_id
        )._with_paths_from(self)

    def with_detached(self, node: int) -> "TreeTopology":
        """A new topology with ``node``'s whole subtree removed."""
        if node == self.gateway_id:
            raise TopologyError("cannot detach the gateway")
        if node not in self._depth:
            raise TopologyError(f"node {node} not in the network")
        removed = set(self.subtree_span(node))
        parent_map = {
            child: parent
            for child, parent in self.parent_map.items()
            if child not in removed
        }
        return TreeTopology(
            parent_map, gateway_id=self.gateway_id
        )._with_paths_from(self)

    def rerooted(self, new_gateway: int) -> "TreeTopology":
        """Gateway-failover surgery: the old gateway is removed and one
        of its children becomes the root.

        ``new_gateway`` (the standby) loses its parent link; every other
        child of the old gateway re-attaches directly under the standby,
        so the survivors stay one connected tree.  Depths shift by at
        most one: the standby's former siblings keep their depth, the
        standby's own subtree rises one layer.
        """
        if new_gateway not in self._depth:
            raise TopologyError(f"standby {new_gateway} not in the network")
        if self.parent_map.get(new_gateway) != self.gateway_id:
            raise TopologyError(
                f"standby {new_gateway} must be a direct child of the "
                f"gateway {self.gateway_id}"
            )
        parent_map: Dict[int, int] = {}
        for child, parent in self.parent_map.items():
            if child == new_gateway:
                continue
            parent_map[child] = (
                new_gateway if parent == self.gateway_id else parent
            )
        return TreeTopology(parent_map, gateway_id=new_gateway)

    def with_reparented(self, node: int, new_parent: int) -> "TreeTopology":
        """A new topology with ``node``'s subtree moved under
        ``new_parent`` (a link-quality-driven parent switch)."""
        if node == self.gateway_id:
            raise TopologyError("cannot reparent the gateway")
        if node not in self._depth or new_parent not in self._depth:
            raise TopologyError(f"unknown node in reparent({node}, {new_parent})")
        if self.is_ancestor(node, new_parent):
            raise TopologyError(
                f"new parent {new_parent} lies inside {node}'s own subtree"
            )
        parent_map = dict(self.parent_map)
        parent_map[node] = new_parent
        return TreeTopology(
            parent_map, gateway_id=self.gateway_id
        )._with_paths_from(self, moved=self.subtree_span(node))


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------


def regular_tree(
    depth: int, fanout: int, gateway_id: int = GATEWAY_ID
) -> TreeTopology:
    """A complete ``fanout``-ary tree of the given link ``depth``.

    Node ids are assigned breadth-first starting after the gateway id.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    parent_map: Dict[int, int] = {}
    next_id = gateway_id + 1
    current_level = [gateway_id]
    for _ in range(depth):
        next_level: List[int] = []
        for parent in current_level:
            for _ in range(fanout):
                parent_map[next_id] = parent
                next_level.append(next_id)
                next_id += 1
        current_level = next_level
    return TreeTopology(parent_map, gateway_id=gateway_id)


def chain_topology(length: int, gateway_id: int = GATEWAY_ID) -> TreeTopology:
    """A single line of ``length`` device nodes below the gateway."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    parent_map = {gateway_id + i + 1: gateway_id + i for i in range(length)}
    return TreeTopology(parent_map, gateway_id=gateway_id)


def random_tree(
    num_devices: int,
    depth: int,
    rng: random.Random,
    max_children: Optional[int] = None,
    gateway_id: int = GATEWAY_ID,
) -> TreeTopology:
    """A random tree with ``num_devices`` device nodes and exact ``depth``.

    Matches the Sec. VII setup ("100 network topologies with 5 layers and
    50 nodes"): a backbone chain guarantees the requested depth, and the
    remaining nodes attach uniformly at random to nodes shallower than
    ``depth`` (subject to ``max_children``).

    Parameters
    ----------
    num_devices:
        Device nodes, excluding the gateway.  Must be >= ``depth``.
    depth:
        Exact maximum link layer of the result.
    rng:
        Seeded :class:`random.Random` for reproducibility.
    max_children:
        Optional cap on a node's child count (the gateway included).
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if num_devices < depth:
        raise ValueError(
            f"need at least {depth} devices to reach depth {depth}, "
            f"got {num_devices}"
        )
    parent_map: Dict[int, int] = {}
    depths: Dict[int, int] = {gateway_id: 0}
    child_count: Dict[int, int] = {gateway_id: 0}

    # Backbone chain pinning the maximum depth.
    previous = gateway_id
    next_id = gateway_id + 1
    for level in range(1, depth + 1):
        parent_map[next_id] = previous
        depths[next_id] = level
        child_count[previous] = child_count.get(previous, 0) + 1
        child_count[next_id] = 0
        previous = next_id
        next_id += 1

    for _ in range(num_devices - depth):
        candidates = [
            n
            for n, d in depths.items()
            if d < depth
            and (max_children is None or child_count[n] < max_children)
        ]
        if not candidates:
            raise ValueError(
                "max_children too small to attach all devices "
                f"(placed {next_id - gateway_id - 1} of {num_devices})"
            )
        parent = rng.choice(sorted(candidates))
        parent_map[next_id] = parent
        depths[next_id] = depths[parent] + 1
        child_count[parent] += 1
        child_count[next_id] = 0
        next_id += 1
    return TreeTopology(parent_map, gateway_id=gateway_id)


def layered_random_tree(
    num_devices: int,
    depth: int,
    rng: random.Random,
    gateway_id: int = GATEWAY_ID,
) -> TreeTopology:
    """A random tree with controlled breadth per layer.

    Used for the Sec. VII topology ensembles ("100 network topologies
    with 5 layers and 50 nodes"): device counts per layer are drawn with
    mild randomness around an even split (every layer keeps at least one
    node so the requested depth is exact), then every node attaches to a
    uniformly random parent in the previous layer.  Compared to
    :func:`random_tree` (uniform attachment, which yields chain-heavy
    shapes), this matches the breadth of deployed IWN topologies like
    the paper's Fig. 7(c) testbed.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if num_devices < depth:
        raise ValueError(
            f"need at least {depth} devices for depth {depth}, "
            f"got {num_devices}"
        )
    # Draw per-layer sizes: start from an even split, then jitter by
    # moving nodes between random layers.
    base = num_devices // depth
    sizes = [base] * depth
    for i in range(num_devices - base * depth):
        sizes[i % depth] += 1
    for _ in range(depth * 2):
        src = rng.randrange(depth)
        dst = rng.randrange(depth)
        if sizes[src] > 1:
            sizes[src] -= 1
            sizes[dst] += 1

    parent_map: Dict[int, int] = {}
    previous_level = [gateway_id]
    next_id = gateway_id + 1
    for size in sizes:
        level: List[int] = []
        for _ in range(size):
            parent_map[next_id] = rng.choice(previous_level)
            level.append(next_id)
            next_id += 1
        previous_level = level
    return TreeTopology(parent_map, gateway_id=gateway_id)


def balanced_tree_with_layers(
    layer_sizes: Sequence[int], gateway_id: int = GATEWAY_ID
) -> TreeTopology:
    """A tree with a prescribed number of nodes per layer.

    ``layer_sizes[i]`` is the node count at link layer ``i + 1``.  Nodes
    at each layer are distributed round-robin over the previous layer,
    giving an even, deterministic shape (used for the testbed-like
    topology of Fig. 7(c)).
    """
    if not layer_sizes or any(s < 1 for s in layer_sizes):
        raise ValueError(f"layer sizes must be positive, got {layer_sizes}")
    parent_map: Dict[int, int] = {}
    previous_level = [gateway_id]
    next_id = gateway_id + 1
    for size in layer_sizes:
        level: List[int] = []
        for i in range(size):
            parent_map[next_id] = previous_level[i % len(previous_level)]
            level.append(next_id)
            next_id += 1
        previous_level = level
    return TreeTopology(parent_map, gateway_id=gateway_id)


def decompose_forest(
    parent_choices: Mapping[int, Sequence[int]],
    gateway_id: int = GATEWAY_ID,
) -> TreeTopology:
    """Reduce a multi-parent (mesh-ish) topology to a tree (footnote 1).

    The paper's future-work escape hatch for non-tree routing topologies:
    when nodes have several candidate parents, pick for each node the
    candidate with the smallest resulting depth (ties by id), yielding a
    shortest-path tree HARP can manage.  Candidates must ultimately lead
    to the gateway.
    """
    depths: Dict[int, int] = {gateway_id: 0}
    parent_map: Dict[int, int] = {}
    pending: Set[int] = set(parent_choices)
    progressed = True
    while pending and progressed:
        progressed = False
        for node in sorted(pending):
            known = [p for p in parent_choices[node] if p in depths]
            if not known:
                continue
            best = min(known, key=lambda p: (depths[p], p))
            parent_map[node] = best
            depths[node] = depths[best] + 1
            pending.discard(node)
            progressed = True
    if pending:
        raise TopologyError(
            f"nodes cannot reach the gateway: {sorted(pending)}"
        )
    return TreeTopology(parent_map, gateway_id=gateway_id)

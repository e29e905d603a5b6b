"""Equivalence oracles for the scaling fast paths (hypothesis).

Every optimization in the 10k-node scaling PR claims *outcome identity*
with the code it replaced: same indices, same placements, same verdicts.
These properties pin that claim down — each fast path is driven against
its naive counterpart (kept beside this file or re-stated here) over generated
inputs, and the results must match byte for byte.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import (
    Partition,
    PartitionIsolationError,
    _check_group_disjoint,
)
from repro.net.slotframe import (
    Cell,
    Schedule,
    ScheduleConflictError,
    SlotframeConfig,
)
from repro.net.tasks import demands_by_parent, demands_for_parent
from repro.net.topology import (
    Direction,
    LinkRef,
    TopologyError,
    TreeTopology,
    layered_random_tree,
)
from repro.packing.free_space import FreeSpace, pack_with_obstacles
from repro.packing.geometry import PlacedRect, Rect
from repro.packing.skyline import SkylinePacker

from reference_free_space import reference_pack_with_obstacles
from reference_skyline import ReferenceSkylinePacker


# ----------------------------------------------------------------------
# indexed topology vs naive recomputation under arbitrary mutations
# ----------------------------------------------------------------------

mutation_scripts = st.lists(
    st.tuples(st.sampled_from(["attach", "detach", "reparent"]),
              st.integers(0, 10 ** 6)),
    min_size=0,
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6), script=mutation_scripts)
def test_indices_survive_arbitrary_mutation_interleavings(seed, script):
    """After any interleaving of attach/detach/reparent, every
    precomputed index equals its naive recomputation, and the seeded
    path caches equal those of a freshly built topology."""
    rng = random.Random(seed)
    topo = layered_random_tree(14, 4, rng)
    topo.verify_indices()
    next_id = max(topo.nodes) + 1
    for kind, pick in script:
        nodes = list(topo.nodes)
        devices = list(topo.device_nodes)
        try:
            if kind == "attach":
                topo = topo.with_attached(next_id, nodes[pick % len(nodes)])
                next_id += 1
            elif kind == "detach" and devices:
                topo = topo.with_detached(devices[pick % len(devices)])
            elif kind == "reparent" and devices:
                node = devices[pick % len(devices)]
                parent = nodes[(pick // 7) % len(nodes)]
                topo = topo.with_reparented(node, parent)
        except TopologyError:
            continue  # invalid move (cycle, unknown node): state unchanged
        topo.verify_indices()
        # Warm the seeded caches, then cross-check against a topology
        # built from scratch (no inherited cache entries).
        fresh = TreeTopology(dict(topo.parent_map), gateway_id=topo.gateway_id)
        for node in topo.nodes:
            assert topo.uplink_refs(node) == fresh.uplink_refs(node)
            assert topo.downlink_refs(node) == fresh.downlink_refs(node)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_rerooted_indices_consistent(seed):
    rng = random.Random(seed)
    topo = layered_random_tree(12, 4, rng)
    standby = next(iter(topo.children_of(topo.gateway_id)))
    survivor = topo.rerooted(standby)
    survivor.verify_indices()
    fresh = TreeTopology(
        dict(survivor.parent_map), gateway_id=survivor.gateway_id
    )
    for node in survivor.nodes:
        assert survivor.uplink_refs(node) == fresh.uplink_refs(node)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), direction=st.sampled_from(Direction))
def test_demands_for_parent_matches_grouped_slice(seed, direction):
    rng = random.Random(seed)
    topo = layered_random_tree(16, 4, rng)
    demands = {
        LinkRef(child, d): rng.randrange(0, 4)
        for child in topo.device_nodes
        for d in Direction
    }
    grouped = demands_by_parent(topo, demands, direction)
    for parent in topo.nodes:
        assert demands_for_parent(topo, demands, parent, direction) == dict(
            grouped.get(parent, {})
        )


# ----------------------------------------------------------------------
# subtree-local interface generation vs full-tree run
# ----------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10 ** 6),
    direction=st.sampled_from(Direction),
    slack=st.integers(0, 2),
)
def test_subtree_interface_generation_matches_full_run(
    seed, direction, slack
):
    """generate_interfaces(root=r) produces byte-identical per-node
    interfaces and layouts to the full-tree pass, for every subtree."""
    from repro.core.interface_gen import generate_interfaces

    rng = random.Random(seed)
    topo = layered_random_tree(18, 4, rng)
    demands = {
        LinkRef(child, direction): rng.randrange(0, 4)
        for child in topo.device_nodes
    }
    full = generate_interfaces(topo, demands, direction, 16, slack)
    for root in topo.non_leaf_nodes():
        local = generate_interfaces(
            topo, demands, direction, 16, slack, root=root
        )
        for node in local.interfaces:
            assert local.interfaces[node] == full.interfaces[node]
        for key, layout in local.layouts.items():
            assert layout == full.layouts[key]


# ----------------------------------------------------------------------
# skyline fast path vs reference packer
# ----------------------------------------------------------------------

rect_lists = st.lists(
    st.tuples(st.integers(1, 14), st.integers(1, 8)),
    min_size=0,
    max_size=16,
).map(lambda sizes: [Rect(w, h, i) for i, (w, h) in enumerate(sizes)])


@settings(max_examples=150, deadline=None)
@given(
    rects=rect_lists,
    width=st.integers(4, 24),
    bound=st.one_of(st.none(), st.integers(1, 14)),
)
def test_fast_skyline_is_byte_identical_to_reference(rects, width, bound):
    fast = SkylinePacker(width, max_height=bound).pack(rects)
    ref = ReferenceSkylinePacker(width, max_height=bound).pack(rects)
    assert fast.placements == ref.placements
    assert fast.unplaced == ref.unplaced
    assert fast.height == ref.height


# ----------------------------------------------------------------------
# free-space occupy pruning and pack_with_obstacles bounds
# ----------------------------------------------------------------------


def _naive_pack_with_obstacles(components, container, obstacles):
    """The greedy placement loop without the infeasibility bounds, over
    the split-and-prune oracle — the pre-optimization behavior of
    :func:`pack_with_obstacles`."""
    return reference_pack_with_obstacles(components, container, obstacles)


placed_rects = st.lists(
    st.tuples(
        st.integers(0, 10), st.integers(0, 6),
        st.integers(1, 8), st.integers(1, 5),
    ),
    min_size=0,
    max_size=6,
).map(lambda quads: [PlacedRect(x, y, w, h) for x, y, w, h in quads])


@settings(max_examples=120, deadline=None)
@given(rects=rect_lists, obstacles=placed_rects)
def test_bounded_pack_with_obstacles_matches_naive(rects, obstacles):
    """The area/dimension rejections never change the outcome: when the
    bound fires, the naive greedy run fails too, and otherwise the
    layouts are identical."""
    container = PlacedRect(0, 0, 16, 8)
    fast = pack_with_obstacles(rects, container, obstacles)
    naive = _naive_pack_with_obstacles(rects, container, obstacles)
    assert fast == naive


@settings(max_examples=120, deadline=None)
@given(occupied=placed_rects)
def test_occupy_targeted_prune_keeps_maximal_free_set(occupied):
    """Free rectangles stay mutually containment-free and exactly cover
    the idle cells after any occupy sequence."""
    container = PlacedRect(0, 0, 14, 8)
    space = FreeSpace(container)
    covered = set()
    for rect in occupied:
        space.occupy(rect)
        covered.update(
            c for c in rect.cells() if container.contains_cell(*c)
        )
    free = space.free_rects
    for i, a in enumerate(free):
        for j, b in enumerate(free):
            if i != j:
                assert not b.contains(a), (a, b)
    idle = set()
    for rect in free:
        idle.update(rect.cells())
    expected = {
        (x, y)
        for x in range(container.x, container.x2)
        for y in range(container.y, container.y2)
    } - covered
    assert idle == expected


# ----------------------------------------------------------------------
# partition sweep-line vs all-pairs disjointness
# ----------------------------------------------------------------------

partition_groups = st.lists(
    st.tuples(
        st.integers(0, 12), st.integers(0, 8),
        st.integers(0, 6), st.integers(0, 4),
    ),
    min_size=0,
    max_size=10,
).map(
    lambda quads: [
        Partition(i + 1, 1, Direction.UP, PlacedRect(x, y, w, h))
        for i, (x, y, w, h) in enumerate(quads)
    ]
)


@settings(max_examples=200, deadline=None)
@given(group=partition_groups)
def test_sweep_line_disjointness_matches_all_pairs(group):
    naive_overlap = any(
        a.region.overlaps(b.region)
        for i, a in enumerate(group)
        for b in group[i + 1:]
    )
    try:
        _check_group_disjoint(list(group))
        fast_overlap = False
    except PartitionIsolationError:
        fast_overlap = True
    assert fast_overlap == naive_overlap


# ----------------------------------------------------------------------
# collision-free certificate vs full conflict analysis
# ----------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10 ** 6),
    assignments=st.integers(0, 40),
    spread=st.integers(1, 30),
)
def test_collision_certificate_matches_conflict_report(
    seed, assignments, spread
):
    """validate_collision_free raises exactly when conflicts() says the
    schedule is not collision-free, for schedules both clean and dirty."""
    rng = random.Random(seed)
    topo = layered_random_tree(10, 3, rng)
    config = SlotframeConfig(num_slots=40, num_channels=4)
    schedule = Schedule(config)
    links = [LinkRef(n, d) for n in topo.device_nodes for d in Direction]
    for _ in range(assignments):
        cell = Cell(rng.randrange(spread), rng.randrange(4))
        link = rng.choice(links)
        try:
            schedule.assign(cell, link)
        except ValueError:
            continue  # duplicate (cell, link) pair
    expected_clean = schedule.conflicts(topo).is_collision_free
    try:
        schedule.validate_collision_free(topo)
        observed_clean = True
    except ScheduleConflictError:
        observed_clean = False
    assert observed_clean == expected_clean

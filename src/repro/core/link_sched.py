"""Distributed schedule generation (Sec. IV-D).

After partition allocation every non-leaf node owns a dedicated
layer-``l(V_i)`` partition — a one-channel row wide enough for all of its
child links.  The node assigns cells to links *locally*, with no
coordination beyond its own partition, using a pluggable real-time
policy.  The paper deploys Rate-Monotonic: links carrying
shorter-period (higher-rate) tasks get the earlier cells.  An EDF
variant is provided for the paper's future-work scenario of diverse
end-to-end deadlines.

Because ``n_s >= Σ r(e)`` by construction (Case 1), the assignment is
always feasible, and because partitions are isolated the union of all
locally generated schedules is collision-free — the property the
integration tests and Fig. 11 verify.
"""

from __future__ import annotations

import math
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from ..net.slotframe import Cell, Schedule, SlotframeConfig
from ..net.tasks import Task, TaskSet, demands_by_parent
from ..net.topology import Direction, LinkRef, TreeTopology
from .partition import Partition, PartitionTable

#: Priority function: (topology, link) -> sort key (ascending = earlier).
PriorityFn = Callable[[TreeTopology, LinkRef], Tuple]


class ScheduleGenerationError(RuntimeError):
    """A node's partition cannot hold its links' demands (should be
    impossible after a correct allocation)."""


class RateMonotonic:
    """RM priority: ascending minimum task period through the link
    (higher-rate links first), ties broken by child id.

    The per-link minimum period lives in one flat table — per link, the
    minimum and how many tasks attain it — built when a topology is
    first queried, instead of re-walking all paths for every link (the
    dominant cost of schedule builds on large trees).  A link carries
    the tasks that start (uplink) or end (downlink) on it plus those of
    its child links, so one bottom-up pass over the nodes builds the
    whole table.  Topologies are immutable (every mutation API returns
    a *new* TreeTopology), so the table is keyed by the identity of the
    topology it describes; querying another one rebuilds it.

    The dynamics layer keeps the table current across ops with O(path)
    deltas (:meth:`apply_change`, :meth:`change_rate`) instead of a
    rebuild per op.  A link whose minimum loses its last task is
    recomputed the same way, deepest link first.
    """

    def __init__(self, task_set: TaskSet) -> None:
        self.task_set = task_set
        self.topology: Optional[TreeTopology] = None
        # Per direction, keyed by the link's child node (int keys keep
        # the tables out of the garbage collector's traversals).
        self._min: Dict[Direction, Dict[int, float]] = {}
        self._count: Dict[Direction, Dict[int, int]] = {}
        # Periods of the tasks starting or ending on each link, kept
        # once a recompute has needed them.
        self._own: Optional[Dict[Direction, Dict[int, List[float]]]] = None
        self._stale: Set[LinkRef] = set()

    def __call__(self, topology: TreeTopology, link: LinkRef) -> Tuple:
        if topology is not self.topology:
            self._build(topology)
        return (
            self._min[link.direction].get(link.child, math.inf),
            link.child,
        )

    def _build(self, topology: TreeTopology) -> None:
        self.topology = topology
        self._min = {direction: {} for direction in Direction}
        self._count = {direction: {} for direction in Direction}
        self._own = None
        self._stale = set()
        own = _own_periods(self.task_set)
        gateway = topology.gateway_id
        for direction in Direction:
            for node in topology.nodes_bottom_up():
                if node != gateway:
                    self._recompute(topology, own, node, direction)

    def _recompute(
        self,
        topology: TreeTopology,
        own: Dict[Direction, Dict[int, List[float]]],
        node: int,
        direction: Direction,
    ) -> None:
        """(Re)derive link ``(node, direction)`` from its own tasks and
        its child links, which must be current."""
        best, count = math.inf, 0
        for period in own[direction].get(node, ()):
            if period < best:
                best, count = period, 1
            elif period == best:
                count += 1
        mins, counts = self._min[direction], self._count[direction]
        for child in topology.children_of(node):
            period = mins.get(child)
            if period is None or period > best:
                continue
            if period < best:
                best, count = period, counts[child]
            else:
                count += counts[child]
        if count:
            mins[node], counts[node] = best, count
        else:
            mins.pop(node, None)
            counts.pop(node, None)

    def _reset(self, task_set: TaskSet) -> None:
        """Describe ``task_set``, rebuilt at the next lookup."""
        self.task_set = task_set
        self.topology = None

    # ------------------------------------------------------------------
    # deltas
    # ------------------------------------------------------------------

    def apply_change(
        self,
        kind: str,
        node: int,
        old_topology: TreeTopology,
        new_topology: TreeTopology,
        old_tasks: TaskSet,
        new_tasks: TaskSet,
    ) -> None:
        """Move the table from ``(old_topology, old_tasks)`` to the state
        after one topology op (the task delta of
        :meth:`~repro.core.demand.DemandLedger.apply_change`)."""
        if self.topology is not old_topology or self.task_set is not old_tasks:
            self._reset(new_tasks)
            return
        if kind == "attach":
            for task in new_tasks:
                if task.task_id not in old_tasks:
                    self._add_task(new_topology, task)
        elif kind == "detach":
            for task in old_tasks:
                if task.task_id not in new_tasks:
                    self._remove_task(old_topology, task)
        elif kind == "reparent":
            # Links inside the moved subtree carry the same tasks before
            # and after; only the paths above it change.  Every removal
            # runs under the old topology before any addition under the
            # new one, so no recompute sees a half-moved subtree.
            moved = set(old_topology.subtree_span(node))
            crossing = [
                task for task in new_tasks
                if task.source in moved
                or (task.echo and task.downlink_target in moved)
            ]
            for task in crossing:
                self._exclude(
                    _links_outside(old_topology, task, moved),
                    task.period_slotframes,
                )
            for task in crossing:
                self._include(
                    _links_outside(new_topology, task, moved),
                    task.period_slotframes,
                )
        else:
            raise ValueError(f"unknown topology change kind {kind!r}")
        self._settle(new_topology, new_tasks)

    def change_rate(
        self,
        topology: TreeTopology,
        old_tasks: TaskSet,
        new_tasks: TaskSet,
        task_id: int,
    ) -> None:
        """Move the table from ``old_tasks`` to ``new_tasks``, which
        differ in the rate of task ``task_id``."""
        if self.topology is not topology or self.task_set is not old_tasks:
            self._reset(new_tasks)
            return
        old, new = old_tasks.by_id(task_id), new_tasks.by_id(task_id)
        if old.period_slotframes != new.period_slotframes:
            # Adding first keeps a shortened period from ever emptying a
            # link's minimum, so only a lengthened one can need a
            # recompute.
            self._add_task(topology, new)
            self._remove_task(topology, old)
        self._settle(topology, new_tasks)

    def _add_task(self, topology: TreeTopology, task: Task) -> None:
        period = task.period_slotframes
        self._include(TaskSet.links_of_task(topology, task), period)
        if self._own is not None:
            for direction, node in _task_ends(task):
                self._own[direction].setdefault(node, []).append(period)

    def _remove_task(self, topology: TreeTopology, task: Task) -> None:
        period = task.period_slotframes
        self._exclude(TaskSet.links_of_task(topology, task), period)
        if self._own is not None:
            for direction, node in _task_ends(task):
                periods = self._own[direction][node]
                periods.remove(period)
                if not periods:
                    del self._own[direction][node]

    def _include(self, links: Iterable[LinkRef], period: float) -> None:
        for link in links:
            mins = self._min[link.direction]
            best = mins.get(link.child)
            if best is None or period < best:
                mins[link.child] = period
                self._count[link.direction][link.child] = 1
            elif period == best:
                self._count[link.direction][link.child] += 1

    def _exclude(self, links: Iterable[LinkRef], period: float) -> None:
        for link in links:
            mins = self._min[link.direction]
            counts = self._count[link.direction]
            best = mins.get(link.child)
            if best is None or period < best:
                self._stale.add(link)  # already lost its minimum
            elif period == best:
                if counts[link.child] > 1:
                    counts[link.child] -= 1
                else:
                    del mins[link.child], counts[link.child]
                    self._stale.add(link)

    def _settle(self, topology: TreeTopology, task_set: TaskSet) -> None:
        """Adopt the new state and recompute every link that lost its
        minimum, children before parents."""
        self.topology, self.task_set = topology, task_set
        stale = []
        for link in self._stale:
            if link.child in topology:
                stale.append(link)
            else:  # the link left with its subtree
                self._min[link.direction].pop(link.child, None)
                self._count[link.direction].pop(link.child, None)
        self._stale = set()
        if not stale:
            return
        if self._own is None:
            self._own = _own_periods(task_set)
        stale.sort(key=lambda link: -topology.depth_of(link.child))
        for link in stale:
            self._recompute(topology, self._own, link.child, link.direction)


def _task_ends(task: Task) -> Iterator[Tuple[Direction, int]]:
    """The link each leg of ``task`` starts (uplink) or ends (downlink)
    on, as (direction, child node)."""
    yield Direction.UP, task.source
    if task.echo:
        yield Direction.DOWN, task.downlink_target


def _own_periods(task_set: TaskSet) -> Dict[Direction, Dict[int, List[float]]]:
    """Per direction and node, the periods of the tasks whose leg starts
    or ends on that node's link."""
    own: Dict[Direction, Dict[int, List[float]]] = {
        direction: {} for direction in Direction
    }
    for task in task_set:
        for direction, node in _task_ends(task):
            own[direction].setdefault(node, []).append(
                task.period_slotframes
            )
    return own


def _links_outside(
    topology: TreeTopology, task: Task, subtree: Set[int]
) -> List[LinkRef]:
    return [
        link for link in TaskSet.links_of_task(topology, task)
        if link.child not in subtree
    ]


def rate_monotonic_priority(task_set: TaskSet) -> RateMonotonic:
    """RM priority over ``task_set`` (see :class:`RateMonotonic`)."""
    return RateMonotonic(task_set)


def edf_priority(deadlines: Mapping[int, float]) -> PriorityFn:
    """EDF-style priority from explicit per-task-source deadlines
    (slotframes); links serving tighter deadlines first."""

    def priority(topology: TreeTopology, link: LinkRef) -> Tuple:
        return (deadlines.get(link.child, math.inf), link.child)

    return priority


def id_priority() -> PriorityFn:
    """Deterministic fallback: order links by child id."""

    def priority(topology: TreeTopology, link: LinkRef) -> Tuple:
        return (link.child,)

    return priority


def partition_cells(
    partition: Partition,
    config: SlotframeConfig,
    wrap_slots: Optional[int] = None,
    limit: Optional[int] = None,
) -> List[Cell]:
    """Enumerate the cells of a partition, slot-major.

    ``wrap_slots`` maps virtual slots beyond the data sub-frame back into
    ``[0, wrap_slots)`` — overflow mode for the Fig. 11(b) study.  In
    normal operation partitions lie inside the frame and no wrapping
    occurs.  ``limit`` stops after the first ``limit`` cells (a node
    hands out only its links' demand, and slack-stretched partitions can
    span most of the frame).
    """
    region = partition.region
    channels = range(region.y, region.y2)
    n_slots = region.width
    if limit is not None and channels:
        n_slots = min(n_slots, -(-limit // len(channels)))
    cells = [
        Cell(slot % wrap_slots if wrap_slots else slot, channel)
        for slot in range(region.x, region.x + n_slots)
        for channel in channels
    ]
    if limit is not None:
        del cells[limit:]
    return cells


def schedule_node_links(
    topology: TreeTopology,
    node: int,
    direction: Direction,
    partition: Partition,
    demands: Mapping[int, int],
    config: SlotframeConfig,
    priority: PriorityFn,
    wrap_slots: Optional[int] = None,
    distribute_idle: bool = False,
    interleave: bool = False,
) -> Dict[int, List[Cell]]:
    """One node's local cell assignment: child id -> cells.

    Cells of the node's partition are handed out contiguously in priority
    order, each link receiving exactly its demand.  With
    ``distribute_idle``, the partition's leftover cells are additionally
    dealt round-robin (priority order) as retransmission headroom — a
    node owns its partition exclusively, so using every cell is free and
    lets lossy links drain their backlog.
    """
    total_demand = sum(demands.values())
    if total_demand > partition.capacity:
        raise ScheduleGenerationError(
            f"node {node} ({direction.value}, layer {partition.layer}): "
            f"demand {total_demand} exceeds partition capacity "
            f"{partition.capacity}"
        )
    cells = partition_cells(
        partition, config, wrap_slots,
        None if distribute_idle else total_demand,
    )
    links = sorted(
        (LinkRef(child, direction) for child in demands),
        key=lambda link: priority(topology, link),
    )
    if interleave:
        assignment = _interleaved_assignment(links, demands, cells)
        cursor = total_demand
    else:
        assignment = {}
        cursor = 0
        for link in links:
            count = demands[link.child]
            assignment[link.child] = cells[cursor:cursor + count]
            cursor += count
    if distribute_idle and links:
        for i, cell in enumerate(cells[cursor:]):
            assignment[links[i % len(links)].child].append(cell)
    return assignment


def _interleaved_assignment(
    links: List[LinkRef],
    demands: Mapping[int, int],
    cells: List[Cell],
) -> Dict[int, List[Cell]]:
    """Spread each link's cells across the partition (weighted
    round-robin dealing, priority first within each round).

    Contiguous blocks minimize bookkeeping but force a packet generated
    just after its link's block to wait almost a full slotframe; dealing
    the cells round-robin bounds that wait by roughly
    ``partition width / demand`` — essential for sub-slotframe deadlines
    on high-rate links.
    """
    total = sum(demands.values())
    assignment: Dict[int, List[Cell]] = {link.child: [] for link in links}
    assigned = {link.child: 0 for link in links}
    for index in range(total):
        # The link whose allocation lags its proportional share the most;
        # ties resolve in priority order (the `links` ordering).
        best = None
        best_deficit = None
        for link in links:
            child = link.child
            if assigned[child] >= demands[child]:
                continue
            deficit = demands[child] * (index + 1) / total - assigned[child]
            if best_deficit is None or deficit > best_deficit:
                best_deficit = deficit
                best = child
        assignment[best].append(cells[index])
        assigned[best] += 1
    return assignment


def build_schedule(
    topology: TreeTopology,
    partitions: PartitionTable,
    link_demands: Mapping[LinkRef, int],
    config: SlotframeConfig,
    priority: Optional[PriorityFn] = None,
    wrap_slots: Optional[int] = None,
    distribute_idle: bool = False,
    interleave: bool = False,
) -> Schedule:
    """Assemble the network-wide schedule from every node's local
    assignment (both directions)."""
    priority = priority or id_priority()
    schedule = Schedule(config)
    for direction in (Direction.UP, Direction.DOWN):
        per_parent = demands_by_parent(topology, link_demands, direction)
        for node, demands in sorted(per_parent.items()):
            partition = partitions.get(node, topology.node_layer(node), direction)
            if partition is None:
                raise ScheduleGenerationError(
                    f"node {node} has link demands but no partition at "
                    f"layer {topology.node_layer(node)} ({direction.value})"
                )
            assignment = schedule_node_links(
                topology,
                node,
                direction,
                partition,
                demands,
                config,
                priority,
                wrap_slots,
                distribute_idle,
                interleave,
            )
            for child, cells in assignment.items():
                schedule.assign_many(cells, LinkRef(child, direction))
    return schedule

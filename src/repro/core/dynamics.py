"""Topology dynamics: node join, leave, and parent switching.

Sec. II motivates HARP with *two* kinds of network dynamics: traffic
changes (handled by :meth:`HarpNetwork.request_rate_change`) and
topology changes — "interference can cause the network nodes to change
their connected nodes to seek for more reliable links".  This module
adds the topology half on top of the same adjustment machinery:

* **attach** — a node joins under a parent (optionally with a task);
  the new link's demand flows into the parent's Case-1 row and up the
  path, through ordinary partition adjustments.
* **detach** — a subtree leaves; its partitions and schedule entries are
  freed and the released cells stay idle inside the old partitions (the
  paper's rate-decrease rule: "the parent node ... readily releases the
  corresponding cells ... the partitions of the subtree do not need to
  be adjusted").
* **reparent** — a subtree switches parent: a detach on the old path, a
  re-registration of the (re-layered) subtree interfaces, and partition
  requests along the new path.

Each incremental change is applied through the management plane so that
its message cost is accounted exactly like traffic adjustments.  When an
incremental step cannot be satisfied (no room on the new path), the
manager falls back to a full re-bootstrap — the static phase re-run —
and reports it, so callers can compare incremental vs full-rebuild cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from ..net.tasks import Task, TaskSet, demands_by_parent, demands_for_parent
from ..net.topology import Direction, LinkRef, TreeTopology
from .adjustment import AdjustmentOutcome
from .demand import LedgerError
from .interface_gen import generate_interfaces
from .link_sched import RateMonotonic
from .manager import HarpNetwork, rate_monotonic_priority


@dataclass
class TopologyChangeReport:
    """Cost and outcome of one topology change."""

    kind: str
    node: int
    outcomes: List[AdjustmentOutcome] = field(default_factory=list)
    rebootstrapped: bool = False
    static_messages: int = 0

    @property
    def success(self) -> bool:
        """True when the network serves the new topology's demands."""
        return self.rebootstrapped or all(o.success for o in self.outcomes)

    @property
    def partition_messages(self) -> int:
        return sum(o.partition_messages for o in self.outcomes)

    @property
    def total_messages(self) -> int:
        """Incremental messages, or the full static-phase cost after a
        re-bootstrap."""
        incremental = sum(o.total_messages for o in self.outcomes)
        return incremental + self.static_messages

    @property
    def involved_nodes(self) -> Set[int]:
        nodes: Set[int] = set()
        for o in self.outcomes:
            nodes |= o.involved_nodes
        return nodes


class _IncrementalFailure(RuntimeError):
    """An incremental adjustment was rejected; re-bootstrap instead."""


class TopologyManager:
    """Applies topology changes to a live :class:`HarpNetwork`.

    The manager follows the network's demand bookkeeping.  A network
    that keeps a :class:`~repro.core.demand.DemandLedger`
    (``HarpNetwork(incremental_demand=True)``, the default) gets
    O(affected) demand and rate-monotonic maintenance plus dirty-set
    reconciliation (only managers whose demands or schedules an op could
    have touched are re-checked).  A network without one gets the naive
    full-recompute/full-scan path, kept as the equivalence oracle — both
    paths are certified to yield byte-identical demands and schedules by
    the property suite and the replayed fuzz corpus.
    """

    def __init__(self, harp: HarpNetwork) -> None:
        self.harp = harp

    # ------------------------------------------------------------------
    # public operations
    # ------------------------------------------------------------------

    def attach(
        self, node: int, parent: int, task: Optional[Task] = None
    ) -> TopologyChangeReport:
        """Join ``node`` under ``parent``, optionally with its task."""
        harp = self.harp
        new_topology = harp.topology.with_attached(node, parent)
        tasks = list(harp.task_set)
        if task is not None:
            if task.source != node:
                raise ValueError(
                    f"task source {task.source} must be the joining node {node}"
                )
            tasks.append(task)
        return self._apply("attach", node, new_topology, TaskSet(tasks))

    def apply_event(
        self, kind: str, node: int, parent: int = 0, rate: float = 1.0
    ) -> object:
        """Dispatch one dynamics stimulus by kind — the shared entry
        point for the fuzz driver's :class:`~repro.verify.generators.
        DynamicsOp` scripts and the workload engine's event streams.

        ``rate_change`` routes through the network's Sec. V procedure
        (returns its :class:`~repro.core.manager.RateChangeReport` —
        a rejection is a legitimate, rolled-back outcome); the topology
        kinds return this manager's :class:`TopologyChangeReport`.
        """
        if kind == "rate_change":
            return self.harp.request_rate_change(node, rate)
        if kind == "attach":
            from ..net.tasks import Task

            return self.attach(
                node,
                parent,
                Task(task_id=node, source=node, rate=rate, echo=True),
            )
        if kind == "detach":
            return self.detach(node)
        if kind == "reparent":
            return self.reparent(node, parent)
        raise ValueError(f"unknown dynamics op kind {kind!r}")

    def detach(self, node: int) -> TopologyChangeReport:
        """Remove ``node``'s subtree (and every task it sources)."""
        harp = self.harp
        removed = set(harp.topology.subtree_span(node))
        new_topology = harp.topology.with_detached(node)
        tasks = TaskSet(
            [
                t
                for t in harp.task_set
                if t.source not in removed and t.downlink_target not in removed
            ]
        )
        return self._apply("detach", node, new_topology, tasks)

    def reparent(self, node: int, new_parent: int) -> TopologyChangeReport:
        """Move ``node``'s subtree under ``new_parent``."""
        harp = self.harp
        new_topology = harp.topology.with_reparented(node, new_parent)
        return self._apply("reparent", node, new_topology, harp.task_set)

    # ------------------------------------------------------------------
    # the incremental machinery
    # ------------------------------------------------------------------

    def _apply(
        self,
        kind: str,
        node: int,
        new_topology: TreeTopology,
        new_tasks: TaskSet,
    ) -> TopologyChangeReport:
        harp = self.harp
        report = TopologyChangeReport(kind=kind, node=node)
        old_topology = harp.topology
        old_tasks = harp.task_set
        moved = (
            set(harp.topology.subtree_span(node))
            if node in harp.topology
            else {node}
        )
        old_managers: List[int] = []
        if node in harp.topology and node != harp.topology.gateway_id:
            old_parent = harp.topology.parent_of(node)
            old_managers = harp.topology.path_to_gateway(old_parent)

        # 1. Free the moved subtree's footprint: schedule entries,
        #    partitions, interface state, and its slots in ancestors'
        #    layouts (the freed cells become idle holes — release rule).
        self._purge_subtree(
            moved, node, old_managers[0] if old_managers else None
        )

        # 2. Swap the network state.
        harp.topology = new_topology
        harp.plane.topology = new_topology
        harp.adjuster.topology = new_topology
        harp.task_set = new_tasks
        ledger = harp.demand_ledger
        if ledger is not None and isinstance(harp.priority, RateMonotonic):
            harp.priority.apply_change(
                kind, node, old_topology, new_topology, old_tasks, new_tasks
            )
        else:
            harp.priority = rate_monotonic_priority(new_tasks)
        if ledger is not None:
            try:
                ledger.apply_change(
                    kind, node, old_topology, new_topology,
                    old_tasks, new_tasks,
                )
            except LedgerError:
                ledger.rebuild(new_topology, new_tasks)
            harp.link_demands = dict(ledger.demands)
        else:
            harp.link_demands = dict(new_tasks.link_demands(new_topology))

        # Managers whose demands or schedules this op can have touched:
        # the moved subtree, both paths, and (below) every node an
        # adjustment involved.  Only these need reconciliation — all
        # others were left fully covered by the previous op's step 5.
        dirty: Optional[Set[int]] = None
        if ledger is not None:
            dirty = set(moved)
            dirty.update(old_managers)
            if node in new_topology:
                dirty.update(new_topology.path_to_gateway(node))

        try:
            # 3. Re-register the subtree's interfaces with their new
            #    layer indices (reparent/attach only).
            if kind in ("attach", "reparent") and node in new_topology:
                self._register_subtree_interfaces(node, moved)
                self._request_subtree_partitions(node, report)
                self._grow_new_path(node, report)
            # 4. Shrink the old path: each former ancestor releases the
            #    departed traffic's cells inside its unchanged partition
            #    (the paper's rate-decrease rule).
            for manager in old_managers:
                if manager in harp.topology:
                    for direction in (Direction.UP, Direction.DOWN):
                        harp._reschedule_node(manager, direction)
            if dirty is not None:
                for outcome in report.outcomes:
                    dirty.update(outcome.involved_nodes)
                    dirty.update(key[0] for key in outcome.moved_partitions)
            # 5. Safety net: every remaining link must cover its demand,
            #    and what changed since the last certificate (this op and
            #    any rate changes before it) keeps isolation and
            #    collision freedom — a violation re-bootstraps below.
            self._reconcile_managers(report, dirty)
            if not report.success:
                raise _IncrementalFailure()
            self._verify_coverage(dirty)
            harp.validate_changes()
        except Exception:
            # Incremental reconfiguration failed: fall back to the full
            # static phase on the new state.
            static = harp.rebootstrap()
            report.rebootstrapped = True
            report.static_messages = static.total_messages
            harp.validate()
        return report

    def _purge_subtree(
        self, moved: Set[int], root: int, old_parent: Optional[int]
    ) -> None:
        harp = self.harp
        schedule = harp.schedule
        for member in moved:
            for direction in (Direction.UP, Direction.DOWN):
                schedule.remove_link(LinkRef(member, direction))
        for direction in (Direction.UP, Direction.DOWN):
            table = harp.tables[direction]
            for member in moved:
                table.interfaces.pop(member, None)
                for partition in list(harp.partitions.of_node(member)):
                    harp.partitions.remove(
                        partition.owner, partition.layer, partition.direction
                    )
            # Drop the subtree's own layouts; the only layouts *outside*
            # the subtree referencing a moved node belong to the old
            # parent (the single tree edge into the subtree), and the
            # referenced tag is the subtree root — so the full
            # layouts-dict rebuild reduces to these targeted edits.
            stale = [key for key in table.layouts if key[0] in moved]
            for key in stale:
                del table.layouts[key]
            if old_parent is not None and old_parent not in moved:
                for key, layout in table.layouts.items():
                    if key[0] == old_parent:
                        table.layouts[key] = {
                            child: rect
                            for child, rect in layout.items()
                            if int(child) != root
                        }

    def _register_subtree_interfaces(self, root: int, moved: Set[int]) -> None:
        """Regenerate the moved subtree's interfaces (fresh layer
        indices) and merge them into the live tables.

        Generation is restricted to ``root``'s subtree — a member's
        interface depends only on demands and child interfaces inside
        the subtree, so the results match a full-tree regeneration —
        and reuses the network's composition cache.
        """
        harp = self.harp
        for direction in (Direction.UP, Direction.DOWN):
            fresh = generate_interfaces(
                harp.topology,
                harp.link_demands,
                direction,
                harp.config.num_channels,
                harp.case1_slack,
                cache=harp.composition_cache,
                root=root,
            )
            table = harp.tables[direction]
            for member in moved:
                if member in fresh.interfaces:
                    table.interfaces[member] = fresh.interfaces[member]
            for (owner, layer), layout in fresh.layouts.items():
                if owner in moved:
                    table.layouts[(owner, layer)] = layout

    def _request_subtree_partitions(
        self, node: int, report: TopologyChangeReport
    ) -> None:
        """Ask the network for the moved subtree root's own components;
        escalation carves new partitions out of the new path."""
        harp = self.harp
        for direction in (Direction.UP, Direction.DOWN):
            table = harp.tables[direction]
            if node not in table.interfaces:
                continue
            for component in list(table.interfaces[node]):
                if component.is_empty:
                    continue
                outcome = harp.adjuster.request_component_increase(
                    node,
                    component.layer,
                    direction,
                    component.n_slots,
                    component.n_channels,
                )
                report.outcomes.append(outcome)
                if not outcome.success:
                    return

    def _grow_new_path(self, node: int, report: TopologyChangeReport) -> None:
        """Grow the Case-1 rows of every manager on the new path (they
        now forward the subtree's traffic)."""
        harp = self.harp
        topology = harp.topology
        path_managers = [
            n for n in topology.path_to_gateway(node) if n != node
        ]
        for direction in (Direction.UP, Direction.DOWN):
            for manager in path_managers:  # deepest first already
                demands = demands_for_parent(
                    topology, harp.link_demands, manager, direction
                )
                if not demands:
                    continue
                new_total = sum(demands.values())
                layer = topology.node_layer(manager)
                table = harp.tables[direction]
                current = (
                    table.component(manager, layer).n_slots
                    if table.has_component(manager, layer)
                    else 0
                )
                if new_total <= current:
                    outcome = harp.adjuster.release_component(
                        manager, layer, direction, max(current, new_total)
                    )
                else:
                    outcome = harp.adjuster.request_component_increase(
                        manager, layer, direction,
                        new_total + harp.case1_slack,
                    )
                report.outcomes.append(outcome)
                if not outcome.success:
                    return

    def _verify_coverage(self, dirty: Optional[Set[int]] = None) -> None:
        """Every link must hold at least its demand, or the incremental
        path has failed and a re-bootstrap is required.

        With a ``dirty`` set, only links managed by dirty nodes are
        checked: all other links kept both their demand and their
        schedule cells (the previous op ended fully covered), so the
        restricted check certifies the same invariant.
        """
        harp = self.harp
        if dirty is None:
            for link, demand in harp.link_demands.items():
                if len(harp.schedule.cells_of(link)) < demand:
                    raise _IncrementalFailure(
                        f"link {link} holds fewer cells than its "
                        f"demand {demand}"
                    )
            return
        topology = harp.topology
        demands = harp.link_demands
        for manager in dirty:
            if manager not in topology:
                continue
            for child in topology.children_of(manager):
                for direction in (Direction.UP, Direction.DOWN):
                    link = LinkRef(child, direction)
                    demand = demands.get(link, 0)
                    if demand and len(harp.schedule.cells_of(link)) < demand:
                        raise _IncrementalFailure(
                            f"link {link} holds fewer cells than its "
                            f"demand {demand}"
                        )

    def _reconcile_managers(
        self,
        report: TopologyChangeReport,
        dirty: Optional[Set[int]] = None,
    ) -> None:
        """Ensure every link's schedule covers its (new) demand; shrunk
        managers reschedule inside their unchanged partitions.

        With a ``dirty`` set only those managers are examined.  Each
        manager's reschedule depends only on its own demands, partition
        and the global priority order, so skipping provably-untouched
        managers leaves the resulting schedule byte-identical to the
        full scan (asserted by the equivalence property suite).
        """
        harp = self.harp
        if dirty is not None:
            topology = harp.topology
            for direction in (Direction.UP, Direction.DOWN):
                for manager in sorted(dirty):
                    if manager not in topology:
                        continue
                    children = topology.children_of(manager)
                    if not children:
                        continue
                    demands = demands_for_parent(
                        topology, harp.link_demands, manager, direction
                    )
                    if not demands:
                        # Lost all demand: drop stale cells.
                        harp._reschedule_node(manager, direction)
                        continue
                    satisfied = all(
                        len(harp.schedule.cells_of(LinkRef(child, direction)))
                        >= cells
                        for child, cells in demands.items()
                    )
                    if not satisfied:
                        harp._reschedule_node(manager, direction)
            return
        for direction in (Direction.UP, Direction.DOWN):
            per_parent = demands_by_parent(
                harp.topology, harp.link_demands, direction
            )
            for manager, demands in sorted(per_parent.items()):
                satisfied = all(
                    len(harp.schedule.cells_of(LinkRef(child, direction)))
                    >= cells
                    for child, cells in demands.items()
                )
                if not satisfied:
                    harp._reschedule_node(manager, direction)
            # Managers that lost all children must drop stale cells.
            for manager in harp.topology.non_leaf_nodes():
                if manager not in per_parent:
                    harp._reschedule_node(manager, direction)

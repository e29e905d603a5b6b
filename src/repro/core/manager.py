"""HARP network manager: the three phases glued together (Fig. 2).

:class:`HarpNetwork` is the library's main entry point.  It owns the
network state — topology, task set, per-link demands, interface tables,
partition table, schedule and management plane — and exposes:

* :meth:`allocate` — the static partition-allocation phase (bottom-up
  interface generation, top-down placement) followed by distributed
  schedule generation;
* :meth:`request_rate_change` — the dynamic phase: a task's rate changes
  at runtime and every affected link's managing node absorbs or
  escalates the change (Sec. V);
* :meth:`adjuster` access for component-level requests (the Table II
  event form);
* validation helpers asserting HARP's isolation and collision-freedom
  guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..net.protocol.transport import ManagementPlane
from ..net.slotframe import ConflictReport, Schedule, SlotframeConfig
from ..net.tasks import TaskSet, demands_for_parent
from ..net.topology import Direction, LinkRef, TreeTopology
from ..packing.composition import CompositionCache
from .adjustment import AdjustmentOutcome, PartitionAdjuster
from .allocation import (
    AllocationReport,
    InsufficientResourcesError,
    allocate_partitions,
)
from .demand import DemandLedger
from .interface_gen import InterfaceTable, generate_interfaces
from .link_sched import (
    PriorityFn,
    RateMonotonic,
    build_schedule,
    rate_monotonic_priority,
    schedule_node_links,
)
from .partition import PartitionTable


@dataclass
class StaticPhaseReport:
    """Cost summary of the static partition-allocation phase."""

    post_intf_messages: int = 0
    post_part_messages: int = 0
    allocation: AllocationReport = field(default_factory=AllocationReport)

    @property
    def total_messages(self) -> int:
        """All management messages the static phase exchanged."""
        return self.post_intf_messages + self.post_part_messages


@dataclass
class RateChangeReport:
    """Aggregate of the adjustments triggered by one task-rate change."""

    task_id: int
    old_rate: float
    new_rate: float
    outcomes: List[AdjustmentOutcome] = field(default_factory=list)

    @property
    def success(self) -> bool:
        """True when every per-link adjustment succeeded."""
        return all(o.success for o in self.outcomes)

    @property
    def partition_messages(self) -> int:
        return sum(o.partition_messages for o in self.outcomes)

    @property
    def schedule_update_messages(self) -> int:
        return sum(o.schedule_update_messages for o in self.outcomes)

    @property
    def total_messages(self) -> int:
        return sum(o.total_messages for o in self.outcomes)

    @property
    def elapsed_slots(self) -> int:
        return sum(o.elapsed_slots for o in self.outcomes)

    @property
    def involved_nodes(self) -> set:
        nodes: set = set()
        for o in self.outcomes:
            nodes |= o.involved_nodes
        return nodes


class HarpNetwork:
    """End-to-end HARP resource management over one tree network.

    Parameters
    ----------
    topology, task_set, config:
        The network under management.
    priority:
        Link-scheduling policy for the distributed phase; defaults to
        Rate-Monotonic over the task set (the paper's choice).
    allow_overflow:
        Permit allocations past the data sub-frame, wrapping virtual
        slots back into the frame (collisions accepted) — only for the
        degraded-channel study of Fig. 11(b).
    case1_slack:
        Extra cells provisioned per Case-1 component so small traffic
        increases can be absorbed locally, as the testbed's partitions
        do in Fig. 10 (default 0: exact provisioning).
    distribute_slack:
        Stretch partitions so the whole data sub-frame is distributed
        through the hierarchy, giving every subtree runtime headroom
        (the testbed's loose Fig. 7(d) layout); default off.
    distribute_idle_cells:
        Assign every partition's leftover cells to its links as
        retransmission headroom (a node owns its partition exclusively,
        so the extra cells are free); keeps lossy links from building
        unbounded queues.  Default off so scheduler comparisons stay
        demand-for-demand fair.
    composition_cache:
        Memoization of Algorithm-1 compositions by child size multiset,
        shared across the static phase, every dynamic adjustment and
        :meth:`rebootstrap`.  Pass an existing
        :class:`~repro.packing.composition.CompositionCache` to share it
        wider (e.g. across the networks of a sweep), or ``None``
        (default) for a private per-network cache.  Hit/miss counters
        are exposed as ``network.composition_cache.stats()``.
    incremental_demand:
        Maintain per-link demands incrementally through a
        :class:`~repro.core.demand.DemandLedger` (O(affected links) per
        dynamics op) instead of recomputing them from scratch.  Both
        paths follow the exact summation-order contract of
        :mod:`repro.net.tasks`, so results are byte-identical; the
        naive path (``False``) is kept as the equivalence oracle.  A
        :class:`~repro.core.dynamics.TopologyManager` over this network
        follows the same choice.
    """

    def __init__(
        self,
        topology: TreeTopology,
        task_set: TaskSet,
        config: Optional[SlotframeConfig] = None,
        priority: Optional[PriorityFn] = None,
        allow_overflow: bool = False,
        case1_slack: int = 0,
        distribute_slack: bool = False,
        distribute_idle_cells: bool = False,
        eviction_policy: str = "closest",
        interleave_cells: bool = False,
        compliant_ordering: bool = True,
        composition_cache: Optional[CompositionCache] = None,
        incremental_demand: bool = True,
    ) -> None:
        self.topology = topology
        self.task_set = task_set
        self.config = config or SlotframeConfig()
        self.priority = priority or rate_monotonic_priority(task_set)
        self.allow_overflow = allow_overflow
        self.case1_slack = case1_slack
        self.distribute_slack = distribute_slack
        self.distribute_idle_cells = distribute_idle_cells
        self.eviction_policy = eviction_policy
        self.interleave_cells = interleave_cells
        self.compliant_ordering = compliant_ordering
        self.composition_cache = (
            composition_cache if composition_cache is not None
            else CompositionCache()
        )

        self.demand_ledger: Optional[DemandLedger] = (
            DemandLedger(topology, task_set) if incremental_demand else None
        )
        if self.demand_ledger is not None:
            self.link_demands: Dict[LinkRef, int] = dict(
                self.demand_ledger.demands
            )
        else:
            self.link_demands = dict(task_set.link_demands(topology))
        self.tables: Dict[Direction, InterfaceTable] = {}
        self.partitions = PartitionTable()
        self.plane = ManagementPlane(self.config, topology)
        self._schedule: Optional[Schedule] = None
        self._adjuster: Optional[PartitionAdjuster] = None
        self._wrap_slots: Optional[int] = None
        self.static_report: Optional[StaticPhaseReport] = None

    # ------------------------------------------------------------------
    # static phase
    # ------------------------------------------------------------------

    def allocate(self) -> StaticPhaseReport:
        """Run interface generation, partition allocation and distributed
        schedule generation.  Must be called before anything else."""
        report = StaticPhaseReport()
        for direction in (Direction.UP, Direction.DOWN):
            table = generate_interfaces(
                self.topology,
                self.link_demands,
                direction,
                self.config.num_channels,
                self.case1_slack,
                cache=self.composition_cache,
            )
            self.tables[direction] = table
            report.post_intf_messages += table.post_intf_messages

        self.partitions, report.allocation = allocate_partitions(
            self.topology, self.tables, self.config, self.allow_overflow,
            self.distribute_slack, self.compliant_ordering,
        )
        report.post_part_messages = report.allocation.post_part_messages
        self._wrap_slots = (
            self.config.data_slots if report.allocation.overflowed else None
        )
        self._schedule = build_schedule(
            self.topology,
            self.partitions,
            self.link_demands,
            self.config,
            self.priority,
            self._wrap_slots,
            self.distribute_idle_cells,
            self.interleave_cells,
        )
        self._adjuster = PartitionAdjuster(
            self.topology,
            self.tables,
            self.partitions,
            self.config,
            self.plane,
            self._reschedule_node,
            self.allow_overflow,
            self.eviction_policy,
            composition_cache=self.composition_cache,
        )
        self.static_report = report
        return report

    @property
    def schedule(self) -> Schedule:
        """The current network-wide schedule (allocate() first)."""
        if self._schedule is None:
            raise RuntimeError("call allocate() before reading the schedule")
        return self._schedule

    @property
    def stats(self) -> Dict[str, object]:
        """Observability counters: composition-cache traffic
        (hits/misses/entries).  Counters only; never part of any result
        contract."""
        return {"composition_cache": self.composition_cache.stats()}

    @property
    def adjuster(self) -> PartitionAdjuster:
        """Low-level dynamic adjustment interface (allocate() first)."""
        if self._adjuster is None:
            raise RuntimeError("call allocate() before adjusting")
        return self._adjuster

    # ------------------------------------------------------------------
    # dynamic phase
    # ------------------------------------------------------------------

    def request_rate_change(
        self, task_id: int, new_rate: float
    ) -> RateChangeReport:
        """Change one task's rate at runtime and reconfigure the network.

        Every link on the task's routing path sees its demand change;
        each link's managing node runs the Sec. V procedure — local
        schedule update when idle cells suffice, partition adjustment and
        escalation otherwise.  Managing nodes are processed deepest
        first, mirroring how queued traffic pressure appears hop by hop.
        """
        task = self.task_set.by_id(task_id)
        report = RateChangeReport(
            task_id=task_id, old_rate=task.rate, new_rate=new_rate
        )
        new_task_set = self.task_set.with_rate(task_id, new_rate)
        if self.demand_ledger is not None:
            # O(path) preview from the ledger's exact sums — identical
            # to the full recompute under the summation-order contract.
            new_demands = self.demand_ledger.preview_rate_change(
                self.topology, task, new_rate
            )
        else:
            new_demands = new_task_set.link_demands(self.topology)

        affected = TaskSet.links_of_task(self.topology, task)
        # Deepest managing nodes first within each direction leg.
        ordered = sorted(
            affected,
            key=lambda link: (
                link.direction.value,
                -self.topology.link_layer(link.child),
            ),
        )
        applied: List[Tuple[LinkRef, int]] = []
        for link in ordered:
            old_demand = self.link_demands.get(link, 0)
            new_demand = new_demands.get(link, 0)
            if new_demand == old_demand:
                continue
            self.link_demands[link] = new_demand
            outcome = self._adjust_managing_node(link)
            report.outcomes.append(outcome)
            if not outcome.success:
                # Roll the demand back so state matches the (restored)
                # partitions — on this link and on every link already
                # moved to the rejected rate, whose managing nodes then
                # release the extra cells through the normal shrink
                # path.  The task set keeps the old rate, so demands
                # must end where they started.
                self.link_demands[link] = old_demand
                self._reschedule_node(
                    self.topology.parent_of(link.child), link.direction
                )
                for prev_link, prev_demand in reversed(applied):
                    self.link_demands[prev_link] = prev_demand
                    self._adjust_managing_node(prev_link)
                return report
            applied.append((link, old_demand))

        if self.demand_ledger is not None:
            self.demand_ledger.change_rate(self.topology, task, new_rate)
        # Without a ledger (the naive oracle path) RM is rebuilt too.
        if self.demand_ledger is not None and isinstance(
            self.priority, RateMonotonic
        ):
            self.priority.change_rate(
                self.topology, self.task_set, new_task_set, task_id
            )
        else:
            self.priority = rate_monotonic_priority(new_task_set)
        self.task_set = new_task_set
        return report

    def _adjust_managing_node(self, link: LinkRef) -> AdjustmentOutcome:
        """Run the adjustment for the node managing ``link`` after
        ``self.link_demands`` has been updated."""
        manager = self.topology.parent_of(link.child)
        layer = self.topology.link_layer(link.child)
        new_total = sum(
            demands_for_parent(
                self.topology, self.link_demands, manager, link.direction
            ).values()
        )
        old_component = None
        table = self.tables[link.direction]
        if table.has_component(manager, layer):
            old_component = table.component(manager, layer)
        if old_component is not None and new_total <= old_component.n_slots:
            # The change fits the provisioned component (possibly thanks
            # to slack): keep the partition as-is, reschedule locally.
            return self.adjuster.release_component(
                manager, layer, link.direction, old_component.n_slots
            )
        # Request growth, re-establishing the provisioning headroom.
        return self.adjuster.request_component_increase(
            manager, layer, link.direction, new_total + self.case1_slack
        )

    def _reschedule_node(self, node: int, direction: Direction) -> int:
        """Rebuild ``node``'s local link schedule inside its (possibly
        moved) partition; returns schedule-update message count.

        Only links whose sorted cells change are touched in the
        schedule — exactly the links the message count counts."""
        schedule = self._schedule
        if schedule is None:
            return 0
        demands = demands_for_parent(
            self.topology, self.link_demands, node, direction
        )
        old_cells = {
            child: schedule.cells_of(LinkRef(child, direction))
            for child in self.topology.children_of(node)
        }
        partition = self.partitions.get(
            node, self.topology.node_layer(node), direction
        )
        if not demands or partition is None:
            for child in old_cells:
                schedule.remove_link(LinkRef(child, direction))
            # Children that lost all demand are told to drop their cells.
            return 0 if demands else sum(1 for c in old_cells.values() if c)
        # During a multi-step reconfiguration the demand may transiently
        # exceed a not-yet-grown partition (e.g. a neighbour's adjustment
        # relocates this node's region before its own growth request has
        # run).  Degrade gracefully: trim the lowest-priority links'
        # cells to fit; the pending growth restores full coverage, and
        # the dynamics layer verifies coverage at the end.
        capacity = partition.capacity
        if sum(demands.values()) > capacity:
            demands = dict(demands)
            order = sorted(
                demands,
                key=lambda child: self.priority(
                    self.topology, LinkRef(child, direction)
                ),
                reverse=True,
            )
            for child in order:
                excess = sum(demands.values()) - capacity
                if excess <= 0:
                    break
                demands[child] = max(0, demands[child] - excess)
            demands = {c: n for c, n in demands.items() if n > 0}
        assignment = schedule_node_links(
            self.topology,
            node,
            direction,
            partition,
            demands,
            self.config,
            self.priority,
            self._wrap_slots,
            self.distribute_idle_cells,
            self.interleave_cells,
        )
        changes = {}
        for child, old in old_cells.items():
            cells = assignment.get(child, [])
            if sorted(cells) != old:
                changes[LinkRef(child, direction)] = cells
        schedule.replace_cells(changes)
        return sum(1 for cells in changes.values() if cells)

    def rebootstrap(self) -> StaticPhaseReport:
        """Re-run the full static phase on the current topology/tasks.

        The fallback for topology changes the incremental machinery
        cannot absorb; costs a whole static-phase message exchange.
        """
        if self.demand_ledger is not None:
            self.demand_ledger.rebuild(self.topology, self.task_set)
            self.link_demands = dict(self.demand_ledger.demands)
        else:
            self.link_demands = dict(
                self.task_set.link_demands(self.topology)
            )
        self.tables = {}
        self.partitions = PartitionTable()
        self._schedule = None
        self._adjuster = None
        return self.allocate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def collision_report(self) -> ConflictReport:
        """Conflict analysis of the current schedule."""
        return self.schedule.conflicts(self.topology)

    def validate(self) -> None:
        """Assert HARP's invariants: partition isolation and (unless in
        overflow mode) a collision-free schedule.

        A pass is a certificate for the whole network, so it also starts
        recording what the partition table and the schedule hand out
        next, for :meth:`validate_changes`."""
        self.partitions.validate_isolation(self.topology)
        if not self.allow_overflow:
            self.schedule.validate_collision_free(self.topology)
        self.partitions.record_changes()
        if self._schedule is not None:
            self._schedule.record_changes()

    def validate_changes(self) -> None:
        """Assert the same invariants as :meth:`validate`, checking only
        what changed since its last certificate: the partitions set or
        removed and the links assigned cells, by any op in between (rate
        changes included).

        Runs the whole-network :meth:`validate` instead when nothing is
        being recorded (a fresh or re-bootstrapped network).  A pass
        starts a fresh record."""
        partitions, schedule = self.partitions, self._schedule
        if (
            partitions.changed is None
            or schedule is None
            or schedule.changed is None
        ):
            self.validate()
            return
        partitions.validate_keys_isolation(self.topology, partitions.changed)
        if not self.allow_overflow:
            schedule.validate_links_collision_free(
                self.topology, schedule.changed
            )
        partitions.record_changes()
        schedule.record_changes()

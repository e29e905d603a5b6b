"""Invariant oracles: composable checkers over a configured network.

Each oracle inspects one facet of a :class:`~repro.core.manager.HarpNetwork`
(or a simulator run derived from it) and reports
:class:`Violation` records — never raises — so the fuzz driver can
attribute every failure to the specific invariant that broke and keep
going.  The catalogue:

``isolation``
    Partition isolation (child inside parent, siblings disjoint,
    top-level partitions disjoint) via
    :meth:`PartitionTable.validate_isolation`.
``collision-freedom``
    No cell shared by two links and no half-duplex node conflicts,
    via :meth:`Schedule.validate_collision_free`.  Skipped in overflow
    mode, where wrapped cells collide by design.
``audit:<name>``
    Every cross-structure audit from :data:`repro.core.audit.AUDIT_CHECKS`
    (demand/schedule/partition/interface/layout agreement and
    composition-interior consistency).
``rm-feasibility``
    Necessary structural conditions for Rate-Monotonic schedulability:
    each managing node's partition holds its links' summed demand
    (unless overflowed), and every task's effective deadline is at
    least its hop count in slots (one hop needs at least one slot).
``conservation``
    The engine's packet-conservation laws, exercised by short perfect
    and adversarial (lossy, bounded-queue, TTL, crash) simulator runs —
    see :func:`run_conservation`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List

from ..core.audit import AUDIT_CHECKS
from ..core.manager import HarpNetwork
from ..core.partition import PartitionIsolationError
from ..net.radio import UniformPDR
from ..net.sim.engine import TSCHSimulator
from ..net.sim.faults import FaultPlan
from ..net.slotframe import ScheduleConflictError
from ..net.tasks import TaskSet, demands_by_parent
from ..net.topology import Direction


@dataclass(frozen=True)
class Violation:
    """One invariant breach, attributed to the oracle that caught it."""

    oracle: str
    message: str

    def to_dict(self) -> Dict[str, Any]:
        return {"oracle": self.oracle, "message": self.message}

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Violation":
        return cls(oracle=doc["oracle"], message=doc["message"])


def _overflowed(harp: HarpNetwork) -> bool:
    return bool(
        harp.static_report and harp.static_report.allocation.overflowed
    )


# ----------------------------------------------------------------------
# structural oracles
# ----------------------------------------------------------------------


def check_isolation(harp: HarpNetwork) -> List[Violation]:
    """Partition isolation invariants (HARP's Theorem-1 precondition)."""
    try:
        harp.partitions.validate_isolation(harp.topology)
    except PartitionIsolationError as exc:
        return [Violation("isolation", str(exc))]
    return []


def check_collision_freedom(harp: HarpNetwork) -> List[Violation]:
    """Cell and half-duplex conflict freedom; vacuous in overflow mode."""
    if harp.allow_overflow or _overflowed(harp):
        return []
    try:
        harp.schedule.validate_collision_free(harp.topology)
    except ScheduleConflictError as exc:
        return [Violation("collision-freedom", str(exc))]
    return []


def check_audits(harp: HarpNetwork) -> List[Violation]:
    """Every registered cross-structure audit, attributed per check."""
    out: List[Violation] = []
    for name, check in AUDIT_CHECKS.items():
        for finding in check(harp):
            out.append(Violation(f"audit:{name}", finding))
    return out


def check_rm_feasibility(harp: HarpNetwork) -> List[Violation]:
    """Necessary conditions for RM schedulability of the admitted set.

    These are deliberately *necessary*, not sufficient: a sufficient
    test would reject legitimately-schedulable networks and make the
    oracle unsound.  What must always hold once allocation succeeded:

    * each managing node's partition covers the summed demand of its
      child links (skipped when the allocator declared overflow);
    * each task's end-to-end deadline is at least its hop count in
      slots — a packet needs one slot per hop at minimum.
    """
    out: List[Violation] = []
    if not _overflowed(harp):
        for direction in (Direction.UP, Direction.DOWN):
            per_parent = demands_by_parent(
                harp.topology, harp.link_demands, direction
            )
            for manager, demands in per_parent.items():
                layer = harp.topology.node_layer(manager)
                partition = harp.partitions.get(manager, layer, direction)
                total = sum(demands.values())
                if partition is None:
                    if total > 0:
                        out.append(
                            Violation(
                                "rm-feasibility",
                                f"node {manager} manages {total} "
                                f"{direction.value} cells but holds no "
                                "partition",
                            )
                        )
                    continue
                if partition.capacity < total:
                    out.append(
                        Violation(
                            "rm-feasibility",
                            f"node {manager}'s {direction.value} partition "
                            f"capacity {partition.capacity} < summed "
                            f"demand {total}",
                        )
                    )
    for task in harp.task_set:
        hops = len(TaskSet.links_of_task(harp.topology, task))
        deadline_slots = (
            task.effective_deadline_slotframes * harp.config.num_slots
        )
        if deadline_slots < hops:
            out.append(
                Violation(
                    "rm-feasibility",
                    f"task {task.task_id}: deadline {deadline_slots:.1f} "
                    f"slots cannot cover its {hops}-hop path",
                )
            )
    return out


def check_scenario_network(harp: HarpNetwork) -> List[Violation]:
    """All structural oracles over one configured network."""
    out: List[Violation] = []
    out.extend(check_isolation(harp))
    out.extend(check_collision_freedom(harp))
    out.extend(check_audits(harp))
    out.extend(check_rm_feasibility(harp))
    return out


# ----------------------------------------------------------------------
# dynamic oracle: engine conservation laws
# ----------------------------------------------------------------------


def run_conservation(
    harp: HarpNetwork,
    seed: int = 0,
    slotframes: int = 3,
) -> List[Violation]:
    """Exercise the engine's conservation laws on the network's schedule.

    Two short runs:

    * a *perfect* run (no loss, no faults, unbounded queues) — every
      conservation law must close, and if the schedule is statically
      collision-free the run must see zero collision and half-duplex
      failures (the simulator agreeing with the static analysis);
    * an *adversarial* run (lossy radio, queue capacity 2, short packet
      lifetime, one mid-run node crash) — drops of every cause fire,
      and each must be attributed exactly once.
    """
    out: List[Violation] = []
    rng = random.Random(seed)

    # Perfect run.
    sim = TSCHSimulator(
        harp.topology, harp.schedule, harp.task_set, harp.config
    )
    sim.run_slotframes(slotframes)
    for finding in sim.conservation_findings():
        out.append(Violation("conservation", f"perfect run: {finding}"))
    statically_clean = harp.collision_report().is_collision_free
    if statically_clean and (
        sim.metrics.collision_failures or sim.metrics.half_duplex_failures
    ):
        out.append(
            Violation(
                "conservation",
                "simulator observed "
                f"{sim.metrics.collision_failures} collision and "
                f"{sim.metrics.half_duplex_failures} half-duplex failures "
                "on a statically collision-free schedule",
            )
        )

    # Adversarial run: loss + bounded queues + TTL + a crash.
    device_nodes = harp.topology.device_nodes
    plan = FaultPlan()
    if device_nodes:
        victim = device_nodes[rng.randrange(len(device_nodes))]
        plan = FaultPlan.single_crash(
            victim,
            at_slot=harp.config.num_slots,
            recover_slot=harp.config.num_slots * 2,
        )
    sim = TSCHSimulator(
        harp.topology,
        harp.schedule,
        harp.task_set,
        harp.config,
        loss_model=UniformPDR(0.7),
        rng=random.Random(seed + 1),
        queue_capacity=2,
        max_packet_age_slots=harp.config.num_slots,
        fault_plan=plan,
    )
    sim.run_slotframes(slotframes)
    for finding in sim.conservation_findings():
        out.append(Violation("conservation", f"adversarial run: {finding}"))
    return out

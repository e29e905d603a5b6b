"""Slotframe, cells and link schedules for multi-channel TDMA networks.

The basic resource unit is the *cell*: a (time slot, channel) pair within
a repeating slotframe (Sec. II-A).  A *schedule* assigns cells to links.
Baseline distributed schedulers can assign the same cell to several links
— that is precisely the collision phenomenon Sec. VII-A measures — so the
schedule stores a list of links per cell and exposes conflict analysis
(cell conflicts and half-duplex/node conflicts) used by the evaluation.

The testbed (Sec. VI-A) splits the slotframe into a Data sub-frame
(hierarchically partitioned for application traffic) and a Management
sub-frame (enhanced beacons, RPL, keep-alives and HARP messages); the
:class:`SlotframeConfig` captures that split.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

from .topology import LinkRef, TreeTopology


class Cell(NamedTuple):
    """One (slot, channel) resource unit within the slotframe."""

    slot: int
    channel: int


@dataclass(frozen=True)
class SlotframeConfig:
    """Static slotframe parameters.

    Defaults mirror the testbed: 199 slots, all 16 IEEE 802.15.4
    channels, 10 ms slots (slotframe period 1.99 s), with the trailing
    ``management_slots`` reserved for the Management sub-frame.
    """

    num_slots: int = 199
    num_channels: int = 16
    slot_duration_s: float = 0.01
    management_slots: int = 0

    def __post_init__(self) -> None:
        if self.num_slots <= 0:
            raise ValueError(f"num_slots must be positive, got {self.num_slots}")
        if self.num_channels <= 0:
            raise ValueError(
                f"num_channels must be positive, got {self.num_channels}"
            )
        if not 0 <= self.management_slots < self.num_slots:
            raise ValueError(
                f"management_slots must be in [0, {self.num_slots}), "
                f"got {self.management_slots}"
            )

    @property
    def data_slots(self) -> int:
        """Slots available to the Data sub-frame."""
        return self.num_slots - self.management_slots

    @property
    def management_slot_range(self) -> range:
        """Slot indices of the Management sub-frame (may be empty)."""
        return range(self.data_slots, self.num_slots)

    @property
    def duration_s(self) -> float:
        """Wall-clock duration of one slotframe in seconds."""
        return self.num_slots * self.slot_duration_s

    @property
    def total_cells(self) -> int:
        """Cells per slotframe across all channels."""
        return self.num_slots * self.num_channels

    def contains(self, cell: Cell) -> bool:
        """Whether ``cell`` lies within the slotframe."""
        return 0 <= cell.slot < self.num_slots and 0 <= cell.channel < self.num_channels

    def slot_of_time(self, t_seconds: float) -> int:
        """Absolute slot index reached at wall-clock time ``t_seconds``."""
        return int(t_seconds / self.slot_duration_s)


@dataclass
class ConflictReport:
    """Schedule conflict analysis (the Sec. VII-A collision metric).

    ``cell_conflicts`` lists cells assigned to two or more links.
    ``node_conflicts`` lists (slot, node) pairs where a half-duplex node
    would have to participate in more than one transmission.
    ``colliding_assignments`` counts link-cell assignments involved in at
    least one conflict of either kind; dividing by ``total_assignments``
    yields the collision probability reported in Fig. 11.
    """

    cell_conflicts: List[Cell] = field(default_factory=list)
    node_conflicts: List[Tuple[int, int]] = field(default_factory=list)
    colliding_assignments: int = 0
    total_assignments: int = 0

    @property
    def collision_probability(self) -> float:
        """Fraction of assignments involved in a conflict (0 when idle)."""
        if self.total_assignments == 0:
            return 0.0
        return self.colliding_assignments / self.total_assignments

    @property
    def is_collision_free(self) -> bool:
        """True when no conflict of either kind exists."""
        return not self.cell_conflicts and not self.node_conflicts


class Schedule:
    """Assignment of slotframe cells to links.

    Multiple links may occupy the same cell (baseline schedulers do not
    coordinate); conflict analysis is separate so both collision-free and
    colliding schedules can be represented and measured.
    """

    def __init__(self, config: SlotframeConfig) -> None:
        self.config = config
        self._by_cell: Dict[Cell, List[LinkRef]] = {}
        self._by_link: Dict[LinkRef, List[Cell]] = {}
        #: Links assigned a cell since :meth:`record_changes`, or None
        #: while nothing is being recorded (the default).
        self.changed: Optional[Set[LinkRef]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def record_changes(self) -> None:
        """Start a fresh record of the links that get assigned cells —
        the input of :meth:`validate_links_collision_free`."""
        self.changed = set()

    def assign(self, cell: Cell, link: LinkRef) -> None:
        """Assign ``cell`` to ``link`` (duplicates for the same pair are
        rejected; different links sharing a cell are allowed)."""
        if not self.config.contains(cell):
            raise ValueError(f"cell {cell} outside the slotframe {self.config}")
        users = self._by_cell.setdefault(cell, [])
        if link in users:
            raise ValueError(f"cell {cell} already assigned to {link}")
        users.append(link)
        self._by_link.setdefault(link, []).append(cell)
        if self.changed is not None:
            self.changed.add(link)

    def assign_many(self, cells: Iterable[Cell], link: LinkRef) -> None:
        """Assign each cell in ``cells`` to ``link``."""
        for cell in cells:
            self.assign(cell, link)

    def replace_cells(
        self, changes: Mapping[LinkRef, Iterable[Cell]]
    ) -> None:
        """Give each link in ``changes`` exactly its new cells (none
        removes it), as one batch: a cell that only changes hands keeps
        its entry instead of being deleted and re-inserted."""
        by_cell = self._by_cell
        vacated: List[Cell] = []
        for link in changes:
            for cell in self._by_link.pop(link, ()):
                users = by_cell[cell]
                users.remove(link)
                if not users:
                    vacated.append(cell)
        try:
            for link, cells in changes.items():
                self.assign_many(cells, link)
        finally:
            for cell in vacated:
                if cell in by_cell and not by_cell[cell]:
                    del by_cell[cell]

    def remove_link(self, link: LinkRef) -> None:
        """Remove every assignment of ``link`` (dynamic cell release)."""
        for cell in self._by_link.pop(link, []):
            users = self._by_cell[cell]
            users.remove(link)
            if not users:
                del self._by_cell[cell]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def links(self) -> List[LinkRef]:
        """Links with at least one cell."""
        return list(self._by_link)

    def cells_of(self, link: LinkRef) -> List[Cell]:
        """Cells assigned to ``link``, in slot order."""
        return sorted(self._by_link.get(link, []))

    def links_in_cell(self, cell: Cell) -> List[LinkRef]:
        """Links assigned to ``cell``."""
        return list(self._by_cell.get(cell, []))

    def cells_in_slot(self, slot: int) -> List[Tuple[Cell, List[LinkRef]]]:
        """All occupied cells of a slot with their links."""
        return sorted(
            (
                (cell, list(users))
                for cell, users in self._by_cell.items()
                if cell.slot == slot
            ),
            key=lambda item: item[0],
        )

    @property
    def total_assignments(self) -> int:
        """Total number of (cell, link) assignments."""
        return sum(len(users) for users in self._by_cell.values())

    @property
    def occupied_cells(self) -> Set[Cell]:
        """Cells with at least one link."""
        return set(self._by_cell)

    def copy(self) -> "Schedule":
        """A deep, independent copy."""
        clone = Schedule(self.config)
        for cell, users in self._by_cell.items():
            for link in users:
                clone.assign(cell, link)
        return clone

    # ------------------------------------------------------------------
    # conflict analysis
    # ------------------------------------------------------------------

    def conflicts(self, topology: TreeTopology) -> ConflictReport:
        """Analyze cell conflicts and half-duplex node conflicts.

        An assignment collides when its cell hosts another link, or when
        either endpoint node must be active in another cell of the same
        slot.  This matches the schedule-collision notion of Sec. VII-A:
        collided transmissions fail regardless of which packet wins.
        """
        report = ConflictReport(total_assignments=self.total_assignments)
        colliding: Set[Tuple[Cell, LinkRef]] = set()

        for cell, users in self._by_cell.items():
            if len(users) > 1:
                report.cell_conflicts.append(cell)
                colliding.update((cell, link) for link in users)

        # Node activity per slot: node -> list of (cell, link).  A link
        # appears in one cell per demand unit, so memoize its endpoints
        # instead of re-deriving them per assignment.
        endpoint_memo: Dict[LinkRef, Tuple[int, int]] = {}
        by_slot_node: Dict[Tuple[int, int], List[Tuple[Cell, LinkRef]]] = {}
        for cell, users in self._by_cell.items():
            for link in users:
                endpoints = endpoint_memo.get(link)
                if endpoints is None:
                    endpoints = link.endpoints(topology)
                    endpoint_memo[link] = endpoints
                for node in endpoints:
                    by_slot_node.setdefault((cell.slot, node), []).append(
                        (cell, link)
                    )
        for (slot, node), activity in by_slot_node.items():
            distinct_cells = {cell for cell, _ in activity}
            if len(activity) > 1 and (
                len(distinct_cells) > 1 or len(activity) > len(distinct_cells)
            ):
                # The same-cell case is already a cell conflict; count the
                # node conflict only when the node spans multiple cells.
                if len(distinct_cells) > 1:
                    report.node_conflicts.append((slot, node))
                    colliding.update(activity)

        report.cell_conflicts.sort()
        report.node_conflicts.sort()
        report.colliding_assignments = len(colliding)
        return report

    def validate_collision_free(self, topology: TreeTopology) -> None:
        """Raise :class:`ScheduleConflictError` on any conflict.

        A single certifying scan handles the (overwhelmingly common)
        clean case: every cell hosts one link and no node is active in
        two distinct cells of one slot — which is exactly
        ``conflicts().is_collision_free``.  Only when the scan trips
        does the full :meth:`conflicts` reporter run to build the error.
        """
        endpoint_memo: Dict[LinkRef, Tuple[int, int]] = {}
        seen: Dict[Tuple[int, int], Cell] = {}
        clean = True
        for cell, users in self._by_cell.items():
            if len(users) != 1:
                clean = False
                break
            link = users[0]
            endpoints = endpoint_memo.get(link)
            if endpoints is None:
                endpoints = link.endpoints(topology)
                endpoint_memo[link] = endpoints
            slot = cell.slot
            for node in endpoints:
                prev = seen.setdefault((slot, node), cell)
                if prev != cell:
                    clean = False
                    break
            if not clean:
                break
        if clean:
            return
        report = self.conflicts(topology)
        if not report.is_collision_free:
            raise ScheduleConflictError(report)

    def validate_links_collision_free(
        self, topology: TreeTopology, links: Iterable[LinkRef]
    ) -> None:
        """:meth:`validate_collision_free` restricted to the cells of
        ``links``: each such cell hosts one link, and neither endpoint is
        active on another channel of the same slot.

        On a schedule that was collision-free before ``links`` were
        (re)assigned this certifies the whole schedule, because every new
        conflict involves at least one new assignment.
        """
        if self._links_clean(topology, links):
            return
        report = self.conflicts(topology)
        if not report.is_collision_free:
            raise ScheduleConflictError(report)

    def _links_clean(
        self, topology: TreeTopology, links: Iterable[LinkRef]
    ) -> bool:
        by_cell = self._by_cell
        channels = range(self.config.num_channels)
        endpoint_memo: Dict[LinkRef, Tuple[int, int]] = {}
        for link in links:
            mine = None
            for slot, channel in self._by_link.get(link, ()):
                if mine is None:
                    mine = link.endpoints(topology)
                # Cell is a NamedTuple: plain tuples probe the same keys.
                if len(by_cell[(slot, channel)]) != 1:
                    return False
                for other_channel in channels:
                    if other_channel == channel:
                        continue
                    for other in by_cell.get((slot, other_channel), ()):
                        endpoints = endpoint_memo.get(other)
                        if endpoints is None:
                            endpoints = other.endpoints(topology)
                            endpoint_memo[other] = endpoints
                        if endpoints[0] in mine or endpoints[1] in mine:
                            return False
        return True


class ScheduleConflictError(RuntimeError):
    """A schedule expected to be collision-free has conflicts."""

    def __init__(self, report: ConflictReport) -> None:
        super().__init__(
            f"{len(report.cell_conflicts)} cell conflicts, "
            f"{len(report.node_conflicts)} node conflicts"
        )
        self.report = report

"""Partitions and the partition table (Sec. IV-C bookkeeping).

A *partition* ``P_{i,l} = [C_{i,l}, t_{i,l}, c_{i,l}]`` is a resource
component placed in the slotframe: its region's ``x`` is the starting
time slot and ``y`` the lowest channel index.  The
:class:`PartitionTable` indexes every allocated partition by
``(owner, layer, direction)`` and offers the isolation validators that
back HARP's collision-freedom argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..net.topology import Direction, TreeTopology
from ..packing.geometry import PlacedRect

#: Table key: (owner node, layer, direction).
PartitionKey = Tuple[int, int, Direction]


def _check_group_disjoint(group: List["Partition"]) -> None:
    """Raise when any two partitions in ``group`` overlap.

    Sweep-line over the slot axis: after sorting by start slot, each
    partition is only compared to the still-active ones (start slot
    reached, end slot not passed).  On the disjoint tilings produced by
    allocation the active set stays tiny, so wide sibling groups (e.g.
    the gateway's at a breadth-heavy layer) cost O(k log k) rather than
    the all-pairs O(k²).
    """
    if len(group) < 2:
        return
    ordered = sorted(
        (p for p in group if not p.region.is_empty),
        key=lambda p: p.region.x,
    )
    active: List[Partition] = []
    for part in ordered:
        region = part.region
        still: List[Partition] = []
        for other in active:
            o_region = other.region
            if o_region.x + o_region.width <= region.x:
                continue  # ends before this one starts: retire it
            still.append(other)
            if (
                region.y < o_region.y + o_region.height
                and o_region.y < region.y + region.height
            ):
                raise PartitionIsolationError(
                    f"sibling partitions overlap: {other} vs {part}"
                )
        still.append(part)
        active = still


@dataclass(frozen=True)
class Partition:
    """A placed resource block dedicated to subtree ``G_owner`` at one
    layer, for one traffic direction."""

    owner: int
    layer: int
    direction: Direction
    region: PlacedRect

    @property
    def start_slot(self) -> int:
        """``t_{i,l}``: first time slot of the partition."""
        return self.region.x

    @property
    def start_channel(self) -> int:
        """``c_{i,l}``: lowest channel index of the partition."""
        return self.region.y

    @property
    def n_slots(self) -> int:
        """Slot extent of the partition."""
        return self.region.width

    @property
    def n_channels(self) -> int:
        """Channel extent of the partition."""
        return self.region.height

    @property
    def capacity(self) -> int:
        """Total cells inside the partition."""
        return self.region.area

    @property
    def key(self) -> PartitionKey:
        """Index key in a :class:`PartitionTable`."""
        return (self.owner, self.layer, self.direction)

    def moved_to(self, region: PlacedRect) -> "Partition":
        """A copy at a different region."""
        return Partition(self.owner, self.layer, self.direction, region)

    def __str__(self) -> str:
        return (
            f"P[{self.owner},{self.layer},{self.direction.value}]@"
            f"(slot {self.region.x}+{self.region.width}, "
            f"ch {self.region.y}+{self.region.height})"
        )


class PartitionIsolationError(RuntimeError):
    """The partition table violates a HARP isolation invariant."""


class PartitionTable:
    """All partitions of the network, indexed by (owner, layer, direction)."""

    def __init__(self) -> None:
        self._table: Dict[PartitionKey, Partition] = {}
        # Secondary index: owner -> {(layer, direction): partition}.
        # Keeps ``of_node`` O(own partitions) instead of O(table); the
        # dynamics purge path calls it once per moved subtree member.
        self._by_owner: Dict[int, Dict[Tuple[int, Direction], Partition]] = {}
        #: Keys set or removed since :meth:`record_changes`, or None while
        #: nothing is being recorded (the default).
        self.changed: Optional[Set[PartitionKey]] = None
        #: Undo log: None (the default) records nothing; while it is a
        #: list, :meth:`set` and :meth:`remove` append ``(key, prior
        #: partition or None)``.
        self.undo: Optional[List[Tuple[PartitionKey, Optional[Partition]]]] = None

    def record_changes(self) -> None:
        """Start a fresh record of the keys that get set or removed — the
        input of :meth:`validate_keys_isolation`."""
        self.changed = set()

    def roll_back(self) -> None:
        """Undo every write in the undo log, newest first, and close it.
        The undo goes through :meth:`set` / :meth:`remove`, so both
        indexes and the change record stay consistent."""
        log, self.undo = self.undo, None
        for key, prior in reversed(log):
            if prior is None:
                self.remove(*key)
            else:
                self.set(prior)

    def set(self, partition: Partition) -> None:
        """Insert or replace a partition."""
        key = partition.key
        if self.undo is not None:
            self.undo.append((key, self._table.get(key)))
        self._table[key] = partition
        self._by_owner.setdefault(partition.owner, {})[
            (partition.layer, partition.direction)
        ] = partition
        if self.changed is not None:
            self.changed.add(key)

    def get(
        self, owner: int, layer: int, direction: Direction
    ) -> Optional[Partition]:
        """Look up a partition, or None."""
        return self._table.get((owner, layer, direction))

    def require(self, owner: int, layer: int, direction: Direction) -> Partition:
        """Look up a partition; KeyError when absent."""
        return self._table[(owner, layer, direction)]

    def remove(self, owner: int, layer: int, direction: Direction) -> None:
        """Delete a partition if present."""
        removed = self._table.pop((owner, layer, direction), None)
        if removed is not None:
            if self.undo is not None:
                self.undo.append((removed.key, removed))
            owned = self._by_owner[owner]
            del owned[(layer, direction)]
            if not owned:
                del self._by_owner[owner]
            if self.changed is not None:
                self.changed.add(removed.key)

    def of_node(self, owner: int) -> List[Partition]:
        """All partitions owned by ``owner``, sorted by (direction, layer)."""
        owned = self._by_owner.get(owner)
        if not owned:
            return []
        return sorted(
            owned.values(), key=lambda p: (p.direction.value, p.layer)
        )

    def at_layer(self, layer: int, direction: Direction) -> List[Partition]:
        """All partitions at one (layer, direction), sorted by owner."""
        return sorted(
            (
                p
                for p in self._table.values()
                if p.layer == layer and p.direction is direction
            ),
            key=lambda p: p.owner,
        )

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[Partition]:
        return iter(sorted(self._table.values(), key=lambda p: p.key[:2]))

    # ------------------------------------------------------------------
    # isolation invariants (Sec. IV-C)
    # ------------------------------------------------------------------

    def validate_isolation(self, topology: TreeTopology) -> None:
        """Check the HARP isolation invariants; raise on violation.

        1. A child's partition at layer ``l`` lies inside its parent's
           partition at the same (layer, direction).
        2. Sibling partitions at the same (layer, direction) are disjoint.
        3. The gateway's top-level partitions are pairwise disjoint
           across layers and directions.
        """
        gateway = topology.gateway_id
        self._check_gateway(gateway)

        # Group non-gateway partitions by (parent, layer, direction) so
        # the sibling-disjointness check compares each sibling group
        # pairwise once, instead of re-walking ``children_of(parent)``
        # with table lookups for every partition.
        parent_map = topology.parent_map
        sibling_groups: Dict[
            Tuple[int, int, Direction], List[Partition]
        ] = {}
        for partition in self._table.values():
            owner = partition.owner
            if owner == gateway:
                continue
            parent = parent_map[owner]
            parent_part = self._table.get(
                (parent, partition.layer, partition.direction)
            )
            if parent_part is None:
                raise PartitionIsolationError(
                    f"{partition} has no parent partition at "
                    f"({parent}, {partition.layer}, {partition.direction})"
                )
            if not parent_part.region.contains(partition.region):
                raise PartitionIsolationError(
                    f"{partition} escapes parent {parent_part}"
                )
            sibling_groups.setdefault(
                (parent, partition.layer, partition.direction), []
            ).append(partition)
        for group in sibling_groups.values():
            _check_group_disjoint(group)

    def validate_keys_isolation(
        self, topology: TreeTopology, keys: Iterable[PartitionKey]
    ) -> None:
        """:meth:`validate_isolation` restricted to ``keys`` (present or
        removed): each key's partition nests in its parent's and is
        disjoint from its siblings, its children's partitions still nest
        in it, and the gateway's pairwise check runs when a gateway key
        is among them.

        On a table that was isolated before ``keys`` were set or removed
        this certifies the whole table, because every new violation
        involves a changed partition or a changed parent of one.
        """
        table = self._table
        gateway = topology.gateway_id
        groups: Set[Tuple[int, int, Direction]] = set()
        gateway_changed = False
        for key in keys:
            owner, layer, direction = key
            partition = table.get(key)
            if owner == gateway:
                gateway_changed = True
            elif partition is not None:
                parent = topology.parent_map[owner]
                parent_part = table.get((parent, layer, direction))
                if parent_part is None:
                    raise PartitionIsolationError(
                        f"{partition} has no parent partition at "
                        f"({parent}, {layer}, {direction})"
                    )
                if not parent_part.region.contains(partition.region):
                    raise PartitionIsolationError(
                        f"{partition} escapes parent {parent_part}"
                    )
                groups.add((parent, layer, direction))
            if owner not in topology:
                continue
            for child in topology.children_of(owner):
                child_part = table.get((child, layer, direction))
                if child_part is None:
                    continue
                if partition is None:
                    raise PartitionIsolationError(
                        f"{child_part} has no parent partition at {key}"
                    )
                if not partition.region.contains(child_part.region):
                    raise PartitionIsolationError(
                        f"{child_part} escapes parent {partition}"
                    )
        if gateway_changed:
            self._check_gateway(gateway)
        for parent, layer, direction in groups:
            _check_group_disjoint([
                part
                for child in topology.children_of(parent)
                for part in [table.get((child, layer, direction))]
                if part is not None
            ])

    def _check_gateway(self, gateway: int) -> None:
        """The gateway's top-level partitions are pairwise disjoint."""
        top = list(self._by_owner.get(gateway, {}).values())
        for i, a in enumerate(top):
            for b in top[i + 1:]:
                if a.region.overlaps(b.region):
                    raise PartitionIsolationError(
                        f"gateway partitions overlap: {a} vs {b}"
                    )

"""The original split-and-prune free-space tracker, kept as a test oracle.

:class:`repro.packing.free_space.FreeSpace` replaced this MaxRects-style
tracker (each occupied region splits the intersecting free rectangles
into up to four pieces; pieces contained in another are pruned) with a
per-row bitmask index that derives the maximal free rectangles band by
band.  Both must hold the same *set* of maximal free rectangles and make
the same placements; ``test_free_space_equivalence.py`` drives them over
generated inputs and compares.
"""

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.packing.geometry import PlacedRect, Rect


class ReferenceFreeSpace:
    """Maximal free rectangles within a container box.

    Parameters
    ----------
    container:
        The region to manage (positions are absolute, i.e. in the same
        coordinate space as the occupied rectangles passed in later).
    """

    def __init__(self, container: PlacedRect) -> None:
        self.container = container
        self._free: List[PlacedRect] = [] if container.is_empty else [container]

    @property
    def free_rects(self) -> List[PlacedRect]:
        """Current list of maximal free rectangles (copies not needed:
        :class:`PlacedRect` is frozen)."""
        return list(self._free)

    def idle_cells(self) -> int:
        """Exact number of idle cells (union of free rectangles)."""
        seen = set()
        for rect in self._free:
            seen.update(rect.cells())
        return len(seen)

    def occupy(self, rect: PlacedRect) -> None:
        """Mark ``rect`` as occupied, splitting free space around it.

        Only freshly split pieces can be non-maximal: the surviving
        (untouched) rectangles were already mutually containment-free,
        and a piece is a strict subset of its overlapping parent, so it
        can never contain an untouched rectangle.  Pruning therefore
        checks each new piece against the full list instead of running
        the all-pairs :func:`_prune` — same survivors, same order.
        """
        if rect.is_empty:
            return
        entries: List[Tuple[PlacedRect, bool]] = []
        any_new = False
        for free in self._free:
            if not free.overlaps(rect):
                entries.append((free, False))
                continue
            any_new = True
            for piece in _split(free, rect):
                entries.append((piece, True))
        if not any_new:
            return
        kept: List[PlacedRect] = []
        for i, (a, is_new) in enumerate(entries):
            if not is_new:
                kept.append(a)
                continue
            contained = False
            for j, (b, _) in enumerate(entries):
                if i == j:
                    continue
                if b.contains(a) and not (a.contains(b) and i < j):
                    contained = True
                    break
            if not contained:
                kept.append(a)
        self._free = kept

    def find_position(self, rect: Rect) -> Optional[PlacedRect]:
        """Best-short-side-fit position for ``rect``, or None.

        Chooses the free rectangle minimizing the smaller leftover
        dimension (ties: smaller larger-leftover, then lower-left), and
        places the rectangle at that free rectangle's lower-left corner.
        """
        if rect.is_empty:
            return rect.at(self.container.x, self.container.y)
        best: Optional[PlacedRect] = None
        best_key = None
        for free in self._free:
            if rect.width > free.width or rect.height > free.height:
                continue
            leftover_w = free.width - rect.width
            leftover_h = free.height - rect.height
            key = (
                min(leftover_w, leftover_h),
                max(leftover_w, leftover_h),
                free.y,
                free.x,
            )
            if best_key is None or key < best_key:
                best_key = key
                best = rect.at(free.x, free.y)
        return best

    def place(self, rect: Rect) -> Optional[PlacedRect]:
        """Find a position for ``rect`` and occupy it.  None if no fit."""
        placed = self.find_position(rect)
        if placed is not None:
            self.occupy(placed)
        return placed


def _split(free: PlacedRect, used: PlacedRect) -> List[PlacedRect]:
    """Split ``free`` around ``used``; returns up to four remainders."""
    pieces: List[PlacedRect] = []
    if used.x > free.x:  # left remainder
        pieces.append(PlacedRect(free.x, free.y, used.x - free.x, free.height))
    if used.x2 < free.x2:  # right remainder
        pieces.append(PlacedRect(used.x2, free.y, free.x2 - used.x2, free.height))
    if used.y > free.y:  # bottom remainder
        pieces.append(PlacedRect(free.x, free.y, free.width, used.y - free.y))
    if used.y2 < free.y2:  # top remainder
        pieces.append(PlacedRect(free.x, used.y2, free.width, free.y2 - used.y2))
    return [p for p in pieces if not p.is_empty]


def _prune(rects: List[PlacedRect]) -> List[PlacedRect]:
    """Drop rectangles contained in another (keep only maximal ones)."""
    kept: List[PlacedRect] = []
    for i, a in enumerate(rects):
        contained = False
        for j, b in enumerate(rects):
            if i == j:
                continue
            if b.contains(a) and not (a.contains(b) and i < j):
                contained = True
                break
        if not contained:
            kept.append(a)
    return kept


def reference_pack_with_obstacles(
    components: Sequence[Rect],
    container: PlacedRect,
    obstacles: Sequence[PlacedRect] = (),
) -> Optional[Dict[Hashable, PlacedRect]]:
    """The greedy placement loop of :func:`pack_with_obstacles` over the
    reference tracker, without any infeasibility bound."""
    space = ReferenceFreeSpace(container)
    for obstacle in obstacles:
        space.occupy(obstacle)
    layout: Dict[Hashable, PlacedRect] = {}
    ordered = sorted(
        components, key=lambda c: (-c.area, -c.width, -c.height, repr(c.tag))
    )
    for comp in ordered:
        placed = space.place(comp)
        if placed is None:
            return None
        layout[comp.tag] = placed
    return layout

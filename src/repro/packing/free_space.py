"""Maximal-free-rectangle tracking inside a fixed container.

The partition-adjustment heuristic (Alg. 2) repeatedly asks: *can this set
of components be placed into the idle rectangular areas of a partition,
around the partitions we are not allowed to move?*  Skyline packing cannot
answer that (it has no notion of fixed obstacles), so this module tracks
the container's free cells and derives its maximal free rectangles.

The index is one int per channel row of the container (at most 16), a
bitmask over the container's slots with occupied cells cleared, so
:meth:`FreeSpace.occupy` is a clip plus one mask per covered row.  The
maximal free rectangles are derived lazily and cached until the next
change: for every band of rows ``a..b``, each maximal run of set bits in
``AND(rows a..b)`` is a maximal rectangle unless that run is fully free in
row ``a - 1`` or in row ``b + 1``.  This is exactly the *set* a MaxRects
split-and-prune tracker maintains (kept as the test oracle in
``tests/properties/reference_free_space.py``); since
:meth:`FreeSpace.find_position` picks by value, no placement depends on
the order of that set.

:func:`pack_with_obstacles` then greedily places components into the free
space using the best-short-side-fit rule, which is what the adjustment
heuristic and the dynamic local-update path use.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .geometry import PlacedRect, Rect

#: A free rectangle as plain ``(x, y, width, height)``.
_Box = Tuple[int, int, int, int]


class FreeSpace:
    """Maximal free rectangles within a container box.

    Parameters
    ----------
    container:
        The region to manage (positions are absolute, i.e. in the same
        coordinate space as the occupied rectangles passed in later).
    """

    def __init__(self, container: PlacedRect) -> None:
        self.container = container
        full = (1 << container.width) - 1
        # Bit i of row j is free cell (container.x + i, container.y + j).
        self._rows: List[int] = [full] * container.height if full else []
        self._maximal: Optional[List[_Box]] = None

    @property
    def free_rects(self) -> List[PlacedRect]:
        """Current maximal free rectangles (a set; the order carries no
        meaning)."""
        return [PlacedRect(x, y, w, h) for x, y, w, h in self._boxes()]

    def idle_cells(self) -> int:
        """Exact number of idle cells."""
        return sum(row.bit_count() for row in self._rows)

    def occupy(self, rect: PlacedRect) -> None:
        """Mark ``rect`` (clipped to the container) as occupied."""
        box = self.container
        x1 = max(rect.x, box.x)
        x2 = min(rect.x + rect.width, box.x + box.width)
        y1 = max(rect.y, box.y)
        y2 = min(rect.y + rect.height, box.y + box.height)
        if x1 >= x2 or y1 >= y2:
            return
        keep = ~(((1 << (x2 - x1)) - 1) << (x1 - box.x))
        rows = self._rows
        for j in range(y1 - box.y, y2 - box.y):
            row = rows[j]
            if row & keep != row:
                rows[j] = row & keep
                self._maximal = None

    def find_position(self, rect: Rect) -> Optional[PlacedRect]:
        """Best-short-side-fit position for ``rect``, or None.

        Chooses the free rectangle minimizing the smaller leftover
        dimension (ties: smaller larger-leftover, then lower-left), and
        places the rectangle at that free rectangle's lower-left corner.
        Rectangles with equal keys share their corner, so the choice does
        not depend on the order of the free set.
        """
        if rect.is_empty:
            return rect.at(self.container.x, self.container.y)
        width = rect.width
        height = rect.height
        best_key = None
        for x, y, w, h in self._boxes():
            if width > w or height > h:
                continue
            leftover_w = w - width
            leftover_h = h - height
            if leftover_w <= leftover_h:
                key = (leftover_w, leftover_h, y, x)
            else:
                key = (leftover_h, leftover_w, y, x)
            if best_key is None or key < best_key:
                best_key = key
        if best_key is None:
            return None
        return rect.at(best_key[3], best_key[2])

    def place(self, rect: Rect) -> Optional[PlacedRect]:
        """Find a position for ``rect`` and occupy it.  None if no fit."""
        placed = self.find_position(rect)
        if placed is not None:
            self.occupy(placed)
        return placed

    def _boxes(self) -> List[_Box]:
        """The maximal free rectangles, derived band by band and cached."""
        if self._maximal is not None:
            return self._maximal
        rows = self._rows
        n = len(rows)
        x0 = self.container.x
        y0 = self.container.y
        boxes: List[_Box] = []
        for a in range(n):
            below = rows[a - 1] if a else 0
            band = rows[a]
            for b in range(a, n):
                if b > a:
                    band &= rows[b]
                if not band:
                    break
                above = rows[b + 1] if b + 1 < n else 0
                # Only runs with a cell blocked both below and above are
                # maximal; skip the band when no run can qualify.
                if not band & ~below or not band & ~above:
                    continue
                starts = band & ~(band << 1)
                ends = band & ~(band >> 1)
                while starts:
                    first = starts & -starts
                    last = ends & -ends
                    starts ^= first
                    ends ^= last
                    run = (last << 1) - first
                    if below & run != run and above & run != run:
                        s = first.bit_length() - 1
                        boxes.append(
                            (x0 + s, y0 + a, last.bit_length() - s, b - a + 1)
                        )
        self._maximal = boxes
        return boxes


def pack_with_obstacles(
    components: Sequence[Rect],
    container: PlacedRect,
    obstacles: Sequence[PlacedRect] = (),
) -> Optional[Dict[Hashable, PlacedRect]]:
    """Greedily place ``components`` inside ``container`` avoiding
    ``obstacles``.

    Components are placed in decreasing-area order using
    best-short-side-fit.  Returns a tag -> placement map (absolute
    coordinates) or ``None`` when some component could not be placed.
    This is a heuristic: ``None`` does not prove infeasibility.

    Two bounds reject early without changing the outcome: a component
    larger than the container, or more component area than idle cells
    once the obstacles are occupied — the greedy loop can never place
    more than that.
    """
    demand = 0
    for comp in components:
        if comp.is_empty:
            continue
        if comp.width > container.width or comp.height > container.height:
            return None
        demand += comp.area
    space = FreeSpace(container)
    for obstacle in obstacles:
        space.occupy(obstacle)
    if demand > space.idle_cells():
        return None
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

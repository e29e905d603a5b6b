"""Best-fit skyline heuristic for 2D rectangle packing.

This is the constructive heuristic the paper adopts (Sec. IV-B) for both
the strip-packing composition problem (Problem 1) and the rectangle-packing
feasibility test (Problem 2), citing the improved skyline heuristic of
Wei et al. (Computers & Operations Research, 2017).  The heuristic keeps a
*skyline* — the staircase outline of the packed region — and repeatedly:

1. selects the lowest (leftmost on ties) skyline segment,
2. places onto it the pending rectangle that best fits the segment
   (exact-width fits first, then widest, then tallest), left-justified,
3. or, when no pending rectangle fits, raises the segment to its lowest
   neighbour, conceding the area underneath as waste.

Time complexity is ``O(n log n)`` amortized in the number of rectangles for
typical inputs (each step either places a rectangle or merges segments).

Two usage modes:

* **Strip mode** (``max_height=None``): the strip is open-ended upward;
  every rectangle narrower than the strip is always placed and the packer
  reports the resulting height.  Used for resource-component composition.
* **Bounded mode** (``max_height=h``): placements may not exceed ``h``;
  rectangles that cannot be placed are reported back.  Used for the
  feasibility test and partition re-packing.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .geometry import PlacedRect, Rect

#: Sentinel height used internally for an unbounded strip.
_UNBOUNDED = 1 << 60


@dataclass
class _Segment:
    """A horizontal skyline segment: ``[x, x + width)`` at height ``y``."""

    x: int
    width: int
    y: int

    @property
    def x2(self) -> int:
        return self.x + self.width


@dataclass
class PackResult:
    """Outcome of a skyline packing run.

    ``placements`` holds one :class:`PlacedRect` per successfully placed
    input rectangle, in placement order, carrying the input's ``tag``.
    ``unplaced`` holds the inputs that did not fit (bounded mode only;
    always empty in strip mode for feasible widths).  ``height`` is the
    maximum ``y2`` over all placements (0 when nothing was placed).
    """

    placements: List[PlacedRect] = field(default_factory=list)
    unplaced: List[Rect] = field(default_factory=list)
    height: int = 0

    @property
    def success(self) -> bool:
        """True when every input rectangle was placed."""
        return not self.unplaced


class SkylinePacker:
    """Best-fit skyline packer over a strip of fixed ``width``.

    Fast-path implementation: the lowest segment is tracked with a
    lazily invalidated ``(y, x)`` min-heap (column heights only ever
    rise, so a heap entry matching the current segment is always
    correct), best-fit candidates are scanned from a pre-sorted
    width-descending order via bisect, and skyline merges are local to
    the mutated segment instead of rebuilding the whole list.  The
    placement policy is byte-identical to the original O(rects ×
    segments) implementation, which the property suite keeps as its
    equivalence oracle.

    Parameters
    ----------
    width:
        Strip width (number of columns available).
    max_height:
        Optional height bound.  When given, no placement may extend past
        it and rectangles that cannot be placed end up in
        :attr:`PackResult.unplaced`.
    """

    def __init__(self, width: int, max_height: Optional[int] = None) -> None:
        if width <= 0:
            raise ValueError(f"strip width must be positive, got {width}")
        if max_height is not None and max_height < 0:
            raise ValueError(f"max_height must be non-negative, got {max_height}")
        self.width = width
        self.max_height = max_height
        self._limit = _UNBOUNDED if max_height is None else max_height
        self._skyline: List[_Segment] = [_Segment(0, width, 0)]
        self._xs: List[int] = [0]            # segment start columns, sorted
        self._heap: List[Tuple[int, int]] = [(0, 0)]  # (y, x) candidates
        self._placements: List[PlacedRect] = []

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def pack(self, rects: Sequence[Rect]) -> PackResult:
        """Pack ``rects`` into the strip and return the layout.

        Zero-area rectangles are placed trivially at the origin.  The
        packer instance is single-use: call :meth:`pack` once.
        """
        pending: List[Rect] = []
        placements: List[PlacedRect] = []
        for rect in rects:
            if rect.is_empty:
                placements.append(rect.at(0, 0))
            else:
                pending.append(rect)

        unplaced: List[Rect] = []
        # Rectangles wider than the strip can never fit; fail them upfront.
        fitting: List[Rect] = []
        for rect in pending:
            if rect.width > self.width or rect.height > self._limit:
                unplaced.append(rect)
            else:
                fitting.append(rect)
        pending = fitting

        # Best-fit order: width desc, height desc, input order.  The
        # reference policy maximizes (exact-width, width, height) with
        # earliest-index ties; an exact-width match is necessarily the
        # widest eligible rectangle, so the reference's pick is exactly
        # the first surviving entry of this order that fits.
        order = sorted(
            range(len(pending)),
            key=lambda i: (-pending[i].width, -pending[i].height, i),
        )
        neg_widths = [-pending[i].width for i in order]
        alive = [True] * len(pending)
        remaining = len(pending)

        while remaining:
            seg_idx = self._lowest_segment_index()
            seg = self._skyline[seg_idx]
            choice = self._best_fit(pending, order, neg_widths, alive, seg)
            if choice is None:
                if not self._raise_segment(seg_idx):
                    # The skyline is a single segment already at the
                    # height limit: nothing else can ever be placed.
                    unplaced.extend(
                        rect for i, rect in enumerate(pending) if alive[i]
                    )
                    break
                continue
            alive[choice] = False
            remaining -= 1
            placements.append(self._place(pending[choice], seg_idx))

        self._placements = placements
        height = max((p.y2 for p in placements if not p.is_empty), default=0)
        return PackResult(placements=placements, unplaced=unplaced, height=height)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _lowest_segment_index(self) -> int:
        """Index of the lowest skyline segment, leftmost on ties.

        Pops stale heap entries (segments since raised, split, or
        merged away) until one matches the live skyline.  Every segment
        mutation pushes the segment's current ``(y, x)``, so a valid
        entry for the true minimum always exists.
        """
        heap = self._heap
        xs = self._xs
        skyline = self._skyline
        while True:
            y, x = heap[0]
            idx = bisect_left(xs, x)
            if idx < len(xs) and xs[idx] == x and skyline[idx].y == y:
                return idx
            heapq.heappop(heap)

    def _best_fit(
        self,
        pending: Sequence[Rect],
        order: Sequence[int],
        neg_widths: Sequence[int],
        alive: Sequence[bool],
        seg: _Segment,
    ) -> Optional[int]:
        """Index into ``pending`` of the best rectangle for ``seg``.

        Best-fit policy (same as the reference): among rectangles that
        fit the segment width and the height bound, prefer an exact
        width match; otherwise the widest; ties broken by the tallest,
        then earliest input order.  Returns ``None`` when nothing fits.
        """
        budget = self._limit - seg.y
        start = bisect_left(neg_widths, -seg.width)
        for j in range(start, len(order)):
            i = order[j]
            if alive[i] and pending[i].height <= budget:
                return i
        return None

    def _place(self, rect: Rect, seg_idx: int) -> PlacedRect:
        """Place ``rect`` left-justified on segment ``seg_idx``."""
        seg = self._skyline[seg_idx]
        placed = rect.at(seg.x, seg.y)
        new_top = _Segment(seg.x, rect.width, seg.y + rect.height)
        if rect.width == seg.width:
            self._skyline[seg_idx] = new_top
        else:
            remainder = _Segment(seg.x + rect.width, seg.width - rect.width, seg.y)
            self._skyline[seg_idx:seg_idx + 1] = [new_top, remainder]
            self._xs.insert(seg_idx + 1, remainder.x)
            heapq.heappush(self._heap, (remainder.y, remainder.x))
        self._merge_around(seg_idx)
        return placed

    def _raise_segment(self, seg_idx: int) -> bool:
        """Raise segment ``seg_idx`` to its lowest neighbour and merge.

        Returns False when the segment has no neighbour (single-segment
        skyline), meaning the packing cannot make further progress.
        """
        seg = self._skyline[seg_idx]
        left_y = self._skyline[seg_idx - 1].y if seg_idx > 0 else None
        right_y = (
            self._skyline[seg_idx + 1].y
            if seg_idx + 1 < len(self._skyline)
            else None
        )
        if left_y is None and right_y is None:
            return False
        if left_y is None:
            seg.y = right_y  # type: ignore[assignment]
        elif right_y is None:
            seg.y = left_y
        else:
            seg.y = min(left_y, right_y)
        self._merge_around(seg_idx)
        return True

    def _merge_around(self, idx: int) -> None:
        """Coalesce segment ``idx`` with equal-height neighbours.

        Adjacent segments never share a height between operations, so
        the only merges a mutation can enable are with the mutated
        segment's immediate neighbours — a local fix-up equivalent to
        the reference's full-skyline rebuild.
        """
        skyline = self._skyline
        seg = skyline[idx]
        if idx + 1 < len(skyline) and skyline[idx + 1].y == seg.y:
            seg.width += skyline[idx + 1].width
            del skyline[idx + 1]
            del self._xs[idx + 1]
        if idx > 0 and skyline[idx - 1].y == seg.y:
            skyline[idx - 1].width += seg.width
            del skyline[idx]
            del self._xs[idx]
            idx -= 1
            seg = skyline[idx]
        heapq.heappush(self._heap, (seg.y, seg.x))


def pack_rects(
    rects: Sequence[Rect], width: int, max_height: Optional[int] = None
) -> PackResult:
    """Convenience wrapper: pack ``rects`` into a fresh strip."""
    return SkylinePacker(width, max_height=max_height).pack(rects)

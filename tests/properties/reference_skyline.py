"""The original straightforward skyline packer, kept as a test oracle.

:class:`repro.packing.skyline.SkylinePacker` replaced this
implementation with a heap-and-bisect fast path whose placement policy
must stay byte-identical; ``test_scaling_equivalence.py`` drives both
packers over generated inputs and compares their results.  The
segment type is restated here so the oracle does not depend on the fast
packer's internals.
"""

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.packing.geometry import PlacedRect, Rect
from repro.packing.skyline import PackResult

#: Sentinel height used for an unbounded strip.
_UNBOUNDED = 1 << 60


@dataclass
class _Segment:
    """A horizontal skyline segment: ``[x, x + width)`` at height ``y``."""

    x: int
    width: int
    y: int


class ReferenceSkylinePacker:
    """The original straightforward skyline packer.

    Kept verbatim as the equivalence oracle for :class:`SkylinePacker`:
    the fast packer must produce byte-identical :class:`PackResult`
    contents for every input.  Linear scans everywhere — O(segments)
    lowest-segment search, O(pending) best-fit, full-list merges.
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
        self._placements: List[PlacedRect] = []

    def pack(self, rects: Sequence[Rect]) -> PackResult:
        """Pack ``rects`` into the strip and return the layout."""
        pending: List[Rect] = []
        placements: List[PlacedRect] = []
        for rect in rects:
            if rect.is_empty:
                placements.append(rect.at(0, 0))
            else:
                pending.append(rect)

        unplaced: List[Rect] = []
        for rect in list(pending):
            if rect.width > self.width or rect.height > self._limit:
                pending.remove(rect)
                unplaced.append(rect)

        while pending:
            seg_idx = self._lowest_segment_index()
            seg = self._skyline[seg_idx]
            choice = self._best_fit(pending, seg)
            if choice is None:
                if not self._raise_segment(seg_idx):
                    unplaced.extend(pending)
                    break
                continue
            rect = pending.pop(choice)
            placements.append(self._place(rect, seg_idx))

        self._placements = placements
        height = max((p.y2 for p in placements if not p.is_empty), default=0)
        return PackResult(placements=placements, unplaced=unplaced, height=height)

    def _lowest_segment_index(self) -> int:
        best = 0
        for i, seg in enumerate(self._skyline):
            cur = self._skyline[best]
            if seg.y < cur.y or (seg.y == cur.y and seg.x < cur.x):
                best = i
        return best

    def _best_fit(self, pending: Sequence[Rect], seg: _Segment) -> Optional[int]:
        best_idx: Optional[int] = None
        best_key: Tuple[int, int, int] = (-1, -1, -1)
        for i, rect in enumerate(pending):
            if rect.width > seg.width:
                continue
            if seg.y + rect.height > self._limit:
                continue
            key = (1 if rect.width == seg.width else 0, rect.width, rect.height)
            if key > best_key:
                best_key = key
                best_idx = i
        return best_idx

    def _place(self, rect: Rect, seg_idx: int) -> PlacedRect:
        seg = self._skyline[seg_idx]
        placed = rect.at(seg.x, seg.y)
        new_top = _Segment(seg.x, rect.width, seg.y + rect.height)
        if rect.width == seg.width:
            self._skyline[seg_idx] = new_top
        else:
            remainder = _Segment(seg.x + rect.width, seg.width - rect.width, seg.y)
            self._skyline[seg_idx:seg_idx + 1] = [new_top, remainder]
        self._merge_adjacent()
        return placed

    def _raise_segment(self, seg_idx: int) -> bool:
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
        self._merge_adjacent()
        return True

    def _merge_adjacent(self) -> None:
        merged: List[_Segment] = []
        for seg in self._skyline:
            if merged and merged[-1].y == seg.y:
                merged[-1].width += seg.width
            else:
                merged.append(seg)
        self._skyline = merged

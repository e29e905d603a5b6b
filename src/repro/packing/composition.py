"""Resource-component composition (Problem 1 / Algorithm 1 of the paper).

Given ``k`` child resource components at one layer — rectangles of
``(n_slots, n_channels)`` — compose them into a single composite component
that (i) contains all of them without overlap, (ii) has the minimum number
of time slots, and (iii) among those, the minimum number of channels.

The paper solves this with *two* strip-packing passes (Alg. 1):

1. Fix the channel budget ``M`` as the strip width and minimize the slot
   extent: rectangles enter the strip rotated (width = channels,
   height = slots) and the resulting strip height is ``n_s_min``.
2. Fix ``n_s_min`` as the strip width and minimize the channel extent:
   rectangles enter un-rotated (width = slots, height = channels) and the
   resulting strip height is the composite channel count.

Because the second pass is heuristic it can occasionally need more than
``M`` channels even though pass 1 proved an ``<= M``-channel layout exists
at ``n_s_min`` slots; in that case we fall back to pass 1's own layout
(transposed into slot/channel coordinates), which is feasible by
construction.  The final layout is returned in (slot, channel) coordinates
so callers can translate child placements directly into the slotframe.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .geometry import PlacedRect, Rect
from .strip import PackingError, strip_pack


@dataclass
class CompositionResult:
    """Outcome of composing child components into one composite.

    ``n_slots`` / ``n_channels`` are the composite component dimensions.
    ``layout`` maps each child's tag to its placement *relative to the
    composite origin*, in (slot, channel) coordinates: ``x`` = slot
    offset, ``y`` = channel offset.
    """

    n_slots: int
    n_channels: int
    layout: Dict[Hashable, PlacedRect]

    @property
    def placements(self) -> List[PlacedRect]:
        """The child placements as a list (order unspecified)."""
        return list(self.layout.values())


def _canonical_order(real: Sequence[Rect]) -> List[Rect]:
    """Deterministic order aligning a component list with its size
    multiset.

    Rectangles of identical ``(width, height)`` are interchangeable to
    the packer — every decision the two strip-packing passes make
    depends only on dimensions, with ties broken by ``repr(tag)``, the
    same tiebreak used here.  Sorting by size therefore maps the i-th
    rect of one run onto the i-th rect of any run with the same size
    multiset, which is what lets :class:`CompositionCache` replay a
    stored layout onto fresh tags positionally.
    """
    return sorted(real, key=lambda r: (-r.height, -r.width, repr(r.tag)))


class CompositionCache:
    """Memoizes composition results across adjustments.

    HARP re-runs Algorithm 1 for a node's resource components on every
    partition adjustment, but an unchanged subtree presents the same
    child-interface *sizes* again and again — and the packer's output is
    a pure function of the size multiset plus the channel budget.  The
    cache keys on exactly that: ``(num_channels, sorted (width, height)
    multiset)``, storing placements positionally (aligned with
    :func:`_canonical_order`) so a hit is replayed onto the current tags
    without re-packing.  Cache-on and cache-off runs produce identical
    layouts (see ``tests/packing/test_composition_cache.py``).

    ``hits`` / ``misses`` counters make cache effectiveness observable
    from the manager and the live agent layer.  ``max_entries`` bounds
    memory (LRU eviction); ``None`` = unbounded.

    One cache serves a network's static phase, every dynamic adjustment
    and re-bootstrap; a fleet shares one per process, warmed before the
    workers fork so each inherits the entries copy-on-write.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Tuple, Tuple[int, int, List[Tuple[int, int]]]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        """Counters snapshot (for LiveStats / reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "entries": len(self._entries),
        }

    def clear(self) -> None:
        self._entries.clear()

    #: Interning pool for size-multiset tuples.  Composition keys for an
    #: unchanged subtree recur on every adjustment; sharing one tuple
    #: object per distinct multiset makes later dict probes hit the
    #: identity fast path instead of element-wise tuple comparison.
    _interned: Dict[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]] = {}

    @staticmethod
    def key(real: Sequence[Rect], num_channels: int, kind: str) -> Tuple:
        """Canonical key: channel budget + interned size multiset
        (+ algorithm)."""
        sizes = tuple(sorted((r.width, r.height) for r in real))
        sizes = CompositionCache._interned.setdefault(sizes, sizes)
        return (kind, num_channels, sizes)

    def lookup(
        self, key: Tuple, real: Sequence[Rect]
    ) -> Optional[CompositionResult]:
        """Replay a stored layout onto the current tags, or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        n_slots, n_channels, positions = entry
        layout = {
            rect.tag: PlacedRect(x, y, rect.width, rect.height, rect.tag)
            for rect, (x, y) in zip(_canonical_order(real), positions)
        }
        return CompositionResult(n_slots, n_channels, layout)

    def store(
        self, key: Tuple, real: Sequence[Rect], result: CompositionResult
    ) -> None:
        positions = [
            (result.layout[rect.tag].x, result.layout[rect.tag].y)
            for rect in _canonical_order(real)
        ]
        self._entries[key] = (result.n_slots, result.n_channels, positions)
        if (
            self.max_entries is not None
            and len(self._entries) > self.max_entries
        ):
            self._entries.popitem(last=False)


def compose_components(
    components: Sequence[Rect],
    num_channels: int,
    cache: Optional[CompositionCache] = None,
) -> CompositionResult:
    """Run Algorithm 1 over ``components`` with ``num_channels`` available.

    Each input rectangle is interpreted as ``width`` = slots,
    ``height`` = channels, and must carry a unique ``tag`` identifying the
    child subtree it belongs to.  With ``cache`` set, results are
    memoized by the child size multiset (see :class:`CompositionCache`);
    the returned layout is identical either way.

    Raises
    ------
    PackingError
        When a component alone needs more than ``num_channels`` channels
        (it can never fit the medium).
    ValueError
        On duplicate or missing tags.
    """
    if num_channels <= 0:
        raise ValueError(f"num_channels must be positive, got {num_channels}")
    _check_tags(components)

    real = [c for c in components if not c.is_empty]
    if not real:
        return CompositionResult(
            0, 0, {c.tag: c.at(0, 0) for c in components}
        )
    for comp in real:
        if comp.height > num_channels:
            raise PackingError(
                f"component {comp.tag!r} needs {comp.height} channels "
                f"but only {num_channels} exist"
            )

    key = None
    if cache is not None:
        key = CompositionCache.key(real, num_channels, "alg1")
        hit = cache.lookup(key, real)
        if hit is not None:
            _fill_empty(hit.layout, components)
            return hit

    # Pass 1: strip width = M channels, minimize slots.  Rectangles are
    # rotated so the slot extent becomes the strip height.
    pass1 = strip_pack([c.rotated() for c in real], width=num_channels)
    n_slots_min = pass1.height

    # Pass 2: strip width = n_s_min slots, minimize channels.
    pass2 = strip_pack(real, width=n_slots_min)
    if pass2.height <= num_channels:
        layout = {p.tag: p for p in pass2.placements}
        n_channels_used = pass2.height
    else:
        # Heuristic regression: fall back to pass 1's layout, transposing
        # (channel, slot) placements into (slot, channel) coordinates.
        layout = {
            p.tag: PlacedRect(p.y, p.x, p.height, p.width, p.tag)
            for p in pass1.placements
        }
        n_channels_used = max(p.y2 for p in layout.values())

    result = CompositionResult(
        n_slots=n_slots_min, n_channels=n_channels_used, layout=layout
    )
    if cache is not None:
        cache.store(key, real, result)
    _fill_empty(layout, components)
    return result


def _fill_empty(
    layout: Dict[Hashable, PlacedRect], components: Sequence[Rect]
) -> None:
    """Empty components sit at the origin; they carry no cells, so they
    stay outside the cached (size-multiset-keyed) part of the layout."""
    for comp in components:
        if comp.is_empty and comp.tag not in layout:
            layout[comp.tag] = comp.at(0, 0)


def compose_single_rectangle(
    components: Sequence[Rect],
    num_channels: int,
    cache: Optional[CompositionCache] = None,
) -> CompositionResult:
    """Ablation baseline: compose *without* the layered interface design.

    Models the Fig. 3(a) strawman the paper argues against: children are
    stacked purely along the time axis (each child's full per-layer block
    occupies its own slot range), wasting the channel dimension.  Used by
    the ablation benchmark to quantify the benefit of Alg. 1.

    Children are stacked in canonical (descending-size) order so the
    layout, like Alg. 1's, is a pure function of the child size multiset
    and shares :class:`CompositionCache`.
    """
    if num_channels <= 0:
        raise ValueError(f"num_channels must be positive, got {num_channels}")
    _check_tags(components)
    real = [c for c in components if not c.is_empty]

    key = None
    if cache is not None and real:
        key = CompositionCache.key(real, num_channels, "single")
        hit = cache.lookup(key, real)
        if hit is not None:
            _fill_empty(hit.layout, components)
            return hit

    layout: Dict[Hashable, PlacedRect] = {}
    cursor = 0
    height = 0
    for comp in _canonical_order(real):
        if comp.height > num_channels:
            raise PackingError(
                f"component {comp.tag!r} needs {comp.height} channels "
                f"but only {num_channels} exist"
            )
        layout[comp.tag] = comp.at(cursor, 0)
        cursor += comp.width
        height = max(height, comp.height)
    result = CompositionResult(
        n_slots=cursor, n_channels=height, layout=layout
    )
    if cache is not None and key is not None:
        cache.store(key, real, result)
    _fill_empty(layout, components)
    return result


def _check_tags(components: Sequence[Rect]) -> None:
    tags = [c.tag for c in components]
    if any(t is None for t in tags):
        raise ValueError("every component must carry a tag")
    if len(set(tags)) != len(tags):
        raise ValueError(f"duplicate component tags in {tags}")

"""Statistical and occupancy analysis helpers (numpy/scipy-backed).

Two groups:

* **Ensemble statistics** — mean / standard deviation / confidence
  intervals for the 100-topology sweeps of Sec. VII, so reproduction
  claims come with error bars instead of bare means.
* **Resource occupancy** — how full the slotframe is, how the load
  spreads over layers, and how fragmented the free space inside each
  partition is; the quantities that explain *why* an adjustment was
  absorbed locally or had to escalate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy import stats as scipy_stats

from .core.partition import PartitionTable
from .net.slotframe import Schedule
from .net.topology import Direction, LinkRef, TreeTopology
from .packing.free_space import FreeSpace
from .packing.geometry import PlacedRect


# ----------------------------------------------------------------------
# ensemble statistics
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleSummary:
    """Mean with spread over an ensemble of measurements."""

    count: int
    mean: float
    std: float
    ci_low: float
    ci_high: float

    def __str__(self) -> str:
        return (
            f"{self.mean:.3f} ± {(self.ci_high - self.ci_low) / 2:.3f} "
            f"(n={self.count})"
        )


def summarize(values: Sequence[float], confidence: float = 0.95) -> EnsembleSummary:
    """Mean, sample std and Student-t confidence interval."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    data = np.asarray(values, dtype=float)
    mean = float(data.mean())
    if len(data) == 1:
        return EnsembleSummary(1, mean, 0.0, mean, mean)
    std = float(data.std(ddof=1))
    sem = std / math.sqrt(len(data))
    t_value = float(scipy_stats.t.ppf((1 + confidence) / 2, df=len(data) - 1))
    half = t_value * sem
    return EnsembleSummary(len(data), mean, std, mean - half, mean + half)


def confidence_interval(
    values: Sequence[float], confidence: float = 0.95
) -> Tuple[float, float]:
    """(low, high) Student-t confidence interval for the mean."""
    summary = summarize(values, confidence)
    return (summary.ci_low, summary.ci_high)


# ----------------------------------------------------------------------
# occupancy analysis
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class OccupancyReport:
    """How the slotframe's cells are used."""

    total_cells: int
    scheduled_cells: int
    utilization: float
    per_layer: Dict[int, int]
    per_direction: Dict[Direction, int]


def schedule_occupancy(
    schedule: Schedule, topology: TreeTopology
) -> OccupancyReport:
    """Cell usage of a schedule, split by link layer and direction."""
    config = schedule.config
    per_layer: Dict[int, int] = {}
    per_direction: Dict[Direction, int] = {
        Direction.UP: 0, Direction.DOWN: 0
    }
    scheduled = 0
    for link in schedule.links:
        cells = len(schedule.cells_of(link))
        scheduled += cells
        layer = topology.link_layer(link.child)
        per_layer[layer] = per_layer.get(layer, 0) + cells
        per_direction[link.direction] += cells
    return OccupancyReport(
        total_cells=config.total_cells,
        scheduled_cells=scheduled,
        utilization=scheduled / config.total_cells,
        per_layer=dict(sorted(per_layer.items())),
        per_direction=per_direction,
    )


@dataclass(frozen=True)
class FragmentationReport:
    """Idle-space structure inside one partition."""

    capacity: int
    used: int
    idle: int
    free_fragments: int
    largest_free_rect: int

    @property
    def slack_ratio(self) -> float:
        """Idle fraction of the partition."""
        return self.idle / self.capacity if self.capacity else 0.0


def partition_fragmentation(
    partitions: PartitionTable,
    schedule: Schedule,
    topology: TreeTopology,
) -> Dict[Tuple[int, int, Direction], FragmentationReport]:
    """Per scheduling-partition idle-space analysis.

    For each node's own (layer ``l(V_i)``) partition: how many cells its
    links occupy, how much idle room remains, and whether that room is
    one usable block or shattered fragments — the quantity that decides
    whether the next demand increase is absorbed locally.
    """
    out: Dict[Tuple[int, int, Direction], FragmentationReport] = {}
    for partition in partitions:
        owner = partition.owner
        if partition.layer != topology.node_layer(owner):
            continue
        region = partition.region
        space = FreeSpace(region)
        used = 0
        for child in topology.children_of(owner):
            for cell in schedule.cells_of(LinkRef(child, partition.direction)):
                placed = PlacedRect(cell.slot, cell.channel, 1, 1)
                if region.contains(placed):
                    space.occupy(placed)
                    used += 1
        free_rects = space.free_rects
        out[partition.key] = FragmentationReport(
            capacity=region.area,
            used=used,
            idle=region.area - used,
            free_fragments=len(free_rects),
            largest_free_rect=max((r.area for r in free_rects), default=0),
        )
    return out


def layer_load_balance(
    schedule: Schedule, topology: TreeTopology
) -> Dict[int, float]:
    """Average cells per link at each layer — the funnel effect: layers
    near the gateway carry everything the deeper layers generate."""
    totals: Dict[int, List[int]] = {}
    for link in schedule.links:
        layer = topology.link_layer(link.child)
        totals.setdefault(layer, []).append(len(schedule.cells_of(link)))
    return {
        layer: float(np.mean(counts))
        for layer, counts in sorted(totals.items())
    }

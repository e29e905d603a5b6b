"""Fleet work units: one independent tree network per scenario.

A :class:`TreeScenario` is a pure function of its parameters — the
topology, task set, schedule and simulated traffic all derive from the
seed — so running it twice anywhere produces bitwise-identical results.
That purity is what makes the fleet orchestrator's promises checkable:
a tree that completed after a crash, a SIGKILL and a checkpoint resume
must produce the *same* :class:`TreeResult` as an undisturbed serial
run, and :func:`run_tree`'s checksum is the equality witness.

Scenarios also carry *supervised-failure hooks* (``crash_at_slotframe``,
``hang_at_slotframe``) used by the orchestrator tests and chaos drills
to make a worker fail deterministically on its first attempt(s); real
campaigns leave them unset.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..core.manager import HarpNetwork
from ..packing.composition import CompositionCache
from ..net.radio import UniformPDR
from ..net.serialization import (
    dump_network,
    dump_progress,
    dump_run_snapshot,
    load_network,
    restore_progress,
)
from ..net.sim.engine import TSCHSimulator
from ..net.slotframe import SlotframeConfig
from ..net.tasks import e2e_task_per_node
from ..net.topology import layered_random_tree


class SimulatedWorkerCrash(RuntimeError):
    """Raised by a scenario's crash hook: a deterministic stand-in for
    a worker process dying mid-tree (tests and chaos drills)."""


@dataclass(frozen=True)
class TreeScenario:
    """One tree network to allocate and simulate, as a fleet work unit.

    Parameters
    ----------
    tree_id:
        Unique name within the campaign (dead-letter and checkpoint
        accounting key).
    seed:
        Drives topology generation and the engine RNG.
    num_devices, depth, rate:
        Workload shape: a layered random tree with one e2e task per
        device at ``rate`` packets/slotframe.
    slotframes:
        Simulation horizon after the static phase.
    pdr:
        Uniform link PDR (< 1.0 adds stateless channel loss; the
        engine RNG is checkpointed, so resumes stay exact).
    optional:
        Sheddable under overload: the admission valve may drop the
        tree (explicitly dead-lettered as shed) instead of queueing it
        when the dispatch queue is saturated.
    crash_at_slotframe / crash_attempts:
        Failure hook: attempts numbered ``<= crash_attempts`` raise
        :class:`SimulatedWorkerCrash` when reaching this slotframe.
    hang_at_slotframe / hang_attempts / hang_seconds:
        Failure hook: attempts numbered ``<= hang_attempts`` stall for
        ``hang_seconds`` at this slotframe (exercises heartbeat /
        deadline supervision — the supervisor must SIGKILL them).
    workload:
        Engine-level rate schedule from the workload engine: sorted
        ``(frame, task_id, rate)`` triples.  Before simulating frame
        ``f``, every triple at ``f`` sets that task's generation rate.
        Plain data (fingerprinted, checkpoint-safe: progress snapshots
        carry per-task rates, so a resume needs no re-application).
    """

    tree_id: str
    seed: int = 0
    num_devices: int = 24
    depth: int = 4
    rate: float = 1.0
    slotframes: int = 40
    pdr: float = 1.0
    optional: bool = False
    crash_at_slotframe: Optional[int] = None
    crash_attempts: int = 1
    hang_at_slotframe: Optional[int] = None
    hang_attempts: int = 1
    hang_seconds: float = 3600.0
    workload: Tuple[Tuple[int, int, float], ...] = ()

    def __post_init__(self) -> None:
        if self.num_devices < 2:
            raise ValueError("num_devices must be >= 2")
        if self.slotframes < 1:
            raise ValueError("slotframes must be >= 1")
        if not 0.0 < self.pdr <= 1.0:
            raise ValueError(f"pdr must be in (0, 1], got {self.pdr}")
        object.__setattr__(
            self,
            "workload",
            tuple(
                (int(frame), int(task_id), float(rate))
                for frame, task_id, rate in self.workload
            ),
        )
        for frame, task_id, rate in self.workload:
            if not 0 <= frame < self.slotframes:
                raise ValueError(
                    f"workload frame {frame} outside [0, {self.slotframes})"
                )
            if not 1 <= task_id <= self.num_devices:
                raise ValueError(
                    f"workload task {task_id} outside the device range"
                )
            if rate <= 0:
                raise ValueError(f"workload rate must be > 0, got {rate}")

    def fingerprint(self) -> str:
        """Digest over everything that affects the *result* (failure
        hooks excluded: a tree that crashed on attempt 1 must accept its
        own checkpoint on attempt 2).  The workload schedule is included
        only when set, so plain scenarios keep their fingerprints across
        versions."""
        doc: Dict[str, object] = {
            "tree_id": self.tree_id,
            "seed": self.seed,
            "num_devices": self.num_devices,
            "depth": self.depth,
            "rate": self.rate,
            "slotframes": self.slotframes,
            "pdr": self.pdr,
        }
        if self.workload:
            doc["workload"] = [list(entry) for entry in self.workload]
        payload = json.dumps(doc, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "TreeScenario":
        doc = dict(document)
        if doc.get("workload"):
            doc["workload"] = tuple(
                tuple(entry) for entry in doc["workload"]  # type: ignore[union-attr]
            )
        return cls(**doc)  # type: ignore[arg-type]


def fleet_scenarios(
    trees: int,
    seed: int = 0,
    num_devices: int = 24,
    depth: int = 4,
    slotframes: int = 40,
    pdr: float = 1.0,
    optional_every: int = 0,
    workload=None,
) -> list:
    """A seeded campaign: ``trees`` independent scenarios with distinct
    topology seeds.  ``optional_every`` marks every n-th tree sheddable
    (0 = none).

    ``workload`` feeds each tree an engine-level rate schedule from the
    workload engine: a :class:`~repro.workload.spec.WorkloadSpec` gives
    every tree its *own* stream (the spec reseeded per tree with the
    house mixing constant), while a pre-materialized event sequence
    (e.g. a replayed trace) drives every tree with the same schedule —
    both folded onto the device range via
    :func:`repro.workload.drivers.fleet_rate_schedule`.
    """
    per_tree: List[Tuple[Tuple[int, int, float], ...]] = []
    if workload is not None:
        from ..workload.drivers import fleet_rate_schedule
        from ..workload.spec import SEED_MIX, WorkloadSpec

        def flatten(schedule) -> Tuple[Tuple[int, int, float], ...]:
            return tuple(
                (frame, task_id, rate)
                for frame in sorted(schedule)
                for task_id, rate in schedule[frame]
            )

        if isinstance(workload, WorkloadSpec):
            for i in range(trees):
                derived = WorkloadSpec(
                    name=workload.name,
                    seed=workload.seed * SEED_MIX + i,
                    frames=min(workload.frames, float(slotframes)),
                    generators=workload.generators,
                    network=workload.network,
                )
                per_tree.append(
                    flatten(
                        fleet_rate_schedule(
                            derived.events(), num_devices, slotframes
                        )
                    )
                )
        else:
            shared = flatten(
                fleet_rate_schedule(list(workload), num_devices, slotframes)
            )
            per_tree = [shared] * trees
    return [
        TreeScenario(
            tree_id=f"tree-{seed}-{i:04d}",
            seed=seed * 10_000 + i,
            num_devices=num_devices,
            depth=depth,
            slotframes=slotframes,
            pdr=pdr,
            optional=bool(optional_every and (i + 1) % optional_every == 0),
            workload=per_tree[i] if per_tree else (),
        )
        for i in range(trees)
    ]


@dataclass
class TreeResult:
    """What one completed tree produced (deterministic given the
    scenario — the checksum is the cross-run equality witness)."""

    tree_id: str
    delivered: int
    generated: int
    dropped: int
    slots: int
    checksum: str
    resumed_from: int = 0
    attempt: int = 1
    wall_seconds: float = 0.0
    #: Shared-composition-cache traffic during this tree's static phase
    #: (zero on a checkpoint resume, which skips allocation).  Not part
    #: of the determinism contract: a warm inherited cache changes these
    #: counters, never the layout.
    cache_hits: int = 0
    cache_misses: int = 0

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "TreeResult":
        return cls(**document)  # type: ignore[arg-type]


def _scenario_config(scenario: TreeScenario) -> SlotframeConfig:
    return SlotframeConfig(
        num_slots=max(199, 8 * scenario.num_devices), num_channels=16
    )


#: Process-wide Algorithm-1 composition cache, shared across every tree
#: this process allocates.  Trees in a campaign present near-identical
#: child-interface size multisets, so packings computed for one tree
#: replay for the next (cache-on layouts are certified identical to
#: cache-off).  The orchestrator warms it in the parent before forking
#: workers, so each forked worker inherits the warm entries for free.
_PROCESS_CACHE = CompositionCache()


def process_composition_cache() -> CompositionCache:
    """The per-process shared composition cache (see above)."""
    return _PROCESS_CACHE


def build_network(scenario: TreeScenario) -> HarpNetwork:
    """The scenario's static phase: topology, tasks, full HARP
    allocation (the expensive part a checkpoint resume skips)."""
    topology = layered_random_tree(
        scenario.num_devices, scenario.depth, random.Random(scenario.seed)
    )
    harp = HarpNetwork(
        topology,
        e2e_task_per_node(topology, rate=scenario.rate),
        _scenario_config(scenario),
        case1_slack=1,
        distribute_slack=True,
        composition_cache=_PROCESS_CACHE,
    )
    harp.allocate()
    harp.validate()
    return harp


def _build_simulator(scenario, topology, schedule, task_set, config):
    return TSCHSimulator(
        topology,
        schedule,
        task_set,
        config,
        rng=random.Random(scenario.seed),
        loss_model=(
            UniformPDR(scenario.pdr) if scenario.pdr < 1.0 else None
        ),
        max_packet_age_slots=8 * config.num_slots,
    )


def result_checksum(sim: TSCHSimulator) -> str:
    """Digest over the observable outcome of a finished run: the full
    delivery stream plus every counter the metrics ledger carries.
    Built from the progress document so any state divergence — not
    just the headline counts — breaks equality."""
    document = dump_progress(sim)
    document.pop("rng")  # huge, and implied by the rest
    payload = json.dumps(document, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def run_tree(
    scenario: TreeScenario,
    attempt: int = 1,
    checkpoint=None,
    checkpoint_every: int = 0,
    heartbeat: Optional[Callable[[int], None]] = None,
) -> TreeResult:
    """Execute one scenario to completion: static phase (or checkpoint
    resume), then the simulation horizon slotframe by slotframe.

    ``checkpoint`` is a :class:`~repro.fleet.checkpoint.CheckpointStore`
    (or None); every ``checkpoint_every`` completed slotframes the
    engine progress is snapshotted atomically, so a retry after a crash
    or SIGKILL resumes from the last snapshot instead of re-running the
    static phase.  ``heartbeat(slotframes_done)`` is called after every
    slotframe — the supervisor's liveness signal.
    """
    started = time.perf_counter()
    cache_hits0 = _PROCESS_CACHE.hits
    cache_misses0 = _PROCESS_CACHE.misses
    resumed_from = 0
    network_doc = None
    snapshot = None
    if checkpoint is not None:
        snapshot = checkpoint.load(scenario.tree_id, scenario.fingerprint())
    if snapshot is not None:
        topology, task_set, _partitions, schedule = load_network(
            snapshot["network"]
        )
        config = schedule.config
        sim = _build_simulator(scenario, topology, schedule, task_set, config)
        restore_progress(sim, snapshot["progress"])
        resumed_from = int(snapshot["slotframes_done"])
        network_doc = snapshot["network"]
    else:
        harp = build_network(scenario)
        config = harp.config
        sim = _build_simulator(
            scenario, harp.topology, harp.schedule, harp.task_set, config
        )
        if checkpoint is not None and checkpoint_every:
            network_doc = dump_network(harp)

    rate_events: Dict[int, List[Tuple[int, float]]] = {}
    for frame, task_id, rate in scenario.workload:
        rate_events.setdefault(frame, []).append((task_id, rate))

    for done in range(resumed_from, scenario.slotframes):
        if (
            scenario.hang_at_slotframe is not None
            and done == scenario.hang_at_slotframe
            and attempt <= scenario.hang_attempts
        ):
            time.sleep(scenario.hang_seconds)
        if (
            scenario.crash_at_slotframe is not None
            and done == scenario.crash_at_slotframe
            and attempt <= scenario.crash_attempts
        ):
            raise SimulatedWorkerCrash(
                f"{scenario.tree_id}: scripted crash at slotframe {done} "
                f"(attempt {attempt})"
            )
        # Workload rate events fire at slotframe boundaries.  A resume
        # starts past its snapshot's frames; the rates those applied
        # are already in the restored progress (snapshots carry
        # per-task rates), so nothing is re-applied.
        for task_id, rate in rate_events.get(done, ()):
            sim.set_task_rate(task_id, rate)
        sim.run_slotframes(1)
        completed = done + 1
        if heartbeat is not None:
            heartbeat(completed)
        if (
            checkpoint is not None
            and checkpoint_every
            and network_doc is not None
            and completed % checkpoint_every == 0
            and completed < scenario.slotframes
        ):
            checkpoint.save(
                scenario.tree_id,
                dump_run_snapshot(
                    network_doc,
                    dump_progress(sim),
                    label=scenario.tree_id,
                    slotframes_done=completed,
                    fingerprint=scenario.fingerprint(),
                ),
            )

    metrics = sim.metrics
    return TreeResult(
        tree_id=scenario.tree_id,
        delivered=metrics.delivered,
        generated=metrics.generated,
        dropped=metrics.dropped,
        slots=scenario.slotframes * config.num_slots,
        checksum=result_checksum(sim),
        resumed_from=resumed_from,
        attempt=attempt,
        wall_seconds=time.perf_counter() - started,
        cache_hits=_PROCESS_CACHE.hits - cache_hits0,
        cache_misses=_PROCESS_CACHE.misses - cache_misses0,
    )

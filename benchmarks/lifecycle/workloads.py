"""The seven lifecycle workloads.

Every workload drives ``repro`` through public functions and default
constructor options only: it passes shape (N, depth, rate, slotframe, seed)
and never an implementation selector, so the numbers keep describing the
shipped path while later changes pick winners among the flag matrix.

A workload has three parts.  ``setup`` makes the inputs from the seed (timed
by the harness as ``setup_s``).  ``run`` is the timed region: it executes
``size`` units of work, logs every timed operation in an :class:`OpLog`,
brackets exactly the timed code in ``ROOT`` spans and checks the outputs.
``probe`` runs only in the traced pass, outside the timed region, for the
per-layer numbers that need an extra call (a serial reference campaign, a
snapshot round trip).

Sizes are a deterministic function of ``--seconds``, calibrated so that the
timed region lasts about that long at the commit that added the benchmark;
simulated counts therefore repeat exactly for a given seed and duration.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.agents.live import LiveHarpNetwork
from repro.agents.runtime import AgentRuntime
from repro.core.dynamics import TopologyManager
from repro.core.manager import HarpNetwork
from repro.experiments.fault_study import crash_candidates
from repro.fleet import (
    CheckpointStore,
    build_network,
    fleet_scenarios,
    run_fleet,
    run_fleet_serial,
)
from repro.net.serialization import (
    dump_network,
    dump_progress,
    dump_run_snapshot,
    load_network,
    load_run_snapshot,
)
from repro.net.sim.engine import TSCHSimulator
from repro.net.sim.faults import FaultPlan
from repro.net.slotframe import SlotframeConfig
from repro.net.tasks import e2e_task_per_node
from repro.net.topology import balanced_tree_with_layers, layered_random_tree
from repro.workload.drivers import network_for_spec
from repro.workload import (
    drive_network,
    metrics_digest,
    network_digest,
    preset_spec,
    read_events,
    write_trace,
)

from spans import ROOT, SpanRow
from stats import OpLog, median

#: Where a run may leave files (span dumps, the trace file, checkpoints).
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: ``--seconds`` value the nominal sizes below are calibrated for.
NOMINAL_SECONDS = 10.0

#: ``delivery_ratio`` of a workload that runs no data plane: nothing was
#: generated, so nothing was lost.  (Every workload reports every
#: end-to-end metric, and none may read 0.)
NO_DATA_PLANE = 1.0


def _sha(payload: object) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()[:16]


def tree_digest(topology) -> str:
    """Digest of a tree's shape (every device's parent)."""
    return _sha([(n, topology.parent_of(n)) for n in topology.device_nodes])


def scaled(nominal: int, seconds: float, floor: int = 1) -> int:
    """``nominal`` units at :data:`NOMINAL_SECONDS`, pro rata otherwise."""
    return max(floor, round(nominal * seconds / NOMINAL_SECONDS))


def chunks(total: int, per_rep: int) -> List[int]:
    """``total`` split into repetitions of at most ``per_rep``."""
    return [min(per_rep, total - done) for done in range(0, total, per_rep)]


@dataclass
class Outcome:
    """What one pass over a workload's timed region produced."""

    log: OpLog
    #: Work units (nodes, ops, slots, trees) completed in the timed region.
    work: float
    #: Host seconds the timed region took.
    timed_s: float
    #: Simulated counts and digests: equal for equal seed and size, on any
    #: host, traced or not.  Always holds ``mgmt_msgs_per_op`` and
    #: ``delivery_ratio``, the two simulated end-to-end metrics.
    sim: Dict[str, object]
    #: Digest of the generated inputs (tree, op script, trace, scenarios).
    inputs: str
    #: Per-layer counters read through public statistics, not spans.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Objects the traced pass's probe reads (the last simulator).
    keep: Dict[str, object] = field(default_factory=dict)


class Workload:
    """Base of the seven workloads (see the module docstring)."""

    name = ""
    why = ""
    #: What ``work_per_s`` counts on this workload.
    unit = ""
    #: What one logged operation is on this workload.
    op = ""
    #: Span-table rows installed for the traced pass.
    span_rows: Sequence[SpanRow] = ()

    def size(self, seconds: float) -> int:
        raise NotImplementedError

    def setup(self, seed: int, size: int, rec):
        raise NotImplementedError

    def run(self, state, size: int, rec) -> Outcome:
        raise NotImplementedError

    def probe(self, state, outcome: Outcome, rec) -> None:
        """Traced pass only; adds to ``outcome.counters``."""


# ----------------------------------------------------------------------
# span table
# ----------------------------------------------------------------------

STATIC_ROWS = (
    SpanRow("repro.core.demand:DemandLedger", "rebuild", "core.demand.rebuild"),
    SpanRow("repro.core.manager", "generate_interfaces", "core.interface_gen.generate"),
    SpanRow("repro.core.interface_gen", "compose_components", "packing.composition.compose"),
    SpanRow("repro.packing.composition", "strip_pack", "packing.strip.pack"),
    SpanRow("repro.packing.skyline:SkylinePacker", "pack", "packing.skyline.pack"),
    SpanRow("repro.core.manager", "allocate_partitions", "core.allocation.allocate"),
    SpanRow("repro.core.manager", "build_schedule", "core.link_sched.build"),
    SpanRow("repro.core.manager:HarpNetwork", "validate", "core.audit.validate"),
)

DYNAMICS_ROWS = STATIC_ROWS + (
    SpanRow("repro.core.dynamics:TopologyManager", "apply_event", "core.dynamics.apply_event"),
    SpanRow("repro.core.manager:HarpNetwork", "rebootstrap", "core.dynamics.rebootstrap"),
    SpanRow("repro.net.topology:TreeTopology", "with_attached", "net.topology.mutate"),
    SpanRow("repro.net.topology:TreeTopology", "with_detached", "net.topology.mutate"),
    SpanRow("repro.net.topology:TreeTopology", "with_reparented", "net.topology.mutate"),
    SpanRow("repro.core.demand:DemandLedger", "apply_change", "core.demand.apply"),
    SpanRow("repro.core.demand:DemandLedger", "change_rate", "core.demand.apply"),
    SpanRow("repro.core.demand:DemandLedger", "preview_rate_change", "core.demand.apply"),
    SpanRow("repro.core.dynamics", "generate_interfaces", "core.interface_gen.generate"),
    SpanRow("repro.core.adjustment", "recompose_at", "core.interface_gen.recompose"),
    SpanRow("repro.core.adjustment", "can_pack", "packing.rpp.can_pack", lambda result: result.feasible),
    SpanRow("repro.core.adjustment:PartitionAdjuster", "request_component_increase", "core.adjustment.increase"),
    SpanRow("repro.core.adjustment:PartitionAdjuster", "release_component", "core.adjustment.release"),
    SpanRow("repro.core.manager", "schedule_node_links", "core.link_sched.node"),
    SpanRow("repro.net.protocol.transport:ManagementPlane", "deliver", "net.protocol.deliver"),
    SpanRow("repro.net.protocol.transport:ManagementPlane", "deliver_routed", "net.protocol.deliver"),
    SpanRow("repro.workload.drivers", "network_digest", "net.serialization.dump"),
    # network_for_spec imports these two at call time, from their own modules.
    SpanRow("repro.net.topology", "layered_random_tree", "net.topology.build"),
    SpanRow("repro.net.tasks", "e2e_task_per_node", "net.tasks.build"),
)

ENGINE_ROWS = STATIC_ROWS + (
    SpanRow("repro.net.sim.engine:TSCHSimulator", "run_slots", "net.sim.engine.run"),
)

FLEET_ROWS = ENGINE_ROWS + (
    SpanRow("repro.fleet.supervisor:Supervisor", "spawn", "fleet.spawn"),
    SpanRow("repro.fleet.supervisor:Supervisor", "poll", "fleet.poll"),
    # The orchestrator idles in time.sleep while workers run.
    SpanRow("time", "sleep", "fleet.wait"),
    SpanRow("repro.fleet.scenario", "layered_random_tree", "net.topology.build"),
    SpanRow("repro.fleet.scenario", "e2e_task_per_node", "net.tasks.build"),
    SpanRow("repro.fleet.scenario", "dump_network", "net.serialization.dump"),
    SpanRow("repro.fleet.scenario", "dump_progress", "net.serialization.dump"),
    SpanRow("repro.fleet.checkpoint:CheckpointStore", "save", "fleet.checkpoint.save"),
    SpanRow("repro.fleet.checkpoint:CheckpointStore", "load", "fleet.checkpoint.load"),
)

LIVE_ROWS = (
    # The live layer's own slot loop; the engine is stepped one slot at a
    # time under it, so the engine row below costs a span per slot.
    SpanRow("repro.agents.live:LiveHarpNetwork", "step_slots", "agents.live.step"),
    SpanRow("repro.net.sim.engine:TSCHSimulator", "run_slots", "net.sim.engine.run"),
    SpanRow("repro.agents.node:HarpNodeAgent", "handle", "agents.node.handle"),
    SpanRow("repro.agents.node", "compose_components", "packing.composition.compose"),
    SpanRow("repro.packing.composition", "strip_pack", "packing.strip.pack"),
    SpanRow("repro.packing.skyline:SkylinePacker", "pack", "packing.skyline.pack"),
    SpanRow("repro.agents.node", "can_pack", "packing.rpp.can_pack", lambda result: result.feasible),
)


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------


def scale_network(n: int, depth: int, seed: int, rate: float, rec):
    """The scale-suite shape: a layered random tree, one e2e task per
    device, a slotframe wide enough for the demand."""
    with rec.span("net.topology.build"):
        topology = layered_random_tree(n, depth, random.Random(seed + n))
    with rec.span("net.tasks.build"):
        tasks = e2e_task_per_node(topology, rate=rate)
    config = SlotframeConfig(num_slots=max(199, 8 * n), num_channels=16)
    return topology, tasks, config


def allocated(topology, tasks, config) -> HarpNetwork:
    harp = HarpNetwork(topology, tasks, config, case1_slack=1, distribute_slack=True)
    harp.allocate()
    harp.validate()
    return harp


def check_network(harp: HarpNetwork, log: OpLog) -> None:
    """HARP's invariants on a network the benchmark built or mutated."""
    try:
        harp.validate()
        # validate() skips the schedule when overflow is allowed; collision
        # freedom is required here regardless.
        harp.schedule.validate_collision_free(harp.topology)
    except Exception as error:  # any invariant error is a failed check
        log.fail(f"network invariant: {type(error).__name__}: {error}")


def check_engine(sim: TSCHSimulator, log: OpLog) -> None:
    """The engine's conservation laws after a run."""
    metrics = sim.metrics
    if metrics.delivered > metrics.generated:
        log.fail(f"delivered {metrics.delivered} > generated {metrics.generated}")
    findings = sim.conservation_findings()
    if findings:
        log.fail("conservation: " + "; ".join(findings))


def static_counters(harp: HarpNetwork) -> Dict[str, float]:
    cache = harp.stats["composition_cache"]
    report = harp.static_report
    return {
        "packing.composition.cache_hit_ratio": cache["hit_rate"],
        "packing.composition.cache_entries": cache["entries"],
        "core.interface_gen.post_intf_msgs": report.post_intf_messages,
        "core.allocation.post_part_msgs": report.post_part_messages,
        "core.link_sched.cells": harp.schedule.total_assignments,
        "net.protocol.messages": harp.plane.stats.total_messages,
    }


def adjustment_counters(reports: Sequence[object], log: OpLog) -> Dict[str, float]:
    """Alg. 2 bookkeeping read from the reports of the applied ops."""
    outcomes = [o for report in reports for o in report.outcomes]
    done = [r for r in reports if r.success]
    counters = {
        "core.adjustment.rejected": sum(1 for o in outcomes if not o.success),
        "core.adjustment.msgs_per_op": (
            sum(r.total_messages for r in done) / len(done) if done else 0.0
        ),
    }
    if outcomes:
        counters["core.adjustment.local_ratio"] = sum(
            1 for o in outcomes if o.success and o.layers_climbed == 0
        ) / len(outcomes)
        counters["core.adjustment.escalation_hops_mean"] = sum(
            o.layers_climbed for o in outcomes
        ) / len(outcomes)
        counters["core.adjustment.partitions_moved_mean"] = sum(
            len(o.moved_partitions) for o in outcomes
        ) / len(outcomes)
    for kind, latencies in log.by_kind.items():
        counters[f"core.dynamics.{kind}_p50_ms"] = median(latencies) * 1e3
    return counters


def engine_counters(slots: int, generated: int, delivered: int, run_s: float) -> Dict[str, float]:
    return {
        "net.sim.engine.slots": slots,
        "net.sim.engine.generated": generated,
        "net.sim.engine.delivered": delivered,
        "net.sim.engine.delivery_ratio": delivered / generated if generated else 0.0,
        "net.sim.engine.us_per_delivery": run_s * 1e6 / delivered if delivered else 0.0,
    }


def snapshot_round_trip(network_doc: dict, sim: TSCHSimulator, rec) -> Dict[str, float]:
    """One ``dump_run_snapshot`` / ``load_run_snapshot`` round trip of a
    finished engine run, through JSON text as a checkpoint would."""
    with rec.span("net.serialization.dump"):
        text = json.dumps(dump_run_snapshot(network_doc, dump_progress(sim)))
    with rec.span("net.serialization.load"):
        load_network(load_run_snapshot(json.loads(text))["network"])
    return {"net.serialization.bytes": len(text)}


# ----------------------------------------------------------------------
# static-10k
# ----------------------------------------------------------------------


class Static(Workload):
    name = "static-10k"
    why = (
        "cold bootstrap of 10000 nodes: interface generation, composition, "
        "allocation and link scheduling do all the work; adjustment, engine "
        "and fleet stay idle"
    )
    unit = "nodes"
    op = "bootstrap"
    span_rows = STATIC_ROWS
    n, depth = 10000, 8

    def size(self, seconds: float) -> int:
        return scaled(6, seconds)

    def setup(self, seed: int, size: int, rec):
        return scale_network(self.n, self.depth, seed, 1.0, rec)

    def run(self, state, size: int, rec) -> Outcome:
        topology, tasks, config = state
        allocated(topology, tasks, config)  # warm-up, not timed
        log = OpLog()
        done = 0
        for _ in range(size):
            with rec.span(ROOT):
                built = log.run("bootstrap", lambda: allocated(topology, tasks, config))
            if built is not None:
                harp, done = built, done + 1
        if not done:
            raise RuntimeError("; ".join(log.errors))
        check_network(harp, log)
        return Outcome(
            log=log,
            work=self.n * done,
            timed_s=log.timed_s,
            sim={
                "cells": harp.schedule.total_assignments,
                # Per bootstrap: POST-intf plus POST-part of the static phase.
                "mgmt_msgs_per_op": harp.static_report.total_messages,
                "delivery_ratio": NO_DATA_PLANE,
                "sim_digest": network_digest(harp),
            },
            inputs=tree_digest(topology),
            counters=static_counters(harp),
        )


# ----------------------------------------------------------------------
# storm-5k
# ----------------------------------------------------------------------


class Storm(Workload):
    name = "storm-5k"
    why = (
        "rate-change/attach/reparent/detach round robin on an allocated "
        "5000-node tree: Alg. 2 and the topology manager at scale, where "
        "O(N) work per op dominates; static layers run only in set-up"
    )
    unit = "ops"
    op = "adjustment"
    span_rows = DYNAMICS_ROWS
    n, depth = 5000, 8

    def size(self, seconds: float) -> int:
        return scaled(54, seconds, floor=4)

    def setup(self, seed: int, size: int, rec):
        return allocated(*scale_network(self.n, self.depth, seed, 1.0, rec)), seed

    def run(self, state, size: int, rec) -> Outcome:
        harp, seed = state
        inputs = [tree_digest(harp.topology)]
        manager = TopologyManager(harp)
        rng = random.Random(seed * 1000 + self.n)
        next_id = max(harp.topology.nodes) + 1
        log = OpLog()
        reports = []
        for i in range(size):
            # Operand selection scans the tree; it is the load generator's
            # work, not the system's, so it stays outside the timed span.
            kind = ("rate_change", "attach", "reparent", "detach")[i % 4]
            topo = harp.topology
            devices = list(topo.device_nodes)
            parent, rate = 0, 1.0
            if kind == "rate_change":
                node = rng.choice(devices)
                task_ids = [t.task_id for t in harp.task_set if t.source == node]
                if not task_ids:
                    continue
                node = task_ids[0]
                rate = 1.5 if harp.task_set.by_id(node).rate <= 1.0 else 1.0
            elif kind == "attach":
                node, parent = next_id, rng.choice(devices)
                next_id += 1
            else:
                leaves = [d for d in devices if topo.is_leaf(d)]
                if not leaves:
                    continue
                node = rng.choice(leaves)
                if kind == "reparent":
                    candidates = [
                        d for d in devices
                        if d != node and topo.depth_of(d) < topo.max_layer
                    ]
                    if not candidates:
                        continue
                    parent = rng.choice(candidates)
            inputs.append((kind, node, parent, rate))
            with rec.span(ROOT):
                report = log.run(
                    kind,
                    lambda: manager.apply_event(kind, node, parent=parent, rate=rate),
                    succeeded=lambda r: r.success,
                )
            if report is not None:
                reports.append(report)
        check_network(harp, log)
        counters = static_counters(harp)
        counters.update(adjustment_counters(reports, log))
        return Outcome(
            log=log,
            work=len(reports),
            timed_s=log.timed_s,
            sim={
                "ops": len(reports),
                "mgmt_msgs_per_op": counters["core.adjustment.msgs_per_op"],
                "delivery_ratio": NO_DATA_PLANE,
                "rebootstraps": sum(
                    1 for r in reports if getattr(r, "rebootstrapped", False)
                ),
                "sim_digest": network_digest(harp),
            },
            inputs=_sha(inputs),
            counters=counters,
        )


# ----------------------------------------------------------------------
# trace-mixed-200
# ----------------------------------------------------------------------


class _LoggedManager(TopologyManager):
    """``TopologyManager`` whose ``apply_event`` is timed into an OpLog:
    the per-event latency source of ``drive_network``, traced or not."""

    def __init__(self, harp: HarpNetwork, log: OpLog, reports: list) -> None:
        super().__init__(harp)
        self._log = log
        self._reports = reports

    def apply_event(self, kind, node, parent=0, rate=1.0):
        start = time.perf_counter()
        try:
            report = super().apply_event(kind, node, parent=parent, rate=rate)
        except Exception as error:
            self._log.record(
                kind, time.perf_counter() - start, False,
                f"{kind}: {type(error).__name__}: {error}",
            )
            raise
        self._log.record(kind, time.perf_counter() - start, report.success)
        self._reports.append(report)
        return report


class TraceMixed(Workload):
    name = "trace-mixed-200"
    why = (
        "thousands of ~2 ms adjustments replayed from a written-and-reread "
        "mixed trace on a 200-device tree: per-op fixed overhead, workload "
        "generation and trace I/O dominate and O(N) terms vanish"
    )
    unit = "ops"
    op = "adjustment"
    span_rows = DYNAMICS_ROWS
    devices, depth = 200, 5

    def size(self, seconds: float) -> int:
        return scaled(4200, seconds, floor=40)  # trace horizon in slotframes

    def setup(self, seed: int, size: int, rec):
        with rec.span("workload.generate"):
            spec = preset_spec(
                "mixed", seed=seed, frames=float(size),
                devices=self.devices, depth=self.depth,
            )
            events = list(spec.events())
        os.makedirs(OUT_DIR, exist_ok=True)
        fd, path = tempfile.mkstemp(suffix=".jsonl", prefix="trace-", dir=OUT_DIR)
        os.close(fd)
        try:
            with rec.span("workload.trace.write"):
                write_trace(path, iter(events), spec=spec)
            trace_bytes = os.path.getsize(path)
            with rec.span("workload.trace.read"):
                replayed = read_events(path)
        finally:
            os.unlink(path)
        return network_for_spec(spec), events, replayed, trace_bytes

    def run(self, state, size: int, rec) -> Outcome:
        harp, events, replayed, trace_bytes = state
        inputs = _sha([tree_digest(harp.topology), [e.to_dict() for e in events]])
        log = OpLog()
        reports: list = []
        if replayed != events:
            log.fail("trace round trip: replayed events differ from generated")
        with rec.span(ROOT):
            drive = drive_network(
                harp, iter(replayed), manager=_LoggedManager(harp, log, reports)
            )
        if drive.stopped_at is not None:
            log.errors.append(f"stream stopped at event {drive.stopped_at}")
        check_network(harp, log)
        counters = static_counters(harp)
        counters.update(adjustment_counters(reports, log))
        counters.update(
            {
                "workload.events": len(events),
                "workload.skipped": drive.skipped,
                "workload.trace.bytes": trace_bytes,
            }
        )
        return Outcome(
            log=log,
            work=drive.applied,
            timed_s=log.timed_s,
            sim={
                "events": len(events),
                "applied": drive.applied,
                "skipped": drive.skipped,
                "rejected": drive.rejected,
                "rebootstraps": drive.rebootstraps,
                "mgmt_msgs_per_op": counters["core.adjustment.msgs_per_op"],
                "delivery_ratio": NO_DATA_PLANE,
                "sim_digest": drive.digest,
            },
            inputs=inputs,
            counters=counters,
        )


# ----------------------------------------------------------------------
# engine-dense-1k / engine-sparse-20k
# ----------------------------------------------------------------------


class Engine(Workload):
    unit = "slots"
    op = "slotframe"
    span_rows = ENGINE_ROWS
    depth = 8

    def __init__(self, name, why, n, rate, nominal_frames, frames_per_rep):
        self.name, self.why = name, why
        self.n, self.rate = n, rate
        self.nominal_frames, self.frames_per_rep = nominal_frames, frames_per_rep

    def size(self, seconds: float) -> int:
        return scaled(self.nominal_frames, seconds, floor=2)

    def setup(self, seed: int, size: int, rec):
        topology, tasks, config = scale_network(self.n, self.depth, seed, self.rate, rec)
        return allocated(topology, tasks, config), tasks, seed

    def run(self, state, size: int, rec) -> Outcome:
        harp, tasks, seed = state
        config = harp.config
        log = OpLog()
        generated = delivered = 0
        sim = None
        for frames in chunks(size, self.frames_per_rep):
            sim = TSCHSimulator(
                harp.topology, harp.schedule, tasks, config,
                rng=random.Random(seed),
                max_packet_age_slots=10 * config.num_slots,
            )
            for _ in range(frames):
                with rec.span(ROOT):
                    log.run("slotframe", lambda: sim.run_slotframes(1))
            check_engine(sim, log)
            generated += sim.metrics.generated
            delivered += sim.metrics.delivered
        check_network(harp, log)
        slots = size * config.num_slots
        counters = static_counters(harp)
        counters.update(engine_counters(slots, generated, delivered, log.timed_s))
        return Outcome(
            log=log,
            work=slots,
            timed_s=log.timed_s,
            sim={
                "generated": generated,
                "delivered": delivered,
                "delivery_ratio": counters["net.sim.engine.delivery_ratio"],
                # The engine exchanges none; these are the messages of the
                # bootstrap that produced the schedule it runs.
                "mgmt_msgs_per_op": harp.static_report.total_messages,
                "sim_digest": metrics_digest(sim),
            },
            inputs=tree_digest(harp.topology),
            counters=counters,
            keep={"sim": sim},
        )

    def probe(self, state, outcome: Outcome, rec) -> None:
        harp, sim = state[0], outcome.keep["sim"]
        with rec.span("net.sim.metrics.summary"):
            sim.metrics.latency_by_source()
            sim.metrics.delivery_ratio
        outcome.counters.update(snapshot_round_trip(dump_network(harp), sim, rec))


# ----------------------------------------------------------------------
# fleet-48x300
# ----------------------------------------------------------------------


class Fleet(Workload):
    name = "fleet-48x300"
    why = (
        "48 trees of 300 devices through the supervised fork pool with "
        "checkpoints: the only workload with supervisor polling, fork/IPC, "
        "result serialization and checkpoint writes on the blocking path"
    )
    unit = "trees"
    op = "tree"
    span_rows = FLEET_ROWS
    devices, depth, slotframes, checkpoint_every = 300, 5, 25, 10

    def size(self, seconds: float) -> int:
        return scaled(48, seconds, floor=2)

    @property
    def workers(self) -> int:
        return min(2, os.cpu_count() or 1)

    def _scenarios(self, trees: int, seed: int):
        spec = preset_spec(
            "steady", seed=seed, frames=float(self.slotframes),
            devices=self.devices, depth=self.depth,
        )
        return fleet_scenarios(
            trees, seed=seed, num_devices=self.devices, depth=self.depth,
            slotframes=self.slotframes, workload=spec,
        )

    def _campaign(self, scenarios, serial: bool = False):
        os.makedirs(OUT_DIR, exist_ok=True)
        directory = tempfile.mkdtemp(prefix="fleet-", dir=OUT_DIR)
        try:
            if serial:
                return run_fleet_serial(
                    scenarios, checkpoint_dir=directory,
                    checkpoint_every=self.checkpoint_every,
                )
            return run_fleet(
                scenarios, workers=self.workers, checkpoint_dir=directory,
                checkpoint_every=self.checkpoint_every,
            )
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def setup(self, seed: int, size: int, rec):
        with rec.span("workload.generate"):
            scenarios = self._scenarios(size, seed)
        # A discarded campaign on other trees: fork path and caches warm.
        self._campaign(self._scenarios(4, seed + 1))
        return scenarios

    def run(self, scenarios, size: int, rec) -> Outcome:
        log = OpLog()
        start = time.perf_counter()
        with rec.span(ROOT):
            report = self._campaign(scenarios)
        wall = time.perf_counter() - start
        for result in report.results:
            ok = result.delivered <= result.generated
            log.record("tree", result.wall_seconds, ok, None if ok else (
                f"{result.tree_id}: delivered {result.delivered} > "
                f"generated {result.generated}"
            ))
        for letter in report.dead_letters:
            log.fail(f"{letter.tree_id} dead-lettered: {letter.reason}")
        for _ in range(len(scenarios) - len(report.results) - len(report.dead_letters)):
            log.fail("tree neither completed nor dead-lettered")
        stats = report.stats
        generated = sum(r.generated for r in report.results)
        delivered = sum(r.delivered for r in report.results)
        checksums = sorted((r.tree_id, r.checksum) for r in report.results)
        latencies = [r.wall_seconds for r in report.results] or [0.0]
        counters = {
            "fleet.wall_s": wall,
            "fleet.tree_p50_s": median(latencies),
            "fleet.tree_max_s": max(latencies),
            "fleet.retries": stats.retries,
            "fleet.dead_lettered": stats.dead_lettered,
            "fleet.cache_hit_ratio": stats.cache_hit_rate,
        }
        counters.update(
            engine_counters(sum(r.slots for r in report.results), generated, delivered, 0.0)
        )
        # Tree results carry no message counts: the first tree's bootstrap,
        # repeated here, stands for the campaign's.
        first_tree = build_network(scenarios[0])
        return Outcome(
            log=log,
            work=len(report.results),
            timed_s=wall,
            sim={
                "trees": len(report.results),
                "generated": generated,
                "delivered": delivered,
                "delivery_ratio": counters["net.sim.engine.delivery_ratio"],
                "mgmt_msgs_per_op": first_tree.static_report.total_messages,
                "sim_digest": _sha(checksums),
            },
            inputs=_sha([s.fingerprint() for s in scenarios]),
            counters=counters,
            keep={"checksums": checksums},
        )

    def probe(self, scenarios, outcome: Outcome, rec) -> None:
        start = time.perf_counter()
        with rec.span("fleet.serial"):
            serial = self._campaign(scenarios, serial=True)
        serial_s = time.perf_counter() - start
        if sorted((r.tree_id, r.checksum) for r in serial.results) != outcome.keep["checksums"]:
            outcome.log.fail("fleet checksums differ from run_fleet_serial")
        outcome.counters["fleet.parallel_efficiency"] = serial_s / (
            self.workers * outcome.timed_s
        )
        # One checkpoint written and read back, as a worker and a retry would.
        scenario = scenarios[0]
        harp = build_network(scenario)
        sim = TSCHSimulator(
            harp.topology, harp.schedule, harp.task_set, harp.config,
            rng=random.Random(scenario.seed),
        )
        sim.run_slotframes(self.checkpoint_every)
        snapshot = dump_run_snapshot(
            dump_network(harp), dump_progress(sim), label=scenario.tree_id,
            slotframes_done=self.checkpoint_every,
            fingerprint=scenario.fingerprint(),
        )
        directory = tempfile.mkdtemp(prefix="checkpoint-", dir=OUT_DIR)
        try:
            store = CheckpointStore(directory)
            with rec.span("fleet.checkpoint.save"):
                store.save(scenario.tree_id, snapshot)
            outcome.counters["fleet.checkpoint.bytes"] = store.total_bytes()
            with rec.span("fleet.checkpoint.load"):
                loaded = store.load(scenario.tree_id, scenario.fingerprint())
            if loaded is None:
                outcome.log.fail("checkpoint did not load back")
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        outcome.counters.update(snapshot_round_trip(dump_network(harp), sim, rec))


# ----------------------------------------------------------------------
# live-heal-100
# ----------------------------------------------------------------------


class LiveHeal(Workload):
    name = "live-heal-100"
    why = (
        "agents and protocol co-simulated with the engine on 100 nodes: "
        "over-the-air bootstrap, two router crashes, self-healing; guards "
        "the live-layer decomposition, which must move nothing here"
    )
    unit = "slots"
    op = "slotframe"
    span_rows = LIVE_ROWS
    # An even, testbed-like shape (Fig. 7(c)) instead of a random tree: at
    # 100 nodes the shape of a layered random tree moves the co-simulation's
    # cost per slot by +-12 %, which would drown any bound on this workload.
    # The seed picks the two routers that crash.
    layer_sizes = (8, 16, 24, 28, 24)
    management_slots = 60
    warmup_frames, frames_per_rep = 10, 130
    # Headroom for the heal: with the default slack of 1 some crash pairs
    # escalate to a gateway-level repack three times as long as the others
    # (and, on random trees, past the live layer's 150-slotframe quiescence
    # guard, which raises).
    case1_slack = 3

    def size(self, seconds: float) -> int:
        return scaled(3 * self.frames_per_rep, seconds, floor=self.warmup_frames + 4)

    def setup(self, seed: int, size: int, rec):
        with rec.span("net.topology.build"):
            topology = balanced_tree_with_layers(self.layer_sizes)
        with rec.span("net.tasks.build"):
            tasks = e2e_task_per_node(topology)
        n = len(topology.device_nodes)
        config = SlotframeConfig(
            num_slots=8 * n + self.management_slots, num_channels=16,
            management_slots=self.management_slots,
        )
        crashes = sorted(random.Random(seed).sample(crash_candidates(topology), 2))
        return topology, tasks, config, crashes, seed

    def run(self, state, size: int, rec) -> Outcome:
        topology, tasks, config, crashes, seed = state
        log = OpLog()
        slots = generated = delivered = messages = 0
        bootstrap_slots = heal_slots = heals = 0
        live = None
        for frames in chunks(size, self.frames_per_rep):
            live = LiveHarpNetwork(
                topology, tasks, config, rng=random.Random(seed),
                case1_slack=self.case1_slack,
            )
            with rec.span("agents.live.bootstrap"):
                bootstrap_slots = live.bootstrap()
            first_slot = live.sim.current_slot
            for frame in range(frames):
                if frame == self.warmup_frames:
                    plan = FaultPlan.crash_nodes(
                        crashes, at_slot=live.sim.current_slot + config.num_slots // 2
                    )
                    live.fault_plan = plan
                    live.sim.fault_plan = plan
                with rec.span(ROOT):
                    log.run("slotframe", lambda: live.run_slotframes(1))
            slots += live.sim.current_slot - first_slot
            check_engine(live.sim, log)
            try:
                live.schedule.validate_collision_free(live.topology)
            except Exception as error:
                log.fail(f"live schedule: {type(error).__name__}: {error}")
            generated += live.sim.metrics.generated
            delivered += live.sim.metrics.delivered
            messages += live.stats.messages_sent
            heals = live.stats.heals_completed
            heal_slots = live.stats.last_heal_slots
        # Per repetition: one bootstrap over the air and one heal.
        messages /= len(chunks(size, self.frames_per_rep))
        counters = engine_counters(slots, generated, delivered, log.timed_s)
        counters.update(
            {
                "agents.live.bootstrap_slots": bootstrap_slots,
                "agents.live.run_s": log.timed_s,
                "agents.live.heal_slotframes": heal_slots / config.num_slots,
                "agents.live.mgmt_msgs": messages,
                "net.protocol.messages": messages,
                "packing.composition.cache_hit_ratio":
                    live.composition_cache_stats["hit_rate"],
                "packing.composition.cache_entries":
                    live.composition_cache_stats["entries"],
            }
        )
        return Outcome(
            log=log,
            work=slots,
            timed_s=log.timed_s,
            sim={
                "slots": slots,
                "generated": generated,
                "delivered": delivered,
                "delivery_ratio": counters["net.sim.engine.delivery_ratio"],
                "heals": heals,
                "mgmt_msgs_per_op": messages,
                "sim_digest": metrics_digest(live.sim),
            },
            inputs=_sha([tree_digest(topology), crashes]),
            counters=counters,
        )

    def probe(self, state, outcome: Outcome, rec) -> None:
        topology, tasks, config = state[:3]
        # The same static phase, message-driven in memory instead of over
        # the air: what bootstrap costs without the slot-by-slot transport.
        runtime = AgentRuntime(topology, tasks, config, case1_slack=self.case1_slack)
        with rec.span("agents.runtime.static_phase"):
            runtime.run_static_phase()


WORKLOADS: Tuple[Workload, ...] = (
    Static(),
    Storm(),
    TraceMixed(),
    Engine(
        "engine-dense-1k",
        "data plane with almost every slot busy (1000 nodes, rate 1.0): "
        "per-transmission cost dominates and idle-slot skipping cannot help",
        n=1000, rate=1.0, nominal_frames=200, frames_per_rep=50,
    ),
    Engine(
        "engine-sparse-20k",
        "data plane on a wide, mostly idle slotframe (20000 nodes, rate "
        "0.05): event skipping and per-slot bookkeeping dominate; the "
        "opposite regime of engine-dense-1k",
        n=20000, rate=0.05, nominal_frames=27, frames_per_rep=9,
    ),
    Fleet(),
    LiveHeal(),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}

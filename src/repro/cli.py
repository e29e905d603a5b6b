"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``evaluate [--quick]``
    Regenerate the paper's full evaluation (all tables and figures).
``demo``
    Allocate a 50-device network, validate, simulate, print a summary.
``layout``
    Print the partitioned slotframe (the Fig. 7(d) view).
``collide [--rate R] [--channels C] [--topologies N]``
    One collision-probability comparison across all four schedulers.
``adjust --node N --rate R``
    Show what one runtime rate change costs on the demo network.
``capacity``
    Admission headroom of the demo network: max uniform rate and
    per-node slack.
``snapshot --out FILE``
    Allocate the demo network and persist it as a JSON snapshot.
``audit [--snapshot FILE]``
    Deep cross-structure consistency audit of the demo network (or of a
    snapshot's schedule/partition consistency).
``faults [--crashes N ...] [--seeds N] [--seed BASE] [--out FILE]``
    Crash routers mid-run and tabulate the self-healing recovery
    latency (detection, healing, delivery-ratio dip and recovery).
    ``--elastic-cells``/``--elastic-slotframes`` enable the elastic
    post-heal drain; ``--out`` exports the table as JSON.
``bench [--slotframes N] [--no-sweeps] [--workers W] [--out FILE]``
    Time the hot paths (engine slots/sec fast vs slow path, Algorithm-1
    compositions/sec cold vs cached, sweep wall times) against the
    tracked seed baseline; ``--out BENCH_perf.json`` records the
    trajectory point.
``fuzz [--cases N] [--seed S] [--budget SECONDS] [--out FILE]``
    Conformance fuzzing: generated scenarios through every invariant
    and differential oracle; failing cases are shrunk and written to a
    JSON counterexample corpus.  ``--live`` chaos-fuzzes the live
    co-simulation layer instead (crash/heal/roam/degrade
    interleavings against :class:`~repro.agents.live.LiveHarpNetwork`).
    Seed scheduling is coverage-guided unless ``--no-coverage``.
    ``--replay-seed N`` re-runs one case from its seed; ``--replay
    FILE`` re-checks a saved corpus (mixed static/live).  Exit 1 when
    any violation survives.
``roam [--frames N] [--seeds N] [--out FILE]``
    Mobility churn study: identical roam traces with the link-quality
    watchdog enabled vs. disabled; tabulates delivery ratio, proactive
    vs. reactive reparents and flap suppression.
``fleet [--trees N] [--workers W] [--chaos] [--out FILE]``
    Fault-tolerant fleet campaign: shard N independent tree scenarios
    across a supervised process pool with heartbeats, deadlines,
    retry/backoff, checkpoint/resume and optional seeded chaos kills
    (``--chaos``, verified against an in-process serial baseline:
    zero lost trees, completed results bitwise-identical).  ``--bench``
    merges a fleet section into the benchmark report.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
from typing import List, Optional

from .core.manager import HarpNetwork
from .experiments import runner as evaluation_runner
from .experiments.topologies import testbed_topology
from .net.sim.engine import TSCHSimulator
from .net.slotframe import SlotframeConfig
from .net.tasks import e2e_task_per_node, tasks_on_nodes
from .schedulers import (
    HARPScheduler,
    LDSFScheduler,
    MSFScheduler,
    RandomScheduler,
)


def _build_demo_network(case1_slack: int = 1) -> HarpNetwork:
    topology = testbed_topology()
    harp = HarpNetwork(
        topology,
        e2e_task_per_node(topology, rate=1.0),
        SlotframeConfig(),
        case1_slack=case1_slack,
        distribute_slack=True,
    )
    harp.allocate()
    harp.validate()
    return harp


def cmd_evaluate(args: argparse.Namespace) -> int:
    argv = ["--quick"] if args.quick else []
    return evaluation_runner.main(argv)


def cmd_demo(args: argparse.Namespace) -> int:
    harp = _build_demo_network()
    report = harp.static_report
    print(f"network: {len(harp.topology.device_nodes)} devices, "
          f"{harp.topology.max_layer} layers")
    print(f"static phase: {report.total_messages} management messages, "
          f"{report.allocation.total_slots_used}/{harp.config.data_slots} "
          "slots, collision-free")
    sim = TSCHSimulator(
        harp.topology, harp.schedule, harp.task_set, harp.config,
        rng=random.Random(0),
    )
    metrics = sim.run_slotframes(args.slotframes)
    latencies = metrics.latencies_seconds()
    print(f"simulated {args.slotframes} slotframes: "
          f"{metrics.delivered}/{metrics.generated} delivered; "
          f"e2e latency mean {statistics.mean(latencies):.2f} s, "
          f"max {max(latencies):.2f} s "
          f"(slotframe {harp.config.duration_s:.2f} s)")
    return 0


def cmd_layout(args: argparse.Namespace) -> int:
    from .experiments.reporting import render_cell_map, render_gateway_map

    harp = _build_demo_network(case1_slack=0)
    print(render_gateway_map(harp))
    print()
    print(render_cell_map(harp))
    return 0


def cmd_collide(args: argparse.Namespace) -> int:
    from .net.topology import layered_random_tree

    config = SlotframeConfig(num_channels=args.channels)
    schedulers = [
        RandomScheduler(), MSFScheduler(), LDSFScheduler(), HARPScheduler(),
    ]
    sums = {s.name: 0.0 for s in schedulers}
    for i in range(args.topologies):
        topology = layered_random_tree(50, 5, random.Random(args.seed + i))
        leaves = [n for n in topology.device_nodes if topology.is_leaf(n)]
        demands = tasks_on_nodes(leaves, rate=args.rate).link_demands(topology)
        for scheduler in schedulers:
            sums[scheduler.name] += scheduler.collision_probability(
                topology, demands, config, random.Random(i)
            )
    print(f"rate {args.rate} pkt/sf, {args.channels} channels, "
          f"{args.topologies} topologies:")
    for name, total in sums.items():
        print(f"  {name:<8} collision probability "
              f"{total / args.topologies:.3f}")
    return 0


def cmd_adjust(args: argparse.Namespace) -> int:
    harp = _build_demo_network()
    if args.node not in harp.topology:
        print(f"node {args.node} not in the demo network "
              f"(1..{max(harp.topology.device_nodes)})", file=sys.stderr)
        return 2
    report = harp.request_rate_change(args.node, args.rate)
    harp.validate()
    print(f"rate of node {args.node} -> {args.rate} pkt/slotframe: "
          f"{'ok' if report.success else 'REJECTED'}")
    print(f"  partition messages : {report.partition_messages}")
    print(f"  schedule updates   : {report.schedule_update_messages}")
    print(f"  nodes involved     : {sorted(report.involved_nodes)}")
    print(f"  reconfiguration    : "
          f"{report.elapsed_slots * harp.config.slot_duration_s:.2f} s")
    for outcome in report.outcomes:
        print(f"    {outcome.direction.value} layer {outcome.layer}: "
              f"{outcome.case}")
    return 0


def cmd_capacity(args: argparse.Namespace) -> int:
    from .capacity import admission_check, max_uniform_rate, network_headroom

    topology = testbed_topology()
    config = SlotframeConfig()
    rate = max_uniform_rate(topology, config, precision=0.1)
    print(f"max uniform e2e rate: {rate:.1f} pkt/slotframe")
    report = admission_check(
        topology, e2e_task_per_node(topology, rate=1.0), config
    )
    print(f"at rate 1.0: {report.slots_needed}/{report.slots_available} "
          f"slots ({report.slot_utilization:.0%} of the data sub-frame)")
    harp = _build_demo_network()
    tight = [
        (node, h.free_cells)
        for node, h in sorted(network_headroom(harp).items())
        if h.free_cells <= 1
    ]
    print(f"managers with <=1 spare cell: {len(tight)}")
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    from .net.serialization import save_network

    harp = _build_demo_network()
    save_network(harp, args.out)
    print(f"snapshot written to {args.out} "
          f"({harp.schedule.total_assignments} cells, "
          f"{len(harp.partitions)} partitions)")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    if args.snapshot:
        from .net.serialization import load_network_file

        topology, tasks, partitions, schedule = load_network_file(
            args.snapshot
        )
        problems: List[str] = []
        try:
            partitions.validate_isolation(topology)
        except Exception as error:
            problems.append(f"isolation: {error}")
        try:
            schedule.validate_collision_free(topology)
        except Exception as error:
            problems.append(f"collisions: {error}")
        demands = tasks.link_demands(topology)
        for link, cells in demands.items():
            if len(schedule.cells_of(link)) < cells:
                problems.append(f"under-provisioned: {link}")
        source = args.snapshot
    else:
        from .core.audit import audit_network

        harp = _build_demo_network()
        problems = audit_network(harp)
        source = "demo network"
    if problems:
        print(f"{source}: {len(problems)} finding(s)")
        for finding in problems:
            print(f"  - {finding}")
        return 1
    print(f"{source}: clean (no findings)")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    import json

    from .experiments.fault_study import run_fault_study

    result = run_fault_study(
        crash_counts=tuple(args.crashes),
        seeds=tuple(range(args.seed, args.seed + args.seeds)),
        keepalive_miss_limit=args.miss_limit,
        post_slotframes=args.post_slotframes,
        elastic_drain_cells=args.elastic_cells,
        elastic_drain_slotframes=args.elastic_slotframes,
    )
    print("Self-healing recovery latency (simultaneous router crashes)")
    print(result.render())
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


def cmd_roam(args: argparse.Namespace) -> int:
    import json

    from .experiments.roam_study import run_roam_study

    result = run_roam_study(
        seeds=tuple(range(args.seed, args.seed + args.seeds)),
        roamers=args.roamers,
        post_slotframes=args.post_slotframes,
        workers=args.workers,
    )
    print("Mobility churn: proactive vs. reactive-only reparenting")
    print(result.render())
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    if args.bench is not None:
        from .bench import collect_meta, merge_report

        merge_report(
            args.bench,
            {
                "churn": {
                    "meta": collect_meta(seed=args.seed),
                    **result.to_dict(),
                }
            },
        )
        print(f"merged churn section into {args.bench}")
    # The study's contract: proactive reparenting must win on every
    # seed with a collision-free final schedule.
    regressed = any(delta <= 0 for delta in result.deltas) or any(
        row.collisions for row in result.rows
    )
    return 1 if regressed else 0


def cmd_fleet(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from .fleet import ChaosPlan, fleet_scenarios, run_fleet
    from .verify import check_fleet_campaign, run_serial_baseline

    workload = None
    if args.workload is not None:
        import os

        from .workload import PRESETS, preset_spec, read_trace, trace_spec

        if os.path.exists(args.workload):
            header, events = read_trace(args.workload)
            spec = trace_spec(header)
            # A self-describing trace reseeds per tree; a bare event
            # log drives every tree with the same schedule.
            workload = spec if spec is not None else list(events)
            source = f"trace {args.workload}"
        elif args.workload in PRESETS:
            workload = preset_spec(
                args.workload,
                seed=args.seed,
                frames=float(args.slotframes),
                devices=args.nodes,
                depth=args.depth,
            )
            source = f"preset {args.workload}"
        else:
            print(
                f"--workload {args.workload!r} is neither a trace file "
                f"nor a preset ({', '.join(PRESETS)})",
                file=sys.stderr,
            )
            return 2
        print(f"workload: {source}")

    scenarios = fleet_scenarios(
        args.trees,
        seed=args.seed,
        num_devices=args.nodes,
        depth=args.depth,
        slotframes=args.slotframes,
        pdr=args.pdr,
        optional_every=args.optional_every,
        workload=workload,
    )
    if workload is not None:
        rate_events = sum(len(s.workload) for s in scenarios)
        print(f"workload: {rate_events} rate event(s) across "
              f"{len(scenarios)} tree(s)")
    chaos = (
        ChaosPlan(kills=args.kills, seed=args.seed)
        if args.chaos
        else None
    )
    ckpt_ctx = (
        tempfile.TemporaryDirectory()
        if args.checkpoint_dir is None and args.checkpoint_every
        else None
    )
    checkpoint_dir = args.checkpoint_dir or (
        ckpt_ctx.name if ckpt_ctx is not None else None
    )
    try:
        report = run_fleet(
            scenarios,
            workers=args.workers,
            retry_budget=args.retry_budget,
            deadline_s=args.deadline,
            heartbeat_timeout_s=args.heartbeat_timeout,
            queue_bound=args.queue_bound,
            checkpoint_dir=checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            chaos=chaos,
        )
    finally:
        if ckpt_ctx is not None:
            ckpt_ctx.cleanup()
    print(report.stats.render())
    if report.chaos_kills:
        print(f"  chaos killed   {', '.join(report.chaos_kills)}")
    for letter in report.dead_letters:
        print(
            f"  dead-letter    {letter.tree_id}: {letter.reason} "
            f"after {letter.attempts} attempt(s)"
        )
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    if args.bench is not None:
        from .bench import collect_meta, merge_report

        merge_report(
            args.bench,
            {
                "fleet": {
                    "meta": collect_meta(seed=args.seed),
                    "trees": args.trees,
                    "nodes": args.nodes,
                    "slotframes": args.slotframes,
                    "workers": args.workers,
                    "chaos_kills": len(report.chaos_kills),
                    "workload": args.workload,
                    **report.stats.to_dict(),
                }
            },
        )
        print(f"merged fleet section into {args.bench}")
    findings = []
    if args.chaos:
        # Chaos mode is self-verifying: the campaign must conserve
        # every tree and match the undisturbed serial baseline.
        baseline = run_serial_baseline(scenarios)
        findings = check_fleet_campaign(scenarios, report, baseline)
        for finding in findings:
            print(f"  FINDING {finding.oracle}: {finding.message}")
        if not findings:
            print(
                f"  chaos verified: {len(report.results)} tree(s) "
                "conserved, results bitwise-identical to serial baseline"
            )
    return 1 if findings else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .verify import generate_scenario, run_case, run_fuzz
    from .verify.fuzz import replay_corpus, save_report
    from .verify.live_fuzz import (
        generate_live_scenario,
        run_live_case,
        run_live_fuzz,
    )

    if args.replay_seed is not None:
        if args.live:
            result = run_live_case(generate_live_scenario(args.replay_seed))
        else:
            result = run_case(generate_scenario(args.replay_seed))
        print(f"seed {args.replay_seed}: {result.outcome} "
              f"({result.elapsed_s:.2f}s)")
        for violation in result.violations:
            print(f"  {violation.oracle}: {violation.message}")
        return 1 if result.failed else 0

    if args.replay is not None:
        # The corpus replayer dispatches per entry: live scenarios
        # (marked ``"live": true``) re-run through the co-simulation,
        # the rest through the static pipeline.
        results = replay_corpus(args.replay)
        failed = [r for r in results if r.failed]
        print(f"replayed {len(results)} counterexample(s): "
              f"{len(failed)} still failing")
        # Mixed corpora triage per pipeline: one kind-tagged line each,
        # so a nightly artifact shows *which* layer is still failing.
        kinds = sorted({r.kind for r in results})
        if len(kinds) > 1:
            for kind in kinds:
                of_kind = [r for r in results if r.kind == kind]
                kind_failed = [r for r in of_kind if r.failed]
                print(f"  {kind}: {len(of_kind)} replayed, "
                      f"{len(kind_failed)} still failing")
        for result in failed:
            for violation in result.violations:
                print(f"  seed {result.seed} [{result.kind}] "
                      f"{violation.oracle}: {violation.message}")
        return 1 if failed else 0

    if args.live:
        report = run_live_fuzz(
            cases=args.cases, seed=args.seed, budget_s=args.budget,
            shrink=not args.no_shrink,
            coverage_guided=not args.no_coverage,
        )
    else:
        report = run_fuzz(
            cases=args.cases, seed=args.seed, budget_s=args.budget,
            shrink=not args.no_shrink,
            coverage_guided=not args.no_coverage,
        )
    print(report.render())
    if args.out is not None:
        save_report(report, args.out)
        print(f"wrote {args.out}")
    return 0 if report.clean else 1


def cmd_workload(args: argparse.Namespace) -> int:
    from .workload import (
        PRESETS,
        preset_spec,
        read_events,
        read_header,
        render_summary,
        summarize_events,
        trace_spec,
        verify_trace,
        write_trace,
    )

    if args.action == "synthesize":
        spec = preset_spec(
            args.preset,
            seed=args.seed,
            frames=args.frames,
            devices=args.devices,
            depth=args.depth,
        )
        events = list(spec.events())
        print(f"{spec.name}: seed {spec.seed}, {spec.frames:g} frames, "
              f"{len(spec.generators)} generator(s)")
        print(render_summary(summarize_events(events)))
        if args.out is not None:
            count = write_trace(args.out, iter(events), spec=spec)
            print(f"wrote {args.out} ({count} events)")
        return 0

    if args.action == "bench":
        from .bench import (
            collect_meta,
            merge_report,
            render_workload_report,
            run_workload_benchmark,
        )

        section = run_workload_benchmark(
            preset=args.preset,
            seed=args.seed,
            frames=args.frames,
            devices=args.devices,
            depth=args.depth,
        )
        print(render_workload_report(section))
        if args.bench is not None:
            merge_report(
                args.bench,
                {
                    "workload": {
                        "meta": collect_meta(seed=args.seed),
                        **section,
                    }
                },
            )
            print(f"merged workload section into {args.bench}")
        return 0

    if args.trace is None:
        print(f"workload {args.action} needs --trace FILE", file=sys.stderr)
        return 2

    if args.action == "describe":
        header = read_header(args.trace)
        spec = trace_spec(header)
        if spec is not None:
            kinds = ", ".join(g.get("kind", "?") for g in spec.generators)
            print(f"spec '{spec.name}': seed {spec.seed}, "
                  f"{spec.frames:g} frames, generators [{kinds}]")
            if spec.network:
                print(f"network hint: {spec.network}")
        else:
            print("no embedded spec (bare event log)")
        print(render_summary(summarize_events(read_events(args.trace))))
        return 0

    if args.action == "replay":
        # The replay certificate: structural checks + byte-identical
        # read→write round-trip + regeneration equality (trace.py), and
        # — when the spec carries a network hint — byte-identical drive
        # outcomes of the recorded vs regenerated streams.
        certificate = verify_trace(args.trace)
        print(f"{args.trace}: {certificate['events']} event(s)")
        for failure in certificate["failures"]:
            print(f"  FAIL {failure}")
        ok = certificate["ok"]
        spec = trace_spec(read_header(args.trace))
        if spec is not None and spec.network and not args.no_drive:
            from .workload.drivers import drive_network, network_for_spec

            recorded = drive_network(
                network_for_spec(spec),
                iter(read_events(args.trace)),
                sim_frames=args.sim_frames,
            )
            regenerated = drive_network(
                network_for_spec(spec),
                spec.events(),
                sim_frames=args.sim_frames,
            )
            if recorded.to_dict() == regenerated.to_dict():
                print("drive: trace vs regeneration byte-identical")
                print("  " + recorded.render().replace("\n", "\n  "))
            else:
                print("drive: trace vs regeneration DIVERGED")
                print("  trace:        " + recorded.render().splitlines()[-1])
                print("  regeneration: "
                      + regenerated.render().splitlines()[-1])
                ok = False
        if ok:
            print("replay certificate: ok")
        return 0 if ok else 1

    print(f"unknown workload action {args.action!r} "
          f"(presets: {', '.join(PRESETS)})", file=sys.stderr)
    return 2


def cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        collect_meta,
        merge_report,
        render_report,
        render_scale_report,
        run_benchmarks,
        run_scale_benchmarks,
        write_report,
    )

    if args.scale:
        sizes = args.sizes or [100, 1000, 5000, 10000]
        scale = run_scale_benchmarks(
            sizes=sizes, seed=args.seed, array_core=args.array_core,
            arms=args.arms,
        )
        print(render_scale_report(scale))
        if args.out is not None:
            merge_report(
                args.out,
                {"scale": scale, "meta": collect_meta(seed=args.seed)},
            )
            print(f"\nmerged scale section into {args.out}")
        return 0

    report = run_benchmarks(
        slotframes=args.slotframes,
        include_sweeps=not args.no_sweeps,
        workers=args.workers,
    )
    print(render_report(report))
    if args.out is not None:
        write_report(report, args.out)
        print(f"\nwrote {args.out}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from .bench import profile_scenario

    print(
        profile_scenario(
            args.scenario, size=args.size, top=args.top, seed=args.seed
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="HARP reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="regenerate the paper's evaluation")
    p.add_argument("--quick", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("demo", help="allocate + simulate the demo network")
    p.add_argument("--slotframes", type=int, default=30)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("layout", help="print the partitioned slotframe")
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("collide", help="collision comparison")
    p.add_argument("--rate", type=float, default=3.0)
    p.add_argument("--channels", type=int, default=16)
    p.add_argument("--topologies", type=int, default=10)
    p.add_argument("--seed", type=int, default=2022)
    p.set_defaults(func=cmd_collide)

    p = sub.add_parser("adjust", help="cost of one runtime rate change")
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--rate", type=float, required=True)
    p.set_defaults(func=cmd_adjust)

    p = sub.add_parser("capacity", help="admission headroom of the demo net")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("snapshot", help="persist the demo network as JSON")
    p.add_argument("--out", default="harp-network.json")
    p.set_defaults(func=cmd_snapshot)

    p = sub.add_parser("audit", help="deep consistency audit")
    p.add_argument("--snapshot", default=None)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("faults", help="self-healing recovery latency")
    p.add_argument(
        "--crashes", type=int, nargs="+", default=[1, 2],
        help="simultaneous router crash counts to sweep",
    )
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument(
        "--seed", type=int, default=0,
        help="base seed; the study runs seeds [seed, seed + seeds)",
    )
    p.add_argument("--miss-limit", type=int, default=3)
    p.add_argument("--post-slotframes", type=int, default=60)
    p.add_argument(
        "--elastic-cells", type=int, default=0,
        help="elastic post-heal drain: extra cells per re-parented link",
    )
    p.add_argument(
        "--elastic-slotframes", type=int, default=8,
        help="slotframes an elastic boost lasts before release",
    )
    p.add_argument(
        "--out", default=None,
        help="write the study result as JSON to this file",
    )
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "bench", help="performance benchmarks with tracked baseline"
    )
    p.add_argument(
        "--slotframes", type=int, default=400,
        help="engine-benchmark horizon in slotframes",
    )
    p.add_argument(
        "--no-sweeps", action="store_true",
        help="skip the (slower) scaling / fault-study sweep timings",
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the sweep benchmarks (default: cpu count)",
    )
    p.add_argument(
        "--out", default=None,
        help="write the benchmark report as JSON (e.g. BENCH_perf.json)",
    )
    p.add_argument(
        "--scale", action="store_true",
        help="run the scaling suite (static / storm / engine per size) "
        "instead of the hot-path benchmarks; --out merges the scale "
        "section into an existing report",
    )
    p.add_argument(
        "--sizes", type=int, nargs="+", default=None,
        help="network sizes for --scale (default: 100 1000 5000 10000)",
    )
    p.add_argument(
        "--seed", type=int, default=7,
        help="workload seed for --scale scenarios",
    )
    p.add_argument(
        "--array-core", action="store_true",
        help="run the --scale engine burst on the struct-of-arrays "
        "core (bitwise-identical; required for the N=100000 rung)",
    )
    p.add_argument(
        "--arms", nargs="+", choices=("static", "storm", "engine"),
        default=None,
        help="restrict which --scale arms run (default: all three); "
        "lets a smoke job pay for exactly the arm it gates",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "profile", help="cProfile one scaling scenario"
    )
    p.add_argument(
        "scenario", choices=("static", "storm", "engine"),
        help="which scale scenario to profile",
    )
    p.add_argument("--size", type=int, default=1000, help="network size")
    p.add_argument(
        "--top", type=int, default=25,
        help="number of cumulative hot spots to print",
    )
    p.add_argument("--seed", type=int, default=7, help="workload seed")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "roam", help="mobility churn: proactive vs. reactive reparenting"
    )
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument(
        "--seed", type=int, default=0,
        help="base seed; the study runs seeds [seed, seed + seeds)",
    )
    p.add_argument(
        "--roamers", type=int, default=2,
        help="number of leaves that roam across the deployment",
    )
    p.add_argument("--post-slotframes", type=int, default=90)
    p.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for the sweep (default: cpu count)",
    )
    p.add_argument(
        "--out", default=None,
        help="write the study result as JSON to this file",
    )
    p.add_argument(
        "--bench", default=None,
        help="merge a churn section into this benchmark report "
        "(e.g. BENCH_perf.json)",
    )
    p.set_defaults(func=cmd_roam)

    p = sub.add_parser(
        "fleet",
        help="supervised multi-tree campaign with retry, checkpoint "
        "resume and optional chaos",
    )
    p.add_argument(
        "--trees", type=int, default=8, help="number of tree scenarios"
    )
    p.add_argument("--seed", type=int, default=0, help="campaign seed")
    p.add_argument(
        "--nodes", type=int, default=24, help="devices per tree"
    )
    p.add_argument("--depth", type=int, default=4, help="tree depth")
    p.add_argument(
        "--slotframes", type=int, default=40,
        help="simulation horizon per tree",
    )
    p.add_argument(
        "--pdr", type=float, default=0.9,
        help="uniform link PDR per tree (1.0 = lossless)",
    )
    p.add_argument(
        "--workers", type=int, default=4, help="supervised worker processes"
    )
    p.add_argument(
        "--retry-budget", type=int, default=3,
        help="attempts per tree before dead-lettering",
    )
    p.add_argument(
        "--deadline", type=float, default=120.0,
        help="per-attempt wall-clock deadline in seconds (SIGKILL past it)",
    )
    p.add_argument(
        "--heartbeat-timeout", type=float, default=30.0,
        help="seconds without a heartbeat before a worker is killed as hung",
    )
    p.add_argument(
        "--queue-bound", type=int, default=None,
        help="admission valve: cap on the pending dispatch queue",
    )
    p.add_argument(
        "--optional-every", type=int, default=0,
        help="mark every n-th tree sheddable under overload (0 = none)",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=10,
        help="snapshot engine progress every N slotframes (0 = off)",
    )
    p.add_argument(
        "--checkpoint-dir", default=None,
        help="durable checkpoint directory (default: ephemeral temp dir)",
    )
    p.add_argument(
        "--chaos", action="store_true",
        help="kill workers mid-campaign (seeded) and verify zero lost "
        "trees with results bitwise-identical to a serial baseline",
    )
    p.add_argument(
        "--kills", type=int, default=2,
        help="number of chaos kills (with --chaos)",
    )
    p.add_argument(
        "--workload", default=None,
        help="feed each tree a workload-engine rate schedule: a preset "
        "name (per-tree reseeded streams) or a trace file (every tree "
        "driven by the same recorded schedule)",
    )
    p.add_argument(
        "--out", default=None,
        help="write the full fleet report as JSON",
    )
    p.add_argument(
        "--bench", default=None,
        help="merge a fleet section into this benchmark report "
        "(e.g. BENCH_perf.json)",
    )
    p.set_defaults(func=cmd_fleet)

    p = sub.add_parser(
        "workload",
        help="synthesize, inspect and replay-certify workload traces",
    )
    p.add_argument(
        "action", choices=("synthesize", "describe", "replay", "bench"),
        help="synthesize a preset to a trace; describe a trace; "
        "replay-certify a trace (byte-identity + drive equivalence); "
        "bench the engine's sustained-load throughput",
    )
    p.add_argument(
        "--preset", default="mixed",
        help="preset for synthesize/bench: steady, burst, shift_change, "
        "churn, diurnal, mixed",
    )
    p.add_argument("--seed", type=int, default=0, help="spec seed")
    p.add_argument(
        "--frames", type=float, default=60.0,
        help="horizon in slotframes",
    )
    p.add_argument(
        "--devices", type=int, default=12,
        help="device count of the target network shape",
    )
    p.add_argument("--depth", type=int, default=3, help="tree depth")
    p.add_argument(
        "--trace", default=None,
        help="trace file for describe/replay",
    )
    p.add_argument(
        "--out", default=None,
        help="write the synthesized trace to this file (JSONL)",
    )
    p.add_argument(
        "--no-drive", action="store_true",
        help="replay: skip the drive-equivalence check (structural + "
        "byte-identity certificate only)",
    )
    p.add_argument(
        "--sim-frames", type=int, default=10,
        help="replay: engine horizon for the metrics digest (0 = none)",
    )
    p.add_argument(
        "--bench", default=None,
        help="bench: merge the workload section into this benchmark "
        "report (e.g. BENCH_perf.json)",
    )
    p.set_defaults(func=cmd_workload)

    p = sub.add_parser(
        "fuzz", help="conformance fuzzing with invariant oracles"
    )
    p.add_argument(
        "--cases", type=int, default=100,
        help="number of generated scenarios (seeds seed..seed+cases)",
    )
    p.add_argument("--seed", type=int, default=0, help="first seed")
    p.add_argument(
        "--budget", type=float, default=None,
        help="wall-clock budget in seconds (stops before the next case)",
    )
    p.add_argument(
        "--live", action="store_true",
        help="chaos-fuzz the live co-simulation layer "
        "(crash/heal/roam/degrade interleavings) instead of the "
        "static allocation pipeline",
    )
    p.add_argument(
        "--no-shrink", action="store_true",
        help="skip shrinking failing scenarios to minimal counterexamples",
    )
    p.add_argument(
        "--no-coverage", action="store_true",
        help="disable coverage-guided seed scheduling (run the plain "
        "sequential seed stream)",
    )
    p.add_argument(
        "--out", default=None,
        help="write the report + counterexample corpus as JSON",
    )
    p.add_argument(
        "--replay-seed", type=int, default=None,
        help="re-run the single scenario generated from this seed",
    )
    p.add_argument(
        "--replay", default=None,
        help="re-run every counterexample of a saved corpus file",
    )
    p.set_defaults(func=cmd_fuzz)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

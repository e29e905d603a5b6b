"""Fleet orchestrator: supervision, retry, checkpoint resume, chaos.

The worker-pool tests fork real processes (the point is real SIGKILLs
and real pipes); scenarios are kept tiny so the whole module stays in
the tier-1 time budget.  Platforms without ``fork`` skip the
process-pool tests and keep the in-process ones.
"""

import dataclasses
import json
import os

import pytest

from repro.fleet import (
    ChaosPlan,
    CheckpointStore,
    SimulatedWorkerCrash,
    TreeResult,
    fleet_scenarios,
    run_fleet,
    run_fleet_serial,
    run_tree,
)
from repro.fleet.scenario import TreeScenario
from repro.fleet.stats import _percentile, build_stats
from repro.verify import (
    check_fleet_campaign,
    check_fleet_conservation,
    check_fleet_determinism,
    run_serial_baseline,
)

needs_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="fleet pool needs fork"
)

#: One tiny scenario shape shared across the module.
SMALL = dict(num_devices=8, depth=3, slotframes=8, pdr=0.9)


def small_scenario(tree_id="t0", seed=1, **overrides):
    params = {**SMALL, **overrides}
    return TreeScenario(tree_id=tree_id, seed=seed, **params)


class TestScenario:
    def test_fingerprint_ignores_failure_hooks(self):
        base = small_scenario()
        hooked = dataclasses.replace(base, crash_at_slotframe=3)
        other = dataclasses.replace(base, seed=2)
        assert base.fingerprint() == hooked.fingerprint()
        assert base.fingerprint() != other.fingerprint()
        # Pinned digests: checkpoints written by earlier versions, whose
        # scenarios carried more (unfingerprinted) fields, must resume.
        assert base.fingerprint() == "7c6026502fd68176"
        assert TreeScenario(tree_id="t0").fingerprint() == "017caa346455cb81"

    def test_round_trips_through_dict(self):
        scenario = small_scenario(optional=True, crash_at_slotframe=2)
        assert TreeScenario.from_dict(scenario.to_dict()) == scenario

    def test_validation(self):
        with pytest.raises(ValueError):
            small_scenario(pdr=0.0)
        with pytest.raises(ValueError):
            small_scenario(slotframes=0)

    def test_fleet_scenarios_marks_optional(self):
        scenarios = fleet_scenarios(6, optional_every=3, **SMALL)
        assert [s.optional for s in scenarios] == [
            False, False, True, False, False, True,
        ]
        assert len({s.tree_id for s in scenarios}) == 6

    def test_run_tree_is_deterministic(self):
        a = run_tree(small_scenario())
        b = run_tree(small_scenario())
        assert a.checksum == b.checksum
        assert a.delivered == b.delivered
        assert a.generated > 0

    def test_crash_hook_fires_then_clears(self):
        scenario = small_scenario(crash_at_slotframe=2)
        with pytest.raises(SimulatedWorkerCrash):
            run_tree(scenario, attempt=1)
        result = run_tree(scenario, attempt=2)
        assert result.checksum == run_tree(small_scenario()).checksum


class TestCheckpointStore:
    def test_resume_matches_straight_run(self, tmp_path):
        scenario = small_scenario(crash_at_slotframe=5)
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(SimulatedWorkerCrash):
            run_tree(scenario, attempt=1, checkpoint=store,
                     checkpoint_every=2)
        resumed = run_tree(scenario, attempt=2, checkpoint=store,
                           checkpoint_every=2)
        assert resumed.resumed_from == 4
        assert resumed.checksum == run_tree(small_scenario()).checksum

    def test_fingerprint_mismatch_ignored(self, tmp_path):
        scenario = small_scenario(crash_at_slotframe=5)
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(SimulatedWorkerCrash):
            run_tree(scenario, attempt=1, checkpoint=store,
                     checkpoint_every=2)
        assert store.load(scenario.tree_id, scenario.fingerprint())
        assert store.load(scenario.tree_id, "other-fingerprint") is None

    def test_corrupt_checkpoint_degrades_to_cold_start(self, tmp_path):
        scenario = small_scenario()
        store = CheckpointStore(str(tmp_path))
        with open(store.path(scenario.tree_id), "w") as handle:
            handle.write("{ not json")
        assert store.load(scenario.tree_id) is None
        result = run_tree(scenario, checkpoint=store, checkpoint_every=2)
        assert result.resumed_from == 0

    def test_version_skew_degrades_to_cold_start(self, tmp_path):
        scenario = small_scenario(crash_at_slotframe=5)
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(SimulatedWorkerCrash):
            run_tree(scenario, attempt=1, checkpoint=store,
                     checkpoint_every=2)
        path = store.path(scenario.tree_id)
        with open(path) as handle:
            document = json.load(handle)
        document["version"] = 999
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert store.load(scenario.tree_id, scenario.fingerprint()) is None

    def test_discard_and_len(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("a", _valid_snapshot())
        assert len(store) == 1
        store.discard("a")
        store.discard("never-existed")
        assert len(store) == 0

    def test_compact_sweeps_orphans_and_stale_snapshots(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        snapshot = _valid_snapshot()
        store.save("finished", snapshot)  # discard lost to a crash
        store.save("live", snapshot)      # may still resume
        store.save("stale", snapshot)     # scenario re-parameterised
        orphan = store.path("killed") + ".tmp.12345"
        with open(orphan, "w") as handle:
            handle.write("{ torn mid-write")
        live_fp = snapshot["fingerprint"]
        swept = store.compact(
            {"live": live_fp, "stale": "rotated-fingerprint"}
        )
        assert swept["removed_snapshots"] == 1
        assert swept["removed_stale"] == 1
        assert swept["removed_temps"] == 1
        assert swept["remaining"] == 1
        assert swept["remaining_bytes"] == store.total_bytes() > 0
        assert store.load("live", live_fp) is not None
        assert store.load("stale") is None
        assert not os.path.exists(orphan)

    def test_compact_without_live_set_empties_the_store(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        snapshot = _valid_snapshot()
        for i in range(4):
            store.save(f"leak-{i}", snapshot)
        swept = store.compact()
        assert swept["removed_snapshots"] == 4
        assert len(store) == 0
        assert store.total_bytes() == 0

    # compact() only reads the "fingerprint" key, so the size-bound
    # tests use plain padded dicts to control file sizes exactly.

    def test_compact_bound_charges_only_survivors(self, tmp_path):
        # The byte bound is enforced after the stale sweep: a huge
        # stale snapshot must be swept as *stale*, never pushing live
        # snapshots over the budget.
        store = CheckpointStore(str(tmp_path))
        store.save("live-a", {"fingerprint": "fp", "pad": "x" * 100})
        store.save("live-b", {"fingerprint": "fp", "pad": "x" * 100})
        store.save("stale", {"fingerprint": "old", "pad": "x" * 5000})
        survivors = sum(
            os.path.getsize(store.path(t)) for t in ("live-a", "live-b")
        )
        swept = store.compact(
            {"live-a": "fp", "live-b": "fp", "stale": "fp"},
            max_total_bytes=survivors,
        )
        assert swept["removed_stale"] == 1
        assert swept["removed_oversize"] == 0
        assert swept["remaining"] == 2
        assert swept["remaining_bytes"] == survivors
        assert os.path.exists(store.path("live-a"))
        assert os.path.exists(store.path("live-b"))

    def test_compact_bound_evicts_largest_first(self, tmp_path):
        # Largest-first frees the budget in the fewest evictions:
        # bound = medium + small must evict exactly the large snapshot
        # (smallest-first would throw away two trees' progress).
        store = CheckpointStore(str(tmp_path))
        store.save("large", {"fingerprint": "fp", "pad": "x" * 2000})
        store.save("medium", {"fingerprint": "fp", "pad": "x" * 500})
        store.save("small", {"fingerprint": "fp", "pad": "x" * 100})
        bound = sum(
            os.path.getsize(store.path(t)) for t in ("medium", "small")
        )
        live = {t: "fp" for t in ("large", "medium", "small")}
        swept = store.compact(live, max_total_bytes=bound)
        assert swept["removed_oversize"] == 1
        assert not os.path.exists(store.path("large"))
        assert os.path.exists(store.path("medium"))
        assert os.path.exists(store.path("small"))
        assert store.total_bytes() <= bound

    def test_compact_bound_breaks_size_ties_by_name(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("tie-a", {"fingerprint": "fp", "pad": "x" * 300})
        store.save("tie-b", {"fingerprint": "fp", "pad": "x" * 300})
        one = os.path.getsize(store.path("tie-a"))
        swept = store.compact(
            {"tie-a": "fp", "tie-b": "fp"}, max_total_bytes=one
        )
        assert swept["removed_oversize"] == 1
        assert not os.path.exists(store.path("tie-a"))
        assert os.path.exists(store.path("tie-b"))

    def test_compact_bound_noop_when_under_budget(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        store.save("live", {"fingerprint": "fp", "pad": "x" * 100})
        swept = store.compact(
            {"live": "fp"}, max_total_bytes=store.total_bytes()
        )
        assert swept["removed_oversize"] == 0
        assert os.path.exists(store.path("live"))


def _valid_snapshot():
    from repro.fleet.scenario import build_network, _build_simulator
    from repro.net.serialization import (
        dump_network, dump_progress, dump_run_snapshot,
    )

    scenario = small_scenario()
    harp = build_network(scenario)
    sim = _build_simulator(
        scenario, harp.topology, harp.schedule, harp.task_set, harp.config
    )
    sim.run_slotframes(1)
    return dump_run_snapshot(
        dump_network(harp), dump_progress(sim), slotframes_done=1,
        fingerprint=scenario.fingerprint(),
    )


@needs_fork
class TestRunFleet:
    def test_clean_campaign_matches_serial(self):
        scenarios = fleet_scenarios(4, seed=5, **SMALL)
        report = run_fleet(scenarios, workers=2, deadline_s=60.0,
                           heartbeat_timeout_s=30.0)
        baseline = run_serial_baseline(scenarios)
        assert not check_fleet_campaign(scenarios, report, baseline)
        assert report.stats.completed == 4
        assert report.stats.retries == 0

    def test_crashed_worker_is_retried_with_resume(self, tmp_path):
        scenarios = [
            small_scenario("crashy", seed=9, crash_at_slotframe=5,
                           slotframes=8),
        ]
        report = run_fleet(
            scenarios, workers=1, deadline_s=60.0,
            heartbeat_timeout_s=30.0,
            checkpoint_dir=str(tmp_path), checkpoint_every=2,
        )
        assert not check_fleet_campaign(
            scenarios, report, run_serial_baseline(scenarios)
        )
        (result,) = report.results
        assert result.attempt == 2
        assert result.resumed_from == 4
        assert report.stats.worker_failures == 1
        # completion discards the checkpoint
        assert CheckpointStore(str(tmp_path)).load("crashy") is None
        # ... and the tree healed: one disruption-to-completion cycle.
        assert report.stats.heals == 1
        assert report.stats.heals_per_sec > 0
        assert report.stats.heal_latency_mean_s > 0

    def test_campaign_end_sweep_clears_leftover_checkpoints(
        self, tmp_path
    ):
        # Junk an earlier crashed campaign left behind must not survive
        # the next campaign's end-of-run compaction.
        store = CheckpointStore(str(tmp_path))
        store.save("zombie", _valid_snapshot())
        with open(store.path("torn") + ".tmp.999", "w") as handle:
            handle.write("{ torn")
        scenarios = [small_scenario("t0", seed=1)]
        report = run_fleet(
            scenarios, workers=1, deadline_s=60.0,
            heartbeat_timeout_s=30.0,
            checkpoint_dir=str(tmp_path), checkpoint_every=2,
        )
        assert report.stats.completed == 1
        assert len(store) == 0
        assert store.total_bytes() == 0

    def test_hung_worker_is_killed_and_retried(self):
        scenarios = [
            small_scenario("sleepy", seed=3, hang_at_slotframe=2,
                           hang_seconds=120.0),
        ]
        report = run_fleet(
            scenarios, workers=1, deadline_s=60.0,
            heartbeat_timeout_s=0.5,
        )
        assert not check_fleet_campaign(
            scenarios, report, run_serial_baseline(scenarios)
        )
        assert report.stats.hung_kills == 1
        assert report.results[0].attempt == 2

    def test_deadline_blown_worker_is_killed(self):
        scenarios = [
            small_scenario("slow", seed=3, hang_at_slotframe=2,
                           hang_seconds=120.0),
        ]
        report = run_fleet(
            scenarios, workers=1, deadline_s=0.7,
            heartbeat_timeout_s=None, retry_budget=1,
        )
        assert report.stats.deadline_kills == 1
        (letter,) = report.dead_letters
        assert letter.reason == "retry-budget-exhausted"
        assert not check_fleet_conservation(scenarios, report)

    def test_retry_budget_exhaustion_dead_letters(self):
        scenarios = [
            small_scenario("doomed", seed=2, crash_at_slotframe=1,
                           crash_attempts=99),
            small_scenario("fine", seed=4),
        ]
        report = run_fleet(scenarios, workers=2, retry_budget=2,
                           deadline_s=60.0, heartbeat_timeout_s=30.0,
                           backoff_base_s=0.01)
        assert not check_fleet_campaign(
            scenarios, report, run_serial_baseline(scenarios)
        )
        (letter,) = report.dead_letters
        assert letter.tree_id == "doomed"
        assert letter.reason == "retry-budget-exhausted"
        assert letter.attempts == 2
        assert len(letter.history) == 2
        assert [r.tree_id for r in report.results] == ["fine"]

    def test_admission_valve_sheds_optional_retry(self):
        # workers=1, queue_bound=1: "opt" dispatches, "req" fills the
        # valve; when "opt" crashes its retry meets a full queue and,
        # being optional, is shed — deterministically, no timing.
        scenarios = [
            small_scenario("opt", seed=2, optional=True,
                           crash_at_slotframe=1, crash_attempts=99),
            small_scenario("req", seed=4),
        ]
        report = run_fleet(scenarios, workers=1, queue_bound=1,
                           retry_budget=5, deadline_s=60.0,
                           heartbeat_timeout_s=30.0)
        assert not check_fleet_conservation(scenarios, report)
        (letter,) = report.dead_letters
        assert letter.tree_id == "opt"
        assert letter.reason == "shed-optional-overload"
        assert report.stats.shed == 1
        assert [r.tree_id for r in report.results] == ["req"]

    def test_chaos_campaign_loses_nothing(self, tmp_path):
        scenarios = fleet_scenarios(5, seed=11, **SMALL)
        chaos = ChaosPlan(kills=2, seed=13, min_stride=3, max_stride=10)
        # warm_cache off: pre-warmed workers finish so fast the chaos
        # plan can run out of live victims before landing both kills,
        # and this test pins the exact kill count.
        report = run_fleet(
            scenarios, workers=3, deadline_s=60.0,
            heartbeat_timeout_s=30.0,
            checkpoint_dir=str(tmp_path), checkpoint_every=3,
            chaos=chaos, warm_cache=False,
        )
        assert len(report.chaos_kills) == 2
        baseline = run_serial_baseline(scenarios)
        assert not check_fleet_campaign(scenarios, report, baseline)
        assert report.stats.completed == 5

    def test_rejects_duplicate_tree_ids(self):
        with pytest.raises(ValueError):
            run_fleet([small_scenario("x"), small_scenario("x", seed=2)])


class TestFleetWorkload:
    def _spec(self, frames=8.0):
        from repro.workload import preset_spec

        return preset_spec(
            "mixed", seed=3, frames=frames,
            devices=SMALL["num_devices"], depth=SMALL["depth"],
        )

    def test_spec_reseeds_each_tree(self):
        scenarios = fleet_scenarios(3, seed=5, workload=self._spec(),
                                    **SMALL)
        schedules = {s.workload for s in scenarios}
        assert all(s.workload for s in scenarios)
        assert len(schedules) > 1  # per-tree streams, not one shared

    def test_shared_events_drive_every_tree_identically(self):
        events = list(self._spec().events())
        scenarios = fleet_scenarios(3, seed=5, workload=events, **SMALL)
        assert len({s.workload for s in scenarios}) == 1

    def test_workload_changes_results_deterministically(self):
        plain = small_scenario()
        loaded = dataclasses.replace(
            plain, workload=((2, 1, 2.0), (5, 3, 0.5)),
        )
        assert plain.fingerprint() != loaded.fingerprint()
        a, b = run_tree(loaded), run_tree(loaded)
        assert a.checksum == b.checksum
        assert a.checksum != run_tree(plain).checksum

    def test_workload_round_trips_through_dict(self):
        loaded = dataclasses.replace(
            small_scenario(), workload=((2, 1, 2.0),),
        )
        assert TreeScenario.from_dict(loaded.to_dict()) == loaded

    def test_empty_workload_keeps_legacy_fingerprint(self):
        # Checkpoints from pre-workload campaigns must stay resumable:
        # an empty schedule may not perturb the fingerprint.
        assert small_scenario().fingerprint() == dataclasses.replace(
            small_scenario(), workload=()
        ).fingerprint()

    def test_resume_under_workload_matches_straight_run(self, tmp_path):
        loaded = dataclasses.replace(
            small_scenario(crash_at_slotframe=5),
            workload=((1, 2, 2.0), (4, 1, 0.5), (6, 3, 1.5)),
        )
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(SimulatedWorkerCrash):
            run_tree(loaded, attempt=1, checkpoint=store,
                     checkpoint_every=2)
        resumed = run_tree(loaded, attempt=2, checkpoint=store,
                           checkpoint_every=2)
        straight = run_tree(dataclasses.replace(loaded, crash_at_slotframe=None))
        assert resumed.resumed_from > 0
        assert resumed.checksum == straight.checksum

    def test_workload_validation(self):
        with pytest.raises(ValueError):
            small_scenario(workload=((99, 1, 1.0),))  # frame past horizon
        with pytest.raises(ValueError):
            small_scenario(workload=((0, 0, 1.0),))   # gateway target
        with pytest.raises(ValueError):
            small_scenario(workload=((0, 1, 0.0),))   # nonpositive rate


class TestFleetOracles:
    def _report(self, scenarios):
        return run_fleet_serial(scenarios)

    def test_lost_tree_is_a_violation(self):
        scenarios = fleet_scenarios(2, seed=1, **SMALL)
        report = self._report(scenarios[:1])
        findings = check_fleet_conservation(scenarios, report)
        assert any("lost by the fleet" in f.message for f in findings)

    def test_phantom_tree_is_a_violation(self):
        scenarios = fleet_scenarios(1, seed=1, **SMALL)
        report = self._report(scenarios)
        findings = check_fleet_conservation(scenarios[:0], report)
        assert any("never admitted" in f.message for f in findings)

    def test_checksum_divergence_is_a_violation(self):
        scenarios = fleet_scenarios(1, seed=1, **SMALL)
        report = self._report(scenarios)
        baseline = self._report(scenarios)
        report.results[0] = dataclasses.replace(
            report.results[0], checksum="deadbeef"
        )
        findings = check_fleet_determinism(report, baseline)
        assert any("checksum diverged" in f.message for f in findings)

    def test_clean_serial_report_passes(self):
        scenarios = fleet_scenarios(2, seed=1, **SMALL)
        report = self._report(scenarios)
        baseline = self._report(scenarios)
        assert not check_fleet_campaign(scenarios, report, baseline)


class TestStats:
    def test_percentiles(self):
        values = [float(v) for v in range(0, 101)]
        assert _percentile(values, 0.50) == 50.0
        assert _percentile(values, 0.99) == 99.0
        assert _percentile([7.0], 0.99) == 7.0
        assert _percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_build_stats_counts(self):
        results = [
            TreeResult("a", 10, 10, 0, 800, "c1", resumed_from=4,
                       wall_seconds=0.5).to_dict(),
            TreeResult("b", 9, 10, 1, 800, "c2",
                       wall_seconds=1.5).to_dict(),
        ]
        stats = build_stats(
            trees_total=3, results=results,
            dead_letters=[{"tree_id": "c"}], shed=1, retries=2,
            worker_crashes=1, worker_failures=0, deadline_kills=0,
            hung_kills=1, chaos_kills=1, wall_seconds=2.0,
        )
        assert stats.completed == 2
        assert stats.dead_lettered == 1
        assert stats.resumes == 1
        assert stats.trees_per_sec == pytest.approx(1.0)
        assert stats.events_per_sec == pytest.approx(800.0)
        assert stats.latency_p50_s == pytest.approx(0.5)
        assert "2/3 completed" in stats.render()

    def test_build_stats_cache_and_heal_figures(self):
        results = [
            TreeResult("a", 10, 10, 0, 800, "c1", wall_seconds=0.5,
                       cache_hits=6, cache_misses=2).to_dict(),
            TreeResult("b", 9, 10, 1, 800, "c2", wall_seconds=1.5,
                       cache_hits=8, cache_misses=0).to_dict(),
        ]
        stats = build_stats(
            trees_total=2, results=results,
            dead_letters=[], shed=0, retries=1,
            worker_crashes=1, worker_failures=0, deadline_kills=0,
            hung_kills=0, chaos_kills=0, wall_seconds=4.0,
            heal_latencies=[0.5, 1.5],
        )
        assert stats.cache_hits == 14
        assert stats.cache_misses == 2
        assert stats.cache_hit_rate == pytest.approx(14 / 16)
        assert stats.heals == 2
        assert stats.heals_per_sec == pytest.approx(0.5)
        assert stats.heal_latency_mean_s == pytest.approx(1.0)
        rendered = stats.render()
        assert "hit rate" in rendered
        assert "heals" in rendered

    def test_stats_survive_results_without_cache_fields(self):
        # Results serialized by an older fleet have no cache counters.
        results = [{"tree_id": "a", "wall_seconds": 1.0, "slots": 100,
                    "resumed_from": 0}]
        stats = build_stats(
            trees_total=1, results=results, dead_letters=[], shed=0,
            retries=0, worker_crashes=0, worker_failures=0,
            deadline_kills=0, hung_kills=0, chaos_kills=0,
            wall_seconds=1.0,
        )
        assert stats.cache_hit_rate == 0.0
        assert stats.heals == 0


class TestSharedCompositionCache:
    def test_cross_tree_hits_in_serial_campaign(self):
        scenarios = fleet_scenarios(3, seed=11, **SMALL)
        report = run_fleet_serial(scenarios)
        stats = report.stats
        # All three trees share one process-level cache: same campaign
        # shape means later trees replay earlier trees' packings.
        assert stats.cache_hits > 0
        assert 0.0 < stats.cache_hit_rate <= 1.0
        per_tree = {r.tree_id: r for r in report.results}
        assert all(
            r.cache_hits + r.cache_misses > 0 for r in per_tree.values()
        )

    def test_shared_cache_does_not_perturb_results(self):
        from repro.fleet.scenario import process_composition_cache

        scenarios = fleet_scenarios(2, seed=13, **SMALL)
        warm = run_fleet_serial(scenarios)
        process_composition_cache().clear()
        cold = run_fleet_serial(scenarios)
        assert [r.checksum for r in warm.results] == [
            r.checksum for r in cold.results
        ]


@needs_fork
class TestFleetCli:
    def test_fleet_chaos_command(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "fleet.json"
        bench = tmp_path / "bench.json"
        code = main([
            "fleet", "--trees", "3", "--nodes", "8", "--depth", "3",
            "--slotframes", "8", "--workers", "2", "--chaos",
            "--kills", "1", "--checkpoint-every", "3",
            "--out", str(out), "--bench", str(bench),
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "chaos verified" in captured
        report = json.loads(out.read_text())
        assert len(report["results"]) == 3
        assert report["dead_letters"] == []
        merged = json.loads(bench.read_text())
        assert merged["fleet"]["completed"] == 3
        assert "trees_per_sec" in merged["fleet"]
        assert "meta" in merged["fleet"]

    def test_fleet_workload_preset_and_trace(self, tmp_path, capsys):
        from repro.cli import main

        # Preset by name...
        code = main([
            "fleet", "--trees", "2", "--nodes", "8", "--depth", "3",
            "--slotframes", "8", "--workers", "1",
            "--workload", "diurnal",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "workload: preset diurnal" in out

        # ...and a synthesized trace file.
        trace = str(tmp_path / "trace.jsonl")
        assert main([
            "workload", "synthesize", "--preset", "steady",
            "--seed", "2", "--frames", "8", "--devices", "8",
            "--out", trace,
        ]) == 0
        capsys.readouterr()
        code = main([
            "fleet", "--trees", "2", "--nodes", "8", "--depth", "3",
            "--slotframes", "8", "--workers", "1",
            "--workload", trace,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert f"workload: trace {trace}" in out or "workload:" in out

    def test_fleet_workload_rejects_unknown_source(self, capsys):
        from repro.cli import main

        code = main([
            "fleet", "--trees", "1", "--nodes", "8", "--depth", "3",
            "--slotframes", "8", "--workload", "rush-hour",
        ])
        assert code == 2

"""The runner's contract: a failed check fails the run, and BENCHMARK.json
says what the code measures."""

import json
import os

import pytest

import run
import workloads
from metrics import END_TO_END, PER_LAYER
from spans import ROOT, NullRecorder
from stats import OpLog
from workloads import Outcome, Workload, allocated, check_network, scale_network

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))


def colliding_network():
    """A valid allocation with one link's cell handed to a sibling too."""
    harp = allocated(*scale_network(30, 3, 5, 1.0, NullRecorder()))
    first, second = harp.schedule.links[:2]
    harp.schedule.assign(harp.schedule.cells_of(first)[0], second)
    return harp


def test_checker_catches_a_colliding_schedule():
    log = OpLog()
    check_network(colliding_network(), log)
    assert (log.attempted, log.failed) == (1, 1)
    assert "network invariant" in log.errors[0]
    clean = OpLog()
    check_network(allocated(*scale_network(30, 3, 5, 1.0, NullRecorder())), clean)
    assert clean.failed == 0


class Colliding(Workload):
    name, unit, op = "colliding", "nodes", "bootstrap"

    def size(self, seconds):
        return 1

    def setup(self, seed, size, rec):
        return None

    def run(self, state, size, rec):
        log = OpLog()
        with rec.span(ROOT):
            harp = log.run("bootstrap", colliding_network)
        check_network(harp, log)
        sim = {"mgmt_msgs_per_op": harp.static_report.total_messages, "delivery_ratio": 1.0}
        return Outcome(log=log, work=30, timed_s=log.timed_s, sim=sim, inputs="")


# Seed 7 traces before the untraced half, seed 8 after it.
@pytest.mark.parametrize("trace, seed", [("0", "7"), ("1", "7"), ("1", "8")])
def test_failed_check_exits_non_zero(monkeypatch, capsys, trace, seed):
    monkeypatch.setitem(workloads.BY_NAME, "colliding", Colliding())
    status = run.main(
        ["--workload", "colliding", "--seconds", "1", "--seed", seed, "--trace", trace]
    )
    assert status == 1
    out = capsys.readouterr().out
    assert "FAILED network invariant" in out
    result = json.loads(out.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is False
    assert result["failed"] == 1
    if trace == "1":
        assert f"traced half ran {'first' if seed == '7' else 'second'}" in out
    expected = PER_LAYER if trace == "1" else END_TO_END
    assert list(result["metrics"]) == [metric.name for metric in expected]


def test_benchmark_json_matches_the_code():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert spec["paths"] == ["benchmarks/lifecycle"]
    assert spec["command"] == ["python3", "benchmarks/lifecycle/run.py"]
    assert spec["run_seconds"] == workloads.NOMINAL_SECONDS
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]
    assert [tuple(m.values()) for m in spec["end_to_end"]] == [
        tuple(m) for m in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in PER_LAYER
    ]
    # The contract fixes the key set, so "this change claims no gain" is
    # said in the README, not in a "claim" key.
    assert sorted(spec) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]


def test_sizes_follow_seconds_deterministically():
    nominal = workloads.NOMINAL_SECONDS
    for workload in workloads.WORKLOADS:
        assert workload.size(nominal) == workload.size(nominal)
        assert workload.size(nominal / 10) < workload.size(nominal) < workload.size(2 * nominal)
    assert workloads.BY_NAME["fleet-48x300"].size(nominal) == 48


def test_seed_reaches_the_generators():
    rec = NullRecorder()
    one = workloads.tree_digest(scale_network(200, 5, 1, 1.0, rec)[0])
    same = workloads.tree_digest(scale_network(200, 5, 1, 1.0, rec)[0])
    other = workloads.tree_digest(scale_network(200, 5, 2, 1.0, rec)[0])
    assert one == same != other

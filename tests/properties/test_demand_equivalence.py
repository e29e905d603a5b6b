"""Equivalence property: incremental demand maintenance vs naive
recompute, under arbitrary dynamics-op interleavings.

The :class:`~repro.core.demand.DemandLedger` (and the dirty-set
restricted reconciliation it enables in
:class:`~repro.core.dynamics.TopologyManager`) must be *byte-identical*
to the from-scratch path after every op: same ``link_demands`` dict,
same schedule, same ledger-vs-taskset accumulator state.  The
summation-order contract of :mod:`repro.net.tasks` (exact fixed-point
integer accumulation) is what makes this an equality, not an
approximation — these tests are the enforcement.

Two generators drive the property: hypothesis-drawn fuzz scenarios
(the same generator the fuzzing harness replays from its corpus, plus
drawn prefix truncation and appended rate changes for extra
interleavings), and a fixed replay sweep of the first corpus seeds so
every CI run covers a stable base load.

The same scripts check the other two incremental structures of the
dynamics path.  The scoped per-op audit
(:meth:`~repro.core.manager.HarpNetwork.validate_changes`) must reach
the full audit's verdict, on the scripts' own states and on faults
planted through the public mutators.  The maintained Rate-Monotonic
table must give every link the key a fresh build gives it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import InsufficientResourcesError
from repro.core.dynamics import TopologyManager
from repro.core.link_sched import rate_monotonic_priority
from repro.core.manager import HarpNetwork
from repro.packing.geometry import PlacedRect
from repro.verify.fuzz import _apply_op
from repro.verify.generators import DynamicsOp, generate_scenario


def _build(scenario, incremental):
    harp = HarpNetwork(
        scenario.topology(),
        scenario.task_set(),
        scenario.config(),
        case1_slack=scenario.case1_slack,
        distribute_slack=scenario.distribute_slack,
        incremental_demand=incremental,
    )
    harp.allocate()
    if incremental:
        _compare_audits(harp)
    manager = TopologyManager(harp)
    return harp, manager


def _verdict(check):
    try:
        check()
    except Exception:
        return "violation"
    return "clean"


def _full_verdict(harp):
    """The whole-network audit, without restarting the change record."""

    def check():
        harp.partitions.validate_isolation(harp.topology)
        harp.schedule.validate_collision_free(harp.topology)

    return _verdict(check)


def _compare_audits(harp):
    """Run the full audit beside every scoped certificate (each topology
    op's, covering any rate changes since the previous one) and log the
    verdicts; they must agree.  Logged, not asserted: the op's ``except``
    would turn an assertion into a re-bootstrap."""
    scoped = harp.validate_changes
    harp.audit_verdicts = []

    def compared():
        try:
            scoped()
        except Exception:
            harp.audit_verdicts.append(("violation", _full_verdict(harp)))
            raise
        harp.audit_verdicts.append(("clean", _full_verdict(harp)))

    harp.validate_changes = compared


def _assert_audits_agreed(harp, context):
    for scoped, full in harp.audit_verdicts:
        assert scoped == full, f"{context}: scoped {scoped}, full {full}"
    harp.audit_verdicts.clear()


def _assert_rm_maintained(harp, context):
    """The incrementally maintained RM key equals a fresh build."""
    fresh = rate_monotonic_priority(harp.task_set)
    for link in harp.topology.links():
        assert harp.priority(harp.topology, link) == fresh(
            harp.topology, link
        ), f"{context}: RM key of {link}"


def _schedule_state(harp):
    return {
        link: tuple(sorted(harp.schedule.cells_of(link)))
        for link in harp.schedule.links
    }


def _assert_equivalent(harp_inc, harp_naive, context):
    assert harp_inc.link_demands == harp_naive.link_demands, context
    assert _schedule_state(harp_inc) == _schedule_state(harp_naive), context
    # The ledger's own oracle: accumulators match a fresh recompute.
    harp_inc.demand_ledger.verify(harp_inc.topology, harp_inc.task_set)
    _assert_audits_agreed(harp_inc, context)
    _assert_rm_maintained(harp_inc, context)


def _run_equivalence(scenario, ops):
    """Drive both paths through the same op interleaving, comparing
    after every op (including rejected/infeasible outcomes)."""
    try:
        harp_inc, manager_inc = _build(scenario, incremental=True)
        harp_naive, manager_naive = _build(scenario, incremental=False)
    except InsufficientResourcesError:
        return 0  # infeasible bootstrap: nothing to compare
    assert harp_naive.demand_ledger is None
    _assert_equivalent(harp_inc, harp_naive, "after bootstrap")
    applied = 0
    for i, op in enumerate(ops):
        outcomes = []
        for harp, manager in (
            (harp_inc, manager_inc),
            (harp_naive, manager_naive),
        ):
            try:
                _apply_op(harp, manager, op)
                outcomes.append("ok")
            except InsufficientResourcesError:
                outcomes.append("infeasible")
            except KeyError:
                # e.g. a rate change aimed at a task a prior detach
                # removed — must reject identically on both paths.
                outcomes.append("missing")
        assert outcomes[0] == outcomes[1], f"op {i} diverged: {outcomes}"
        if outcomes[0] == "infeasible":
            return applied  # failed re-bootstrap: no state to audit
        _assert_equivalent(
            harp_inc, harp_naive, f"after op {i} ({op.kind} {op.node})"
        )
        applied += 1
    # Certify whatever trailing rate changes left in the record.
    harp_inc.validate_changes()
    _assert_audits_agreed(harp_inc, "after the script")
    return applied


def _plant(harp, fault, rng):
    """Break one invariant through the public mutators; returns whether
    a fault of that kind could be planted."""
    topology, partitions = harp.topology, harp.partitions
    inner = [
        p for p in partitions
        if p.owner != topology.gateway_id and not p.region.is_empty
    ]
    if fault == "overlap":
        pairs = [
            (p, q) for p in inner for q in inner
            if p.owner != q.owner
            and (p.layer, p.direction) == (q.layer, q.direction)
            and topology.parent_of(p.owner) == topology.parent_of(q.owner)
        ]
        if not pairs:
            return False
        moved, onto = rng.choice(pairs)
        partitions.set(moved.moved_to(onto.region))
    elif fault == "escape":
        if not inner:
            return False
        moved = rng.choice(inner)
        parent = partitions.require(
            topology.parent_of(moved.owner), moved.layer, moved.direction
        ).region
        partitions.set(moved.moved_to(PlacedRect(
            parent.x2, moved.region.y, moved.region.width,
            moved.region.height,
        )))
    elif fault == "shrink":
        # The parent shrinks in place: only its children's (untouched)
        # partitions show the violation.
        shrinkable = [
            p for p in partitions
            for child in topology.children_of(p.owner)
            for c in [partitions.get(child, p.layer, p.direction)]
            if c is not None and not c.region.is_empty
            and not PlacedRect(p.region.x, p.region.y, 1, 1).contains(c.region)
        ]
        if not shrinkable:
            return False
        shrunk = rng.choice(shrinkable)
        partitions.set(shrunk.moved_to(
            PlacedRect(shrunk.region.x, shrunk.region.y, 1, 1)
        ))
    elif fault == "orphan":
        parents = [
            p for p in partitions
            if any(
                partitions.get(child, p.layer, p.direction)
                for child in topology.children_of(p.owner)
            )
        ]
        if not parents:
            return False
        partitions.remove(*rng.choice(parents).key)
    elif fault == "collision":
        links = sorted(harp.schedule.links, key=str)
        if len(links) < 2:
            return False
        holder, intruder = rng.sample(links, 2)
        cell = rng.choice(harp.schedule.cells_of(holder))
        if intruder in harp.schedule.links_in_cell(cell):
            return False
        harp.schedule.assign(cell, intruder)
    return fault != "none"


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 5000),
    keep=st.integers(0, 10),
    fault=st.sampled_from(
        ["none", "overlap", "escape", "shrink", "orphan", "collision"]
    ),
)
def test_scoped_audit_catches_planted_faults(seed, keep, fault):
    """After a random script, a fault planted through the public
    mutators is caught by the scoped audit exactly when the full audit
    catches it."""
    scenario = generate_scenario(seed)
    try:
        harp, manager = _build(scenario, incremental=True)
    except InsufficientResourcesError:
        return
    harp.validate()  # the first certificate: recording starts here
    for op in scenario.ops[:keep]:
        try:
            _apply_op(harp, manager, op)
        except KeyError:
            continue  # a rate change aimed at a detached task
        except InsufficientResourcesError:
            return
    planted = _plant(harp, fault, random.Random(seed))
    verdict = _verdict(harp.validate_changes)
    _assert_audits_agreed(harp, f"{fault} after {keep} ops")
    assert verdict == ("violation" if planted else "clean")


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 5000),
    keep=st.integers(1, 12),
    extra_rates=st.lists(
        st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]), max_size=3
    ),
)
def test_arbitrary_interleavings_byte_identical(seed, keep, extra_rates):
    """Fuzz-generated dynamics scripts, truncated and extended with
    drawn rate changes, produce identical demands and schedules on
    both paths after every op."""
    scenario = generate_scenario(seed)
    ops = list(scenario.ops[:keep])
    live = [spec.task_id for spec in scenario.tasks]
    rng = random.Random(seed)
    for rate in extra_rates:
        if live:
            ops.append(
                DynamicsOp("rate_change", rng.choice(live), rate=rate)
            )
    _run_equivalence(scenario, ops)


@pytest.mark.parametrize("seed", range(20))
def test_corpus_replay_byte_identical(seed):
    """The stable corpus sweep: the first generator seeds replay with
    both paths in every CI run (the hypothesis test above explores a
    wider seed space probabilistically)."""
    scenario = generate_scenario(seed)
    _run_equivalence(scenario, scenario.ops)


def test_ledger_tracks_full_storm():
    """A longer mixed storm on one network: the ledger never rebuilds
    away from the naive recompute (verify() after every op)."""
    scenario = generate_scenario(97)
    applied = _run_equivalence(scenario, scenario.ops * 2)
    assert applied >= 1

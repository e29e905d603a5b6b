"""The fuzz driver behind ``repro fuzz``.

One *case* = one :class:`~repro.verify.generators.Scenario`, pushed
through the whole conformance pipeline:

1. allocate the network and run every structural oracle;
2. apply the dynamics script op by op (rate changes through the
   manager's Sec. V procedure, join/leave/reroute through the
   incremental :class:`~repro.core.dynamics.TopologyManager`),
   re-running the structural oracles after every op — a rejected rate
   change is legitimate, a dirty state after one is not;
3. run the engine-conservation oracle on the final network;
4. run both differential oracles on the scenario.

Outcomes: ``ok`` (all oracles silent), ``infeasible`` (the allocator
reported insufficient resources — a non-result, the generator's
feasibility screen is a heuristic), ``violation`` (an oracle fired) or
``error`` (an uncaught exception — treated as a violation of the
"no crashes on valid input" meta-invariant).

Failing scenarios are shrunk to minimal counterexamples and collected
in a JSON corpus: ``report.to_dict()`` round-trips through
:func:`replay_corpus`, and any single case replays from its seed alone
via ``repro fuzz --replay-seed N``.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..core.allocation import InsufficientResourcesError
from ..core.dynamics import TopologyManager
from ..core.manager import HarpNetwork
from .differential import diff_manager_vs_agents, diff_schedulers
from .generators import DynamicsOp, Scenario, generate_scenario, shrink_scenario
from .oracles import (
    Violation,
    check_scenario_network,
    run_conservation,
)


@dataclass
class CaseResult:
    """Outcome of one fuzz case."""

    seed: int
    outcome: str  # ok | infeasible | violation | error
    violations: List[Violation] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Live-layer counters when the case ran against the co-simulation
    #: (``repro.verify.live_fuzz``); None for conformance cases.  Feeds
    #: the coverage-guided seed scheduler's feature extraction.
    live_stats: Optional[Dict[str, int]] = None
    #: Which pipeline produced the result — ``static`` (conformance) or
    #: ``live`` (co-simulation chaos).  ``live_stats`` can't stand in
    #: for this: a crashed live case carries no stats.
    kind: str = "static"

    @property
    def failed(self) -> bool:
        return self.outcome in ("violation", "error")

    def to_dict(self) -> Dict[str, Any]:
        doc = {
            "seed": self.seed,
            "outcome": self.outcome,
            "violations": [v.to_dict() for v in self.violations],
            "elapsed_s": round(self.elapsed_s, 4),
            "kind": self.kind,
        }
        if self.live_stats is not None:
            doc["live_stats"] = dict(self.live_stats)
        return doc


@dataclass
class Counterexample:
    """A failing scenario, with its shrunken form when available."""

    scenario: Scenario
    violations: List[Violation]
    shrunk: Optional[Scenario] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario.to_dict(),
            "violations": [v.to_dict() for v in self.violations],
            "shrunk": None if self.shrunk is None else self.shrunk.to_dict(),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Counterexample":
        shrunk = doc.get("shrunk")
        return cls(
            scenario=Scenario.from_dict(doc["scenario"]),
            violations=[
                Violation.from_dict(v) for v in doc.get("violations", [])
            ],
            shrunk=None if shrunk is None else Scenario.from_dict(shrunk),
        )


@dataclass
class FuzzReport:
    """Aggregate result of one ``run_fuzz`` invocation."""

    cases_run: int = 0
    ok: int = 0
    infeasible: int = 0
    violations: int = 0
    errors: int = 0
    duration_s: float = 0.0
    budget_exhausted: bool = False
    first_seed: int = 0
    counterexamples: List[Counterexample] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when no case violated an invariant or crashed."""
        return not self.counterexamples

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cases_run": self.cases_run,
            "ok": self.ok,
            "infeasible": self.infeasible,
            "violations": self.violations,
            "errors": self.errors,
            "duration_s": round(self.duration_s, 3),
            "budget_exhausted": self.budget_exhausted,
            "first_seed": self.first_seed,
            "counterexamples": [c.to_dict() for c in self.counterexamples],
        }

    def render(self) -> str:
        lines = [
            f"{self.cases_run} cases in {self.duration_s:.1f}s: "
            f"{self.ok} ok, {self.infeasible} infeasible, "
            f"{self.violations} violations, {self.errors} errors"
            + (" (budget exhausted)" if self.budget_exhausted else "")
        ]
        for ce in self.counterexamples:
            witness = ce.shrunk or ce.scenario
            lines.append(f"  counterexample [{witness.describe()}]")
            for violation in ce.violations[:4]:
                lines.append(f"    {violation.oracle}: {violation.message}")
            if len(ce.violations) > 4:
                lines.append(
                    f"    ... and {len(ce.violations) - 4} more"
                )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# one case through the pipeline
# ----------------------------------------------------------------------


def _apply_op(
    harp: HarpNetwork, manager: TopologyManager, op: DynamicsOp
) -> None:
    """Apply one dynamics op to the live network.

    A rejected rate change is a legitimate outcome (the oracles then
    verify the rollback left the state clean); topology changes either
    succeed, fall back to a re-bootstrap internally, or raise
    :class:`InsufficientResourcesError`, which the caller maps to the
    ``infeasible`` outcome.  Dispatch lives on the manager
    (:meth:`TopologyManager.apply_event`) so the workload engine's
    event streams ride the identical code path.
    """
    manager.apply_event(op.kind, op.node, parent=op.parent, rate=op.rate)


def run_case(scenario: Scenario, conservation: bool = True) -> CaseResult:
    """Run one scenario through every oracle (see module docstring)."""
    started = time.monotonic()
    violations: List[Violation] = []
    outcome = "ok"
    try:
        harp = HarpNetwork(
            scenario.topology(),
            scenario.task_set(),
            scenario.config(),
            case1_slack=scenario.case1_slack,
            distribute_slack=scenario.distribute_slack,
        )
        try:
            harp.allocate()
        except InsufficientResourcesError:
            return CaseResult(
                seed=scenario.seed,
                outcome="infeasible",
                elapsed_s=time.monotonic() - started,
            )

        violations.extend(check_scenario_network(harp))

        manager = TopologyManager(harp)
        for i, op in enumerate(scenario.ops):
            try:
                _apply_op(harp, manager, op)
            except InsufficientResourcesError:
                # The script grew the network past the slotframe; the
                # case is a non-result from this op on (a failed
                # re-bootstrap leaves no state worth auditing) — unless
                # an earlier oracle already fired.
                return CaseResult(
                    seed=scenario.seed,
                    outcome="violation" if violations else "infeasible",
                    violations=violations,
                    elapsed_s=time.monotonic() - started,
                )
            for violation in check_scenario_network(harp):
                violations.append(
                    Violation(
                        violation.oracle,
                        f"after op {i} ({op.kind} {op.node}): "
                        + violation.message,
                    )
                )

        if conservation:
            violations.extend(run_conservation(harp, seed=scenario.seed))
        violations.extend(diff_manager_vs_agents(scenario))
        violations.extend(diff_schedulers(scenario))
    except Exception:
        outcome = "error"
        violations.append(
            Violation(
                "crash",
                traceback.format_exc(limit=6).strip().splitlines()[-1]
                + " (full pipeline crash)",
            )
        )
    if violations and outcome == "ok":
        outcome = "violation"
    return CaseResult(
        seed=scenario.seed,
        outcome=outcome,
        violations=violations,
        elapsed_s=time.monotonic() - started,
    )


# ----------------------------------------------------------------------
# coverage-guided seed scheduling
# ----------------------------------------------------------------------


class SeedScheduler:
    """Coverage-guided seed frontier over a deterministic base stream.

    The base stream is ``first_seed, first_seed + 1, ...`` — exactly
    what the plain sequential campaign would run.  When the caller
    reports that a case lit up a *new* coverage feature (an oracle
    branch, a dynamics-op kind, a live-layer state transition), the
    scheduler derives child seeds from it and explores those ahead of
    the base stream, concentrating the budget around inputs that reach
    rare behaviour.  Derivation is pure integer arithmetic (no
    ``hash()``, no randomness), so a campaign replays bit-for-bit:
    ``child = parent * 1_000_003 + k``.
    """

    #: Children derived from each novelty-bearing seed.
    children_per_hit: int = 3

    def __init__(self, first_seed: int = 0) -> None:
        self._next_base = first_seed
        self._frontier: List[int] = []
        self._seen_seeds: set = set()
        self._seen_features: set = set()

    def next_seed(self) -> int:
        """The next seed to run: frontier (novelty-derived) first, base
        stream otherwise."""
        while self._frontier:
            candidate = self._frontier.pop(0)
            if candidate not in self._seen_seeds:
                self._seen_seeds.add(candidate)
                return candidate
        while self._next_base in self._seen_seeds:
            self._next_base += 1
        seed = self._next_base
        self._seen_seeds.add(seed)
        self._next_base += 1
        return seed

    def record(self, seed: int, features: List[str]) -> int:
        """Report a finished case's coverage features; returns how many
        were new.  Novelty queues derived seeds onto the frontier."""
        new = [f for f in features if f not in self._seen_features]
        self._seen_features.update(new)
        if new:
            for k in range(1, self.children_per_hit + 1):
                self._frontier.append(seed * 1_000_003 + k)
        return len(new)

    @property
    def features_seen(self) -> int:
        return len(self._seen_features)


def _case_features(scenario: Scenario, result: CaseResult) -> List[str]:
    """Coverage features of one conformance case: its outcome, the
    oracle branches that fired, the dynamics-op kinds it ran, and
    coarse shape buckets of the generated input."""
    features = [f"outcome:{result.outcome}"]
    for violation in result.violations:
        features.append(f"oracle:{violation.oracle}")
    for op in scenario.ops:
        features.append(f"op:{op.kind}")
    features.append(f"slots:{scenario.num_slots}")
    features.append(f"channels:{scenario.num_channels}")
    features.append(f"size:{min(len(scenario.parent_map) // 5, 4)}")
    if scenario.case1_slack:
        features.append("knob:slack")
    if scenario.distribute_slack:
        features.append("knob:distribute")
    return features


# ----------------------------------------------------------------------
# the campaign driver
# ----------------------------------------------------------------------


def run_fuzz(
    cases: int = 100,
    seed: int = 0,
    budget_s: Optional[float] = None,
    shrink: bool = True,
    conservation: bool = True,
    coverage_guided: bool = False,
    on_case: Optional[Callable[[CaseResult], None]] = None,
) -> FuzzReport:
    """Run a fuzz campaign over seeds ``[seed, seed + cases)``.

    ``budget_s`` bounds wall-clock time: the campaign stops before the
    next case once exceeded.  Failing scenarios are shrunk (bounded by
    the same budget) and collected as counterexamples.

    With ``coverage_guided`` the seed order is adaptive: cases that
    reach new oracle branches or op kinds spawn derived seeds explored
    ahead of the sequential stream (see :class:`SeedScheduler`).  The
    default stays the plain sequential sweep so existing campaigns and
    their replay-by-seed semantics are unchanged.
    """
    started = time.monotonic()
    report = FuzzReport(first_seed=seed)
    scheduler = SeedScheduler(first_seed=seed) if coverage_guided else None
    for i in range(cases):
        if budget_s is not None and time.monotonic() - started >= budget_s:
            report.budget_exhausted = True
            break
        case_seed = seed + i if scheduler is None else scheduler.next_seed()
        scenario = generate_scenario(case_seed)
        result = run_case(scenario, conservation=conservation)
        report.cases_run += 1
        if scheduler is not None:
            scheduler.record(case_seed, _case_features(scenario, result))
        if on_case is not None:
            on_case(result)
        if result.outcome == "ok":
            report.ok += 1
        elif result.outcome == "infeasible":
            report.infeasible += 1
        elif result.outcome == "violation":
            report.violations += 1
        else:
            report.errors += 1
        if result.failed:
            shrunk = None
            if shrink:
                def still_fails(candidate: Scenario) -> bool:
                    if (
                        budget_s is not None
                        and time.monotonic() - started >= budget_s
                    ):
                        return False
                    return run_case(
                        candidate, conservation=conservation
                    ).failed

                shrunk = shrink_scenario(scenario, still_fails)
                if shrunk == scenario:
                    shrunk = None
            report.counterexamples.append(
                Counterexample(
                    scenario=scenario,
                    violations=result.violations,
                    shrunk=shrunk,
                )
            )
    report.duration_s = time.monotonic() - started
    return report


# ----------------------------------------------------------------------
# corpus replay
# ----------------------------------------------------------------------


def save_report(report: FuzzReport, path: str) -> None:
    """Write a campaign report (with its counterexample corpus) as JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def replay_corpus(path: str, conservation: bool = True) -> List[CaseResult]:
    """Re-run every counterexample of a saved corpus (shrunken form
    preferred); returns one result per counterexample.  Live-layer
    corpus entries (marked ``"live": true`` by
    :mod:`repro.verify.live_fuzz`) replay through the live pipeline."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    results: List[CaseResult] = []
    for entry in doc.get("counterexamples", []):
        if entry["scenario"].get("live"):
            from .live_fuzz import LiveScenario, run_live_case

            witness_doc = entry.get("shrunk") or entry["scenario"]
            results.append(
                run_live_case(LiveScenario.from_dict(witness_doc))
            )
            continue
        ce = Counterexample.from_dict(entry)
        witness = ce.shrunk or ce.scenario
        results.append(run_case(witness, conservation=conservation))
    return results

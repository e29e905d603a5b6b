"""Conformance fuzzing harness for the HARP stack.

The paper's headline claim — hierarchical partitioning keeps distributed
scheduling collision-free *by construction*, even under dynamics — is a
universally quantified statement, and scripted tests only sample it.
This package certifies it mechanically at scale:

* :mod:`generators` — seeded generators for tree topologies, task sets
  and dynamics scripts (join/leave/reroute/rate-change interleavings),
  with greedy shrinking to minimal counterexamples;
* :mod:`oracles` — composable invariant checkers promoted from
  :mod:`repro.core.audit`: cell-level collision freedom, partition
  isolation and containment, interface/composition consistency, RM
  feasibility, and the engine's packet-conservation laws;
* :mod:`differential` — the same scenario run through the centralized
  manager and the distributed agent runtime (schedules must be equal),
  and through HARP vs. the baseline schedulers (HARP must dominate);
* :mod:`scenarios` — workload-backed scenario family: the workload
  engine's preset streams (Zipf, MMPP, shift, churn, diurnal) folded
  into dynamics scripts, so shaped load patterns run through the same
  oracle pipeline as the uniform fuzz menu;
* :mod:`fuzz` — the driver behind ``repro fuzz``: case/time budgets,
  JSON counterexample corpus, replay by seed, optional coverage-guided
  seed scheduling;
* :mod:`live_fuzz` — chaos fuzzing of the *live* co-simulation layer:
  crash/heal/roam/degrade/failover interleavings against
  :class:`~repro.agents.live.LiveHarpNetwork`, with livelock,
  bounded-reattach, move-count and collision-freedom oracles and
  delta-debug shrinking over the event interleaving.
"""

from .differential import diff_manager_vs_agents, diff_schedulers
from .generators import (
    DynamicsOp,
    Scenario,
    generate_scenario,
    shrink_scenario,
)
from .scenarios import generate_workload_scenario
from .fuzz import (
    CaseResult,
    Counterexample,
    FuzzReport,
    SeedScheduler,
    replay_corpus,
    run_case,
    run_fuzz,
    save_report,
)
from .live_fuzz import (
    LiveEvent,
    LiveScenario,
    generate_live_scenario,
    replay_live_corpus,
    run_live_case,
    run_live_fuzz,
    shrink_live_scenario,
)
from .fleet_oracle import (
    check_fleet_campaign,
    check_fleet_conservation,
    check_fleet_determinism,
    run_serial_baseline,
)
from .oracles import (
    Violation,
    check_scenario_network,
    run_conservation,
)

__all__ = [
    "CaseResult",
    "Counterexample",
    "DynamicsOp",
    "FuzzReport",
    "LiveEvent",
    "LiveScenario",
    "SeedScheduler",
    "save_report",
    "Scenario",
    "Violation",
    "check_fleet_campaign",
    "check_fleet_conservation",
    "check_fleet_determinism",
    "check_scenario_network",
    "diff_manager_vs_agents",
    "diff_schedulers",
    "generate_live_scenario",
    "generate_scenario",
    "generate_workload_scenario",
    "replay_corpus",
    "replay_live_corpus",
    "run_case",
    "run_conservation",
    "run_fuzz",
    "run_live_case",
    "run_live_fuzz",
    "run_serial_baseline",
    "shrink_live_scenario",
    "shrink_scenario",
]

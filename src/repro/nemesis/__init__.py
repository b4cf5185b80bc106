"""Nemesis: unified deterministic fault simulation with adversarial
search, failure minimization and repro bundles.

One :class:`~repro.nemesis.plan.FaultPlan` drives all five injector
families (subsystem faults, message faults, disk faults, shard kills,
WAL-threshold crashes) through a single seeded timeline; an online
invariant registry catches violations at the earliest offending event;
:func:`~repro.nemesis.search.nemesis_search` explores random plans
under a budget, shrinks what it finds with delta debugging and emits a
deterministic repro bundle
(:func:`~repro.nemesis.bundle.replay_bundle` re-executes it to the
identical violation).  :func:`~repro.nemesis.executor.run_plan` is the
one federated harness: the X13 scaling and shard-kill sweeps are runs
of the empty plan.
"""

from repro.nemesis.plan import (
    FAMILIES,
    FAMILY_OF,
    FaultAction,
    FaultPlan,
    random_plan,
)
from repro.nemesis.adapters import (
    PlannedMessageFaults,
    PlannedSubsystemFaults,
    disk_arming,
    kill_schedule,
    partition_schedule,
    wal_crash_triggers,
)
from repro.nemesis.coverage import ALL_SITES, KNOWN_SITES, CoverageReport
from repro.nemesis.invariants import (
    CanaryInvariant,
    DecisionConservationInvariant,
    Invariant,
    InvariantViolation,
    NoFrecAbortInvariant,
    NoLostProcessInvariant,
    PredPrefixInvariant,
    WalMonotoneInvariant,
    default_invariants,
)
from repro.nemesis.executor import (
    NEMESIS,
    FederationResult,
    FederationSpec,
    build_federation,
    kill_sweep,
    run_plan,
    scaling_sweep,
)
from repro.nemesis.shrink import ShrinkResult, ddmin_actions, shrink
from repro.nemesis.bundle import (
    Bundle,
    ReplayReport,
    read_bundle,
    replay_bundle,
    write_bundle,
)
from repro.nemesis.search import SearchResult, nemesis_search, plan_for

__all__ = [
    "FAMILIES",
    "FAMILY_OF",
    "FaultAction",
    "FaultPlan",
    "random_plan",
    "PlannedMessageFaults",
    "PlannedSubsystemFaults",
    "disk_arming",
    "kill_schedule",
    "partition_schedule",
    "wal_crash_triggers",
    "ALL_SITES",
    "KNOWN_SITES",
    "CoverageReport",
    "CanaryInvariant",
    "DecisionConservationInvariant",
    "Invariant",
    "InvariantViolation",
    "NoFrecAbortInvariant",
    "NoLostProcessInvariant",
    "PredPrefixInvariant",
    "WalMonotoneInvariant",
    "default_invariants",
    "NEMESIS",
    "FederationResult",
    "FederationSpec",
    "build_federation",
    "kill_sweep",
    "run_plan",
    "scaling_sweep",
    "ShrinkResult",
    "ddmin_actions",
    "shrink",
    "Bundle",
    "ReplayReport",
    "read_bundle",
    "replay_bundle",
    "write_bundle",
    "SearchResult",
    "nemesis_search",
    "plan_for",
]

"""Golden harness outputs: pinned table rows of the chaos, overload and
federation runs.

The ``chaos``, ``overload`` and ``federation`` commands print one row
per certified run.  This pins those rows, column order included, plus
the dispatched and deferred counts behind the single-scheduler ones,
for every standard fault mix at seeds 0-2, the combined mix over
sqlite, three open-loop specs, the closed-loop capacity estimate, the
shard-kill and scaling sweeps, the two-partition kill run of the
``federation`` command, and the run count and fault-site coverage of
a clean nemesis search.  A refactor of the harness has to reproduce
them bit for bit; a deliberate behaviour change re-records them and
says why.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

import pytest

from repro.core.admission import AdmissionConfig
from repro.nemesis import (
    NEMESIS,
    FederationSpec,
    kill_sweep,
    nemesis_search,
    run_plan,
    scaling_sweep,
)
from repro.sim.harness import (
    OVERLOAD,
    default_mixes,
    estimate_capacity,
    run_harness,
)
from repro.sim.workload import WorkloadSpec

CHAOS_COLUMNS = (
    "mix", "seed", "backend", "faults", "aborts", "latency", "hangs",
    "crashes", "retries", "timeouts", "trips", "recoveries",
    "degradations", "committed", "aborted", "makespan", "pred",
    "terminated",
)

LOAD_COLUMNS = (
    "load", "seed", "offered", "committed", "aborted", "rejected", "shed",
    "goodput", "sojourn_p50", "sojourn_p95", "queue_peak", "starved",
    "livelocks", "frec_sheds", "certified",
)

#: Chaos row values in :data:`CHAOS_COLUMNS` order, then the dispatched
#: and deferred counts, keyed by ``(mix, seed)``.
CHAOS_ROWS: Dict[Tuple[str, int], Tuple[object, ...]] = {
    ("aborts", 0): ("aborts", 0, "memory", 4, 4, 0, 0, 0, 0, 0, 1, 1, 0, 2, 6, 22.195, True, True, 23, 85),
    ("aborts", 1): ("aborts", 1, "memory", 4, 4, 0, 0, 0, 0, 0, 1, 1, 1, 5, 3, 23.63, True, True, 52, 109),
    ("aborts", 2): ("aborts", 2, "memory", 5, 5, 0, 0, 0, 0, 0, 2, 0, 0, 2, 6, 27.937, True, True, 29, 45),
    ("latency", 0): ("latency", 0, "memory", 7, 0, 7, 0, 0, 0, 4, 0, 0, 0, 3, 5, 47.137, True, True, 39, 168),
    ("latency", 1): ("latency", 1, "memory", 4, 0, 4, 0, 0, 0, 1, 0, 0, 0, 3, 5, 32.615, True, True, 49, 213),
    ("latency", 2): ("latency", 2, "memory", 7, 0, 7, 0, 0, 2, 5, 2, 1, 0, 3, 5, 34.021, True, True, 23, 68),
    ("hangs", 0): ("hangs", 0, "memory", 4, 0, 0, 4, 0, 0, 4, 2, 1, 0, 2, 6, 32.216, True, True, 31, 79),
    ("hangs", 1): ("hangs", 1, "memory", 3, 0, 0, 3, 0, 0, 3, 0, 0, 0, 4, 4, 35.689, True, True, 59, 207),
    ("hangs", 2): ("hangs", 2, "memory", 8, 0, 0, 8, 0, 3, 8, 5, 2, 0, 3, 5, 46.209, True, True, 39, 86),
    ("crashes", 0): ("crashes", 0, "memory", 4, 0, 0, 0, 4, 0, 0, 7, 3, 0, 2, 6, 64.873, True, True, 34, 179),
    ("crashes", 1): ("crashes", 1, "memory", 4, 0, 0, 0, 4, 1, 0, 4, 3, 2, 5, 3, 62.813, True, True, 47, 153),
    ("crashes", 2): ("crashes", 2, "memory", 4, 0, 0, 0, 4, 0, 0, 7, 2, 0, 1, 7, 51.051, True, True, 20, 102),
    ("mixed", 0): ("mixed", 0, "memory", 4, 2, 2, 0, 0, 0, 0, 0, 0, 0, 3, 5, 26.555, True, True, 35, 180),
    ("mixed", 1): ("mixed", 1, "memory", 10, 4, 2, 2, 2, 2, 2, 6, 2, 1, 5, 3, 46.571, True, True, 41, 78),
    ("mixed", 2): ("mixed", 2, "memory", 6, 2, 2, 1, 1, 0, 1, 3, 2, 1, 3, 5, 22.304, True, True, 21, 42),
}

SQLITE_MIXED_ROW = ("mixed", 1, "sqlite", 10, 4, 2, 2, 2, 2, 2, 6, 2, 1, 5, 3, 46.571, True, True, 41, 78)

#: Load row values in :data:`LOAD_COLUMNS` order, then the dispatched
#: and deferred counts.
LOAD_ROWS: Dict[str, Tuple[object, ...]] = {
    "overloaded": (2.0, 3, 16, 4, 2, 10, 0, 0.2052, 7.136, 12.913, 2, 0, 0, 0, True, 25, 16),
    "underloaded": (0.05, 1, 8, 8, 0, 0, 0, 0.0351, 10.549, 11.724, 0, 0, 0, 0, True, 63, 11),
    "reject-new": (3.0, 2, 12, 2, 1, 9, 0, 0.1917, 8.794, 9.811, 1, 0, 0, 0, True, 14, 3),
}

CAPACITY = 0.14598939752000525

#: The three open-loop specs of ``tests/integration/test_overload.py``.
LOAD_SPECS = {
    "overloaded": lambda: replace(
        OVERLOAD,
        workload=WorkloadSpec(processes=16, service_pool=8, conflict_rate=0.05),
        offered_load=2.0,
        admission=replace(
            OVERLOAD.admission,
            max_active=2,
            max_queue_depth=2,
            max_queue_age=6.0,
        ),
        seed=3,
    ),
    "underloaded": lambda: replace(
        OVERLOAD,
        workload=WorkloadSpec(processes=8, service_pool=8, conflict_rate=0.02),
        offered_load=0.05,
        admission=replace(
            OVERLOAD.admission,
            max_active=4,
            max_queue_depth=4,
            max_queue_age=20.0,
        ),
        seed=1,
    ),
    "reject-new": lambda: replace(
        OVERLOAD,
        workload=WorkloadSpec(processes=12, service_pool=8, conflict_rate=0.05),
        offered_load=3.0,
        admission=AdmissionConfig(
            max_active=2,
            max_queue_depth=1,
            max_queue_age=None,
            shed_policy="reject-new",
        ),
        seed=2,
    ),
}


def _observed(row: Dict[str, object], metrics, columns) -> Tuple[object, ...]:
    assert tuple(row) == columns
    return tuple(row.values()) + (
        metrics.activities_dispatched,
        metrics.deferrals,
    )


@pytest.mark.parametrize("mix,seed", sorted(CHAOS_ROWS))
def test_chaos_rows(mix: str, seed: int) -> None:
    (spec,) = [spec for spec in default_mixes() if spec.name == mix]
    result = run_harness(spec.with_seed(seed))
    observed = _observed(result.chaos_row(), result.metrics, CHAOS_COLUMNS)
    assert observed == CHAOS_ROWS[mix, seed]


def test_mixed_row_on_sqlite() -> None:
    spec = replace(default_mixes()[-1], backend="sqlite", seed=1)
    result = run_harness(spec)
    observed = _observed(result.chaos_row(), result.metrics, CHAOS_COLUMNS)
    assert observed == SQLITE_MIXED_ROW


@pytest.mark.parametrize("case", sorted(LOAD_SPECS))
def test_load_rows(case: str) -> None:
    result = run_harness(LOAD_SPECS[case]())
    observed = _observed(result.load_row(), result.metrics, LOAD_COLUMNS)
    assert observed == LOAD_ROWS[case]


def test_capacity_estimate() -> None:
    assert estimate_capacity() == CAPACITY


FED_COLUMNS = (
    "shards", "seed", "cross_shard_fraction", "conflict_rate", "committed",
    "aborted", "makespan", "throughput", "fed_deferrals", "cross_victims",
    "certified", "pred", "reducible", "terminated", "groups_checked",
    "lost_decisions", "dup_applications", "in_doubt_residue",
    "lost_processes", "net_kills", "net_recoveries", "net_dup_suppressed",
    "net_requests_sent", "net_requests_failed", "net_posts_delivered",
    "net_duplicates_delivered", "net_breaker_trips",
    "net_breaker_fast_fails", "net_fault_drop", "net_fault_delay",
    "net_fault_duplicate", "net_fault_partition",
)

#: ``kill_sweep(seeds=(0, 1, 2))`` rows in :data:`FED_COLUMNS` order.
KILL_ROWS = (
    (3, 0, 0.35, 0.05, 5, 7, 24.0, 0.2083, 36, 0, True, True, True, True, 6, 0, 0, 0, 0, 3, 3, 0, 2, 0, 26, 1, 0, 0, 3, 2, 1, 1),
    (3, 1, 0.35, 0.05, 1, 11, 24.5, 0.0408, 16, 0, True, True, True, True, 1, 0, 0, 0, 0, 3, 3, 0, 0, 0, 20, 3, 0, 0, 5, 2, 3, 1),
    (3, 2, 0.35, 0.05, 5, 7, 24.0, 0.2083, 19, 0, True, True, True, True, 6, 0, 0, 0, 0, 3, 3, 0, 2, 0, 24, 1, 0, 0, 0, 3, 1, 1),
)

#: ``scaling_sweep((1, 2))`` rows.
SCALING_ROWS = (
    (1, 0, 0.0, 0.0, 8, 0, 18.0, 0.4444, 0, 0, True, True, True, True, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    (2, 0, 0.0, 0.0, 8, 0, 10.0, 0.8, 0, 0, True, True, True, True, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
)

#: The row of ``repro federation --kill --partitions 2 --seeds 0``; both
#: partition windows fire, the second one spanning a recovery instant.
CLI_KILL_ROW = (3, 0, 0.35, 0.05, 5, 7, 24.0, 0.2083, 33, 0, True, True, True, True, 6, 0, 0, 0, 0, 3, 3, 0, 2, 0, 30, 0, 0, 0, 0, 0, 0, 2)

#: Plan executions and per-site fault deliveries of a clean search.
SEARCH_RUNS = 10
SEARCH_COVERAGE = {
    "disk:fsync": 0, "kill:kill": 6, "message:drop": 22,
    "message:delay": 5, "message:duplicate": 7, "message:partition": 10,
    "subsystem:abort": 1, "subsystem:latency": 5, "subsystem:hang": 5,
    "subsystem:crash": 1, "walcrash:wal_crash": 9,
}


def _fed_rows(results) -> Tuple[Tuple[object, ...], ...]:
    rows = [result.row() for result in results]
    assert all(tuple(row) == FED_COLUMNS for row in rows)
    return tuple(tuple(row.values()) for row in rows)


def test_kill_sweep_rows() -> None:
    assert _fed_rows(kill_sweep(seeds=(0, 1, 2))) == KILL_ROWS


def test_scaling_sweep_rows() -> None:
    assert _fed_rows(scaling_sweep((1, 2))) == SCALING_ROWS


def test_cli_kill_partitions_row() -> None:
    spec = FederationSpec(
        shards=3,
        service_groups=6,
        processes_per_group=2,
        cross_shard_fraction=0.35,
        conflict_rate=0.05,
        kills=tuple((4.0 + 8.0 * index, index, 4.0) for index in range(3)),
        partitions=((2.0, 0, 1, 2.0), (6.0, 1, 2, 2.0)),
    )
    result = run_plan(spec, invariants=[])
    assert _fed_rows([result]) == (CLI_KILL_ROW,)


def test_clean_search_runs_and_coverage() -> None:
    result = nemesis_search(
        replace(NEMESIS, seed=2, cross_shard_fraction=0.3),
        plans=10,
        seed=7,
        actions=10,
    )
    assert not result.found
    assert result.total_runs == SEARCH_RUNS
    assert dict(result.coverage.counts) == SEARCH_COVERAGE

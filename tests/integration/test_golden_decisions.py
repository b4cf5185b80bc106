"""Golden decisions: pinned outcomes of every run harness.

Each case runs one driver on a fixed seed and reduces the run to a
normalised history digest plus the dispatched, deferred, committed and
aborted counts and the makespan.  The values were recorded once and
must not move: a refactor of the run machinery (the event loops, the
execution lane, the fleet builders) has to reproduce every decision
bit for bit.  A deliberate behaviour change re-records them and says
why.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterable, List, Tuple

import pytest

from repro.baselines import FlatScheduler
from repro.core.admission import AdmissionConfig, WatchdogConfig
from repro.core.conflict import ExplicitConflicts
from repro.core.schedule import (
    AbortEvent,
    ActivityEvent,
    CommitEvent,
    GroupAbortEvent,
)
from repro.core.scheduler import TransactionalProcessScheduler
from repro.fed.federation import Federation
from repro.fed.messages import FederationNetwork, MessageFaultPolicy
from repro.fed.router import ShardRouter
from repro.fed.runner import FederationRunner
from repro.nemesis import (
    NEMESIS,
    FaultAction,
    FaultPlan,
    FederationSpec,
    Invariant,
    default_invariants,
    run_plan,
)
from repro.resilience import BreakerConfig, ResilienceManager, RetryPolicy
from repro.sim.clock import VirtualClock
from repro.sim.runner import Arrival, SimulationRunner, simulate_run
from repro.sim.workload import (
    ArrivalSpec,
    WorkloadSpec,
    generate_arrivals,
    generate_process,
    generate_workload,
)
from repro.subsystems.failures import ChaosPolicy
from repro.subsystems.services import counter_service
from repro.subsystems.subsystem import Subsystem

#: ``(digest, dispatched, deferred, committed, aborted, makespan)``.
Observation = Tuple[str, int, int, int, int, float]


def digest(history, submitted: Iterable[str] = ()) -> str:
    """History digest with instance ids normalised.

    Submitted instances are renamed to their submission index, any
    other id (a restart) to the order in which it first appears, so
    class-level id counters shared between tests do not leak in.
    """
    names: Dict[str, str] = {
        pid: f"p{index}" for index, pid in enumerate(submitted)
    }

    def norm(pid: str) -> str:
        if pid not in names:
            names[pid] = f"r{len(names)}"
        return names[pid]

    parts = []
    for event in history.events:
        if isinstance(event, ActivityEvent):
            activity = event.activity
            parts.append(
                f"E {norm(activity.process_id)} {activity.activity_name} "
                f"{activity.direction.exponent} {event.service}"
            )
        elif isinstance(event, CommitEvent):
            parts.append(f"C {norm(event.process_id)}")
        elif isinstance(event, AbortEvent):
            parts.append(f"A {norm(event.process_id)}")
        elif isinstance(event, GroupAbortEvent):
            parts.append("G " + " ".join(norm(p) for p in event.process_ids))
        else:
            raise TypeError(f"unknown history event {event!r}")
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]


def _observe(history, metrics, submitted: Iterable[str] = ()) -> Observation:
    return (
        digest(history, submitted),
        metrics.activities_dispatched,
        metrics.deferrals,
        metrics.processes_committed,
        metrics.processes_aborted,
        round(metrics.makespan, 6),
    )


def _observe_federated(history, metrics) -> Observation:
    return (
        digest(history),
        metrics.dispatched,
        metrics.fed_deferrals,
        metrics.committed,
        metrics.aborted,
        round(metrics.makespan, 6),
    )


def _resilience(seed: int, timeout: float, reset: float) -> ResilienceManager:
    return ResilienceManager(
        policy=RetryPolicy(
            timeout=timeout, max_attempts=3, base_delay=0.2, seed=seed
        ),
        breaker=BreakerConfig(failure_threshold=2, reset_timeout=reset),
    )


# -- single-scheduler runs ---------------------------------------------------


def _conflicting(order: str) -> Observation:
    workload = generate_workload(
        WorkloadSpec(processes=10, service_pool=8, conflict_rate=0.2, seed=5)
    )
    scheduler = TransactionalProcessScheduler(conflicts=workload.conflicts)
    submitted = [scheduler.submit(p) for p in workload.processes]
    metrics = simulate_run(scheduler, durations=workload.duration, order=order)
    return _observe(scheduler.history(), metrics, submitted)


def _overload() -> Observation:
    seed = 3
    workload = generate_workload(
        WorkloadSpec(
            processes=16,
            service_pool=10,
            conflict_rate=0.05,
            failure_rate=0.1,
            seed=seed,
        )
    )
    times = generate_arrivals(
        len(workload.processes),
        ArrivalSpec(offered_load=0.9, seed=seed + 1),
    )
    scheduler = TransactionalProcessScheduler(
        conflicts=workload.conflicts,
        resilience=_resilience(seed, timeout=5.0, reset=8.0),
        admission=AdmissionConfig(
            max_active=4, max_queue_depth=4, max_queue_age=6.0
        ),
        watchdogs=WatchdogConfig(starvation_rounds=20, livelock_flaps=6),
    )
    offers = [
        Arrival(time=time, process=process, failures=workload.failures)
        for time, process in zip(times, workload.processes)
    ]
    metrics = SimulationRunner(
        scheduler, durations=workload.duration, offers=offers
    ).run()
    assert metrics.processes_offered == 16
    assert metrics.processes_rejected + metrics.processes_shed > 0
    return _observe(scheduler.history(), metrics)


def _chaos() -> Observation:
    seed = 8
    workload = generate_workload(
        WorkloadSpec(
            processes=8,
            alternative_probability=0.9,
            prefix_range=(2, 4),
            service_pool=12,
            conflict_rate=0.03,
            seed=seed,
        )
    )
    chaos = ChaosPolicy(
        abort_rate=0.25,
        latency_rate=0.2,
        hang_rate=0.15,
        crash_rate=0.1,
        latency_span=(1.0, 5.0),
        seed=seed + 1,
        max_consecutive=4,
        services=["svc0", "svc1", "svc2"],
    )
    scheduler = TransactionalProcessScheduler(
        conflicts=workload.conflicts,
        resilience=_resilience(seed, timeout=3.0, reset=8.0),
    )
    submitted = [
        scheduler.submit(p, failures=chaos) for p in workload.processes
    ]
    metrics = SimulationRunner(scheduler, durations=workload.duration).run()
    assert chaos.injected.get("latency", 0) > 0
    assert metrics.retries > 0
    return _observe(scheduler.history(), metrics, submitted)


def _baseline() -> Observation:
    workload = generate_workload(
        WorkloadSpec(processes=8, service_pool=6, conflict_rate=0.2, seed=2)
    )
    scheduler = FlatScheduler(conflicts=workload.conflicts)
    submitted = [scheduler.submit(p) for p in workload.processes]
    metrics = simulate_run(scheduler, durations=workload.duration)
    return _observe(scheduler.history(), metrics, submitted)


# -- federated runs -----------------------------------------------------------


def _federation_runner() -> Observation:
    """FederationRunner driven directly: kill, partition, message faults."""
    rng = random.Random(7)
    shards = ["s0", "s1", "s2"]
    group_services: List[List[str]] = []
    owners: Dict[str, str] = {}
    subsystems: List[Subsystem] = []
    for group in range(6):
        services = [f"g{group}s{index}" for index in range(3)]
        group_services.append(services)
        subsystem = Subsystem(f"grp{group}")
        for service in services:
            subsystem.register(counter_service(service, key=service))
            owners[service] = shards[group % 3]
        subsystems.append(subsystem)
    everything = [s for services in group_services for s in services]
    conflicts = ExplicitConflicts(
        [
            (left, right)
            for i, left in enumerate(everything)
            for right in everything[i + 1:]
            if rng.random() < 0.05
        ]
    )
    federation = Federation(
        ShardRouter(owners),
        subsystems,
        network=FederationNetwork(
            MessageFaultPolicy(
                drop_rate=0.1, delay_rate=0.1, duplicate_rate=0.1, seed=7
            )
        ),
        conflicts=conflicts,
        clock=VirtualClock(),
    )
    shape = WorkloadSpec(processes=1, max_depth=1, seed=7)
    for group in range(6):
        for index in range(2):
            pool = list(group_services[group])
            if rng.random() < 0.5:
                pool += group_services[(group + 1) % 6]
            federation.submit(
                generate_process(rng, shape, f"P{group}-{index}", pool)
            )
    durations = {
        service: 0.5 + (index % 4) * 0.25
        for index, service in enumerate(everything)
    }
    runner = FederationRunner(
        federation,
        durations=lambda service: durations[service.split("~", 1)[0]],
        kills=[(5.0, "s1", 3.0)],
        partitions=[(2.0, "s0", "s2", 2.0)],
    )
    metrics = runner.run()
    assert federation.counters()["kills"] == 1
    assert federation.validate().clean
    return _observe_federated(federation.merged_history(), metrics)


_FEDERATION_SPEC = FederationSpec(
    shards=3,
    service_groups=6,
    processes_per_group=2,
    cross_shard_fraction=0.35,
    conflict_rate=0.05,
    drop_rate=0.15,
    delay_rate=0.15,
    duplicate_rate=0.15,
    kills=((6.0, 1, 4.0),),
    partitions=((2.0, 0, 2, 2.0),),
    seed=1,
)


def _federation_harness() -> Tuple[object, ...]:
    """run_plan without faults or invariants: the fleet builder plus the
    runner."""
    result = run_plan(_FEDERATION_SPEC, invariants=[], strict=True)
    assert result.certified
    row = result.row()
    return tuple(
        row[key]
        for key in (
            "committed",
            "aborted",
            "makespan",
            "fed_deferrals",
            "cross_victims",
            "net_posts_delivered",
            "net_fault_drop",
            "net_fault_duplicate",
        )
    ) + (result.metrics.dispatched,)


class _History(Invariant):
    """Records the final merged history; never violates."""

    name = "record-history"

    def __init__(self) -> None:
        self.history = None

    def final(self, view):
        self.history = view.history()
        return None


#: A plan over every injector family except ``latency``.
_PLAN = FaultPlan(
    seed=389073400,
    actions=(
        FaultAction("wal_crash", "s0", at=0.0, duration=2.398, param=12.0),
        FaultAction("wal_crash", "s1", at=0.0, duration=5.815, param=30.0),
        FaultAction("partition", "s1|s0", at=0.111, duration=3.553),
        FaultAction("fsync_fail", at=0.601, param=3.0),
        FaultAction("kill", "s0", at=1.517, duration=2.872),
        FaultAction("hang", "g3s1", at=1.864, duration=8.214, param=3.848),
        FaultAction("msg_drop", at=2.842, duration=8.242, param=0.447),
        FaultAction("msg_delay", at=3.508, duration=7.841, param=0.112),
        FaultAction("msg_dup", at=6.221, duration=8.931, param=0.122),
        FaultAction("crash", "g3s0", at=9.497, duration=6.167, param=0.699),
        FaultAction("crash", "g0s0", at=11.323, duration=6.733, param=3.49),
        FaultAction("msg_drop", at=12.163, duration=7.367, param=0.304),
    ),
)


def _nemesis() -> Tuple[object, ...]:
    recorder = _History()
    invariants = default_invariants() + [recorder]
    result = run_plan(NEMESIS.with_seed(3), _PLAN, invariants=invariants)
    assert result.clean, result.violation
    assert result.coverage.counts["subsystem:hang"] > 0
    return _observe_federated(recorder.history, result.metrics) + (
        result.rounds,
        result.coverage.total_delivered,
    )


#: Recorded outcomes.  Single-scheduler and federation-runner cases are
#: observations; ``federation-harness`` is ``(committed, aborted,
#: makespan, fed_deferrals, cross_victims, posts_delivered, drops,
#: duplicates, dispatched)``; ``nemesis`` appends the runner rounds and
#: the delivered fault count.
GOLDEN: Dict[str, Tuple[object, ...]] = {
    "baseline": ("7197db945135ec07", 231, 1617, 3, 56, 217.483),
    "chaos": ("e19a6cf0617d5f53", 31, 96, 4, 4, 61.675),
    "federation-harness": (1, 11, 16.5, 17, 2, 22, 4, 5, 22),
    "federation-runner": ("50a8e2181bade76e", 21, 23, 1, 11, 20.002324),
    "nemesis": ("54798da294944465", 14, 11, 1, 7, 17.102, 45, 16),
    "overload": ("83e8041b0b42ef20", 38, 157, 3, 5, 33.635675),
    "strong": ("6f73e1e2367b4c40", 26, 228, 2, 8, 20.867),
    "weak": ("903924864a2dcf7e", 29, 176, 2, 8, 13.856),
}

CASES = {
    "strong": lambda: _conflicting("strong"),
    "weak": lambda: _conflicting("weak"),
    "overload": _overload,
    "chaos": _chaos,
    "baseline": _baseline,
    "federation-runner": _federation_runner,
    "federation-harness": _federation_harness,
    "nemesis": _nemesis,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_decisions(case: str) -> None:
    assert CASES[case]() == GOLDEN[case]


def test_golden_runs_are_repeatable() -> None:
    assert _conflicting("strong") == _conflicting("strong")
    assert _nemesis() == _nemesis()

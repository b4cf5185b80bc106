"""The benchmark's three workloads, built only from public constructors.

A workload is a list of *batches*.  A batch is one self-contained run:
every process is submitted at virtual time 0 and the run drains them.
Each batch comes from its own seed, derived from the run's ``--seed``,
so a run pools many independent inputs; the pooled figures then move
little from one ``--seed`` to the next, while each batch stays small
enough (under a hundred history events) that certifying its history,
which costs roughly events^2.6, stays affordable.

Every batch is built fresh for each repetition (new processes, new
conflict relation with cold caches, new schedulers, stores and WAL), so
a repeat does exactly the work of the first run and must produce the
same history.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.core.conflict import ExplicitConflicts
from repro.core.schedule import (
    AbortEvent,
    ActivityEvent,
    CommitEvent,
    GroupAbortEvent,
)
from repro.core.scheduler import ManagedStatus, TransactionalProcessScheduler
from repro.fed.federation import Federation
from repro.fed.messages import FederationNetwork, MessageFaultPolicy
from repro.fed.router import ShardRouter
from repro.fed.runner import FederationRunner
from repro.sim import certify
from repro.sim.clock import VirtualClock
from repro.sim.runner import simulate_run
from repro.sim.workload import WorkloadSpec, generate_process, generate_workload
from repro.subsystems.backend import BackendHub, SqliteBackend
from repro.subsystems.recovery import analyze_wal
from repro.subsystems.services import Service, ServicePair, counter_service
from repro.subsystems.subsystem import Subsystem, SubsystemRegistry
from repro.subsystems.wal import FileWAL

__all__ = [
    "WORKLOADS",
    "Workload",
    "Outcome",
    "Batch",
    "batch_seeds",
    "digest",
]

#: Flush policy of the ``durable`` workload's WAL.  It must be the same
#: on both sides of any comparison.
DURABLE_WAL_POLICY = {"flush": "always", "fsync": True}


def batch_seeds(seed: int, batches: int) -> List[int]:
    """The seeds of a run's batches, all derived from its ``--seed``."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(batches)]


@dataclass
class Outcome:
    """What one batch run produced, as the benchmark checks and counts it."""

    history: object
    terminated: bool
    submitted: int
    committed_ids: List[str]
    #: Virtual time from arrival (0) to each process's commit or abort.
    latencies: List[float]
    makespan: float
    #: Decision counts that must repeat exactly for a batch.
    counts: Dict[str, int]
    #: Perf counters of every scheduler the batch ran.
    perf: List[Dict[str, float]] = field(default_factory=list)
    #: Scheduler statistics summed over the batch's schedulers.
    stats: Dict[str, int] = field(default_factory=dict)
    #: Extra per-layer facts (federation counters, WAL bytes).
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def committed(self) -> int:
        return len(self.committed_ids)


class Batch:
    """One prepared batch: built by a workload, run once, then closed."""

    def __init__(self, submitted_ids: List[str]) -> None:
        self.submitted_ids = submitted_ids

    def run(self) -> Outcome:
        raise NotImplementedError

    def certify(self, outcome: Outcome) -> List[str]:
        """Certify the run's history; returns the problems found."""
        verdict = certify.certify_history(outcome.history, outcome.terminated)
        if verdict.certified:
            return []
        return [f"certification failed: {verdict.describe()}"]

    def verify(self, outcome: Outcome) -> List[str]:
        """Output checks beyond certification; returns the problems."""
        return []

    def close(self) -> None:
        """Release stores and files."""


@dataclass(frozen=True)
class Workload:
    #: Distinct batches per run.
    batches: int
    #: ``build(batch_seed, workdir)`` makes a fresh :class:`Batch`.
    build: Callable[[int, str], Batch]


def digest(history, submitted_ids: List[str]) -> str:
    """Digest of a history with instance ids normalised.

    Instance ids come from class-level counters, so they differ between
    repeats of the same batch.  Submitted processes are renamed to
    their submission index; any other id (a restart) to the order in
    which it first appears.
    """
    names: Dict[str, str] = {
        pid: f"p{index}" for index, pid in enumerate(submitted_ids)
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


# ---------------------------------------------------------------------------
# single-scheduler workloads (simulate_run)
# ---------------------------------------------------------------------------


def _sim_outcome(scheduler, metrics, fsyncs: int) -> Outcome:
    statuses = scheduler.statuses()
    committed = sorted(
        pid
        for pid, status in statuses.items()
        if status is ManagedStatus.COMMITTED
    )
    stats = dict(scheduler.stats)
    return Outcome(
        history=scheduler.history(),
        terminated=scheduler.all_terminated(),
        submitted=len(statuses),
        committed_ids=committed,
        latencies=[end for _, end in metrics.process_spans.values()],
        makespan=metrics.makespan,
        counts={
            "dispatches": stats["dispatched"],
            "deferrals": stats["deferred"],
            "fsyncs": fsyncs,
            "commits": len(committed),
        },
        perf=[scheduler.perf_snapshot()],
        stats=stats,
    )


class ContentionBatch(Batch):
    def __init__(self, spec: WorkloadSpec) -> None:
        self.workload = generate_workload(spec)
        self.scheduler = TransactionalProcessScheduler(
            conflicts=self.workload.conflicts
        )
        super().__init__(
            [self.scheduler.submit(p) for p in self.workload.processes]
        )

    def run(self) -> Outcome:
        metrics = simulate_run(self.scheduler, durations=self.workload.duration)
        return _sim_outcome(self.scheduler, metrics, fsyncs=0)


def _ledger_service(name: str) -> ServicePair:
    """A service whose every invocation writes one store row.

    The forward service writes ``+1`` under ``<name>/<txn>``, its
    compensation ``-1`` under ``<name>~inv/<txn>``: keys are unique per
    invocation, so each commit carries a write batch (a real store
    fsync) without lock contention between processes.
    """

    def forward(context) -> object:
        context.write(f"{name}/{context.txn_id}", 1)
        return 1

    def inverse(context) -> object:
        context.write(f"{name}~inv/{context.txn_id}", -1)
        return -1

    return ServicePair(
        forward=Service(name=name, handler=forward),
        compensation=Service(name=f"{name}~inv", handler=inverse),
    )


class DurableBatch(Batch):
    def __init__(self, spec: WorkloadSpec, workdir: str) -> None:
        self.workload = generate_workload(spec)
        self.directory = tempfile.mkdtemp(prefix="durable-", dir=workdir)
        self.hub = BackendHub("sqlite", directory=self.directory)
        self.registry = SubsystemRegistry(backend_factory=self.hub.backend_for)
        subsystem = self.registry.provision("default")
        for index in range(spec.service_pool):
            subsystem.register(_ledger_service(f"svc{index}"))
        self.wal_path = os.path.join(self.directory, "scheduler.wal")
        self.wal = FileWAL(self.wal_path, **DURABLE_WAL_POLICY)
        self.scheduler = TransactionalProcessScheduler(
            registry=self.registry,
            conflicts=self.workload.conflicts,
            wal=self.wal,
        )
        super().__init__(
            [self.scheduler.submit(p) for p in self.workload.processes]
        )

    def run(self) -> Outcome:
        metrics = simulate_run(self.scheduler, durations=self.workload.duration)
        outcome = _sim_outcome(
            self.scheduler, metrics, fsyncs=self.hub.fsyncs + self.wal.fsyncs
        )
        outcome.extra["wal_fsyncs"] = self.wal.fsyncs
        outcome.extra["store_fsyncs"] = self.hub.fsyncs
        outcome.extra["wal_bytes"] = os.path.getsize(self.wal_path)
        return outcome

    def verify(self, outcome: Outcome) -> List[str]:
        """Reopen the WAL and the store in fresh objects and reconcile.

        The log must show no active process and exactly the processes
        the run reported committed.  The store must hold one ledger row
        per activity event of the history, service by service: every
        forward row of a committed process and every compensation row.
        """
        problems: List[str] = []
        self.wal.close()
        self.hub.close()
        wal = FileWAL(self.wal_path)
        try:
            analysis = analyze_wal(wal)
        finally:
            wal.close()
        if analysis.active:
            problems.append(f"WAL shows active processes {analysis.active}")
        if sorted(analysis.committed) != outcome.committed_ids:
            problems.append(
                f"WAL committed {sorted(analysis.committed)} but the run "
                f"reported {outcome.committed_ids}"
            )
        store = SqliteBackend(self.hub.path_for("default"))
        try:
            rows = store.snapshot()
        finally:
            store.close()
        stored: Dict[str, int] = {}
        for key, value in rows.items():
            service = key.split("/", 1)[0]
            expected = -1 if service.endswith("~inv") else 1
            if value != expected:
                problems.append(f"store row {key} holds {value!r}")
            stored[service] = stored.get(service, 0) + 1
        executed: Dict[str, int] = {}
        for event in outcome.history.events:
            if isinstance(event, ActivityEvent):
                executed[event.service] = executed.get(event.service, 0) + 1
        if stored != executed:
            problems.append(
                f"store rows per service {sorted(stored.items())} do not "
                f"match history events {sorted(executed.items())}"
            )
        return problems

    def close(self) -> None:
        self.wal.close()
        self.hub.close()
        shutil.rmtree(self.directory, ignore_errors=True)


# ---------------------------------------------------------------------------
# federated workload (FederationRunner.run)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FederatedSpec:
    shards: int = 4
    service_groups: int = 8
    services_per_group: int = 6
    processes_per_group: int = 2
    cross_shard_fraction: float = 0.5
    fault_rate: float = 0.05
    #: ``(time, shard index, downtime)``.
    kill: Tuple[float, int, float] = (10.0, 1, 3.0)
    #: ``(time, shard a, shard b, duration)``.
    partition: Tuple[float, int, int, float] = (2.0, 0, 1, 2.0)
    seed: int = 0


class FederatedBatch(Batch):
    """Counter services in per-group subsystems, each group owned by one
    shard; half the processes draw services from a second group, so
    their pivots commit through cross-shard 2PC."""

    def __init__(self, spec: FederatedSpec) -> None:
        rng = random.Random(spec.seed)
        shard_of = [f"s{index}" for index in range(spec.shards)]
        group_services: List[List[str]] = []
        owners: Dict[str, str] = {}
        subsystems: List[Subsystem] = []
        for group in range(spec.service_groups):
            services = [
                f"g{group}s{index}" for index in range(spec.services_per_group)
            ]
            group_services.append(services)
            subsystem = Subsystem(f"grp{group}")
            for service in services:
                subsystem.register(counter_service(service, key=service))
                owners[service] = shard_of[group % spec.shards]
            subsystems.append(subsystem)
        shape = WorkloadSpec(
            processes=1,
            prefix_range=(1, 2),
            suffix_range=(1, 2),
            alternative_probability=0.25,
            max_depth=1,
            seed=spec.seed,
        )
        network = FederationNetwork(
            MessageFaultPolicy(
                drop_rate=spec.fault_rate,
                delay_rate=spec.fault_rate,
                duplicate_rate=spec.fault_rate,
                seed=spec.seed,
            )
        )
        self.federation = Federation(
            ShardRouter(owners),
            subsystems,
            network=network,
            conflicts=ExplicitConflicts(),
            clock=VirtualClock(),
        )
        durations = {
            service: round(0.5 + rng.random(), 3)
            for services in group_services
            for service in services
        }
        submitted = []
        for group in range(spec.service_groups):
            for index in range(spec.processes_per_group):
                pool = list(group_services[group])
                if rng.random() < spec.cross_shard_fraction:
                    other = rng.randrange(spec.service_groups - 1)
                    if other >= group:
                        other += 1
                    pool += group_services[other]
                process = generate_process(
                    rng, shape, f"P{group}-{index}", pool
                )
                submitted.append(self.federation.submit(process)[1])
        at, shard, downtime = spec.kill
        self.recovered_at = at + downtime
        start, a, b, duration = spec.partition
        self.runner = FederationRunner(
            self.federation,
            durations=lambda service: durations[service.split("~", 1)[0]],
            kills=[(at, shard_of[shard], downtime)],
            partitions=[(start, shard_of[a], shard_of[b], duration)],
        )
        super().__init__(submitted)

    def run(self) -> Outcome:
        metrics = self.runner.run()
        federation = self.federation
        schedulers = [shard.scheduler for shard in federation.shards.values()]
        stats: Dict[str, int] = {}
        for scheduler in schedulers:
            for key, value in scheduler.stats.items():
                stats[key] = stats.get(key, 0) + value
        # Shard WALs also see processes terminated inside shard recovery;
        # those never pass through the runner's event flow, so they have
        # no span, and their outcome time is the recovery instant.
        analyses = [
            analyze_wal(shard.wal) for shard in federation.shards.values()
        ]
        committed = sorted(set().union(*(a.committed for a in analyses)))
        terminated = set(committed).union(*(a.aborted for a in analyses))
        latencies = [end for _, end in metrics.process_spans.values()]
        latencies += [self.recovered_at] * len(
            terminated - set(metrics.process_spans)
        )
        counters = federation.counters()
        outcome = Outcome(
            history=federation.merged_history(),
            terminated=federation.all_terminated(),
            submitted=len(self.submitted_ids),
            committed_ids=committed,
            latencies=latencies,
            makespan=metrics.makespan,
            counts={
                "dispatches": metrics.dispatched,
                "deferrals": metrics.fed_deferrals + stats["deferred"],
                "fsyncs": 0,
                "commits": metrics.committed,
            },
            perf=[scheduler.perf_snapshot() for scheduler in schedulers],
            stats=stats,
            extra={
                "fed_deferrals": metrics.fed_deferrals,
                "posts_delivered": counters["posts_delivered"],
                "faults_injected": sum(
                    value
                    for key, value in counters.items()
                    if key.startswith("fault_")
                ),
            },
        )
        self.counters = counters
        return outcome

    def verify(self, outcome: Outcome) -> List[str]:
        """The scheduled shard kill and its recovery both happened."""
        kills = (self.counters["kills"], self.counters["recoveries"])
        return [] if kills == (1, 1) else [f"kills, recoveries = {kills}"]

    def certify(self, outcome: Outcome) -> List[str]:
        problems = super().certify(outcome)
        audit = self.federation.validate()
        if not audit.clean:
            problems.append(
                f"federation audit: lost={audit.lost_decisions} "
                f"dup={audit.dup_applications} "
                f"residue={audit.in_doubt_residue} "
                f"lost_processes={audit.lost_processes}"
            )
        return problems


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


def _contention(seed: int, workdir: str) -> Batch:
    return ContentionBatch(
        WorkloadSpec(
            processes=12, conflict_rate=0.1, failure_rate=0.0, seed=seed
        )
    )


def _durable(seed: int, workdir: str) -> Batch:
    return DurableBatch(
        WorkloadSpec(
            processes=6, conflict_rate=0.0, service_pool=60, seed=seed
        ),
        workdir,
    )


def _federated(seed: int, workdir: str) -> Batch:
    return FederatedBatch(FederatedSpec(seed=seed))


#: Batch counts are set so that the pooled figures of one run vary by
#: well under a tenth between seeds, while certifying every distinct
#: history stays near ten seconds.
WORKLOADS: Dict[str, Workload] = {
    "contention": Workload(batches=144, build=_contention),
    "durable": Workload(batches=64, build=_durable),
    "federated": Workload(batches=64, build=_federated),
}

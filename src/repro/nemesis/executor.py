"""The federated harness: one certified federated run under one plan.

Builds an N-shard federation from a :class:`FederationSpec` — one
subsystem of counter services per service group, a service-ownership
router, seeded processes that are either shard-local or deliberately
cross-shard — and runs it under the discrete-event
:class:`~repro.fed.runner.FederationRunner`.  Faults come from two
sources that compose: the spec's flat message rates and its kill and
partition rows, and a :class:`~repro.nemesis.plan.FaultPlan` driving
all five injector families.  An online invariant registry is
evaluated *during* the run through the runner's per-round hook; a
violation halts the run at the offending round, pinned to its earliest
offending event.  A run that finishes ends with the offline PRED
certification plus the 2PC decision audit, folded into the result as
a synthetic ``certification`` violation when dirty (so the search
layer has exactly one signal to minimize).

Entry points:

* :func:`run_plan` — one seeded federated run;
* :func:`scaling_sweep` — same total work over 1..N shards on a
  service-disjoint fleet (the near-linear-scaling experiment);
* :func:`kill_sweep` — every shard killed and recovered mid-run while
  drop/delay/duplicate/partition faults hit the inter-shard links.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.conflict import ExplicitConflicts
from repro.errors import CorrectnessViolation, ReproError
from repro.fed.federation import Federation, FederationAudit
from repro.fed.messages import FederationNetwork
from repro.fed.router import ShardRouter
from repro.fed.runner import FederationRunMetrics, FederationRunner
from repro.nemesis.adapters import (
    PlannedMessageFaults,
    PlannedSubsystemFaults,
    disk_arming,
    kill_schedule,
    partition_schedule,
    wal_crash_triggers,
)
from repro.nemesis.coverage import CoverageReport
from repro.nemesis.invariants import (
    Invariant,
    InvariantViolation,
    default_invariants,
)
from repro.nemesis.plan import FaultPlan
from repro.obs.bus import tracing
from repro.sim.certify import Certification, certify_history, ensure_certified
from repro.sim.clock import VirtualClock
from repro.sim.workload import WorkloadSpec, generate_process
from repro.subsystems.backend import BACKEND_KINDS, BackendHub
from repro.subsystems.failures import DiskFaultPolicy, FailurePolicy
from repro.subsystems.services import counter_service
from repro.subsystems.subsystem import Subsystem

__all__ = [
    "FederationSpec",
    "NEMESIS",
    "FederationResult",
    "build_federation",
    "run_plan",
    "scaling_sweep",
    "kill_sweep",
]

#: Shape of every generated process (structure DSL knobs).
PROCESS_SHAPE = WorkloadSpec(
    processes=1,
    prefix_range=(1, 2),
    suffix_range=(1, 2),
    alternative_probability=0.25,
    max_depth=1,
)

#: Evaluate expensive invariants every N runner rounds.
CHECK_EVERY = 8


@dataclass(frozen=True)
class FederationSpec:
    """The federated system a run drives: fleet, workload and faults."""

    #: Number of scheduler shards.
    shards: int = 2
    #: Service groups (one subsystem each); each group is owned by one
    #: shard (``group % shards``).  Keeping the group count fixed while
    #: varying ``shards`` keeps the *work* identical across a sweep.
    service_groups: int = 8
    #: Distinct services per group.
    services_per_group: int = 3
    #: Processes homed per group.
    processes_per_group: int = 2
    #: Fraction of processes whose service pool spans two groups —
    #: their footprint crosses shards, so their prepared groups commit
    #: through the cross-shard 2PC.
    cross_shard_fraction: float = 0.0
    #: Give every process a *private* slice of its group's services
    #: (``services_per_group`` each) so nothing conflicts unless the
    #: explicit ``conflict_rate`` says so — the service-disjoint fleet
    #: used by the scaling experiment.
    disjoint_processes: bool = False
    #: Probability that two distinct services conflict (explicit).
    conflict_rate: float = 0.0
    #: Concurrent-activity capacity per shard (fixed across sweeps).
    shard_capacity: int = 4
    #: Base message fault rates on inter-shard links, outside every
    #: plan window.
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    duplicate_rate: float = 0.0
    #: ``(time, shard_index, downtime)`` kill schedule.
    kills: Tuple[Tuple[float, int, float], ...] = ()
    #: ``(time, shard_a_index, shard_b_index, duration)`` partitions.
    partitions: Tuple[Tuple[float, int, int, float], ...] = ()
    #: Store backend behind every subsystem; ``sqlite``/``procpool``
    #: make the disk and kill families physically real.
    backend: str = "memory"
    #: Virtual-time horizon random plans spread their triggers over.
    horizon: float = 24.0
    #: Workload and base-rate seed (a plan carries its own fault seed).
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.service_groups < self.shards:
            raise ValueError("need at least one service group per shard")
        if not 0.0 <= self.cross_shard_fraction <= 1.0:
            raise ValueError("cross_shard_fraction must be in [0, 1]")
        if self.backend not in BACKEND_KINDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{', '.join(BACKEND_KINDS)}"
            )

    def with_seed(self, seed: int) -> "FederationSpec":
        return replace(self, seed=seed)

    def shard_names(self) -> List[str]:
        return [f"s{index}" for index in range(self.shards)]

    def group_services(self, group: int) -> List[str]:
        per_group = self.services_per_group * (
            self.processes_per_group if self.disjoint_processes else 1
        )
        return [f"g{group}s{index}" for index in range(per_group)]

    def service_names(self) -> List[str]:
        return [
            service
            for group in range(self.service_groups)
            for service in self.group_services(group)
        ]

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FederationSpec":
        """Inverse of :meth:`to_dict`.

        Keys the spec does not know are ignored: bundles written while
        the process shape, in-doubt timeout, delay span, check interval
        and consecutive-fault cap were spec fields still load, and
        those values are the constants the harness uses now.
        """
        known = {spec_field.name for spec_field in fields(cls)}
        data = {key: value for key, value in payload.items() if key in known}
        for key in ("kills", "partitions"):
            if key in data:
                data[key] = tuple(tuple(row) for row in data[key])
        return cls(**data)


#: The system nemesis campaigns drive plans against by default: four
#: groups of two services, a quarter of the processes cross-shard.
NEMESIS = FederationSpec(
    service_groups=4,
    services_per_group=2,
    cross_shard_fraction=0.25,
    conflict_rate=0.05,
)


@dataclass
class FederationResult:
    """Everything one federated run produced, flattened for reports."""

    spec: FederationSpec
    plan: FaultPlan
    #: The first invariant breach (online or synthesized from a failed
    #: end-of-run certification); ``None`` for a clean run.
    violation: Optional[InvariantViolation]
    #: Offline verdict; ``None`` when the run stopped mid-flight or its
    #: history could not be replayed.
    certification: Optional[Certification]
    audit_clean: bool
    coverage: CoverageReport
    #: ``None`` when the run stopped mid-flight.
    metrics: Optional[FederationRunMetrics]
    #: True when an online invariant or the run machinery stopped the
    #: run early.
    halted: bool = False
    rounds: int = 0
    lost_decisions: List[str] = field(default_factory=list)
    dup_applications: List[str] = field(default_factory=list)
    in_doubt_residue: List[str] = field(default_factory=list)
    lost_processes: List[str] = field(default_factory=list)
    groups_checked: int = 0
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return self.violation is None

    @property
    def certified(self) -> bool:
        return (
            self.certification is not None
            and self.certification.certified
            and self.audit_clean
        )

    @property
    def throughput(self) -> float:
        return self.metrics.throughput

    def row(self) -> Dict[str, object]:
        """The table row of a run that finished (``certification`` set)."""
        return {
            "shards": self.spec.shards,
            "seed": self.spec.seed,
            "cross_shard_fraction": self.spec.cross_shard_fraction,
            "conflict_rate": self.spec.conflict_rate,
            "committed": self.metrics.committed,
            "aborted": self.metrics.aborted,
            "makespan": round(self.metrics.makespan, 3),
            "throughput": round(self.throughput, 4),
            "fed_deferrals": self.metrics.fed_deferrals,
            "cross_victims": self.metrics.cross_victims,
            "certified": self.certified,
            "pred": self.certification.pred,
            "reducible": self.certification.reducible,
            "terminated": self.certification.terminated,
            "groups_checked": self.groups_checked,
            "lost_decisions": len(self.lost_decisions),
            "dup_applications": len(self.dup_applications),
            "in_doubt_residue": len(self.in_doubt_residue),
            "lost_processes": len(self.lost_processes),
            **{f"net_{key}": value for key, value in self.counters.items()},
        }


class _NemesisHalt(Exception):
    """Internal control flow: an online invariant fired; stop the run."""


class _Monitor:
    """Per-round observer: state-driven fault arming + invariant checks.

    Doubles as the ``view`` the invariants consult (live federation,
    cached merged history, fault-delivery counts).
    """

    def __init__(
        self,
        spec: FederationSpec,
        federation: Federation,
        runner: FederationRunner,
        sub_faults: PlannedSubsystemFaults,
        msg_faults: PlannedMessageFaults,
        disk_faults: DiskFaultPolicy,
        hub: Optional[BackendHub],
        plan: FaultPlan,
        invariants: List[Invariant],
        kills: List[Tuple[float, str, float]],
        partitions: List[Tuple[float, str, str, float]],
    ) -> None:
        self.spec = spec
        self.federation = federation
        self.runner = runner
        self.sub_faults = sub_faults
        self.msg_faults = msg_faults
        self.disk_faults = disk_faults
        self.hub = hub
        self.invariants = invariants
        self.now = 0.0
        self.rounds = 0
        self.violation: Optional[InvariantViolation] = None
        self._disk_pending = sorted(disk_arming(plan))
        self._wal_triggers = wal_crash_triggers(plan, spec.shard_names())
        self._kill_windows = [(at, at + downtime) for at, _, downtime in kills]
        self._partition_windows = [
            (at, at + duration) for at, _, _, duration in partitions
        ]
        self._wal_fired: Set[int] = set()
        self.walcrash_kills = 0
        self.trace = federation.trace
        self._alive = {
            shard_id: True for shard_id in federation.shards
        }
        self._history_cache: Tuple[int, object] = (-1, None)

    # -- the view the invariants consult -------------------------------

    def history(self):
        stamp = sum(
            shard.scheduler.timeline_length() if shard.alive else 0
            for shard in self.federation.shards.values()
        ) + self.rounds
        cached_key, cached = self._history_cache
        if cached_key == stamp and cached is not None:
            return cached
        merged = self.federation.merged_history()
        self._history_cache = (stamp, merged)
        return merged

    def family_deliveries(self) -> Dict[str, int]:
        total_kills = sum(
            shard.kills for shard in self.federation.shards.values()
        )
        return {
            "subsystem": self.sub_faults.total_injected,
            "message": sum(self.msg_faults.injected.values()),
            "disk": self.disk_faults.total_delivered,
            "kill": max(0, total_kills - self.walcrash_kills),
            "walcrash": self.walcrash_kills,
        }

    # -- per-round hook -------------------------------------------------

    def on_round(self, now: float) -> None:
        self.now = now
        self.rounds += 1
        while self._disk_pending and self._disk_pending[0][0] <= now:
            _, count = self._disk_pending.pop(0)
            self.disk_faults.fail_fsync += count
        self._fire_wal_crashes(now)
        self._mirror_physical_kills()
        for invariant in self.invariants:
            if invariant.expensive and self.rounds % CHECK_EVERY:
                continue
            violation = invariant.check(self)
            if violation is not None:
                self.violation = violation
                bus = tracing(self.trace)
                if bus is not None:
                    bus.emit(
                        "nemesis_invariant",
                        invariant=violation.invariant,
                        detail=violation.detail,
                        online=True,
                    )
                raise _NemesisHalt()

    def _wal_crash_safe(self, now: float, downtime: float) -> bool:
        """May a WAL-threshold crash-stop fire at ``now``?

        The outage ``[now, now + downtime]`` must not overlap a planned
        kill window (kill and recovery alike need the other shards up),
        and the recovery instant must not fall inside a partition
        window — the synchronous recovery drain retries cross-shard
        work in frozen virtual time, so an unreachable peer at that
        instant would never become reachable.  An unsafe round simply
        defers the trigger: the WAL-length condition stays true, so the
        crash fires at the next safe round.
        """
        margin = 0.01
        recovery = now + downtime
        for start, end in self._kill_windows:
            if start <= recovery + margin and end >= now - margin:
                return False
        for start, end in self._partition_windows:
            if start - margin <= recovery <= end + margin:
                return False
        return True

    def _fire_wal_crashes(self, now: float) -> None:
        for index, (shard_id, lsn, downtime) in enumerate(
            self._wal_triggers
        ):
            if index in self._wal_fired:
                continue
            if not all(
                shard.alive for shard in self.federation.shards.values()
            ):
                # Some shard is mid-outage: firing now would overlap
                # outages, and its recovery drain needs every peer up.
                return
            shard = self.federation.shards[shard_id]
            if len(shard.wal.records()) < lsn:
                continue
            if not self._wal_crash_safe(now, downtime):
                continue
            self._wal_fired.add(index)
            self.walcrash_kills += 1
            bus = tracing(self.trace)
            if bus is not None:
                bus.emit(
                    "nemesis_action",
                    family="walcrash",
                    shard=shard_id,
                    lsn=lsn,
                    downtime=downtime,
                )
            self.runner._kill_event(shard_id)()
            self.runner.queue.schedule_at(
                now + downtime, self.runner._recover_event(shard_id)
            )
            return  # one crash per round; the shard is now down

    def _mirror_physical_kills(self) -> None:
        """Under the procpool backend a shard kill also SIGKILLs the
        store worker — the crash is an OS fact, not bookkeeping; the
        next store call probes and respawns the pool against the
        surviving on-disk state."""
        for shard_id, shard in self.federation.shards.items():
            was_alive = self._alive[shard_id]
            self._alive[shard_id] = shard.alive
            if (
                was_alive
                and not shard.alive
                and self.hub is not None
                and self.spec.backend == "procpool"
            ):
                self.hub.host.kill()

    def finalize(self) -> Optional[InvariantViolation]:
        """End-of-run pass: every invariant's ``final`` check."""
        for invariant in self.invariants:
            violation = invariant.final(self)
            if violation is not None:
                self.violation = violation
                bus = tracing(self.trace)
                if bus is not None:
                    bus.emit(
                        "nemesis_invariant",
                        invariant=violation.invariant,
                        detail=violation.detail,
                        online=False,
                    )
                return violation
        return None


def build_federation(
    spec: FederationSpec,
    clock: VirtualClock,
    network: FederationNetwork,
    trace: Optional[object] = None,
    backend_for: Optional[Callable[[str], object]] = None,
    failures: Optional[FailurePolicy] = None,
) -> Federation:
    """The seeded federated fleet of ``spec``.

    Group ``g`` is one subsystem ``grp<g>`` of counter services owned
    by shard ``s<g % shards>``; every process draws its services from
    its home group, and a ``cross_shard_fraction`` of them also from a
    second group.  With ``disjoint_processes`` each process gets a
    private slice of its group's services.  ``backend_for(name)`` backs
    each subsystem's store and ``failures`` is threaded to every
    process.

    The RNG draw order (conflict pairs, then per process the
    cross-shard draw and the process shape) is part of the contract:
    benchmarks, CI seeds and saved nemesis bundles replay against it.
    """
    rng = random.Random(spec.seed)
    group_services: List[List[str]] = []
    owners: Dict[str, str] = {}
    subsystems: List[Subsystem] = []
    shard_names = spec.shard_names()
    for group in range(spec.service_groups):
        shard = shard_names[group % spec.shards]
        services = spec.group_services(group)
        group_services.append(services)
        name = f"grp{group}"
        subsystem = Subsystem(
            name, backend=backend_for(name) if backend_for else None
        )
        for service in services:
            subsystem.register(counter_service(service, key=service))
            owners[service] = shard
        subsystems.append(subsystem)

    all_services = [svc for services in group_services for svc in services]
    pairs = []
    for i, left in enumerate(all_services):
        for right in all_services[i + 1:]:
            if spec.conflict_rate and rng.random() < spec.conflict_rate:
                pairs.append((left, right))
    federation = Federation(
        ShardRouter(owners),
        subsystems,
        network=network,
        conflicts=ExplicitConflicts(pairs),
        clock=clock,
        trace=trace,
    )

    for group in range(spec.service_groups):
        for index in range(spec.processes_per_group):
            if spec.disjoint_processes:
                start = index * spec.services_per_group
                pool = group_services[group][
                    start:start + spec.services_per_group
                ]
            else:
                pool = list(group_services[group])
            if (
                spec.service_groups > 1
                and rng.random() < spec.cross_shard_fraction
            ):
                other = rng.randrange(spec.service_groups - 1)
                if other >= group:
                    other += 1
                pool += group_services[other]
            process = generate_process(
                rng, PROCESS_SHAPE, f"P{group}-{index}", pool
            )
            federation.submit(process, failures=failures)
    return federation


def _build(
    spec: FederationSpec,
    plan: FaultPlan,
    invariants: List[Invariant],
    trace=None,
    hub: Optional[BackendHub] = None,
):
    clock = VirtualClock()
    msg_faults = PlannedMessageFaults(
        plan,
        clock,
        drop_rate=spec.drop_rate,
        delay_rate=spec.delay_rate,
        duplicate_rate=spec.duplicate_rate,
        seed=spec.seed,
    )
    sub_faults = PlannedSubsystemFaults(plan, clock)
    federation = build_federation(
        spec,
        clock,
        FederationNetwork(msg_faults),
        trace=trace,
        backend_for=hub.backend_for if hub is not None else None,
        failures=sub_faults,
    )

    # Spec rows go to the runner as given; plan rows are sanitized.
    names = spec.shard_names()
    kills = [
        (time, names[index % spec.shards], downtime)
        for time, index, downtime in spec.kills
    ] + kill_schedule(plan, names)
    # Plan partitions must not span a recovery instant: the synchronous
    # recovery drain needs every peer link up (see partition_schedule).
    partitions = [
        (time, names[a % spec.shards], names[b % spec.shards], duration)
        for time, a, b, duration in spec.partitions
        if a % spec.shards != b % spec.shards
    ] + partition_schedule(
        plan, names, avoid=[at + downtime for at, _, downtime in kills]
    )
    runner = FederationRunner(
        federation,
        capacity=spec.shard_capacity,
        kills=kills,
        partitions=partitions,
    )
    monitor = _Monitor(
        spec,
        federation,
        runner,
        sub_faults,
        msg_faults,
        hub.faults if hub is not None else DiskFaultPolicy(),
        hub,
        plan,
        invariants,
        kills,
        partitions,
    )
    runner.on_round = monitor.on_round
    return federation, runner, monitor


def _collect_coverage(monitor: _Monitor) -> CoverageReport:
    report = CoverageReport()
    for kind, amount in monitor.sub_faults.injected.items():
        report.record("subsystem", kind, amount)
    for kind, amount in monitor.msg_faults.injected.items():
        report.record("message", kind, amount)
    report.record("disk", "fsync", monitor.disk_faults.delivered["fsync"])
    deliveries = monitor.family_deliveries()
    report.record("kill", "kill", deliveries["kill"])
    report.record("walcrash", "wal_crash", deliveries["walcrash"])
    return report


def _ensure_clean(result: FederationResult) -> None:
    """Raise a typed :class:`CorrectnessViolation` for a violating run."""
    spec = result.spec
    harness = f"federation:shards={spec.shards}"
    details = {
        "shards": spec.shards,
        "lost_decisions": list(result.lost_decisions),
        "dup_applications": list(result.dup_applications),
        "in_doubt_residue": list(result.in_doubt_residue),
        "lost_processes": list(result.lost_processes),
    }
    if result.certification is not None:
        ensure_certified(
            result.certification,
            harness=harness,
            seed=spec.seed,
            clean=result.audit_clean,
            detail=(
                f"lost={result.lost_decisions} "
                f"dup={result.dup_applications} "
                f"residue={result.in_doubt_residue} "
                f"lost_processes={result.lost_processes}"
            ),
            details=details,
        )
    if result.violation is not None:
        raise CorrectnessViolation(
            f"{harness} run (seed {spec.seed}) failed: "
            f"{result.violation.describe()}",
            harness=harness,
            seed=spec.seed,
            details=details,
        )


def run_plan(
    spec: FederationSpec,
    plan: FaultPlan = FaultPlan(),
    invariants: Optional[List[Invariant]] = None,
    trace=None,
    metrics_registry=None,
    strict: bool = False,
) -> FederationResult:
    """Run one plan against one federated system spec.

    The result's ``violation`` is the single signal the search and
    shrink layers consume: an online invariant breach (run halted at
    the offending round), the run machinery giving up, or, for runs
    that finished, a synthetic ``certification`` violation when the
    offline checkers or the 2PC decision audit come back dirty.
    ``invariants=None`` arms the default registry; ``[]`` arms none.
    With ``strict`` a violation raises :class:`CorrectnessViolation`
    instead of being returned.
    """
    registry = (
        list(invariants) if invariants is not None else default_invariants()
    )
    hub = (
        BackendHub(spec.backend, faults=DiskFaultPolicy())
        if spec.backend != "memory"
        else None
    )
    certification: Optional[Certification] = None
    audit = FederationAudit()
    audit_clean = True
    metrics: Optional[FederationRunMetrics] = None
    halted = False
    bus = tracing(trace)
    if bus is not None:
        # Before the build: the fleet's submissions belong to this run,
        # and a live console resets its view at ``run_begin``.
        bus.emit(
            "run_begin",
            harness="nemesis",
            seed=spec.seed,
            plan_seed=plan.seed,
            actions=len(plan),
            backend=spec.backend,
        )
    try:
        federation, runner, monitor = _build(
            spec, plan, registry, trace=trace, hub=hub
        )
        try:
            metrics = runner.run()
        except _NemesisHalt:
            halted = True
        except ReproError as error:
            # The run machinery gave up (a stall, no convergence): a
            # reportable finding, never a harness crash.
            halted = True
            monitor.violation = InvariantViolation(
                invariant="runner",
                event_index=len(monitor.history()),
                time=monitor.now,
                detail=f"run stopped: {error}",
            )
        if not halted:
            history = federation.merged_history()
            try:
                certification = certify_history(
                    history, federation.all_terminated()
                )
                audit = federation.validate()
                audit_clean = audit.clean
            except ReproError as error:
                # The offline checkers could not even replay the
                # history (e.g. a vetoed cross-shard alternative after
                # partial F-REC compensation leaves no failed-attempt
                # event for the replayer to explain).  A history the
                # certifier cannot explain is a reportable finding,
                # never a harness crash.
                certification = None
                audit_clean = False
                monitor.violation = InvariantViolation(
                    invariant="certification",
                    event_index=len(history),
                    time=monitor.now,
                    detail=f"history not certifiable: {error}",
                )
            if monitor.violation is None:
                monitor.finalize()
            if (
                monitor.violation is None
                and certification is not None
                and not (certification.certified and audit_clean)
            ):
                monitor.violation = InvariantViolation(
                    invariant="certification",
                    event_index=len(history),
                    time=monitor.now,
                    detail=(
                        f"{certification.describe()} audit_clean="
                        f"{audit_clean}"
                    ),
                )
        violation = monitor.violation
        coverage = _collect_coverage(monitor)
        counters = federation.counters()
        if bus is not None:
            bus.emit(
                "run_end",
                harness="nemesis",
                seed=spec.seed,
                plan_seed=plan.seed,
                halted=halted,
                violation=(
                    violation.describe() if violation is not None else ""
                ),
                coverage=round(coverage.percent, 2),
            )
    finally:
        if hub is not None:
            hub.close()
    if metrics_registry is not None:
        coverage.publish(metrics_registry)
        metrics_registry.counter("nemesis_plans_run").inc()
        if violation is not None:
            metrics_registry.counter("nemesis_violations_found").inc()
    result = FederationResult(
        spec=spec,
        plan=plan,
        violation=violation,
        certification=certification,
        audit_clean=audit_clean,
        coverage=coverage,
        metrics=metrics,
        halted=halted,
        rounds=monitor.rounds,
        lost_decisions=list(audit.lost_decisions),
        dup_applications=list(audit.dup_applications),
        in_doubt_residue=list(audit.in_doubt_residue),
        lost_processes=list(audit.lost_processes),
        groups_checked=audit.groups_checked,
        counters=counters,
    )
    if strict:
        _ensure_clean(result)
    return result


def scaling_sweep(
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    seeds: Sequence[int] = (0,),
    trace: Optional[object] = None,
) -> List[FederationResult]:
    """Same total work on service-disjoint fleets of 1..N shards.

    The group count, per-group work and per-shard capacity are fixed;
    only the shard count varies — aggregate throughput should scale
    near-linearly because disjoint footprints exchange zero messages.
    Every run must certify and audit clean.
    """
    base = FederationSpec(
        service_groups=max(shard_counts),
        processes_per_group=4,
        shard_capacity=2,
        disjoint_processes=True,
    )
    return [
        run_plan(
            replace(base, shards=shards, seed=seed),
            invariants=[],
            trace=trace,
            strict=True,
        )
        for shards in shard_counts
        for seed in seeds
    ]


def kill_sweep(seeds: Sequence[int] = (0, 1, 2)) -> List[FederationResult]:
    """Chaos mode: every shard dies once, all four fault kinds injected.

    Each seeded run kills and recovers each shard in turn (staggered so
    the federation is never fully dark), runs message faults on every
    link, and partitions a shard pair mid-run.  Every run must certify
    and audit clean — zero lost, zero doubly-applied commit decisions.
    """
    base = FederationSpec(
        shards=3,
        service_groups=6,
        processes_per_group=2,
        cross_shard_fraction=0.35,
        conflict_rate=0.05,
        drop_rate=0.15,
        delay_rate=0.15,
        duplicate_rate=0.15,
    )
    kills = tuple(
        (4.0 + 8.0 * index, index, 4.0) for index in range(base.shards)
    )
    configured = replace(
        base, kills=kills, partitions=((2.0, 0, 1, 2.0),)
    )
    return [
        run_plan(configured.with_seed(seed), invariants=[], strict=True)
        for seed in seeds
    ]

"""Execute one fault plan against a full federated system.

This is the nemesis counterpart of
:func:`repro.sim.federation.run_federation`: the same deterministic
build (seeded workload, per-group subsystems, service-ownership
router, discrete-event federation runner), but with every injector
family driven by one :class:`~repro.nemesis.plan.FaultPlan` and an
online invariant registry evaluated *during* the run through the
runner's per-round hook.  A violation halts the run at the offending
round, pinned to its earliest offending event; a clean run ends with
the usual offline certification plus the 2PC decision audit, folded
into the result as a synthetic ``certification`` violation when dirty
(so the search layer has exactly one signal to minimize).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import ReproError
from repro.fed.federation import Federation
from repro.fed.messages import FederationNetwork
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
from repro.sim.certify import Certification, certify_history
from repro.sim.clock import VirtualClock
from repro.sim.federation import build_federation
from repro.subsystems.backend import BACKEND_KINDS, BackendHub
from repro.subsystems.failures import DiskFaultPolicy

__all__ = ["NemesisSpec", "NemesisRunResult", "run_plan"]


@dataclass(frozen=True)
class NemesisSpec:
    """The system-under-test a nemesis run drives a plan against."""

    shards: int = 2
    service_groups: int = 4
    services_per_group: int = 2
    processes_per_group: int = 2
    cross_shard_fraction: float = 0.25
    conflict_rate: float = 0.05
    shard_capacity: int = 4
    indoubt_timeout: float = 5.0
    prefix_range: Tuple[int, int] = (1, 2)
    suffix_range: Tuple[int, int] = (1, 2)
    alternative_probability: float = 0.25
    #: Store backend behind every subsystem; ``sqlite``/``procpool``
    #: make the disk and kill families physically real.
    backend: str = "memory"
    #: Workload seed (the plan carries the *fault* seed separately).
    seed: int = 0
    #: Evaluate expensive invariants every N runner rounds.
    check_every: int = 8
    #: Virtual-time horizon random plans spread their triggers over.
    horizon: float = 24.0
    #: Per-service cap on consecutive planned subsystem faults.
    max_consecutive: int = 4

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.service_groups < self.shards:
            raise ValueError("need at least one service group per shard")
        if self.backend not in BACKEND_KINDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{', '.join(BACKEND_KINDS)}"
            )

    def shard_names(self) -> List[str]:
        return [f"s{index}" for index in range(self.shards)]

    def service_names(self) -> List[str]:
        return [
            f"g{group}s{index}"
            for group in range(self.service_groups)
            for index in range(self.services_per_group)
        ]

    def with_seed(self, seed: int) -> "NemesisSpec":
        return replace(self, seed=seed)

    def to_dict(self) -> Dict[str, object]:
        return {
            "shards": self.shards,
            "service_groups": self.service_groups,
            "services_per_group": self.services_per_group,
            "processes_per_group": self.processes_per_group,
            "cross_shard_fraction": self.cross_shard_fraction,
            "conflict_rate": self.conflict_rate,
            "shard_capacity": self.shard_capacity,
            "indoubt_timeout": self.indoubt_timeout,
            "prefix_range": list(self.prefix_range),
            "suffix_range": list(self.suffix_range),
            "alternative_probability": self.alternative_probability,
            "backend": self.backend,
            "seed": self.seed,
            "check_every": self.check_every,
            "horizon": self.horizon,
            "max_consecutive": self.max_consecutive,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "NemesisSpec":
        data = dict(payload)
        for key in ("prefix_range", "suffix_range"):
            if key in data:
                data[key] = tuple(data[key])
        known = {name for name in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in known})


@dataclass
class NemesisRunResult:
    """Everything one plan execution produced."""

    spec: NemesisSpec
    plan: FaultPlan
    #: The first invariant breach (online or synthesized from a failed
    #: end-of-run certification); ``None`` for a clean run.
    violation: Optional[InvariantViolation]
    #: Offline verdict; ``None`` when the run halted mid-flight.
    certification: Optional[Certification]
    audit_clean: bool
    coverage: CoverageReport
    metrics: Optional[FederationRunMetrics]
    #: True when an online invariant stopped the run early.
    halted: bool = False
    rounds: int = 0

    @property
    def clean(self) -> bool:
        return self.violation is None


class _NemesisHalt(Exception):
    """Internal control flow: an online invariant fired; stop the run."""


class _Monitor:
    """Per-round observer: state-driven fault arming + invariant checks.

    Doubles as the ``view`` the invariants consult (live federation,
    cached merged history, fault-delivery counts).
    """

    def __init__(
        self,
        spec: NemesisSpec,
        federation: Federation,
        runner: FederationRunner,
        sub_faults: PlannedSubsystemFaults,
        msg_faults: PlannedMessageFaults,
        disk_faults: DiskFaultPolicy,
        hub: Optional[BackendHub],
        plan: FaultPlan,
        invariants: List[Invariant],
        kills: List[Tuple[float, str, float]] = (),
        partitions: List[Tuple[float, str, str, float]] = (),
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
            if invariant.expensive and self.rounds % self.spec.check_every:
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


def _build(
    spec: NemesisSpec,
    plan: FaultPlan,
    invariants: List[Invariant],
    trace=None,
    hub: Optional[BackendHub] = None,
):
    clock = VirtualClock()
    msg_faults = PlannedMessageFaults(plan, clock)
    sub_faults = PlannedSubsystemFaults(
        plan, clock, max_consecutive=spec.max_consecutive
    )
    federation = build_federation(
        spec,
        clock,
        FederationNetwork(msg_faults),
        trace=trace,
        backend_for=hub.backend_for if hub is not None else None,
        failures=sub_faults,
    )

    shard_names = spec.shard_names()
    kills = kill_schedule(plan, shard_names)
    # Partitions must not span a recovery instant: the synchronous
    # recovery drain needs every peer link up (see partition_schedule).
    recovery_instants = [at + downtime for at, _, downtime in kills]
    partitions = partition_schedule(
        plan, shard_names, avoid=recovery_instants
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
        kills=kills,
        partitions=partitions,
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


def run_plan(
    spec: NemesisSpec,
    plan: FaultPlan,
    invariants: Optional[List[Invariant]] = None,
    trace=None,
    metrics_registry=None,
) -> NemesisRunResult:
    """Run one plan against one system spec; never raises on violation.

    The result's ``violation`` is the single signal the search and
    shrink layers consume: an online invariant breach (run halted at
    the offending round) or, for runs that finished, a synthetic
    ``certification`` violation when the offline checkers or the 2PC
    decision audit come back dirty.
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
    audit_clean = True
    metrics: Optional[FederationRunMetrics] = None
    halted = False
    try:
        federation, runner, monitor = _build(
            spec, plan, registry, trace=trace, hub=hub
        )
        bus = tracing(trace)
        if bus is not None:
            bus.emit(
                "run_begin",
                harness="nemesis",
                seed=spec.seed,
                plan_seed=plan.seed,
                actions=len(plan),
                backend=spec.backend,
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
        rounds = monitor.rounds
        bus = tracing(trace)
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
    return NemesisRunResult(
        spec=spec,
        plan=plan,
        violation=violation,
        certification=certification,
        audit_clean=audit_clean,
        coverage=coverage,
        metrics=metrics,
        halted=halted,
        rounds=rounds,
    )

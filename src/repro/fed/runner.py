"""Discrete-event driver for a scheduler federation.

One virtual clock, one event queue, N shards, and one execution
:class:`~repro.sim.runner.Lane` per shard — the same lane the
single-scheduler runner drives.  Each round the runner pumps the
message layer (edge-exchange delivery, decision resends, the
termination protocol), then offers every live shard's runnable
processes a dispatch chance subject to four gates:

* the lane's **strong-order gate**: a conflicting activity may not
  start while a conflicting one is in flight on the same shard;
* the **capacity gate**: at most ``capacity`` concurrently executing
  activities per shard — keeping per-shard capacity fixed is what makes
  the scaling sweep's aggregate throughput meaningful;
* ``fed-shard-unreachable``: an activity whose service is owned by a
  dead/partitioned/breaker-open shard is deferred, as is the commit
  step of a process with prepared legs on an unreachable shard;
* ``fed-foreign-conflict`` — the **start gate**: a process whose
  potential service footprint conflicts with foreign-homed work may
  not *start* while edge-exchange messages are still undelivered to
  this shard (the conservative barrier) or while the foreign view
  shows an active potentially-conflicting process.  Once started, a
  process runs without foreign interference — every potentially
  conflicting foreign process defers to it until it terminates, so
  conflicting cross-shard pairs are fully serialized and a shard
  crash-recovery's completions can never conflict with live foreign
  work.

Shard kills, recoveries and network partitions are scheduled as events
on the same queue; a genuine distributed stall is resolved by aborting
the cheapest federation-deferred process (cross-shard victim), falling
back to each shard's local stall resolution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.instance import ActionType
from repro.core.schedule import AbortEvent, ActivityEvent, CommitEvent
from repro.errors import SchedulerError
from repro.fed.federation import Federation
from repro.obs.bus import tracing
from repro.obs.explain import DecisionRecord
from repro.sim.engine import EventQueue
from repro.sim.runner import (
    MAX_ITERATIONS,
    DurationModel,
    Lane,
    constant_durations,
)

__all__ = ["FederationRunMetrics", "FederationRunner"]


@dataclass
class FederationRunMetrics:
    """What a federated run produced, for results and benchmarks."""

    makespan: float = 0.0
    committed: int = 0
    aborted: int = 0
    dispatched: int = 0
    fed_deferrals: int = 0
    cross_victims: int = 0
    #: (start, end) per terminated process.
    process_spans: Dict[str, Tuple[float, float]] = field(
        default_factory=dict
    )

    @property
    def throughput(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.committed / self.makespan


class FederationRunner:
    """Drives a :class:`~repro.fed.federation.Federation` in virtual time."""

    def __init__(
        self,
        federation: Federation,
        durations: Optional[DurationModel] = None,
        capacity: int = 4,
        kills: Sequence[Tuple[float, str, float]] = (),
        partitions: Sequence[Tuple[float, str, str, float]] = (),
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.fed = federation
        self.capacity = capacity
        self.queue = EventQueue(clock=federation.clock)  # type: ignore[arg-type]
        if federation.trace is not None:
            federation.trace.attach_clock(self.queue.clock)
        #: One execution lane per shard on the shared queue.
        durations = durations or constant_durations()
        self._lanes: Dict[str, Lane] = {
            shard_id: Lane(
                shard.scheduler,
                self.queue,
                durations,
                trace=federation.trace,
                shard=shard_id,
            )
            for shard_id, shard in federation.shards.items()
        }
        #: Last federation-gate decision per process, to avoid
        #: re-recording (and re-tracing) an unchanged deferral every
        #: round of a long wait.
        self._last_gate: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        #: pids currently deferred by a federation gate (victim pool).
        self._fed_deferred: Set[str] = set()
        #: pids that passed the start gate (announced + stepped once).
        self._started: Set[str] = set()
        self._spans_start: Dict[str, float] = {}
        self.metrics = FederationRunMetrics()
        #: ``(time, shard, downtime)`` kill schedule.
        self._kills = list(kills)
        self._partitions = list(partitions)
        #: Optional per-round observer ``callback(now)`` invoked after
        #: the message pump and shard steps of every loop iteration —
        #: the nemesis monitor's hook for online invariant checks and
        #: state-triggered fault arming.  Exceptions propagate and stop
        #: the run.
        self.on_round = None

    # -- chaos schedule ------------------------------------------------

    def _schedule_chaos(self) -> None:
        for time, shard, downtime in self._kills:
            self.queue.schedule_at(time, self._kill_event(shard))
            self.queue.schedule_at(
                time + downtime, self._recover_event(shard)
            )
        for time, a, b, duration in self._partitions:
            until = time + duration
            self.queue.schedule_at(time, self._partition_event(a, b, until))
            # Wake the loop at heal time so blocked work resumes.
            self.queue.schedule_at(until, lambda: None)

    def _kill_event(self, shard_id: str):
        def fire() -> None:
            self.fed.kill(shard_id, self.queue.clock.now)
            # In-flight activities die with the shard.
            self._lanes[shard_id].clear()

        return fire

    def _recover_event(self, shard_id: str):
        def fire() -> None:
            self.fed.recover_shard(shard_id, self.queue.clock.now)
            # Recovery built the shard a new scheduler.
            self._lanes[shard_id].clear(self.fed.shards[shard_id].scheduler)

        return fire

    def _partition_event(self, a: str, b: str, until: float):
        def fire() -> None:
            self.fed.network.policy.partition(a, b, until=until)

        return fire

    # -- gating --------------------------------------------------------

    def _fed_gate(
        self, shard_id: str, pid: str, now: float
    ) -> Optional[DecisionRecord]:
        """The cross-shard gates; a record means 'defer, this rule'."""
        fed = self.fed
        scheduler = fed.shards[shard_id].scheduler
        managed = scheduler.managed(pid)
        action = managed.instance.next_action()
        if action.type is ActionType.FINISHED or action.activity is None:
            # Commit step: hardening needs every prepared leg's owner
            # shard reachable — otherwise the 2PC would veto and abort a
            # process that only suffered a transient link failure.
            for prepared in managed.prepared:
                owner = fed._sub_owner.get(prepared.subsystem.name)
                if (
                    owner is not None
                    and owner != shard_id
                    and not fed.network.reachable(shard_id, owner, now)
                ):
                    return DecisionRecord(
                        kind="deferred",
                        rule="fed-shard-unreachable",
                        reason=(
                            f"prepared leg {prepared.txn_id!r} lives on "
                            f"unreachable shard {owner!r}; commit deferred"
                        ),
                        process=pid,
                        service=prepared.subsystem.name,
                        waiting_for=(owner,),
                    )
            return None
        definition = managed.instance.definition(action.activity)
        service = definition.service
        if service is not None:
            owner = fed.router.owner(service)
            if owner != shard_id and not fed.network.reachable(
                shard_id, owner, now
            ):
                return DecisionRecord(
                    kind="deferred",
                    rule="fed-shard-unreachable",
                    reason=(
                        f"service {service!r} is owned by shard "
                        f"{owner!r}, which is dead, partitioned away or "
                        f"breaker-open"
                    ),
                    process=pid,
                    activity=action.activity,
                    service=service,
                    waiting_for=(owner,),
                )
        if pid in self._started:
            # The start gate was passed: this process owns every
            # cross-shard conflict it can touch until it terminates
            # (potentially conflicting foreign processes defer to it),
            # so no further foreign-conflict checks apply — including
            # to its compensations.
            return None
        if not fed.has_conflict_potential(shard_id, pid):
            return None
        if fed.network.pending_inbound(shard_id) > 0:
            return DecisionRecord(
                kind="deferred",
                rule="fed-foreign-conflict",
                reason=(
                    f"process {pid!r} has foreign conflict potential and "
                    f"edge-exchange messages are still in flight to this "
                    f"shard; start deferred until the view is current"
                ),
                process=pid,
                activity=action.activity,
                service=service,
            )
        blockers = fed.foreign_blockers(
            shard_id, fed.process_footprint(pid)
        )
        if blockers:
            return DecisionRecord(
                kind="deferred",
                rule="fed-foreign-conflict",
                reason=(
                    f"potentially conflicting foreign processes are "
                    f"active: {', '.join(sorted(blockers))}; start "
                    f"deferred until they terminate"
                ),
                process=pid,
                activity=action.activity,
                service=service,
                waiting_for=tuple(sorted(blockers)),
            )
        return None

    def _record_gate(
        self, shard_id: str, pid: str, record: DecisionRecord
    ) -> None:
        scheduler = self.fed.shards[shard_id].scheduler
        signature = (record.rule, record.waiting_for)
        if self._last_gate.get(pid) == signature:
            return
        self._last_gate[pid] = signature
        scheduler.decisions[pid] = record
        scheduler.stats["deferred"] += 1
        self.metrics.fed_deferrals += 1
        bus = tracing(self.fed.trace)
        if bus is not None:
            bus.emit(
                "deferred",
                process=pid,
                activity=record.activity,
                rule=record.rule,
                reason=record.reason,
                service=record.service,
                waiting_for=list(record.waiting_for),
            )

    # -- stepping ------------------------------------------------------

    def _step_shard(self, shard_id: str, now: float) -> bool:
        shard = self.fed.shards[shard_id]
        if not shard.alive:
            return False
        scheduler = shard.scheduler
        lane = self._lanes[shard_id]
        progressed = False
        for pid in scheduler.instance_ids():
            if scheduler.is_terminated(pid) or pid in lane.busy:
                continue
            if len(lane.flights) >= self.capacity:
                break
            if lane.gated(pid):
                continue
            gate = self._fed_gate(shard_id, pid, now)
            if gate is not None:
                self._record_gate(shard_id, pid, gate)
                self._fed_deferred.add(pid)
                continue
            if pid not in self._started:
                # Commit to starting: announce the footprint *before*
                # the first step so peers stepped later this round see
                # the pending message (the barrier closes the
                # simultaneous-start race).
                self._started.add(pid)
                self.fed.announce_active(shard_id, pid, now)
            before = scheduler.timeline_length()
            if not scheduler.step_instance(pid):
                continue
            progressed = True
            self._fed_deferred.discard(pid)
            self._last_gate.pop(pid, None)
            self._spans_start.setdefault(pid, now)
            self._absorb(shard_id, before, now)
        return progressed

    def _absorb(self, shard_id: str, before: int, now: float) -> None:
        scheduler = self.fed.shards[shard_id].scheduler
        for index in range(before, scheduler.timeline_length()):
            event = scheduler.timeline_event(index)
            if isinstance(event, ActivityEvent):
                self.fed.stamp(
                    shard_id,
                    (
                        "event",
                        event.process_id,
                        event.activity.activity_name,
                        event.activity.direction.exponent,
                    ),
                )
                self._lanes[shard_id].launch(index, event)
                self.metrics.dispatched += 1
            elif isinstance(event, (CommitEvent, AbortEvent)):
                kind = (
                    "commit" if isinstance(event, CommitEvent) else "abort"
                )
                self.fed.stamp(shard_id, (kind, event.process_id))
                self.fed.announce_termination(event.process_id, now)
                start = self._spans_start.get(event.process_id, now)
                self.metrics.process_spans[event.process_id] = (start, now)

    # -- stall resolution ----------------------------------------------

    def _resolve_stall(self) -> None:
        """Nothing moved anywhere: sacrifice a cross-shard victim."""
        candidates: List[Tuple[int, str, str]] = []
        for shard_id, shard in self.fed.shards.items():
            if not shard.alive:
                continue
            scheduler = shard.scheduler
            for pid in scheduler.instance_ids():
                if pid not in self._fed_deferred:
                    continue
                managed = scheduler.managed(pid)
                if managed.status.is_terminal or managed.abort_pending:
                    continue
                if managed.is_hardened:
                    continue  # F-REC: must run forward, never a victim
                weight = len(managed.instance.trace())
                candidates.append((weight, pid, shard_id))
        if candidates:
            _, pid, shard_id = min(candidates)
            self.fed.shards[shard_id].scheduler.abort(
                pid, reason="federation cross-shard stall victim"
            )
            self._fed_deferred.discard(pid)
            self._last_gate.pop(pid, None)
            self.metrics.cross_victims += 1
            return
        for shard in self.fed.shards.values():
            if shard.alive and not shard.scheduler.all_terminated():
                shard.scheduler.resolve_stall()
                return
        if any(
            shard.alive and shard.coordinator.pending
            for shard in self.fed.shards.values()
        ):
            # A 2PC decision is still undelivered (its resends were
            # dropped) with every link up and nothing scheduled: the
            # next round's pump resends it.
            return
        raise SchedulerError("federation stall with no victim available")

    # -- the loop ------------------------------------------------------

    def _next_wakeup(self, now: float) -> Optional[float]:
        """Earliest future instant at which blocked work could move."""
        times: List[float] = []
        due = self.fed.network.next_due()
        if due is not None:
            times.append(max(due, now))
        reopen = self.fed.network.next_reopen()
        if reopen is not None and reopen > now:
            times.append(reopen)
        for shard in self.fed.shards.values():
            if not shard.alive:
                continue
            for group in shard.agent.groups.values():
                times.append(
                    max(group.voted_at + self.fed.indoubt_timeout, now)
                )
        future = [time for time in times if time > now]
        return min(future) if future else None

    def _finished(self) -> bool:
        return (
            all(shard.alive for shard in self.fed.shards.values())
            and self.fed.all_terminated()
            and self.fed.quiescent()
            and not any(lane.flights for lane in self._lanes.values())
        )

    def run(self) -> FederationRunMetrics:
        self._schedule_chaos()
        iterations = 0
        while not self._finished():
            iterations += 1
            if iterations > MAX_ITERATIONS:
                raise SchedulerError("federated simulation did not converge")
            now = self.queue.clock.now
            progressed = self.fed.pump(now)
            for shard_id in self.fed.shards:
                if self._step_shard(shard_id, now):
                    progressed = True
            if self.on_round is not None:
                self.on_round(now)
            if progressed:
                continue
            if any(lane.flights for lane in self._lanes.values()):
                self.queue.run_next()
                continue
            if not self.queue.empty:
                self.queue.run_next()
                continue
            wake = self._next_wakeup(now)
            if wake is not None:
                self.queue.schedule_at(wake, lambda: None)
                self.queue.run_next()
                continue
            self._resolve_stall()
        while not self.queue.empty:
            self.queue.run_next()
        self.metrics.makespan = self.queue.clock.now
        # Terminations applied inside shard recovery (B-REC/F-REC of
        # processes that were live at the kill) never pass through the
        # runner's event flow, and a recovered scheduler only re-manages
        # processes that were still live at the crash — the WAL is the
        # one place every outcome is durable.  Tally from there.
        committed, aborted = self.fed.wal_outcomes()
        self.metrics.committed = len(committed)
        self.metrics.aborted = len(aborted - committed)
        return self.metrics

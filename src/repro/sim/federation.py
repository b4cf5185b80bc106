"""Federated workloads: scaling sweeps and shard-kill chaos (X13).

Builds an N-shard federation from a spec — per-group subsystems with
counter services, a service-ownership router, seeded processes that are
either shard-local or deliberately cross-shard — runs it under the
discrete-event federation runner with optional message faults, network
partitions and whole-shard kills, and certifies the merged cross-shard
history with the offline PRED checkers plus the 2PC decision audit.

Entry points:

* :func:`run_federation` — one seeded, certified federated run;
* :func:`scaling_sweep` — same total work over 1..N shards on a
  service-disjoint fleet (the near-linear-scaling experiment);
* :func:`kill_sweep` — every shard killed and recovered mid-run while
  drop/delay/duplicate/partition faults hit the inter-shard links.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.conflict import ExplicitConflicts
from repro.fed.federation import Federation
from repro.fed.messages import FederationNetwork, MessageFaultPolicy
from repro.fed.router import ShardRouter
from repro.fed.runner import FederationRunMetrics, FederationRunner
from repro.sim.certify import (
    Certification,
    certify_history,
    ensure_certified,
)
from repro.sim.clock import VirtualClock
from repro.sim.workload import WorkloadSpec, generate_process
from repro.subsystems.failures import FailurePolicy
from repro.subsystems.services import counter_service
from repro.subsystems.subsystem import Subsystem

__all__ = [
    "FederationSpec",
    "FederationResult",
    "build_federation",
    "run_federation",
    "scaling_sweep",
    "kill_sweep",
]


@dataclass(frozen=True)
class FederationSpec:
    """Knobs of one federated run."""

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
    #: Message fault rates on inter-shard links.
    drop_rate: float = 0.0
    delay_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_span: Tuple[float, float] = (0.5, 2.0)
    #: ``(time, shard_index, downtime)`` kill schedule.
    kills: Tuple[Tuple[float, int, float], ...] = ()
    #: ``(time, shard_a_index, shard_b_index, duration)`` partitions.
    partitions: Tuple[Tuple[float, int, int, float], ...] = ()
    #: In-doubt timeout before the termination protocol kicks in.
    indoubt_timeout: float = 5.0
    #: Workload shape (process structure DSL knobs).
    prefix_range: Tuple[int, int] = (1, 2)
    suffix_range: Tuple[int, int] = (1, 2)
    alternative_probability: float = 0.25
    #: RNG seed — the whole run is deterministic given the seed.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("need at least one shard")
        if self.service_groups < self.shards:
            raise ValueError("need at least one service group per shard")
        if not 0.0 <= self.cross_shard_fraction <= 1.0:
            raise ValueError("cross_shard_fraction must be in [0, 1]")

    def with_seed(self, seed: int) -> "FederationSpec":
        return replace(self, seed=seed)


@dataclass
class FederationResult:
    """One certified federated run, flattened for reports."""

    spec: FederationSpec
    metrics: FederationRunMetrics
    certification: Certification
    audit_clean: bool
    lost_decisions: List[str] = field(default_factory=list)
    dup_applications: List[str] = field(default_factory=list)
    in_doubt_residue: List[str] = field(default_factory=list)
    lost_processes: List[str] = field(default_factory=list)
    groups_checked: int = 0
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def certified(self) -> bool:
        return self.certification.certified and self.audit_clean

    @property
    def throughput(self) -> float:
        return self.metrics.throughput

    def row(self) -> Dict[str, object]:
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


def _shard_name(index: int) -> str:
    return f"s{index}"


def build_federation(
    spec,
    clock: VirtualClock,
    network: FederationNetwork,
    trace: Optional[object] = None,
    disjoint: bool = False,
    backend_for: Optional[Callable[[str], object]] = None,
    failures: Optional[FailurePolicy] = None,
) -> Federation:
    """The seeded federated fleet of a :class:`FederationSpec` or a
    :class:`~repro.nemesis.executor.NemesisSpec`.

    Group ``g`` is one subsystem ``grp<g>`` of counter services owned
    by shard ``s<g % shards>``; every process draws its services from
    its home group, and a ``cross_shard_fraction`` of them also from a
    second group.  With ``disjoint`` each process gets a private slice
    of its group's services.  ``backend_for(name)`` backs each
    subsystem's store and ``failures`` is threaded to every process.

    The RNG draw order (conflict pairs, then per process the
    cross-shard draw and the process shape) is part of the contract:
    benchmarks, CI seeds and saved nemesis bundles replay against it.
    """
    rng = random.Random(spec.seed)
    group_services: List[List[str]] = []
    owners: Dict[str, str] = {}
    subsystems: List[Subsystem] = []
    per_group = spec.services_per_group * (
        spec.processes_per_group if disjoint else 1
    )
    for group in range(spec.service_groups):
        shard = _shard_name(group % spec.shards)
        services = [f"g{group}s{index}" for index in range(per_group)]
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
    conflicts = ExplicitConflicts(pairs)

    shape = WorkloadSpec(
        processes=1,
        prefix_range=spec.prefix_range,
        suffix_range=spec.suffix_range,
        alternative_probability=spec.alternative_probability,
        max_depth=1,
        seed=spec.seed,
    )
    federation = Federation(
        ShardRouter(owners),
        subsystems,
        network=network,
        conflicts=conflicts,
        clock=clock,
        trace=trace,
        indoubt_timeout=spec.indoubt_timeout,
    )

    for group in range(spec.service_groups):
        for index in range(spec.processes_per_group):
            if disjoint:
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
                rng, shape, f"P{group}-{index}", pool
            )
            federation.submit(process, failures=failures)
    return federation


def _build(
    spec: FederationSpec, trace: Optional[object] = None
) -> Tuple[Federation, FederationRunner]:
    clock = VirtualClock()
    network = FederationNetwork(
        MessageFaultPolicy(
            drop_rate=spec.drop_rate,
            delay_rate=spec.delay_rate,
            delay_span=spec.delay_span,
            duplicate_rate=spec.duplicate_rate,
            seed=spec.seed,
        )
    )
    federation = build_federation(
        spec, clock, network, trace=trace, disjoint=spec.disjoint_processes
    )
    runner = FederationRunner(
        federation,
        capacity=spec.shard_capacity,
        kills=[
            (time, _shard_name(index % spec.shards), downtime)
            for time, index, downtime in spec.kills
        ],
        partitions=[
            (
                time,
                _shard_name(a % spec.shards),
                _shard_name(b % spec.shards),
                duration,
            )
            for time, a, b, duration in spec.partitions
            if a % spec.shards != b % spec.shards
        ],
    )
    return federation, runner


def run_federation(
    spec: FederationSpec,
    strict: bool = True,
    trace: Optional[object] = None,
) -> FederationResult:
    """One seeded federated run, certified end to end.

    With ``strict`` (the default) an uncertified merged history or a
    dirty decision audit raises :class:`CorrectnessViolation` — the
    same contract as the chaos harness.
    """
    federation, runner = _build(spec, trace=trace)
    metrics = runner.run()
    history = federation.merged_history()
    certification = certify_history(history, federation.all_terminated())
    audit = federation.validate()
    result = FederationResult(
        spec=spec,
        metrics=metrics,
        certification=certification,
        audit_clean=audit.clean,
        lost_decisions=list(audit.lost_decisions),
        dup_applications=list(audit.dup_applications),
        in_doubt_residue=list(audit.in_doubt_residue),
        lost_processes=list(audit.lost_processes),
        groups_checked=audit.groups_checked,
        counters=federation.counters(),
    )
    if strict:
        ensure_certified(
            certification,
            harness=f"federation:shards={spec.shards}",
            seed=spec.seed,
            clean=audit.clean,
            detail=(
                f"lost={audit.lost_decisions} "
                f"dup={audit.dup_applications} "
                f"residue={audit.in_doubt_residue} "
                f"lost_processes={audit.lost_processes}"
            ),
            details={
                "shards": spec.shards,
                "lost_decisions": list(audit.lost_decisions),
                "dup_applications": list(audit.dup_applications),
                "in_doubt_residue": list(audit.in_doubt_residue),
                "lost_processes": list(audit.lost_processes),
            },
        )
    return result


def scaling_sweep(
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    spec: Optional[FederationSpec] = None,
    seeds: Sequence[int] = (0,),
    trace: Optional[object] = None,
) -> List[FederationResult]:
    """Same total work on service-disjoint fleets of 1..N shards.

    The group count, per-group work and per-shard capacity are fixed;
    only the shard count varies — aggregate throughput should scale
    near-linearly because disjoint footprints exchange zero messages.
    """
    base = spec or FederationSpec(
        service_groups=max(shard_counts),
        processes_per_group=4,
        shard_capacity=2,
        cross_shard_fraction=0.0,
        conflict_rate=0.0,
        disjoint_processes=True,
    )
    results: List[FederationResult] = []
    for shards in shard_counts:
        for seed in seeds:
            results.append(
                run_federation(
                    replace(base, shards=shards, seed=seed), trace=trace
                )
            )
    return results


def kill_sweep(
    spec: Optional[FederationSpec] = None,
    seeds: Sequence[int] = (0, 1, 2),
    trace: Optional[object] = None,
) -> List[FederationResult]:
    """Chaos mode: every shard dies once, all four fault kinds injected.

    Each seeded run kills and recovers each shard in turn (staggered so
    the federation is never fully dark), runs message faults on every
    link, and partitions a shard pair mid-run.  Every run must certify
    and audit clean — zero lost, zero doubly-applied commit decisions.
    """
    base = spec or FederationSpec(
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
    partitions = ((2.0, 0, 1, 2.0),)
    configured = replace(base, kills=kills, partitions=partitions)
    return [
        run_federation(configured.with_seed(seed), trace=trace)
        for seed in seeds
    ]

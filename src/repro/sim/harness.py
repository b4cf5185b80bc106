"""The single-scheduler harness: chaos and overload runs, PRED-certified.

One seeded run drives a synthetic workload through the PRED scheduler,
its resilience layer (timeouts, backoff, breakers, ◁-degradation) and
optionally its admission front door, under virtual time.  Two things
vary between experiments:

* the **fault mix** — a :class:`~repro.subsystems.failures.ChaosPolicy`
  injecting aborts, latency spikes, hang-until-timeout and crash-stop
  faults, the run's only failure source;
* the **arrival shape** — every process submitted at t=0 (closed
  loop), or offered open-loop at a Poisson or fixed rate to bounded
  admission, where it may be queued, rejected or shed.

After every run the produced history is certified with the offline
checkers — Theorem 1's guarantees must survive both layers — and an
audit re-counts shed processes that had a committed pivot (F-REC):
there must be none.

Presets and entry points:

* :func:`default_mixes` — the named standard fault mixes (aborts,
  latency, hangs, crashes, mixed), closed loop (X8);
* :data:`OVERLOAD` — the fault-free open-loop experiment behind bounded
  admission (X10);
* :func:`estimate_capacity` — closed-loop drain rate used to place an
  overload sweep's load axis around saturation;
* :func:`run_harness` — one seeded run of one spec, certified;
* :func:`harness_sweep` — specs × seeds, in the row format the
  ``chaos`` and ``overload`` commands print.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.admission import AdmissionConfig, WatchdogConfig
from repro.core.scheduler import ManagedStatus, TransactionalProcessScheduler
from repro.obs.bus import tracing
from repro.obs.metrics import percentile
from repro.resilience import BreakerConfig, ResilienceManager, RetryPolicy
from repro.sim.certify import Certification, certify_history, ensure_certified
from repro.sim.metrics import RunMetrics
from repro.sim.runner import Arrival, SimulationRunner
from repro.sim.workload import (
    ArrivalSpec,
    WorkloadSpec,
    generate_arrivals,
    generate_workload,
)
from repro.subsystems.backend import BACKEND_KINDS, BackendHub
from repro.subsystems.failures import ChaosPolicy
from repro.subsystems.subsystem import SubsystemRegistry

__all__ = [
    "HarnessSpec",
    "HarnessResult",
    "OVERLOAD",
    "default_mixes",
    "estimate_capacity",
    "run_harness",
    "harness_sweep",
]


@dataclass(frozen=True)
class HarnessSpec:
    """One experiment: workload shape + fault mix + arrivals + layers."""

    name: str = "chaos"
    #: Shape of the synthetic workload (its own seed is overridden by
    #: :attr:`seed` so one spec sweeps cleanly over seeds).
    workload: WorkloadSpec = WorkloadSpec()
    #: Master seed: drives workload generation, fault injection, the
    #: arrival draws and the retry jitter.
    seed: int = 0
    #: Store backend behind every subsystem (``memory``/``sqlite``/
    #: ``procpool``); the scheduler's decisions do not depend on it —
    #: the same spec must certify identically over every backend.
    backend: str = "memory"
    #: Fault mix (per-attempt probabilities; sum must stay below 1).
    abort_rate: float = 0.0
    latency_rate: float = 0.0
    hang_rate: float = 0.0
    crash_rate: float = 0.0
    latency_span: Tuple[float, float] = (1.0, 4.0)
    hang_duration: float = 6.0
    crash_span: Tuple[float, float] = (4.0, 10.0)
    #: Cap on consecutive injected faults per service (bounded failures
    #: — the assumption guaranteed termination rests on).
    max_consecutive: int = 4
    #: When set, concentrate injection on the first N pool services —
    #: realistic chaos (a few unhealthy services) and the regime where
    #: breakers trip hard enough for ◁-degradation to kick in.
    target_services: Optional[int] = None
    #: Mean process arrivals per unit of virtual time (λ); ``None``
    #: submits every process at t=0.
    offered_load: Optional[float] = None
    arrival_mode: str = "poisson"
    #: Admission front door (``None`` keeps it unbounded) and the
    #: starvation/livelock watchdogs (``None`` disables them).
    admission: Optional[AdmissionConfig] = None
    watchdogs: Optional[WatchdogConfig] = None
    #: Resilience layer; the retry policy's seed is replaced by
    #: :attr:`seed`.
    retry: RetryPolicy = RetryPolicy(
        timeout=3.0, max_attempts=3, base_delay=0.2
    )
    breaker: BreakerConfig = BreakerConfig(
        failure_threshold=2, reset_timeout=5.0
    )

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_KINDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{', '.join(BACKEND_KINDS)}"
            )

    def with_seed(self, seed: int) -> "HarnessSpec":
        return replace(self, seed=seed)


#: The open-loop overload experiment: no injected faults, arrivals at
#: one process per unit of virtual time into a bounded front door that
#: sheds the youngest backward-recoverable process when full.
OVERLOAD = HarnessSpec(
    name="overload",
    workload=WorkloadSpec(processes=32, service_pool=16, conflict_rate=0.03),
    offered_load=1.0,
    admission=AdmissionConfig(
        max_active=8,
        max_queue_depth=16,
        max_queue_age=10.0,
        shed_policy="shed-youngest-brec",
    ),
    watchdogs=WatchdogConfig(starvation_rounds=500, livelock_flaps=40),
    retry=RetryPolicy(timeout=5.0, max_attempts=3, base_delay=0.2),
    breaker=BreakerConfig(failure_threshold=3, reset_timeout=8.0),
)


@dataclass
class HarnessResult:
    """Everything one certified run produced."""

    spec: HarnessSpec
    metrics: RunMetrics
    #: Offline certification of the produced history.
    certification: Certification
    #: Faults delivered, by kind (``abort``/``latency``/``hang``/``crash``).
    injected: Dict[str, int]
    #: Resilience counters (retries, timeouts, breaker trips, ...).
    counters: Dict[str, int]
    #: Sojourn times (terminal time − offer time, queue wait included)
    #: of the *committed* processes.
    sojourns: List[float]
    #: Shed processes that had a committed pivot — must always be 0;
    #: the scheduler refuses such sheds structurally, this re-counts
    #: them from the final state as a belt-and-braces audit.
    frec_sheds: int

    @property
    def certified(self) -> bool:
        return self.certification.certified and self.frec_sheds == 0

    def chaos_row(self) -> Dict[str, object]:
        """Flat row for fault-mix tables."""
        return {
            "mix": self.spec.name,
            "seed": self.spec.seed,
            "backend": self.spec.backend,
            "faults": sum(self.injected.values()),
            "aborts": self.injected.get("abort", 0),
            "latency": self.injected.get("latency", 0),
            "hangs": self.injected.get("hang", 0),
            "crashes": self.injected.get("crash", 0),
            "retries": self.counters.get("retries", 0),
            "timeouts": self.counters.get("timeouts", 0),
            "trips": self.counters.get("breaker_trips", 0),
            "recoveries": self.counters.get("breaker_recoveries", 0),
            "degradations": self.counters.get("degradations", 0),
            "committed": self.metrics.processes_committed,
            "aborted": self.metrics.processes_aborted,
            "makespan": round(self.metrics.makespan, 3),
            "pred": self.certification.pred,
            "terminated": self.certification.terminated,
        }

    def load_row(self) -> Dict[str, object]:
        """Flat row for offered-load tables (open-loop runs)."""
        metrics = self.metrics
        return {
            "load": round(self.spec.offered_load, 4),
            "seed": self.spec.seed,
            "offered": metrics.processes_offered,
            "committed": metrics.processes_committed,
            "aborted": metrics.processes_aborted,
            "rejected": metrics.processes_rejected,
            "shed": metrics.processes_shed,
            "goodput": round(metrics.goodput, 4),
            "sojourn_p50": round(percentile(self.sojourns, 0.50), 3),
            "sojourn_p95": round(percentile(self.sojourns, 0.95), 3),
            "queue_peak": metrics.peak_queue_depth,
            "starved": metrics.starvation_boosts,
            "livelocks": metrics.livelock_escalations,
            "frec_sheds": self.frec_sheds,
            "certified": self.certified,
        }


def default_mixes(
    processes: int = 8,
    alternative_probability: float = 0.9,
) -> List[HarnessSpec]:
    """The named standard fault mixes swept by benchmarks and CI.

    A high alternative probability keeps degradation paths available —
    the sweep is about exercising ◁-switching, not only retries — and
    injection is concentrated on a quarter of the service pool so
    breakers actually trip (diffuse single-shot faults never would).
    """
    workload = WorkloadSpec(
        processes=processes,
        alternative_probability=alternative_probability,
        prefix_range=(2, 4),
        service_pool=12,
        conflict_rate=0.03,
    )
    base = HarnessSpec(
        workload=workload,
        target_services=3,
        breaker=BreakerConfig(failure_threshold=2, reset_timeout=8.0),
    )
    return [
        replace(base, name="aborts", abort_rate=0.6),
        replace(base, name="latency", latency_rate=0.6, latency_span=(1.0, 5.0)),
        replace(base, name="hangs", hang_rate=0.5),
        replace(base, name="crashes", crash_rate=0.4),
        replace(
            base,
            name="mixed",
            abort_rate=0.25,
            latency_rate=0.2,
            hang_rate=0.15,
            crash_rate=0.1,
        ),
    ]


def _build(spec: HarnessSpec, trace=None, metrics=None, hub=None):
    """Scheduler + runner + chaos policy for one spec, wired together.

    ``hub`` is the run's :class:`~repro.subsystems.backend.BackendHub`
    (``None`` keeps the in-memory default); its factory backs every
    auto-provisioned subsystem, so the whole harness runs unchanged
    over real storage.
    """
    workload = generate_workload(replace(spec.workload, seed=spec.seed))
    targets = None
    if spec.target_services is not None:
        targets = [f"svc{i}" for i in range(spec.target_services)]
    chaos = ChaosPolicy(
        abort_rate=spec.abort_rate,
        latency_rate=spec.latency_rate,
        hang_rate=spec.hang_rate,
        crash_rate=spec.crash_rate,
        latency_span=spec.latency_span,
        hang_duration=spec.hang_duration,
        crash_span=spec.crash_span,
        seed=spec.seed + 1,
        max_consecutive=spec.max_consecutive,
        services=targets,
    )
    registry = SubsystemRegistry(
        backend_factory=hub.backend_for if hub is not None else None
    )
    scheduler = TransactionalProcessScheduler(
        registry=registry,
        conflicts=workload.conflicts,
        resilience=ResilienceManager(
            policy=replace(spec.retry, seed=spec.seed), breaker=spec.breaker
        ),
        admission=spec.admission,
        watchdogs=spec.watchdogs,
        trace=trace,
        metrics=metrics,
    )
    offers: List[Arrival] = []
    if spec.offered_load is None:
        for process in workload.processes:
            scheduler.submit(process, failures=chaos)
    else:
        times = generate_arrivals(
            len(workload.processes),
            ArrivalSpec(
                offered_load=spec.offered_load,
                mode=spec.arrival_mode,
                seed=spec.seed + 1,
            ),
        )
        offers = [
            Arrival(time=time, process=process, failures=chaos)
            for time, process in zip(times, workload.processes)
        ]
    runner = SimulationRunner(
        scheduler, durations=workload.duration, offers=offers
    )
    return scheduler, runner, chaos


def run_harness(
    spec: HarnessSpec, certify: bool = True, trace=None, metrics=None
) -> HarnessResult:
    """One seeded run; certifies the produced history offline.

    With ``certify=True`` a history that fails PRED, a process that
    failed to terminate, or an F-REC shed raises
    :class:`~repro.errors.CorrectnessViolation` — neither the
    resilience layer nor overload control may buy progress with
    correctness.
    """
    # Trace fields: a closed-loop run is named by its mix and backend,
    # an open-loop one by its offered load and shed count.
    if spec.offered_load is None:
        harness = "chaos"
        label = {"harness": harness, "mix": spec.name, "seed": spec.seed}
        begin = {"backend": spec.backend}
    else:
        harness = "overload"
        label = {
            "harness": harness,
            "load": spec.offered_load,
            "seed": spec.seed,
        }
        begin = {}
    hub = BackendHub(spec.backend) if spec.backend != "memory" else None
    try:
        scheduler, runner, chaos = _build(
            spec, trace=trace, metrics=metrics, hub=hub
        )
        bus = tracing(trace)
        if bus is not None:
            bus.emit("run_begin", **label, **begin)
        run_metrics = runner.run()
        verdict = certify_history(
            scheduler.history(), scheduler.all_terminated()
        )
        frec_sheds = sum(
            1
            for pid in scheduler.shed_ids
            if scheduler.managed(pid).is_hardened
        )
        sojourns = [
            end - scheduler.managed(pid).offered_at
            for pid, (_, end) in run_metrics.process_spans.items()
            if scheduler.managed(pid).status is ManagedStatus.COMMITTED
        ]
        counters = scheduler.resilience.snapshot()
        scheduler.registry.close()
    finally:
        if hub is not None:
            hub.close()
    run_metrics.prefix_reducible = verdict.pred
    run_metrics.faults_injected = chaos.total_injected
    certified = verdict.certified and frec_sheds == 0
    if bus is not None:
        shed = {}
        if harness == "overload":
            shed = {"shed": run_metrics.processes_shed}
        bus.emit(
            "run_end",
            **label,
            committed=run_metrics.processes_committed,
            aborted=run_metrics.processes_aborted,
            **shed,
            makespan=run_metrics.makespan,
            certified=certified,
        )
    result = HarnessResult(
        spec=spec,
        metrics=run_metrics,
        certification=verdict,
        injected=dict(chaos.injected),
        counters=counters,
        sojourns=sorted(sojourns),
        frec_sheds=frec_sheds,
    )
    if certify:
        ensure_certified(
            verdict,
            harness=f"{harness}:{spec.name}",
            seed=spec.seed,
            clean=frec_sheds == 0,
            detail=f"frec_sheds={frec_sheds}",
            details={
                "mix": spec.name,
                "backend": spec.backend,
                "load": spec.offered_load,
                "frec_sheds": frec_sheds,
            },
        )
    return result


def harness_sweep(
    specs: Optional[Sequence[HarnessSpec]] = None,
    seeds: Sequence[int] = (0, 1, 2),
    certify: bool = True,
    trace=None,
    metrics=None,
) -> List[HarnessResult]:
    """Sweep specs × seeds (default: :func:`default_mixes`); every run
    is certified by default."""
    results: List[HarnessResult] = []
    for spec in specs if specs is not None else default_mixes():
        for seed in seeds:
            results.append(
                run_harness(
                    spec.with_seed(seed),
                    certify=certify,
                    trace=trace,
                    metrics=metrics,
                )
            )
    return results


def estimate_capacity(
    base: Optional[HarnessSpec] = None, seed: int = 0
) -> float:
    """Closed-loop capacity estimate (committed processes per unit time).

    Runs the spec's workload with everything offered at once, an
    unbounded queue and shedding disabled — the drain rate of a
    saturated-but-unshed system approximates the service capacity the
    sweep's load axis should straddle.
    """
    spec = base if base is not None else OVERLOAD
    closed = replace(
        spec,
        offered_load=1000.0,
        arrival_mode="fixed",
        admission=replace(
            spec.admission,
            max_queue_depth=spec.workload.processes + 1,
            max_queue_age=None,
            shed_policy="reject-new",
            breaker_throttle_fraction=None,
        ),
        seed=seed,
    )
    result = run_harness(closed, certify=False)
    return max(result.metrics.goodput, 1e-6)

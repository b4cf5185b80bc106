"""Overload harness: open-loop arrival sweeps with PRED certification (X10).

The closed-loop harnesses measure how fast a fixed batch drains; this
one measures what happens when work keeps *arriving* faster than the
system can finish it.  Processes arrive at a configurable offered load
(Poisson or fixed-rate), hit the scheduler's bounded admission front
door, and the sweep reports goodput, sojourn latency and shed/reject
rates as offered load rises past saturation — the healthy signature is
a goodput plateau with bounded p95 sojourn, not congestion collapse.

Every run is certified by the same offline checkers the chaos harness
uses (:func:`repro.sim.certify.certify_history`), and additionally
asserts the admission layer's invariant: **no process with a committed
pivot (F-REC) is ever shed** — shed processes are always fully
compensated B-REC cancellations.

Entry points:

* :func:`run_overload` — one seeded open-loop run at one offered load;
* :func:`overload_sweep` — loads × seeds grid, row format for tables;
* :func:`estimate_capacity` — closed-loop capacity estimate used to
  place the sweep's load axis around saturation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.core.admission import AdmissionConfig, WatchdogConfig
from repro.core.scheduler import ManagedStatus, TransactionalProcessScheduler
from repro.resilience import BreakerConfig, ResilienceManager, RetryPolicy
from repro.sim.certify import (
    Certification,
    certify_history,
    ensure_certified,
)
from repro.sim.metrics import RunMetrics, percentile
from repro.sim.runner import Arrival, SimulationRunner
from repro.sim.workload import (
    ArrivalSpec,
    WorkloadSpec,
    generate_arrivals,
    generate_workload,
)

__all__ = [
    "OverloadSpec",
    "OverloadResult",
    "run_overload",
    "overload_sweep",
    "estimate_capacity",
]


@dataclass(frozen=True)
class OverloadSpec:
    """One overload experiment: workload shape + arrivals + admission."""

    name: str = "overload"
    #: Shape of the synthetic workload (its seed is overridden by
    #: :attr:`seed` so one spec sweeps cleanly over seeds).
    workload: WorkloadSpec = field(
        default_factory=lambda: WorkloadSpec(
            processes=32, service_pool=16, conflict_rate=0.03
        )
    )
    #: Mean process arrivals per unit of virtual time (λ).
    offered_load: float = 1.0
    arrival_mode: str = "poisson"
    #: Admission knobs (see :class:`~repro.core.admission.AdmissionConfig`).
    max_active: Optional[int] = 8
    max_queue_depth: int = 16
    max_queue_age: Optional[float] = 10.0
    shed_policy: str = "shed-youngest-brec"
    breaker_throttle_fraction: Optional[float] = None
    #: Watchdog knobs (see :class:`~repro.core.admission.WatchdogConfig`).
    starvation_rounds: Optional[int] = 500
    livelock_flaps: Optional[int] = 40
    #: Resilience knobs.
    timeout: float = 5.0
    max_attempts: int = 3
    base_delay: float = 0.2
    breaker_threshold: int = 3
    breaker_reset: float = 8.0
    #: Master seed: drives workload generation and the arrival draws.
    seed: int = 0

    def with_seed(self, seed: int) -> "OverloadSpec":
        return replace(self, seed=seed)

    def with_load(self, offered_load: float) -> "OverloadSpec":
        return replace(self, offered_load=offered_load)


@dataclass
class OverloadResult:
    """Everything one certified overload run produced."""

    spec: OverloadSpec
    metrics: RunMetrics
    #: Offline certification of the produced history.
    certification: Certification
    #: Sojourn times (terminal time − offer time, queue wait included)
    #: of the *committed* processes.
    sojourns: List[float]
    #: Shed processes that had a committed pivot — must always be 0;
    #: the scheduler refuses such sheds structurally, this re-counts
    #: them from the final state as a belt-and-braces audit.
    frec_sheds: int
    #: Resilience counters (retries, breaker trips, ...).
    counters: Dict[str, int]

    @property
    def certified(self) -> bool:
        return self.certification.certified and self.frec_sheds == 0

    def row(self) -> Dict[str, object]:
        """Flat row for sweep tables."""
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


def _build(spec: OverloadSpec, trace=None, metrics=None):
    """Scheduler + open-loop runner for one spec, wired together."""
    workload = generate_workload(replace(spec.workload, seed=spec.seed))
    times = generate_arrivals(
        len(workload.processes),
        ArrivalSpec(
            offered_load=spec.offered_load,
            mode=spec.arrival_mode,
            seed=spec.seed + 1,
        ),
    )
    manager = ResilienceManager(
        policy=RetryPolicy(
            timeout=spec.timeout,
            max_attempts=spec.max_attempts,
            base_delay=spec.base_delay,
            seed=spec.seed,
        ),
        breaker=BreakerConfig(
            failure_threshold=spec.breaker_threshold,
            reset_timeout=spec.breaker_reset,
        ),
    )
    scheduler = TransactionalProcessScheduler(
        conflicts=workload.conflicts,
        resilience=manager,
        admission=AdmissionConfig(
            max_active=spec.max_active,
            max_queue_depth=spec.max_queue_depth,
            max_queue_age=spec.max_queue_age,
            shed_policy=spec.shed_policy,
            breaker_throttle_fraction=spec.breaker_throttle_fraction,
        ),
        watchdogs=WatchdogConfig(
            starvation_rounds=spec.starvation_rounds,
            livelock_flaps=spec.livelock_flaps,
        ),
        trace=trace,
        metrics=metrics,
    )
    offers = [
        Arrival(time=time, process=process, failures=workload.failures)
        for time, process in zip(times, workload.processes)
    ]
    runner = SimulationRunner(
        scheduler, durations=workload.duration, offers=offers
    )
    return scheduler, runner


def run_overload(
    spec: OverloadSpec, certify: bool = True, trace=None, metrics=None
) -> OverloadResult:
    """One seeded open-loop run; certifies the produced history offline.

    With ``certify=True`` a history that fails PRED, a process that
    failed to terminate, or an F-REC shed raises
    :class:`~repro.errors.CorrectnessViolation` — overload control must
    never buy throughput with correctness.
    """
    scheduler, runner = _build(spec, trace=trace, metrics=metrics)
    if trace is not None and trace.enabled:
        trace.emit(
            "run_begin",
            harness="overload",
            load=spec.offered_load,
            seed=spec.seed,
        )
    run_metrics = runner.run()
    verdict = certify_history(scheduler.history(), scheduler.all_terminated())
    run_metrics.prefix_reducible = verdict.pred
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
    if trace is not None and trace.enabled:
        trace.emit(
            "run_end",
            harness="overload",
            load=spec.offered_load,
            seed=spec.seed,
            committed=run_metrics.processes_committed,
            aborted=run_metrics.processes_aborted,
            shed=run_metrics.processes_shed,
            makespan=run_metrics.makespan,
            certified=verdict.certified and frec_sheds == 0,
        )
    result = OverloadResult(
        spec=spec,
        metrics=run_metrics,
        certification=verdict,
        sojourns=sorted(sojourns),
        frec_sheds=frec_sheds,
        counters=scheduler.resilience.snapshot(),
    )
    if certify:
        ensure_certified(
            verdict,
            harness=f"overload:{spec.name}",
            seed=spec.seed,
            clean=frec_sheds == 0,
            detail=f"frec_sheds={frec_sheds}",
            details={"load": spec.offered_load, "frec_sheds": frec_sheds},
        )
    return result


def overload_sweep(
    loads: Sequence[float],
    base: Optional[OverloadSpec] = None,
    seeds: Sequence[int] = (0,),
    certify: bool = True,
    trace=None,
    metrics=None,
) -> List[OverloadResult]:
    """Sweep offered loads × seeds; every run is certified by default."""
    spec = base if base is not None else OverloadSpec()
    results: List[OverloadResult] = []
    for load in loads:
        for seed in seeds:
            results.append(
                run_overload(
                    spec.with_load(load).with_seed(seed),
                    certify=certify,
                    trace=trace,
                    metrics=metrics,
                )
            )
    return results


def estimate_capacity(
    base: Optional[OverloadSpec] = None, seed: int = 0
) -> float:
    """Closed-loop capacity estimate (committed processes per unit time).

    Runs the spec's workload with everything offered at once, an
    unbounded queue and shedding disabled — the drain rate of a
    saturated-but-unshed system approximates the service capacity the
    sweep's load axis should straddle.
    """
    spec = base if base is not None else OverloadSpec()
    closed = replace(
        spec,
        offered_load=1000.0,
        arrival_mode="fixed",
        max_queue_depth=spec.workload.processes + 1,
        max_queue_age=None,
        shed_policy="reject-new",
        breaker_throttle_fraction=None,
        seed=seed,
    )
    result = run_overload(closed, certify=False)
    return max(result.metrics.goodput, 1e-6)

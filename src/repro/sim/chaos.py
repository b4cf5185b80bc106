"""Chaos harness: seeded fault sweeps with PRED certification.

Exercises the resilience layer end to end: a synthetic workload runs
under the PRED scheduler while a :class:`~repro.subsystems.failures.ChaosPolicy`
injects aborts, latency spikes, hang-until-timeout and crash-stop
faults, all deterministic given the seed.  After every run the harness
certifies the produced history with the offline checkers — Theorem 1's
guarantees must survive the new layer — and surfaces the
retry/breaker/degradation counters.

Entry points:

* :func:`run_chaos` — one seeded run of one fault mix, certified;
* :func:`chaos_sweep` — a grid of mixes × seeds, returning the row
  format the benchmark harness and the CLI print;
* :func:`default_mixes` — the named standard mixes (aborts, latency,
  hangs, crashes, mixed).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.scheduler import TransactionalProcessScheduler
from repro.resilience import BreakerConfig, ResilienceManager, RetryPolicy
from repro.sim.certify import certify_history, ensure_certified
from repro.sim.metrics import RunMetrics
from repro.sim.runner import SimulationRunner
from repro.sim.workload import WorkloadSpec, generate_workload
from repro.subsystems.backend import BACKEND_KINDS, BackendHub
from repro.subsystems.failures import ChaosPolicy
from repro.subsystems.subsystem import SubsystemRegistry

__all__ = [
    "ChaosSpec",
    "ChaosResult",
    "default_mixes",
    "run_chaos",
    "chaos_sweep",
]


@dataclass(frozen=True)
class ChaosSpec:
    """One chaos experiment: workload shape + fault mix + resilience knobs."""

    name: str = "chaos"
    #: Shape of the synthetic workload (its own seed is overridden by
    #: :attr:`seed` so one spec sweeps cleanly over seeds).
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
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
    #: Resilience knobs.
    timeout: float = 3.0
    max_attempts: int = 3
    base_delay: float = 0.2
    breaker_threshold: int = 2
    breaker_reset: float = 5.0
    #: Master seed: drives workload generation and fault injection.
    seed: int = 0
    #: Store backend behind every subsystem (``memory``/``sqlite``/
    #: ``procpool``); the scheduler's decisions do not depend on it —
    #: the same spec must certify identically over every backend.
    backend: str = "memory"

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_KINDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{', '.join(BACKEND_KINDS)}"
            )

    def with_seed(self, seed: int) -> "ChaosSpec":
        return replace(self, seed=seed)


@dataclass
class ChaosResult:
    """Everything one certified chaos run produced."""

    spec: ChaosSpec
    metrics: RunMetrics
    #: Faults delivered, by kind (``abort``/``latency``/``hang``/``crash``).
    injected: Dict[str, int]
    #: Resilience counters (retries, timeouts, breaker trips, ...).
    counters: Dict[str, int]
    #: Offline certification of the produced history.
    pred: bool
    reducible: bool
    #: Every submitted process reached a terminal state (guaranteed
    #: termination held under chaos).
    terminated: bool

    @property
    def certified(self) -> bool:
        return self.pred and self.reducible and self.terminated

    def row(self) -> Dict[str, object]:
        """Flat row for sweep tables."""
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
            "pred": self.pred,
            "terminated": self.terminated,
        }


def default_mixes(
    processes: int = 8,
    alternative_probability: float = 0.9,
) -> List[ChaosSpec]:
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
    base = ChaosSpec(
        workload=workload,
        target_services=3,
        breaker_threshold=2,
        breaker_reset=8.0,
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


def _build(spec: ChaosSpec, trace=None, metrics=None, hub=None):
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
    registry = SubsystemRegistry(
        backend_factory=hub.backend_for if hub is not None else None
    )
    scheduler = TransactionalProcessScheduler(
        registry=registry,
        conflicts=workload.conflicts,
        resilience=manager,
        trace=trace,
        metrics=metrics,
    )
    for process in workload.processes:
        scheduler.submit(process, failures=chaos)
    runner = SimulationRunner(scheduler, durations=workload.duration)
    return scheduler, runner, chaos


def run_chaos(
    spec: ChaosSpec, certify: bool = True, trace=None, metrics=None
) -> ChaosResult:
    """One seeded chaos run; certifies the produced history offline.

    With ``certify=True`` a history that fails PRED (or a process that
    failed to terminate) raises
    :class:`~repro.errors.CorrectnessViolation` — the harness's hard
    assertion that Theorem 1's guarantees survive the resilience layer.
    """
    hub = BackendHub(spec.backend) if spec.backend != "memory" else None
    try:
        scheduler, runner, chaos = _build(
            spec, trace=trace, metrics=metrics, hub=hub
        )
        if trace is not None and trace.enabled:
            trace.emit(
                "run_begin",
                harness="chaos",
                mix=spec.name,
                seed=spec.seed,
                backend=spec.backend,
            )
        run_metrics = runner.run()
        verdict = certify_history(
            scheduler.history(), scheduler.all_terminated()
        )
        counters = scheduler.resilience.snapshot()
        scheduler.registry.close()
    finally:
        if hub is not None:
            hub.close()
    run_metrics.prefix_reducible = verdict.pred
    run_metrics.faults_injected = chaos.total_injected
    if trace is not None and trace.enabled:
        trace.emit(
            "run_end",
            harness="chaos",
            mix=spec.name,
            seed=spec.seed,
            committed=run_metrics.processes_committed,
            aborted=run_metrics.processes_aborted,
            makespan=run_metrics.makespan,
            certified=verdict.certified,
        )
    result = ChaosResult(
        spec=spec,
        metrics=run_metrics,
        injected=dict(chaos.injected),
        counters=counters,
        pred=verdict.pred,
        reducible=verdict.reducible,
        terminated=verdict.terminated,
    )
    if certify:
        ensure_certified(
            verdict,
            harness=f"chaos:{spec.name}",
            seed=spec.seed,
            details={"mix": spec.name, "backend": spec.backend},
        )
    return result


def chaos_sweep(
    mixes: Optional[Sequence[ChaosSpec]] = None,
    seeds: Sequence[int] = (0, 1, 2),
    certify: bool = True,
    trace=None,
    metrics=None,
) -> List[ChaosResult]:
    """Sweep fault mixes × seeds; every run is certified by default."""
    results: List[ChaosResult] = []
    for spec in mixes if mixes is not None else default_mixes():
        for seed in seeds:
            results.append(
                run_chaos(
                    spec.with_seed(seed),
                    certify=certify,
                    trace=trace,
                    metrics=metrics,
                )
            )
    return results

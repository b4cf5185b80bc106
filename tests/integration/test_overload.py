"""Integration: open-loop overload through the DES runner, end to end.

These tests drive the whole stack — Poisson arrivals, the admission
front door, pivot-aware shedding, the watchdogs and graceful drain —
through the discrete-event runner, and certify whatever histories come
out with the shared offline checkers.
"""

from dataclasses import replace

from repro.core.admission import AdmissionConfig
from repro.core.scheduler import (
    ManagedStatus,
    TransactionalProcessScheduler,
)
from repro.sim.certify import certify_history
from repro.sim.harness import OVERLOAD, run_harness
from repro.sim.runner import Arrival, SimulationRunner
from repro.sim.workload import (
    ArrivalSpec,
    WorkloadSpec,
    generate_arrivals,
    generate_workload,
)


class TestOpenLoopOverload:
    def test_overloaded_run_certifies_and_sheds_only_brec(self):
        spec = replace(
            OVERLOAD,
            workload=WorkloadSpec(
                processes=16, service_pool=8, conflict_rate=0.05
            ),
            offered_load=2.0,
            admission=replace(
                OVERLOAD.admission,
                max_active=2,
                max_queue_depth=2,
                max_queue_age=6.0,
            ),
            seed=3,
        )
        result = run_harness(spec)
        assert result.certified
        assert result.frec_sheds == 0
        metrics = result.metrics
        assert metrics.processes_offered == 16
        # Conservation: every offer is accounted for exactly once.
        assert (
            metrics.processes_committed
            + metrics.processes_aborted
            + metrics.processes_rejected
            == 16
        )
        # The front door actually pushed back at 10x+ overload.
        assert metrics.processes_rejected > 0
        assert metrics.queue_depth_series
        assert metrics.peak_queue_depth <= spec.admission.max_queue_depth
        assert all(sojourn > 0 for sojourn in result.sojourns)

    def test_underloaded_run_admits_everything(self):
        spec = replace(
            OVERLOAD,
            workload=WorkloadSpec(
                processes=8, service_pool=8, conflict_rate=0.02
            ),
            offered_load=0.05,
            admission=replace(
                OVERLOAD.admission,
                max_active=4,
                max_queue_depth=4,
                max_queue_age=20.0,
            ),
            seed=1,
        )
        result = run_harness(spec)
        assert result.certified
        assert result.metrics.processes_rejected == 0
        assert result.metrics.processes_shed == 0
        assert result.metrics.processes_committed >= 6

    def test_reject_new_policy_never_sheds(self):
        spec = replace(
            OVERLOAD,
            workload=WorkloadSpec(
                processes=12, service_pool=8, conflict_rate=0.05
            ),
            offered_load=3.0,
            admission=AdmissionConfig(
                max_active=2,
                max_queue_depth=1,
                max_queue_age=None,
                shed_policy="reject-new",
            ),
            seed=2,
        )
        result = run_harness(spec)
        assert result.certified
        assert result.metrics.processes_shed == 0
        assert result.metrics.processes_rejected > 0


class TestGracefulDrain:
    def test_drain_mid_run_quiesces_the_open_system(self):
        workload = generate_workload(
            WorkloadSpec(processes=10, service_pool=8, conflict_rate=0.03)
        )
        scheduler = TransactionalProcessScheduler(
            conflicts=workload.conflicts,
            admission=AdmissionConfig(max_active=3, max_queue_depth=4),
        )
        drained_after = 4

        def maybe_drain(kind, info):
            if kind == "admitted" and scheduler.stats["admitted"] >= drained_after:
                scheduler.drain()

        scheduler.add_listener(maybe_drain)
        times = generate_arrivals(
            len(workload.processes), ArrivalSpec(offered_load=1.0, seed=5)
        )
        offers = [
            Arrival(time=time, process=process)
            for time, process in zip(times, workload.processes)
        ]
        SimulationRunner(
            scheduler, durations=workload.duration, offers=offers
        ).run()

        assert scheduler.drained
        assert scheduler.queue_depth() == 0
        # Exactly the pre-drain admissions ran; the rest were rejected.
        assert scheduler.stats["admitted"] == drained_after
        assert scheduler.stats["rejected"] == 10 - drained_after
        statuses = scheduler.statuses().values()
        assert all(status.is_terminal for status in statuses)
        # Everything admitted was driven to C(P), not dropped.
        committed = sum(
            1 for s in statuses if s is ManagedStatus.COMMITTED
        )
        assert committed == drained_after
        verdict = certify_history(
            scheduler.history(), scheduler.all_terminated()
        )
        assert verdict.certified

"""Property: a shed (or rejected) process leaves no trace.

Load shedding rides the scheduler's group-abort path, so a shed
process must end exactly like any aborted B-REC process: fully
compensated (ABORTED, never hardened), every lock released, no
prepared transaction left in any subsystem, and a clean WAL bracket
(``process_submit`` ... ``process_abort``).  Rejected offers are even
cheaper: they were never submitted, so they must not appear in the
WAL, the history, or the managed set at all.  Whatever the arrival
pressure, the surviving history stays PRED and every admitted process
terminates — overload control never trades correctness for load.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import AdmissionConfig
from repro.core.scheduler import (
    ManagedStatus,
    TransactionalProcessScheduler,
)
from repro.sim.certify import certify_history
from repro.sim.runner import Arrival, SimulationRunner
from repro.sim.workload import (
    ArrivalSpec,
    WorkloadSpec,
    generate_arrivals,
    generate_workload,
)
from repro.subsystems.wal import InMemoryWAL


@st.composite
def overload_cases(draw):
    """Small open-loop runs through a deliberately tight front door."""
    spec = WorkloadSpec(
        processes=draw(st.integers(4, 8)),
        service_pool=draw(st.integers(4, 8)),
        conflict_rate=draw(st.floats(0.0, 0.3)),
        alternative_probability=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**16)),
    )
    offered_load = draw(st.floats(0.3, 4.0))
    max_active = draw(st.integers(1, 3))
    max_queue_depth = draw(st.integers(0, 2))
    return spec, offered_load, max_active, max_queue_depth


@settings(max_examples=25, deadline=None)
@given(case=overload_cases())
def test_shed_and_rejected_processes_leave_no_trace(case):
    spec, offered_load, max_active, max_queue_depth = case
    workload = generate_workload(spec)
    wal = InMemoryWAL()
    scheduler = TransactionalProcessScheduler(
        conflicts=workload.conflicts,
        wal=wal,
        admission=AdmissionConfig(
            max_active=max_active,
            max_queue_depth=max_queue_depth,
            shed_policy="shed-youngest-brec",
        ),
    )
    times = generate_arrivals(
        len(workload.processes),
        ArrivalSpec(offered_load=offered_load, seed=spec.seed + 1),
    )
    offers = [
        Arrival(time=time, process=process, failures=workload.failures)
        for time, process in zip(times, workload.processes)
    ]
    SimulationRunner(
        scheduler, durations=workload.duration, offers=offers
    ).run()

    seed = spec.seed  # for failure messages
    assert scheduler.all_terminated(), f"non-terminated run (seed {seed})"

    # Shed processes: pure backward recovery, never a committed pivot.
    for pid in scheduler.shed_ids:
        managed = scheduler.managed(pid)
        assert managed.status is ManagedStatus.ABORTED, (
            f"shed process {pid} not aborted (seed {seed})"
        )
        assert not managed.is_hardened, (
            f"F-REC process {pid} was shed (seed {seed})"
        )

    # No residual locks or prepared transactions anywhere.
    for subsystem in scheduler.registry.subsystems():
        assert len(subsystem.locks) == 0, (
            f"residual locks in {subsystem.name} (seed {seed})"
        )
        assert subsystem.prepared_transactions() == [], (
            f"residual prepared txns in {subsystem.name} (seed {seed})"
        )

    # WAL bracket: every shed process was submitted and aborted; every
    # submit belongs to an actually-admitted process (rejected offers
    # never reached the log).
    records = wal.records()
    submitted = {
        record["process"]
        for record in records
        if record["type"] == "process_submit"
    }
    aborted = {
        record["process"]
        for record in records
        if record["type"] == "process_abort"
    }
    for pid in scheduler.shed_ids:
        assert pid in submitted, f"shed {pid} missing WAL submit ({seed})"
        assert pid in aborted, f"shed {pid} missing WAL abort ({seed})"
    assert submitted == set(scheduler.instance_ids()), (
        f"WAL submits do not match admitted processes (seed {seed})"
    )
    assert len(submitted) == scheduler.stats["admitted"]

    # Rejected offers leave nothing in the managed set either.
    offered = scheduler.stats["offered"]
    rejected = scheduler.stats["rejected"]
    assert len(scheduler.instance_ids()) == offered - rejected

    # The history the shedding produced is still certifiable.
    verdict = certify_history(
        scheduler.history(), scheduler.all_terminated()
    )
    assert verdict.certified, (
        f"history failed certification after shedding (seed {seed}): "
        f"{verdict.describe()}"
    )

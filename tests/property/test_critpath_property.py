"""Property: critical-path attribution partitions end-to-end latency.

For every process in an arbitrary federated run — cross-shard
footprints, conflicts, message faults, shard kills that push commits
through the in-doubt termination protocol — the per-phase durations
extracted by :func:`repro.obs.critpath.critical_paths` must sum to the
process span's end-to-end duration (± sim-time epsilon).  If attribution
ever over- or under-counts, ``repro slow``'s "where did the milliseconds
go" tables would lie; this property is the contract benchmark X16 gates
at the 1% level, checked here exactly on random workloads.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MemorySink, TraceBus, critical_paths, reconcile, validate_stream
from repro.nemesis import FederationSpec, run_plan

#: Virtual-time slack per process: segmentation is exact arithmetic on
#: event timestamps, so anything above float noise is a real bug.
EPSILON = 1e-6


@st.composite
def federation_specs(draw):
    """Small federated runs biased toward interesting latency shapes."""
    kills = ()
    if draw(st.booleans()):
        # A mid-run shard kill forces recovery, in-doubt resolution and
        # visible 2PC vote / decision-persist phases on survivors.
        kills = ((draw(st.floats(2.0, 8.0)), 1, draw(st.floats(1.0, 4.0))),)
    return FederationSpec(
        shards=draw(st.integers(2, 3)),
        service_groups=draw(st.integers(3, 6)),
        processes_per_group=draw(st.integers(1, 2)),
        cross_shard_fraction=draw(st.sampled_from([0.0, 0.5, 1.0])),
        conflict_rate=draw(st.floats(0.0, 0.4)),
        drop_rate=draw(st.sampled_from([0.0, 0.05])),
        delay_rate=draw(st.sampled_from([0.0, 0.2])),
        kills=kills,
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=15, deadline=None)
@given(spec=federation_specs())
def test_phase_durations_partition_process_spans(spec):
    bus = TraceBus()
    sink = bus.subscribe(MemorySink())
    run_plan(spec, invariants=[], trace=bus)
    records = sink.records()
    validate_stream(records)

    paths = critical_paths(records)
    assert paths, "a federated run must yield at least one process path"
    for process, path in paths.items():
        total = sum(path.phases.values())
        assert abs(total - path.duration) <= EPSILON, (
            f"{process}: phases sum to {total}, span is {path.duration} "
            f"(seed={spec.seed})"
        )
        if path.duration > 0:
            assert path.dominant is not None
    # The fleet-level reconciliation X16 gates at 1% holds exactly here.
    assert reconcile(paths) <= EPSILON

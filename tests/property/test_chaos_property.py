"""Property: chaos never breaks the theory.

Under *any* seeded mix of injected faults — aborts, latency spikes,
hangs, crash-stop outages — driven through the resilience layer
(timeouts, backoff, breakers, ◁-degradation), the scheduler's completed
history must stay reducible (RED), prefix-reducible (PRED), and every
process must reach a terminal state (guaranteed termination).  This is
the issue's acceptance property: breaker-driven degradation switches
execution paths, and the offline checkers must not notice anything
illegal about the histories that result.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pred import check_pred
from repro.core.reduction import reduce_schedule
from repro.resilience import BreakerConfig, RetryPolicy
from repro.sim.harness import HarnessSpec, run_harness
from repro.sim.workload import WorkloadSpec


@st.composite
def chaos_specs(draw):
    """Random small chaos experiments: fault mix × workload shape."""
    # Rates are drawn small enough to always sum below 1.
    abort_rate = draw(st.floats(0.0, 0.3))
    latency_rate = draw(st.floats(0.0, 0.2))
    hang_rate = draw(st.floats(0.0, 0.2))
    crash_rate = draw(st.floats(0.0, 0.2))
    return HarnessSpec(
        name="prop",
        workload=WorkloadSpec(
            processes=draw(st.integers(2, 5)),
            alternative_probability=draw(st.floats(0.0, 1.0)),
            service_pool=draw(st.integers(4, 10)),
            conflict_rate=draw(st.floats(0.0, 0.1)),
        ),
        abort_rate=abort_rate,
        latency_rate=latency_rate,
        hang_rate=hang_rate,
        crash_rate=crash_rate,
        max_consecutive=draw(st.integers(2, 5)),
        retry=RetryPolicy(
            timeout=draw(st.floats(1.0, 5.0)),
            max_attempts=draw(st.integers(2, 4)),
            base_delay=0.2,
        ),
        breaker=BreakerConfig(
            failure_threshold=draw(st.integers(1, 3)),
            reset_timeout=draw(st.floats(2.0, 10.0)),
        ),
        target_services=draw(
            st.one_of(st.none(), st.integers(1, 4))
        ),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(max_examples=25, deadline=None)
@given(spec=chaos_specs())
def test_chaos_histories_stay_red_and_pred(spec):
    """Any seeded chaos mix yields a RED + PRED history and every
    process terminates — degradation to ◁-alternatives included."""
    verdict = run_harness(spec, certify=False).certification
    assert verdict.terminated, (
        f"guaranteed termination violated under chaos (seed {spec.seed})"
    )
    assert verdict.reducible, (
        f"completed schedule not reducible after chaos (seed {spec.seed})"
    )
    assert verdict.pred, (
        f"history not prefix-reducible after chaos (seed {spec.seed})"
    )


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_breaker_degradation_preserves_reducibility(seed):
    """The degradation-heavy regime: concentrated faults, hair-trigger
    breakers, alternatives everywhere.  Whenever a ◁-alternative is
    taken, the history it leaves behind must still reduce."""
    spec = HarnessSpec(
        name="degradation",
        workload=WorkloadSpec(
            processes=5,
            alternative_probability=1.0,
            prefix_range=(2, 4),
            service_pool=8,
            conflict_rate=0.03,
        ),
        abort_rate=0.25,
        latency_rate=0.1,
        hang_rate=0.1,
        crash_rate=0.15,
        target_services=2,
        breaker=BreakerConfig(failure_threshold=1, reset_timeout=8.0),
        seed=seed,
    )
    verdict = run_harness(spec, certify=False).certification
    assert verdict.terminated and verdict.reducible and verdict.pred


def test_degradation_regime_actually_degrades():
    """Sanity for the property above: the degradation-heavy regime does
    exercise the ◁-switch (otherwise the property tests vacuously)."""
    spec = HarnessSpec(
        name="degradation",
        workload=WorkloadSpec(
            processes=5,
            alternative_probability=1.0,
            prefix_range=(2, 4),
            service_pool=8,
            conflict_rate=0.03,
        ),
        abort_rate=0.25,
        latency_rate=0.1,
        hang_rate=0.1,
        crash_rate=0.15,
        target_services=2,
        breaker=BreakerConfig(failure_threshold=1, reset_timeout=8.0),
    )
    degradations = 0
    for seed in range(8):
        result = run_harness(spec.with_seed(seed), certify=False)
        assert result.certification.terminated
        degradations += result.counters["degradations"]
    assert degradations >= 1

"""The chaos harness: seeded fault sweeps stay PRED-certifiable."""

import pytest

from repro.errors import CorrectnessViolation
from repro.sim.harness import (
    HarnessSpec,
    default_mixes,
    harness_sweep,
    run_harness,
)
from repro.sim.workload import WorkloadSpec


def small_spec(**overrides):
    defaults = dict(
        name="test",
        workload=WorkloadSpec(
            processes=4,
            alternative_probability=0.9,
            prefix_range=(2, 4),
            service_pool=8,
            conflict_rate=0.03,
        ),
        abort_rate=0.15,
        latency_rate=0.1,
        hang_rate=0.1,
        crash_rate=0.1,
        target_services=3,
        seed=1,
    )
    defaults.update(overrides)
    return HarnessSpec(**defaults)


class TestRunChaos:
    def test_run_is_certified(self):
        result = run_harness(small_spec())
        assert result.certified
        assert result.certification.certified

    def test_deterministic_given_seed(self):
        first = run_harness(small_spec())
        second = run_harness(small_spec())
        assert first.chaos_row() == second.chaos_row()

    def test_different_seeds_differ(self):
        rows = [run_harness(small_spec(seed=s)).chaos_row() for s in range(4)]
        assert len({tuple(sorted(r.items())) for r in rows}) > 1

    def test_fault_counters_recorded(self):
        result = run_harness(small_spec())
        assert result.metrics.faults_injected == sum(result.injected.values())
        assert result.metrics.faults_injected > 0
        assert set(result.injected) == {"abort", "latency", "hang", "crash"}

    def test_counters_surface_resilience_activity(self):
        result = run_harness(small_spec())
        assert {
            "retries",
            "timeouts",
            "unavailable",
            "degradations",
            "breaker_trips",
        } <= set(result.counters)

    def test_zero_fault_spec_is_clean(self):
        result = run_harness(
            small_spec(
                abort_rate=0.0, latency_rate=0.0, hang_rate=0.0, crash_rate=0.0
            )
        )
        assert result.certified
        assert result.metrics.faults_injected == 0


class TestChaosSweep:
    def test_default_mixes_cover_all_fault_classes(self):
        names = [spec.name for spec in default_mixes()]
        assert names == ["aborts", "latency", "hangs", "crashes", "mixed"]

    def test_sweep_certifies_every_run(self):
        mixes = [small_spec(name="mixed")]
        results = harness_sweep(mixes, seeds=(0, 1, 2))
        assert len(results) == 3
        assert all(result.certified for result in results)

    def test_sweep_takes_alternatives_without_exhausting_retries(self):
        """The issue's acceptance bar: under the standard mixes at least
        one process switches to a ◁-alternative proactively — without
        burning through its whole retry budget first."""
        results = harness_sweep(seeds=(1,))
        degradations = sum(
            result.counters["degradations"] for result in results
        )
        assert degradations >= 1
        assert all(result.certified for result in results)

    def test_certify_raises_on_violation(self, monkeypatch):
        """If the offline checker rejected a history, certify=True must
        raise — the harness is a hard assertion, not a report."""
        import repro.sim.certify as certify_module

        class Rejected:
            is_pred = False

        monkeypatch.setattr(
            certify_module, "check_pred", lambda history: Rejected()
        )
        with pytest.raises(CorrectnessViolation):
            run_harness(small_spec())
        # certify=False reports the failed grade instead of raising.
        result = run_harness(small_spec(), certify=False)
        assert not result.certification.pred and not result.certified

"""Unit tests for the unified fault model and its injector adapters.

Covers the :class:`~repro.nemesis.plan.FaultPlan` JSON contract,
seeded-plan determinism, the five adapter translations
(:mod:`repro.nemesis.adapters`), fault-site coverage accounting and
the :class:`~repro.nemesis.executor.FederationSpec` round trip.
"""

import json
import random
from dataclasses import replace

import pytest

from repro.fed.messages import MessageFaultPolicy
from repro.nemesis import (
    ALL_SITES,
    FAMILIES,
    FAMILY_OF,
    NEMESIS,
    CoverageReport,
    FaultAction,
    FaultPlan,
    FederationSpec,
    PlannedMessageFaults,
    PlannedSubsystemFaults,
    disk_arming,
    kill_schedule,
    partition_schedule,
    plan_for,
    random_plan,
    wal_crash_triggers,
)
from repro.obs import MetricsRegistry


class _Clock:
    def __init__(self, now=0.0):
        self.now = now


class TestFaultAction:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultAction(kind="meteor")

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            FaultAction(kind="abort", at=-1.0)
        with pytest.raises(ValueError):
            FaultAction(kind="abort", duration=-1.0)

    def test_window_semantics(self):
        windowed = FaultAction(kind="abort", target="s", at=2.0, duration=3.0)
        assert not windowed.active(1.9)
        assert windowed.active(2.0)
        assert windowed.active(4.9)
        assert not windowed.active(5.0)
        point = FaultAction(kind="abort", target="s", at=2.0)
        assert point.active(2.0)
        assert not point.active(2.1)

    def test_every_kind_has_a_family(self):
        for kind, family in FAMILY_OF.items():
            assert family in FAMILIES
            assert FaultAction(kind=kind).family == family

    def test_round_trip(self):
        action = FaultAction(
            kind="wal_crash", target="s1", at=1.5, duration=2.0, param=12.0
        )
        assert FaultAction.from_dict(action.to_dict()) == action


class TestFaultPlan:
    def _plan(self):
        return FaultPlan(
            seed=9,
            actions=(
                FaultAction(kind="abort", target="a", at=1.0, duration=2.0),
                FaultAction(kind="msg_drop", at=0.5, duration=4.0, param=0.3),
                FaultAction(kind="kill", target="s0", at=3.0, duration=2.0),
            ),
        )

    def test_json_round_trip(self):
        plan = self._plan()
        payload = plan.to_dict()
        assert payload["format"] == "repro/fault-plan"
        assert FaultPlan.from_dict(payload) == plan

    def test_from_dict_rejects_foreign_format(self):
        with pytest.raises(ValueError, match="not a fault plan"):
            FaultPlan.from_dict({"format": "repro/schedule"})

    def test_family_slices(self):
        plan = self._plan()
        assert [a.kind for a in plan.by_family("subsystem")] == ["abort"]
        assert [a.kind for a in plan.by_kind("kill")] == ["kill"]
        counts = plan.family_counts()
        assert counts["subsystem"] == 1
        assert counts["message"] == 1
        assert counts["kill"] == 1
        assert counts["disk"] == 0

    def test_shrinker_moves(self):
        plan = self._plan()
        smaller = plan.without([1])
        assert len(smaller) == 2
        assert all(a.kind != "msg_drop" for a in smaller.actions)
        swapped = plan.with_action(
            0, FaultAction(kind="hang", target="a", at=1.0)
        )
        assert swapped.actions[0].kind == "hang"
        assert plan.actions[0].kind == "abort"  # frozen original


class TestRandomPlan:
    def test_deterministic_per_seed(self):
        services = ["g0s0", "g0s1", "g1s0"]
        shards = ["s0", "s1"]
        one = random_plan(random.Random(42), services, shards, actions=10)
        two = random_plan(random.Random(42), services, shards, actions=10)
        assert one == two
        other = random_plan(random.Random(43), services, shards, actions=10)
        assert one != other

    def test_sorted_by_trigger_time(self):
        plan = random_plan(
            random.Random(7), ["a", "b"], ["s0", "s1"], actions=12
        )
        times = [action.at for action in plan.actions]
        assert times == sorted(times)

    def test_single_shard_draws_no_partitions(self):
        plan = random_plan(
            random.Random(3), ["a", "b"], ["s0"], actions=40
        )
        assert not plan.by_kind("partition")

    def test_plan_for_is_pure(self):
        spec = NEMESIS.with_seed(5)
        assert plan_for(spec, 11, 3) == plan_for(spec, 11, 3)
        assert plan_for(spec, 11, 3) != plan_for(spec, 11, 4)


class TestSubsystemAdapter:
    def test_windowed_faults_and_bounded_failures(self):
        clock = _Clock(1.0)
        plan = FaultPlan(
            actions=(
                FaultAction(kind="abort", target="svc", at=0.0, duration=9.0),
            )
        )
        policy = PlannedSubsystemFaults(plan, clock, max_consecutive=2)
        assert policy.fault_for("svc", 0) is not None
        assert policy.fault_for("svc", 1) is not None
        # Bounded failures: the third consecutive attempt must succeed.
        assert policy.fault_for("svc", 2) is None
        assert policy.fault_for("other", 0) is None
        clock.now = 20.0  # outside the window
        assert policy.fault_for("svc", 0) is None
        assert policy.injected["abort"] == 2

    def test_crash_is_fail_fast_inside_window(self):
        from repro.subsystems.failures import FaultKind

        clock = _Clock(2.0)
        plan = FaultPlan(
            actions=(
                FaultAction(kind="crash", target="svc", at=1.0, duration=4.0),
            )
        )
        policy = PlannedSubsystemFaults(plan, clock)
        fault = policy.fault_for("svc", 0)
        assert fault is not None and fault.kind is FaultKind.ABORT
        assert policy.injected["crash"] == 1


class TestMessageAdapter:
    def test_windowed_probabilistic_verdicts(self):
        clock = _Clock(5.0)
        plan = FaultPlan(
            seed=17,
            actions=(
                FaultAction(kind="msg_drop", at=0.0, duration=10.0, param=1.0),
            ),
        )
        policy = PlannedMessageFaults(plan, clock)
        assert policy.drop()  # param=1.0 always fires inside the window
        assert policy.injected["drop"] == 1
        clock.now = 50.0
        assert not policy.drop()
        # No delay/dup windows -> never fires.
        assert policy.delay() == 0.0
        assert not policy.duplicate()

    def test_same_seed_same_verdict_stream(self):
        plan = FaultPlan(
            seed=23,
            actions=(
                FaultAction(kind="msg_drop", at=0.0, duration=10.0, param=0.4),
            ),
        )
        stream_a = [
            PlannedMessageFaults(plan, _Clock(1.0)).drop() for _ in range(1)
        ]
        one = PlannedMessageFaults(plan, _Clock(1.0))
        two = PlannedMessageFaults(plan, _Clock(1.0))
        assert [one.drop() for _ in range(20)] == [
            two.drop() for _ in range(20)
        ]
        assert stream_a  # constructed fine

    @staticmethod
    def _verdicts(policy, count=60):
        return [
            (policy.drop(), policy.delay(), policy.duplicate())
            for _ in range(count)
        ]

    def test_base_rates_outside_windows_match_a_bare_policy(self):
        plan = FaultPlan(
            seed=23,
            actions=(
                FaultAction(kind="msg_drop", at=0.0, duration=1.0, param=1.0),
                FaultAction(kind="msg_delay", at=0.0, duration=1.0, param=1.0),
                FaultAction(kind="msg_dup", at=0.0, duration=1.0, param=1.0),
            ),
        )
        rates = dict(drop_rate=0.3, delay_rate=0.3, duplicate_rate=0.3, seed=7)
        composed = PlannedMessageFaults(plan, _Clock(5.0), **rates)
        bare = MessageFaultPolicy(**rates)
        assert self._verdicts(composed) == self._verdicts(bare)
        assert composed.injected == bare.injected
        assert composed.injected["drop"] > 0

    def test_window_param_and_plan_stream_decide_inside_a_window(self):
        plan = FaultPlan(
            seed=23,
            actions=(
                FaultAction(kind="msg_drop", at=0.0, duration=10.0, param=0.4),
                FaultAction(kind="msg_delay", at=0.0, duration=10.0, param=0.4),
                FaultAction(kind="msg_dup", at=0.0, duration=10.0, param=0.0),
            ),
        )
        clock = _Clock(1.0)
        with_base = PlannedMessageFaults(
            plan,
            clock,
            drop_rate=0.9,
            delay_rate=0.9,
            duplicate_rate=0.9,
            seed=7,
        )
        without_base = PlannedMessageFaults(plan, clock)
        inside = self._verdicts(with_base)
        assert inside == self._verdicts(without_base)
        # param=0.0 never fires, whatever the base rate says.
        assert not any(duplicate for _, _, duplicate in inside)
        # The base stream was not drawn inside the window.
        clock.now = 20.0
        bare = MessageFaultPolicy(
            drop_rate=0.9, delay_rate=0.9, duplicate_rate=0.9, seed=7
        )
        assert self._verdicts(with_base) == self._verdicts(bare)

    def test_zero_base_rates_draw_nothing(self):
        plan = FaultPlan(
            seed=23,
            actions=(
                FaultAction(kind="msg_drop", at=5.0, duration=1.0, param=0.5),
            ),
        )
        policy = PlannedMessageFaults(plan, _Clock(1.0), seed=7)
        base, planned = policy._rng.getstate(), policy._plan_rng.getstate()
        assert self._verdicts(policy) == [(False, 0.0, False)] * 60
        assert policy._rng.getstate() == base
        assert policy._plan_rng.getstate() == planned


class TestScheduleAdapters:
    def test_kill_schedule_drops_overlapping_kills(self):
        plan = FaultPlan(
            actions=(
                FaultAction(kind="kill", target="s0", at=2.0, duration=4.0),
                FaultAction(kind="kill", target="s0", at=3.0, duration=2.0),
                FaultAction(kind="kill", target="s0", at=8.0, duration=1.0),
                FaultAction(kind="kill", target="ghost", at=1.0, duration=1.0),
            )
        )
        rows = kill_schedule(plan, ["s0", "s1"])
        assert rows == [(2.0, "s0", 4.0), (8.0, "s0", 1.0)]

    def test_kill_outages_serialized_across_shards(self):
        # Shard recovery drains synchronously and needs every peer up,
        # so concurrent outages of *different* shards are sanitized too.
        plan = FaultPlan(
            actions=(
                FaultAction(kind="kill", target="s0", at=2.0, duration=4.0),
                FaultAction(kind="kill", target="s1", at=3.0, duration=4.0),
                FaultAction(kind="kill", target="s1", at=7.0, duration=2.0),
            )
        )
        rows = kill_schedule(plan, ["s0", "s1"])
        assert rows == [(2.0, "s0", 4.0), (7.0, "s1", 2.0)]

    def test_partition_schedule_parses_pairs(self):
        plan = FaultPlan(
            actions=(
                FaultAction(
                    kind="partition", target="s0|s1", at=1.0, duration=2.0
                ),
                FaultAction(
                    kind="partition", target="s0|ghost", at=2.0, duration=2.0
                ),
                FaultAction(
                    kind="partition", target="s0|s0", at=3.0, duration=2.0
                ),
            )
        )
        assert partition_schedule(plan, ["s0", "s1"]) == [
            (1.0, "s0", "s1", 2.0)
        ]

    def test_partition_avoids_recovery_instants(self):
        plan = FaultPlan(
            actions=(
                FaultAction(
                    kind="partition", target="s0|s1", at=1.0, duration=2.0
                ),
                FaultAction(
                    kind="partition", target="s0|s1", at=5.0, duration=3.0
                ),
            )
        )
        # A recovery drain at t=6 needs the link up: that window drops.
        rows = partition_schedule(plan, ["s0", "s1"], avoid=[6.0])
        assert rows == [(1.0, "s0", "s1", 2.0)]

    def test_disk_arming_and_wal_triggers(self):
        plan = FaultPlan(
            actions=(
                FaultAction(kind="fsync_fail", at=4.0, param=2.0),
                FaultAction(kind="fsync_fail", at=6.0, param=0.0),
                FaultAction(
                    kind="wal_crash", target="s1", duration=3.0, param=12.0
                ),
                FaultAction(
                    kind="wal_crash", target="ghost", duration=3.0, param=5.0
                ),
            )
        )
        assert disk_arming(plan) == [(4.0, 2), (6.0, 1)]
        assert wal_crash_triggers(plan, ["s0", "s1"]) == [("s1", 12, 3.0)]


class TestCoverage:
    def test_percent_and_merge(self):
        report = CoverageReport()
        assert report.percent == 0.0
        report.record("subsystem", "abort")
        report.record("subsystem", "abort", 2)
        other = CoverageReport()
        other.record("disk", "fsync", 3)
        report.merge(other)
        assert report.total_delivered == 6
        assert set(report.families_covered()) == {"subsystem", "disk"}
        assert 0 < report.percent < 100
        assert report.percent == pytest.approx(2 / len(ALL_SITES) * 100)

    def test_publish_to_metrics_registry(self):
        registry = MetricsRegistry()
        report = CoverageReport()
        report.record("kill", "kill", 2)
        report.publish(registry)
        snapshot = registry.snapshot()
        assert snapshot["nemesis_faults_kill_kill"] == 2
        assert snapshot["nemesis_fault_site_coverage_percent"] == round(
            report.percent, 2
        )


class TestFederationSpec:
    def test_round_trip(self):
        spec = replace(
            NEMESIS,
            shards=3,
            backend="sqlite",
            seed=4,
            kills=((4.0, 1, 2.0),),
            partitions=((2.0, 0, 2, 1.0),),
        )
        clone = FederationSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        assert isinstance(clone.kills[0], tuple)

    def test_keys_of_dropped_fields_are_ignored(self):
        payload = dict(
            NEMESIS.to_dict(),
            check_every=8,
            indoubt_timeout=5.0,
            prefix_range=[1, 2],
        )
        assert FederationSpec.from_dict(payload) == NEMESIS

    def test_validation(self):
        with pytest.raises(ValueError):
            replace(NEMESIS, shards=0)
        with pytest.raises(ValueError):
            replace(NEMESIS, backend="punchcards")
        with pytest.raises(ValueError):
            replace(NEMESIS, cross_shard_fraction=1.5)

    def test_names(self):
        spec = replace(NEMESIS, shards=2, service_groups=3, services_per_group=2)
        assert spec.shard_names() == ["s0", "s1"]
        assert len(spec.service_names()) == 6
        disjoint = replace(spec, processes_per_group=3, disjoint_processes=True)
        assert len(disjoint.service_names()) == 18

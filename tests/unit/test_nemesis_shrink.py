"""Unit tests for the delta-debugging shrinker (failure minimization).

Synthetic oracles (no simulator runs) pin the three properties the
shrinker promises: **determinism** (same inputs, same minimal plan),
**termination** (bounded oracle calls even for adversarial predicates)
and **1-minimality** (removing any single action from the result loses
the violation).
"""

from dataclasses import replace

from repro.nemesis import (
    NEMESIS,
    FaultAction,
    FaultPlan,
    ddmin_actions,
    shrink,
)


def _actions(n):
    return tuple(
        FaultAction(kind="abort", target=f"svc{i}", at=float(i), duration=4.0)
        for i in range(n)
    )


def _targets(subset):
    return {action.target for action in subset}


class TestDdminActions:
    def test_single_culprit(self):
        actions = _actions(8)

        def test(subset):
            return "svc3" in _targets(subset)

        minimal = ddmin_actions(actions, test)
        assert _targets(minimal) == {"svc3"}

    def test_pair_culprit_is_one_minimal(self):
        actions = _actions(10)
        calls = []

        def test(subset):
            calls.append(len(subset))
            return {"svc2", "svc7"} <= _targets(subset)

        minimal = ddmin_actions(actions, test)
        assert _targets(minimal) == {"svc2", "svc7"}
        # 1-minimality: dropping either survivor loses the violation.
        for index in range(len(minimal)):
            assert not test(minimal[:index] + minimal[index + 1:])

    def test_empty_subset_reachable(self):
        actions = _actions(5)
        minimal = ddmin_actions(actions, lambda subset: True)
        assert minimal == ()

    def test_nothing_removable(self):
        actions = _actions(4)

        def test(subset):
            return len(subset) == 4

        assert ddmin_actions(actions, test) == actions

    def test_deterministic(self):
        actions = _actions(12)

        def predicate(subset):
            targets = _targets(subset)
            return "svc1" in targets and "svc9" in targets

        assert ddmin_actions(actions, predicate) == ddmin_actions(
            actions, predicate
        )

    def test_terminates_under_adversarial_predicate(self):
        """A predicate that flips with subset parity cannot loop forever."""
        actions = _actions(9)
        calls = {"n": 0}

        def predicate(subset):
            calls["n"] += 1
            assert calls["n"] < 2_000, "ddmin did not terminate"
            return len(subset) % 2 == 1 or len(subset) == len(actions)

        minimal = ddmin_actions(actions, predicate)
        assert len(minimal) <= len(actions)


class TestShrink:
    def _plan(self, n=8):
        return FaultPlan(seed=3, actions=_actions(n))

    def test_minimizes_actions_windows_and_workload(self):
        spec = replace(
            NEMESIS, shards=2, service_groups=4, processes_per_group=3
        )

        def reproduces(candidate_spec, candidate):
            return "svc5" in _targets(candidate.actions)

        result = shrink(spec, self._plan(), reproduces, max_runs=200)
        assert _targets(result.plan.actions) == {"svc5"}
        assert result.original_actions == 8
        assert result.minimal_actions == 1
        assert result.shrink_ratio == 8.0
        # Stage 2 halved the surviving window three times: 4 -> 0.5.
        assert result.plan.actions[0].duration == 0.5
        # Stage 3 shrank the workload to the floor.
        assert result.spec.processes_per_group == 1
        assert result.spec.service_groups == spec.shards
        assert result.runs <= 200

    def test_workload_shrink_stops_where_repro_is_lost(self):
        spec = replace(
            NEMESIS, shards=2, service_groups=5, processes_per_group=3
        )

        def reproduces(candidate_spec, candidate):
            # Needs at least 2 processes per group and 4 groups.
            return (
                candidate_spec.processes_per_group >= 2
                and candidate_spec.service_groups >= 4
                and len(candidate.actions) >= 1
            )

        result = shrink(spec, self._plan(4), reproduces, max_runs=200)
        assert result.spec.processes_per_group == 2
        assert result.spec.service_groups == 4

    def test_budget_exhaustion_is_conservative(self):
        spec = NEMESIS
        plan = self._plan(8)

        def reproduces(candidate_spec, candidate):
            return "svc2" in _targets(candidate.actions)

        tight = shrink(spec, plan, reproduces, max_runs=3)
        # With only 3 oracle runs the plan cannot fully minimize, but
        # the result must still reproduce (shrink never returns a
        # non-reproducing plan) and stay within budget.
        assert tight.runs <= 3
        assert "svc2" in _targets(tight.plan.actions)

    def test_deterministic_end_to_end(self):
        spec = replace(NEMESIS, processes_per_group=2)
        plan = self._plan(10)

        def reproduces(candidate_spec, candidate):
            targets = _targets(candidate.actions)
            return "svc3" in targets and "svc8" in targets

        one = shrink(spec, plan, reproduces, max_runs=300)
        two = shrink(spec, plan, reproduces, max_runs=300)
        assert one.plan == two.plan
        assert one.spec == two.spec
        assert one.runs == two.runs

    def test_memoization_avoids_duplicate_oracle_runs(self):
        spec = NEMESIS
        plan = self._plan(6)
        seen = []

        def reproduces(candidate_spec, candidate):
            key = (candidate_spec, candidate)
            assert key not in seen, "oracle re-ran a memoized candidate"
            seen.append(key)
            return "svc1" in _targets(candidate.actions)

        shrink(spec, plan, reproduces, max_runs=500)

    def test_zero_duration_actions_skip_window_stage(self):
        spec = NEMESIS
        plan = FaultPlan(
            actions=(FaultAction(kind="fsync_fail", at=1.0, param=2.0),)
        )
        result = shrink(spec, plan, lambda s, p: True, max_runs=50)
        # ddmin reduces to the empty plan; no window to halve.
        assert result.plan.actions == ()
        assert result.shrink_ratio == 1.0


class TestShrinkWithRealViolationShape:
    def test_replace_preserves_plan_seed(self):
        plan = FaultPlan(seed=77, actions=_actions(3))
        assert replace(plan, actions=plan.actions[:1]).seed == 77

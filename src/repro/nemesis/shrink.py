"""Failure minimization: delta-debugging over fault plans.

When the search finds a violating plan, the shrinker minimizes it
while the violation keeps reproducing, in three deterministic stages:

1. **drop actions** — classic ddmin (Zeller/Hildebrandt) over the
   action list, followed by an explicit single-removal pass, so the
   surviving plan is *1-minimal*: removing any one action loses the
   violation;
2. **tighten windows** — halve each surviving action's duration while
   the violation reproduces (bounded halvings, so termination is by
   construction);
3. **shrink the workload** — fewer processes per group, then fewer
   service groups, while the violation reproduces.

The only oracle is ``reproduces(spec, plan) -> bool`` — in production
a full :func:`~repro.nemesis.executor.run_plan` comparing violation
identities, in the shrinker's own unit tests a synthetic predicate.
Every candidate is memoized, the run budget is a hard cap (exhaustion
answers ``False``, which is conservative: the current plan already
reproduces), and there is no randomness anywhere — the same inputs
always shrink to the same plan.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Callable, Dict, Tuple

from repro.nemesis.plan import FaultAction, FaultPlan

__all__ = ["ShrinkResult", "ddmin_actions", "shrink"]


@dataclass
class ShrinkResult:
    """A minimized reproduction: the plan, its spec, and the cost."""

    spec: object
    plan: FaultPlan
    original_actions: int
    runs: int = 0

    @property
    def minimal_actions(self) -> int:
        return len(self.plan.actions)

    @property
    def shrink_ratio(self) -> float:
        """Found-plan actions per minimal-plan action (>= 1.0)."""
        if self.minimal_actions == 0:
            return float(self.original_actions) if self.original_actions else 1.0
        return self.original_actions / self.minimal_actions


def ddmin_actions(
    actions: Tuple[FaultAction, ...],
    test: Callable[[Tuple[FaultAction, ...]], bool],
) -> Tuple[FaultAction, ...]:
    """Minimize an action tuple with ddmin plus a 1-minimality pass.

    ``test(subset)`` answers whether the violation still reproduces
    with exactly that subset; ``test(actions)`` is assumed true.
    Deterministic and terminating: the subset length strictly
    decreases on every accepted step, and the granularity doubles (a
    finite ladder) between rejected sweeps.
    """
    current = tuple(actions)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        complements = []
        for start in range(0, len(current), chunk):
            complements.append(current[:start] + current[start + chunk:])
        reduced = False
        for complement in complements:
            if len(complement) < len(current) and test(complement):
                current = complement
                granularity = max(2, granularity - 1)
                reduced = True
                break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    # 1-minimality: no single action may be removable.
    changed = True
    while changed and len(current) > 1:
        changed = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1:]
            if test(candidate):
                current = candidate
                changed = True
                break
    if len(current) == 1 and test(()):
        current = ()
    return current


class _Oracle:
    """Memoizing, budgeted wrapper around the reproduces predicate."""

    def __init__(
        self,
        reproduces: Callable[[object, FaultPlan], bool],
        max_runs: int,
    ) -> None:
        self._reproduces = reproduces
        self._max_runs = max_runs
        self._cache: Dict[Tuple, bool] = {}
        self.runs = 0

    @staticmethod
    def _key(spec: object, plan: FaultPlan) -> Tuple:
        return (
            json.dumps(spec.to_dict(), sort_keys=True),
            json.dumps(plan.to_dict(), sort_keys=True),
        )

    def __call__(self, spec: object, plan: FaultPlan) -> bool:
        key = self._key(spec, plan)
        if key in self._cache:
            return self._cache[key]
        if self.runs >= self._max_runs:
            return False
        self.runs += 1
        verdict = bool(self._reproduces(spec, plan))
        self._cache[key] = verdict
        return verdict


def shrink(
    spec,
    plan: FaultPlan,
    reproduces: Callable[[object, FaultPlan], bool],
    max_runs: int = 256,
) -> ShrinkResult:
    """Minimize ``(spec, plan)`` while ``reproduces`` stays true."""
    oracle = _Oracle(reproduces, max_runs)
    current_spec = spec
    current = plan

    # Stage 1: drop actions (ddmin + 1-minimality).
    def action_test(subset: Tuple[FaultAction, ...]) -> bool:
        return oracle(current_spec, replace(current, actions=subset))

    minimal_actions = ddmin_actions(current.actions, action_test)
    current = replace(current, actions=minimal_actions)

    # Stage 2: tighten windows (bounded halvings per action).
    for index in range(len(current.actions)):
        for _ in range(3):
            action = current.actions[index]
            if action.duration < 0.5:
                break
            tightened = current.with_action(
                index, replace(action, duration=round(action.duration / 2, 3))
            )
            if oracle(current_spec, tightened):
                current = tightened
            else:
                break

    # Stage 3: shrink the workload while the violation survives.
    candidates = []
    for processes in range(spec.processes_per_group - 1, 0, -1):
        candidates.append(replace(current_spec, processes_per_group=processes))
    for candidate in candidates:
        if oracle(candidate, current):
            current_spec = candidate
        else:
            break
    if current_spec.service_groups > current_spec.shards:
        for groups in range(
            current_spec.service_groups - 1, current_spec.shards - 1, -1
        ):
            candidate = replace(current_spec, service_groups=groups)
            if oracle(candidate, current):
                current_spec = candidate
            else:
                break

    return ShrinkResult(
        spec=current_spec,
        plan=current,
        original_actions=len(plan.actions),
        runs=oracle.runs,
    )

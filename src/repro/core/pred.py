"""Prefix-reducibility — the paper's correctness criterion (Definition 10).

``RED`` is not prefix closed: a schedule whose completion reduces today
may have had a prefix whose completion did not (Example 8).  A dynamic
scheduler must therefore guarantee **prefix-reducibility (PRED)**: every
prefix of the schedule — completed with the group abort of the processes
active *at that point* — must be reducible.

:func:`check_pred` evaluates the criterion offline and reports the first
violating prefix together with its reduction witness.  It makes one
forward pass over the history through a
:class:`~repro.core.reduction.PrefixCertifier`, which carries one live
process-instance replica per process from prefix to prefix: each event
advances one replica by one step instead of every prefix re-replaying
every process from scratch.  No SOT-like shortcut exists (§3.5), so
every prefix is still completed and reduced, and each of those steps is
quadratic in the prefix length: the total cost stays superlinear, as
benchmark X4 measures — which is why the online scheduler enforces PRED
constructively via the paper's lemmas instead of re-checking it.  The
checker stays independent of the online scheduler protocol so it can
certify the protocol in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.reduction import (
    PrefixCertifier,
    ReductionResult,
    reduce_schedule,
)
from repro.core.schedule import ProcessSchedule

__all__ = ["PredResult", "check_pred", "is_prefix_reducible"]


@dataclass(frozen=True)
class PredResult:
    """Outcome of a PRED evaluation."""

    is_pred: bool
    #: Length of the first prefix that is not reducible, or ``None``.
    violating_prefix_length: Optional[int] = None
    #: Reduction outcome for the violating prefix, or ``None``.
    violation: Optional[ReductionResult] = None
    #: Number of prefixes checked (for cost accounting).
    prefixes_checked: int = 0

    def __bool__(self) -> bool:
        return self.is_pred

    def __str__(self) -> str:
        if self.is_pred:
            return f"PRED ({self.prefixes_checked} prefixes reducible)"
        return (
            f"not PRED: prefix of length {self.violating_prefix_length} "
            f"is not reducible ({self.violation})"
        )


def check_pred(schedule: ProcessSchedule, stop_early: bool = True) -> PredResult:
    """Evaluate prefix-reducibility (Definition 10).

    Every prefix of the schedule is completed (Definition 8) and reduced
    (Definition 9), shortest first, in one pass of a
    :class:`~repro.core.reduction.PrefixCertifier`.  With ``stop_early``
    (default) the check returns at the first irreducible prefix;
    otherwise all prefixes are evaluated (useful for cost benchmarking).
    """
    certifier = PrefixCertifier(schedule.conflicts, schedule.processes())
    events = schedule.events
    checked = 0
    first_violation: Optional[Tuple[int, ReductionResult]] = None
    for length in range(len(events) + 1):
        if length:
            certifier.advance(events[length - 1])
        result = reduce_schedule(certifier.completed())
        checked += 1
        if not result.is_reducible:
            if first_violation is None:
                first_violation = (length, result)
            if stop_early:
                break
    if first_violation is None:
        return PredResult(is_pred=True, prefixes_checked=checked)
    length, result = first_violation
    return PredResult(
        is_pred=False,
        violating_prefix_length=length,
        violation=result,
        prefixes_checked=checked,
    )


def is_prefix_reducible(schedule: ProcessSchedule) -> bool:
    """``True`` iff the schedule is PRED (Definition 10)."""
    return check_pred(schedule).is_pred

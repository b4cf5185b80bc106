"""Property: the one-pass PRED checker equals the per-prefix definition.

:func:`~repro.core.pred.check_pred` certifies every prefix in one
forward pass, carrying per-process replica states from prefix to
prefix.  The oracle below is Definition 10 read literally: complete and
reduce ``schedule.prefix(n)`` from scratch for every ``n``.  The two
must agree on the verdict, the violating prefix, the number of prefixes
checked and the whole reduction witness — and must raise the same error
at the same prefix when a history is not a legal execution.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pred import PredResult, check_pred
from repro.core.reduction import PrefixCertifier, reduce_schedule
from repro.core.schedule import (
    AbortEvent,
    CommitEvent,
    GroupAbortEvent,
    ProcessSchedule,
)
from repro.errors import InvalidScheduleError
from repro.scenarios.paper import paper_conflicts, process_p1, process_p2

from tests.property.strategies import (
    SERVICES,
    conflict_relations,
    well_formed_processes,
)
from tests.property.test_scheduler_pred_property import run_workload
from tests.property.test_theory_properties import random_schedules


def oracle_check_pred(schedule, stop_early=True):
    """Definition 10 prefix by prefix, each prefix rebuilt from scratch."""
    checked = 0
    first_violation = None
    for length in range(len(schedule) + 1):
        result = reduce_schedule(schedule.prefix(length))
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


def outcome(check, schedule, stop_early):
    """Everything a caller can observe of one PRED evaluation."""
    try:
        result = check(schedule, stop_early=stop_early)
    except Exception as error:  # compared, not swallowed
        return ("raised", type(error), str(error))
    violation = result.violation
    if violation is None:
        witness = None
    else:
        assert (
            len(violation.completed.original)
            == result.violating_prefix_length
        )
        witness = (
            violation.residual,
            violation.witness_cycle,
            violation.cancelled_pairs,
            violation.removed_effect_free,
            violation.completed.events,
        )
    return (
        "ok",
        result.is_pred,
        result.violating_prefix_length,
        result.prefixes_checked,
        witness,
    )


def assert_same(schedule):
    for stop_early in (True, False):
        assert outcome(check_pred, schedule, stop_early) == outcome(
            oracle_check_pred, schedule, stop_early
        ), f"{schedule} (stop_early={stop_early})"


def summary(result):
    return (
        result.is_reducible,
        result.completed.events,
        result.residual,
        result.cancelled_pairs,
        result.removed_effect_free,
        result.witness_cycle,
        result.serial_order,
    )


def assert_every_prefix_same(schedule):
    """Every prefix's reduction, not just the first violating one."""
    certifier = PrefixCertifier(schedule.conflicts, schedule.processes())
    events = schedule.events
    for length in range(len(events) + 1):
        try:
            expected = summary(reduce_schedule(schedule.prefix(length)))
        except Exception as error:  # compared, not swallowed
            expected = (type(error), str(error))
        try:
            if length:
                observed = summary(certifier.observe(events[length - 1]))
            else:
                observed = summary(reduce_schedule(certifier.completed()))
        except Exception as error:
            observed = (type(error), str(error))
        assert observed == expected, f"{schedule} (prefix {length})"
        if isinstance(expected[0], type):
            return


def with_terminal_markers(schedule, seed, count):
    """Insert commit / abort / group-abort markers at random positions.

    The result is frequently not a legal execution (events may follow a
    process's termination): exactly the histories on which replica
    states could drift from the per-prefix reconstruction.
    """
    rng = random.Random(seed)
    events = list(schedule.events)
    pids = sorted(schedule.process_ids)
    for _ in range(count):
        kind = rng.choice(("commit", "abort", "group"))
        if kind == "commit":
            marker = CommitEvent(rng.choice(pids))
        elif kind == "abort":
            marker = AbortEvent(rng.choice(pids))
        else:
            marker = GroupAbortEvent(
                tuple(rng.sample(pids, rng.randint(1, len(pids))))
            )
        events.insert(rng.randint(0, len(events)), marker)
    return ProcessSchedule(schedule.processes(), schedule.conflicts, events)


@settings(max_examples=150, deadline=None)
@given(schedule=random_schedules())
def test_one_pass_matches_oracle_on_random_schedules(schedule):
    assert_same(schedule)
    assert_every_prefix_same(schedule)


@settings(max_examples=40, deadline=None)
@given(
    first=well_formed_processes(),
    second=well_formed_processes(),
    conflicts=conflict_relations(),
    failing=st.sets(st.sampled_from(SERVICES), max_size=2),
    seed=st.integers(0, 10_000),
)
def test_one_pass_matches_oracle_on_scheduler_histories(
    first, second, conflicts, failing, seed
):
    scheduler = run_workload([first, second], conflicts, failing, seed)
    assert_same(scheduler.history())


@settings(max_examples=150, deadline=None)
@given(
    schedule=random_schedules(),
    seed=st.integers(0, 10_000),
    count=st.integers(1, 4),
)
def test_one_pass_matches_oracle_with_terminal_markers(schedule, seed, count):
    marked = with_terminal_markers(schedule, seed, count)
    assert_same(marked)
    assert_every_prefix_same(marked)


def test_violation_keeps_its_own_prefix(fig4a):
    """The returned witness describes the violating prefix, not the
    longer history the pass went on to certify."""
    result = check_pred(fig4a.schedule, stop_early=False)
    assert result.violating_prefix_length == fig4a.t1
    assert result.prefixes_checked == len(fig4a.schedule) + 1
    assert len(fig4a.schedule) > fig4a.t1
    original = result.violation.completed.original
    assert original.events == fig4a.schedule.prefix(fig4a.t1).events
    assert_same(fig4a.schedule)


def test_recovery_events_after_group_abort_marker():
    """A group-abort marker asserts that the completion's events follow
    in the history itself; the checker must not replay the process past
    its marker, even where the replay could not explain those events."""
    schedule = ProcessSchedule([process_p1(), process_p2()], paper_conflicts())
    schedule.record("P1", "a11").record("P1", "a12")
    schedule.record("P2", "a21")
    schedule.record_group_abort(["P1", "P2"])
    # P2's recovery (C(P2) = a21⁻¹) and P1's F-REC forward path with its
    # first step missing: no legal execution of P1 explains a16 here.
    schedule.record_compensation("P2", "a21")
    schedule.record("P1", "a16")
    schedule.record_commit("P2").record_commit("P1")
    with pytest.raises(InvalidScheduleError):
        schedule.instance_state("P1")
    assert_same(schedule)
    assert check_pred(schedule).is_pred


def test_abort_after_an_earlier_termination():
    """A process aborted after it already terminated is reconstructed at
    that abort, not taken from the replica frozen at its first
    termination."""
    schedule = ProcessSchedule([process_p1(), process_p2()], paper_conflicts())
    schedule.record("P1", "a11").record("P2", "a21")
    schedule.record_group_abort(["P1"])
    schedule.record_compensation("P1", "a11")
    schedule.record_abort("P1")
    assert_same(schedule)
    certifier = PrefixCertifier(schedule.conflicts, schedule.processes())
    for event in schedule.events:
        last = certifier.observe(event)
    # a11 is compensated once, by the recorded recovery event: at the
    # abort P1 has nothing left to compensate.
    compensated = [
        str(event)
        for _, event in last.completed.activity_events()
        if event.is_compensation and event.process_id == "P1"
    ]
    assert compensated == ["P1.a11^-1"]


def test_illegal_event_raises_at_the_oracles_prefix():
    """An event that is no legal continuation raises the same error at
    the same prefix as the per-prefix reconstruction."""
    schedule = ProcessSchedule([process_p1(), process_p2()], paper_conflicts())
    schedule.record("P2", "a21").record("P1", "a12").record("P2", "a22")
    bad_length = 2

    for length in range(bad_length):
        reduce_schedule(schedule.prefix(length))
    with pytest.raises(InvalidScheduleError) as expected:
        reduce_schedule(schedule.prefix(bad_length))

    certifier = PrefixCertifier(schedule.conflicts, schedule.processes())
    certifier.observe(schedule.events[0])
    with pytest.raises(InvalidScheduleError) as observed:
        certifier.observe(schedule.events[1])
    assert str(observed.value) == str(expected.value)

    with pytest.raises(InvalidScheduleError) as checked:
        check_pred(schedule)
    assert str(checked.value) == str(expected.value)
    assert_same(schedule)


def test_check_pred_and_paranoid_mode_share_the_certifier(monkeypatch):
    """One engine: both the offline checker and the scheduler's paranoid
    mode complete every prefix through :class:`PrefixCertifier`."""
    from repro.core.scheduler import SchedulerRules, TransactionalProcessScheduler

    calls = []
    completed = PrefixCertifier.completed

    def counting(self):
        calls.append(len(self))
        return completed(self)

    monkeypatch.setattr(PrefixCertifier, "completed", counting)
    schedule = ProcessSchedule([process_p1()], paper_conflicts())
    schedule.record("P1", "a11").record("P1", "a12")
    assert check_pred(schedule).is_pred
    assert calls == [0, 1, 2]

    calls.clear()
    scheduler = TransactionalProcessScheduler(
        conflicts=paper_conflicts(), rules=SchedulerRules(paranoid=True)
    )
    scheduler.submit(process_p1())
    scheduler.run()
    assert calls and calls == list(range(1, len(calls) + 1))

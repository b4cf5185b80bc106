"""X10 — overload sweep: goodput plateau under bounded admission.

An open-loop Poisson arrival stream is swept from half the system's
estimated capacity to 4x past it, through the scheduler's admission
front door (bounded queue, queue-age eviction, pivot-aware
shed-youngest-B-REC load shedding).  Expected shape: goodput rises to
capacity and then *plateaus* — excess offers are rejected or shed
instead of collapsing the system — while the p95 sojourn of committed
processes stays bounded.  Every run is certified offline (PRED +
reducible + all processes terminated) and must shed zero F-REC
processes: a committed pivot makes cancellation illegal, so only
B-REC work may ever be sacrificed for load.

The control experiment removes the admission bounds at the highest
load: the open door admits everything, conflict thrashing aborts most
of the fleet, and tail latency inflates — the churn the bounded door
exists to prevent.
"""

from dataclasses import replace

from repro.sim.harness import (
    OVERLOAD,
    estimate_capacity,
    harness_sweep,
    run_harness,
)
from repro.sim.workload import WorkloadSpec

SEEDS = (0, 1, 2)

BASE = replace(
    OVERLOAD,
    workload=WorkloadSpec(processes=40, service_pool=16, conflict_rate=0.03),
    admission=replace(OVERLOAD.admission, max_active=4, max_queue_depth=8),
)


def _mean(values):
    return sum(values) / len(values)


def test_x10_overload_sweep(benchmark, report):
    capacity = estimate_capacity(BASE)
    factors = (0.5, 1.0, 2.0, 4.0)
    by_factor = {}
    rows = []
    for factor in factors:
        results = harness_sweep(
            [replace(BASE, offered_load=capacity * factor)], seeds=SEEDS
        )
        by_factor[factor] = results
        for result in results:
            rows.append({"x_cap": factor, **result.load_row()})

    # Hard acceptance: every run certifies and the shed set is pure
    # B-REC — no process with a committed pivot was ever cancelled.
    assert all(r.certified for results in by_factor.values() for r in results)
    assert all(
        r.frec_sheds == 0 for results in by_factor.values() for r in results
    )

    # Goodput plateau: past saturation the system keeps doing useful
    # work instead of collapsing — the 4x point holds at least half of
    # the best mean goodput seen anywhere in the sweep.
    mean_goodput = {
        factor: _mean([r.metrics.goodput for r in results])
        for factor, results in by_factor.items()
    }
    peak = max(mean_goodput.values())
    assert mean_goodput[4.0] >= 0.5 * peak

    # Bounded tail latency: admitted-and-committed work never waits
    # unboundedly, because the queue is depth- and age-bounded.
    worst_p95 = max(
        r.load_row()["sojourn_p95"]
        for results in by_factor.values()
        for r in results
    )
    assert worst_p95 <= 90.0

    # Overload is actually exercised: past saturation the door turns
    # offers away and the shedder fires at least once.
    turned_away = sum(
        r.metrics.processes_rejected + r.metrics.processes_shed
        for r in by_factor[4.0]
    )
    assert turned_away > 0
    assert sum(r.metrics.processes_shed for r in by_factor[4.0]) >= 1

    report(
        rows,
        title=(
            "X10 — overload sweep: offered load 0.5x-4x capacity "
            f"(capacity ~ {capacity:.3f} proc/t), seeds 0-2"
        ),
    )
    report(
        [
            {
                "x_cap": factor,
                "mean_goodput": round(mean_goodput[factor], 4),
                "mean_shed_rate": round(
                    _mean(
                        [r.metrics.shed_rate for r in by_factor[factor]]
                    ),
                    4,
                ),
                "mean_reject_rate": round(
                    _mean(
                        [r.metrics.reject_rate for r in by_factor[factor]]
                    ),
                    4,
                ),
                "worst_p95": max(
                    r.load_row()["sojourn_p95"] for r in by_factor[factor]
                ),
                "frec_sheds": sum(
                    r.frec_sheds for r in by_factor[factor]
                ),
            }
            for factor in factors
        ],
        title="X10 — per-load means: the plateau",
    )
    benchmark.pedantic(
        run_harness,
        args=(replace(BASE, offered_load=capacity * 2),),
        rounds=3,
        iterations=1,
    )


def test_x10_bounded_door_beats_open_door(benchmark, report):
    """Bounded admission vs an open door at 4x capacity: admitting
    everything lets conflict thrashing victim-abort most of the fleet
    and inflates the committed tail; the bounded door sheds a few
    B-REC processes early and keeps the rest moving."""
    capacity = estimate_capacity(BASE)
    load = capacity * 4
    rows = []
    bounded_p95s, open_p95s = [], []
    bounded_aborts, open_aborts = [], []
    for seed in SEEDS:
        spec = replace(BASE, offered_load=load, seed=seed)
        bounded = run_harness(spec)
        opened = run_harness(
            replace(
                spec,
                admission=replace(
                    BASE.admission,
                    max_active=None,
                    max_queue_depth=BASE.workload.processes + 1,
                    max_queue_age=None,
                    shed_policy="reject-new",
                ),
            ),
            certify=False,
        )
        bounded_p95s.append(bounded.load_row()["sojourn_p95"])
        open_p95s.append(opened.load_row()["sojourn_p95"])
        bounded_aborts.append(bounded.metrics.processes_aborted)
        open_aborts.append(opened.metrics.processes_aborted)
        rows.append(
            {
                "seed": seed,
                "goodput (bounded)": bounded.load_row()["goodput"],
                "goodput (open)": opened.load_row()["goodput"],
                "p95 (bounded)": bounded.load_row()["sojourn_p95"],
                "p95 (open)": opened.load_row()["sojourn_p95"],
                "aborted (bounded)": bounded.metrics.processes_aborted,
                "aborted (open)": opened.metrics.processes_aborted,
                "shed (bounded)": bounded.metrics.processes_shed,
            }
        )
        assert bounded.certified

    # The open door churns: more victim aborts and a worse committed
    # tail than the bounded door, on average across seeds.
    assert _mean(open_aborts) > _mean(bounded_aborts)
    assert _mean(open_p95s) > _mean(bounded_p95s)

    report(
        rows,
        title=(
            "X10 — bounded admission vs open door at 4x capacity "
            f"(load ~ {load:.3f} proc/t)"
        ),
    )
    benchmark.pedantic(
        run_harness,
        args=(replace(BASE, offered_load=load),),
        rounds=3,
        iterations=1,
    )

"""X8 — chaos sweep: resilience under injected faults.

The standard fault mixes (aborts, latency spikes, hangs, crash-stops,
and a combined mix) run over seeded workloads through the resilience
layer — per-service timeouts, bounded retries with deterministic
backoff, circuit breakers, and breaker-driven degradation to
◁-alternatives.  The table records, per mix and seed, the faults
delivered, the layer's reactions (retries, timeouts, trips, recoveries,
degradations) and the outcome.  Expected shape: every run certifies
(PRED + reducible + all processes terminated) and the sweep takes at
least one ◁-alternative without exhausting a retry budget — the
degradation hook pays for itself.
"""

from repro.sim.harness import default_mixes, harness_sweep, run_harness


def test_x8_chaos_sweep(benchmark, report):
    results = harness_sweep(seeds=(0, 1, 2))

    # Hard acceptance: every run certifies and the sweep degrades at
    # least once without any retry-budget exhaustion driving it.
    assert all(result.certified for result in results)
    assert all(result.certification.terminated for result in results)
    degradations = sum(result.counters["degradations"] for result in results)
    assert degradations >= 1

    report(
        [result.chaos_row() for result in results],
        title="X8 — chaos sweep: standard fault mixes × seeds 0-2",
    )
    totals = {
        "faults": sum(sum(r.injected.values()) for r in results),
        "retries": sum(r.counters["retries"] for r in results),
        "timeouts": sum(r.counters["timeouts"] for r in results),
        "unavailable": sum(r.counters["unavailable"] for r in results),
        "breaker_trips": sum(r.counters["breaker_trips"] for r in results),
        "recoveries": sum(
            r.counters["breaker_recoveries"] for r in results
        ),
        "degradations": degradations,
        "certified": f"{sum(r.certified for r in results)}/{len(results)}",
    }
    report([totals], title="X8 — sweep totals")
    benchmark.pedantic(
        run_harness, args=(default_mixes()[-1],), rounds=3, iterations=1
    )


def test_x8_degradation_beats_waiting(benchmark, report):
    """Degradation ON vs OFF under the crash-heavy mix: switching to
    ◁-alternatives must not lose committed processes, and it shortens
    the makespan whenever outages would otherwise be waited out."""
    from dataclasses import replace

    spec = default_mixes()[3]  # crashes
    rows = []
    for seed in (0, 1, 2):
        with_alternatives = run_harness(spec.with_seed(seed), certify=False)
        without = run_harness(
            replace(
                spec.with_seed(seed),
                workload=replace(spec.workload, alternative_probability=0.0),
            ),
            certify=False,
        )
        rows.append(
            {
                "seed": seed,
                "makespan (alts)": with_alternatives.chaos_row()["makespan"],
                "makespan (none)": without.chaos_row()["makespan"],
                "committed (alts)": with_alternatives.chaos_row()["committed"],
                "committed (none)": without.chaos_row()["committed"],
                "degradations": with_alternatives.counters["degradations"],
            }
        )
        assert with_alternatives.certification.terminated
        assert without.certification.terminated
    report(
        rows,
        title="X8 — crash mix: processes with vs without ◁-alternatives",
    )
    benchmark.pedantic(
        run_harness, args=(spec,), kwargs={"certify": False},
        rounds=3, iterations=1,
    )

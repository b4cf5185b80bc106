"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``check <schedule.json>``
    Classify a serialized schedule: legality, serializability, RED,
    PRED and process-recoverability, with witnesses.

``render <process.json>``
    Pretty-print a serialized process template's flex structure and its
    valid executions.

``workload``
    Generate a random well-formed workload and run it under a chosen
    scheduler discipline, printing the metrics row and the correctness
    grades (the X2 benchmark, à la carte).

``demo``
    Run the built-in CIM demonstration (the paper's Figure 1), with or
    without the failing test.

``dot <file.json>``
    Export a serialized process or schedule as Graphviz DOT on stdout.

``sweep``
    The X2 benchmark à la carte: run a conflict-rate sweep over all (or
    selected) scheduling disciplines and print the comparison table.

``chaos``
    Seeded chaos runs: inject aborts, latency spikes, hangs and
    crash-stops while the resilience layer (timeouts, backoff, circuit
    breakers, ◁-degradation) keeps the execution PRED-certifiable.
    Prints the per-run fault/retry/breaker/degradation counters.

``crashpoints``
    Crash-point torture sweep: crash the scheduler after every LSN of a
    seeded workload (and recovery after each of its own appends),
    inject torn-tail/bit-flip faults into an on-disk log, re-run
    restart recovery and certify every combined history with the
    offline PRED/RED/termination checkers.

``overload``
    Open-loop overload sweep: Poisson arrivals from below to far past
    the estimated capacity, through bounded admission with pivot-aware
    shed-youngest-B-REC load shedding.  Prints the goodput/latency/
    shed table per offered load; exits non-zero unless every run
    certifies with zero F-REC sheds and positive goodput.

``federation``
    Sharded scheduler federation: partition processes across N shards
    by service footprint, commit cross-shard groups through the
    crash-tolerant 2PC, and (with ``--kill``) kill and recover every
    shard mid-run while drop/delay/duplicate/partition faults hit the
    inter-shard links.  ``--scaling`` runs the service-disjoint
    throughput-scaling sweep instead.  Exits non-zero unless every
    merged history PRED-certifies with zero lost / duplicated commit
    decisions, no in-doubt residue and no lost processes.

``explain <trace.jsonl> [target]``
    Explain the last blocking/rejecting/aborting decision recorded in
    an exported trace: the protocol rule that fired (Lemma 1/2/3,
    admission policy, breaker) and the concrete conflicting
    predecessors.  ``--check`` validates the stream against the event
    schema first.

``top <trace.jsonl>``
    Replay an exported trace through the bounded-memory ops console:
    periodic snapshots of throughput, goodput, queue depth, breaker
    states, per-phase p95 latency and shard health, then the final
    summary line.

``slow <trace.jsonl> [process]``
    Commit-latency attribution for one process (default: the slowest):
    the per-phase critical-path table, the dominant latency phase, and
    — when the process was mostly *waiting* — the concrete conflicting
    predecessor it waited on.  Exit 0 when a phase is named, 1 when the
    trace has nothing to attribute, 2 on a malformed trace.

The run commands (``workload``, ``chaos``, ``overload``,
``crashpoints``, ``federation``) all accept ``--trace PATH``
(structured JSONL trace),
``--chrome-trace PATH`` (Chrome/Perfetto trace-event JSON),
``--metrics PATH`` (Prometheus text format) and
``--live-interval T`` (render the live ops console to stderr every
``T`` units of virtual time while the run streams).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.analysis.report import format_table
from repro.analysis.dot import process_to_dot, schedule_to_dot
from repro.analysis.viz import render_process, render_schedule
from repro.baselines import (
    FlatScheduler,
    LockingScheduler,
    OptimisticScheduler,
    SerialScheduler,
)
from repro.core.flex import enumerate_executions
from repro.core.pred import check_pred
from repro.core.recoverability import check_process_recoverability
from repro.core.reduction import reduce_schedule
from repro.core.scheduler import TransactionalProcessScheduler
from repro.core.serialize import (
    process_from_json,
    schedule_from_dict,
)
from repro.errors import CorrectnessViolation, ReproError
from repro.obs import (
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    OpsConsole,
    TraceBus,
    TraceEvent,
    attribution,
    critical_paths,
    explain_trace,
    read_trace,
    validate_stream,
    write_chrome_trace,
    write_prometheus,
)
from repro.sim.runner import simulate_run
from repro.sim.workload import WorkloadSpec, generate_workload
from repro.subsystems.backend import BackendHub
from repro.subsystems.subsystem import SubsystemRegistry

SCHEDULERS = {
    "pred": TransactionalProcessScheduler,
    "serial": SerialScheduler,
    "locking": LockingScheduler,
    "flat": FlatScheduler,
    "optimistic": OptimisticScheduler,
}


class _ObsSession:
    """CLI-side observability wiring shared by the run commands.

    Owns one trace bus and one metrics registry for the whole command
    (a sweep's runs share them, so sequence numbers stay monotone and
    metrics aggregate); :meth:`finish` writes the requested exports.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.trace_path = getattr(args, "trace", None)
        self.chrome_path = getattr(args, "chrome_trace", None)
        self.metrics_path = getattr(args, "metrics", None)
        self.live_interval = getattr(args, "live_interval", None)
        self.registry = MetricsRegistry() if self.metrics_path else None
        self.bus: Optional[TraceBus] = None
        self._memory: Optional[MemorySink] = None
        self.console: Optional[OpsConsole] = None
        if self.trace_path or self.chrome_path or self.live_interval:
            self.bus = TraceBus()
            if self.trace_path:
                self.bus.subscribe(JsonlSink(self.trace_path))
            if self.chrome_path:
                self._memory = self.bus.subscribe(MemorySink())
            if self.live_interval:
                self.console = self.bus.subscribe(
                    OpsConsole(
                        interval=self.live_interval, out=sys.stderr
                    )
                )

    @property
    def active(self) -> bool:
        return self.bus is not None or self.registry is not None

    def emit(self, kind: str, **data: object) -> None:
        if self.bus is not None and self.bus.enabled:
            self.bus.emit(kind, **data)  # type: ignore[arg-type]

    def finish(self) -> List[str]:
        """Write export files; returns one note per artefact written."""
        notes: List[str] = []
        if self.console is not None:
            notes.append(self.console.render())
        if self.bus is not None:
            if self._memory is not None:
                write_chrome_trace(self.chrome_path, self._memory.records())
                notes.append(f"wrote chrome trace: {self.chrome_path}")
            self.bus.close()
            if self.trace_path:
                notes.append(f"wrote trace: {self.trace_path}")
        if self.registry is not None:
            write_prometheus(self.metrics_path, self.registry)
            notes.append(f"wrote metrics: {self.metrics_path}")
        return notes


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a structured JSONL trace of the run",
    )
    parser.add_argument(
        "--chrome-trace",
        metavar="PATH",
        default=None,
        help="write a Chrome/Perfetto trace-event JSON file",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write Prometheus text-format metrics",
    )
    parser.add_argument(
        "--live-interval",
        type=float,
        metavar="T",
        default=None,
        help="render the live ops console to stderr every T units of "
        "virtual time (throughput, goodput, queue depth, breakers, "
        "per-phase p95, shard health)",
    )


def _cmd_check(args: argparse.Namespace) -> int:
    with open(args.schedule, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    schedule = schedule_from_dict(payload)
    print(render_schedule(schedule))
    print()
    rows = [{"property": "legal execution", "verdict": schedule.is_legal()}]
    rows.append(
        {
            "property": "serializable",
            "verdict": schedule.is_serializable(),
            "witness": " ≪ ".join(schedule.serialization_order() or [])
            or "; ".join("→".join(c) for c in schedule.cycles()),
        }
    )
    reduction = reduce_schedule(schedule)
    rows.append(
        {
            "property": "reducible (RED)",
            "verdict": reduction.is_reducible,
            "witness": (
                f"cancelled {len(reduction.cancelled_pairs)} pairs"
                if reduction.is_reducible
                else "cycle " + "→".join(reduction.witness_cycle or ())
            ),
        }
    )
    pred = check_pred(schedule)
    rows.append(
        {
            "property": "prefix-reducible (PRED)",
            "verdict": pred.is_pred,
            "witness": (
                f"{pred.prefixes_checked} prefixes"
                if pred.is_pred
                else f"prefix {pred.violating_prefix_length} irreducible"
            ),
        }
    )
    proc_rec = check_process_recoverability(schedule)
    rows.append(
        {
            "property": "process-recoverable (Proc-REC)",
            "verdict": proc_rec.is_process_recoverable,
            "witness": (
                ""
                if proc_rec.is_process_recoverable
                else str(proc_rec.violations[0])
            ),
        }
    )
    print(
        format_table(
            rows,
            columns=["property", "verdict", "witness"],
            title=f"Classification of {args.schedule}",
        )
    )
    return 0 if pred.is_pred else 1


def _cmd_render(args: argparse.Namespace) -> int:
    with open(args.process, "r", encoding="utf-8") as handle:
        process = process_from_json(handle.read())
    print(render_process(process))
    if args.executions:
        print()
        print("valid executions:")
        for path in enumerate_executions(process):
            print(f"  {path}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    spec = WorkloadSpec(
        processes=args.processes,
        conflict_rate=args.conflicts,
        failure_rate=args.failures,
        seed=args.seed,
    )
    workload = generate_workload(spec)
    obs = _ObsSession(args)
    backend = getattr(args, "backend", "memory")
    hub = BackendHub(backend) if backend != "memory" else None
    registry = SubsystemRegistry(
        backend_factory=hub.backend_for if hub is not None else None
    )
    scheduler_cls = SCHEDULERS[args.scheduler]
    if args.scheduler == "pred":
        scheduler = scheduler_cls(
            registry=registry,
            conflicts=workload.conflicts,
            trace=obs.bus,
            metrics=obs.registry,
        )
    else:
        if obs.active:
            print(
                "note: --trace/--chrome-trace/--metrics instrument the "
                "pred scheduler; baseline disciplines emit no events",
                file=sys.stderr,
            )
        scheduler = scheduler_cls(
            registry=registry, conflicts=workload.conflicts
        )
    for process in workload.processes:
        scheduler.submit(process, failures=workload.failures)
    obs.emit(
        "run_begin", harness="workload", seed=args.seed,
        scheduler=args.scheduler, backend=backend,
    )
    try:
        metrics = simulate_run(
            scheduler, durations=workload.duration, order=args.order
        )
        scheduler.registry.close()
    finally:
        if hub is not None:
            hub.close()
    obs.emit(
        "run_end",
        harness="workload",
        seed=args.seed,
        scheduler=args.scheduler,
        committed=metrics.processes_committed,
        aborted=metrics.processes_aborted,
        makespan=metrics.makespan,
    )
    history = scheduler.history()
    try:
        metrics.serializable = (
            history.committed_projection().is_serializable()
        )
        metrics.prefix_reducible = check_pred(history).is_pred
    except ReproError:
        metrics.illegal_history = True
    print(format_table([metrics.row()], title=f"workload seed={args.seed}"))
    if args.perf_counters:
        print()
        print(
            format_table(
                [metrics.perf_row()],
                title="incremental-core perf counters",
            )
        )
    if args.show_history:
        print()
        print(render_schedule(history))
    for note in obs.finish():
        print(note, file=sys.stderr)
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.scenarios.cim import run_cim

    scenario, scheduler = run_cim(fail_test=args.fail_test)
    print(render_schedule(scheduler.history()))
    print()
    rows = [
        {
            "process": pid,
            "status": status.value,
        }
        for pid, status in sorted(scheduler.statuses().items())
    ]
    print(format_table(rows, title="CIM demo (paper §2, Figure 1)"))
    print(
        f"\nparts produced: "
        f"{scenario.registry.get('floor').store.get('produced')}"
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sim.experiments import sweep

    rows = sweep(
        conflict_rates=args.conflicts,
        failure_rates=args.failures,
        disciplines=args.disciplines or None,
        processes=args.processes,
        seed=args.seed,
        order=args.order,
    )
    print(
        format_table(
            rows,
            columns=[
                "scheduler",
                "conflict_rate",
                "failure_rate",
                "makespan",
                "committed",
                "aborted",
                "restarts",
                "legal",
                "serializable",
                "pred",
            ],
            title="discipline sweep",
        )
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.sim.harness import default_mixes, harness_sweep

    if args.mix == "all":
        mixes = default_mixes(processes=args.processes)
    else:
        base = default_mixes(processes=args.processes)
        mixes = [spec for spec in base if spec.name == args.mix]
    overrides = {}
    if args.abort_rate is not None:
        overrides["abort_rate"] = args.abort_rate
    if args.latency_rate is not None:
        overrides["latency_rate"] = args.latency_rate
    if args.hang_rate is not None:
        overrides["hang_rate"] = args.hang_rate
    if args.crash_rate is not None:
        overrides["crash_rate"] = args.crash_rate
    mixes = [
        replace(
            spec,
            retry=replace(
                spec.retry,
                timeout=args.timeout,
                max_attempts=args.max_attempts,
            ),
            breaker=replace(
                spec.breaker,
                failure_threshold=args.breaker_threshold,
                reset_timeout=args.breaker_reset,
            ),
            backend=args.backend,
            **overrides,
        )
        for spec in mixes
    ]
    obs = _ObsSession(args)
    try:
        results = harness_sweep(
            mixes,
            seeds=args.seeds,
            certify=not args.no_certify,
            trace=obs.bus,
            metrics=obs.registry,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        for note in obs.finish():
            print(note, file=sys.stderr)
    print(
        format_table(
            [result.chaos_row() for result in results],
            title=f"chaos sweep (seeds {args.seeds})",
        )
    )
    certified = sum(1 for result in results if result.certified)
    degradations = sum(
        result.counters.get("degradations", 0) for result in results
    )
    print(
        f"\n{certified}/{len(results)} runs certified "
        f"(PRED + reducible + terminated); "
        f"{degradations} ◁-degradations taken"
    )
    return 0 if certified == len(results) else 1


def _cmd_crashpoints(args: argparse.Namespace) -> int:
    from repro.sim.crashpoints import CrashPointSpec, run_crashpoints

    base = CrashPointSpec(
        workload=WorkloadSpec(
            processes=args.processes,
            prefix_range=(1, 3),
            service_pool=8,
            conflict_rate=args.conflicts,
        ),
        abort_rate=args.abort_rate,
        checkpoint_interval=args.checkpoint_interval,
        stride=args.stride,
        recovery_stride=args.recovery_stride,
        backend=args.backend,
    )
    obs = _ObsSession(args)
    try:
        sweeps = [
            run_crashpoints(
                base.with_seed(seed),
                file_faults=not args.no_file_faults,
                trace=obs.bus,
                metrics=obs.registry,
            )
            for seed in args.seeds
        ]
    finally:
        for note in obs.finish():
            print(note, file=sys.stderr)
    print(
        format_table(
            [sweep.row() for sweep in sweeps],
            title=f"crash-point sweep (seeds {args.seeds})",
        )
    )
    total = sum(len(sweep.results) for sweep in sweeps)
    faults = sum(len(sweep.file_faults) for sweep in sweeps)
    disk = sum(len(getattr(sweep, "disk_faults", ())) for sweep in sweeps)
    kills = sum(len(getattr(sweep, "real_kills", ())) for sweep in sweeps)
    certified = all(sweep.all_certified for sweep in sweeps)
    extras = ""
    if disk:
        extras += f" + {disk} disk faults"
    if kills:
        extras += f" + {kills} real kills"
    print(
        f"\n{total} crash points + {faults} file faults{extras} swept; "
        f"{'all certified' if certified else 'CERTIFICATION FAILURES'} "
        f"(PRED + reducible + terminated + idempotent recovery)"
    )
    for sweep in sweeps:
        for note in sweep.failures:
            print(f"  seed {sweep.spec.seed}: {note}")
    return 0 if certified else 1


def _cmd_overload(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.sim.harness import OVERLOAD, estimate_capacity, harness_sweep

    base = replace(
        OVERLOAD,
        workload=WorkloadSpec(
            processes=args.processes,
            service_pool=16,
            conflict_rate=args.conflicts,
        ),
        admission=replace(
            OVERLOAD.admission,
            max_active=args.max_active,
            max_queue_depth=args.queue_depth,
            max_queue_age=args.queue_age,
            shed_policy=args.shed_policy,
        ),
    )
    if args.loads:
        loads = args.loads
        capacity = None
    else:
        capacity = estimate_capacity(base)
        loads = [capacity * factor for factor in (0.5, 1.0, 2.0, 4.0)]
    obs = _ObsSession(args)
    try:
        results = harness_sweep(
            [replace(base, offered_load=load) for load in loads],
            seeds=args.seeds,
            certify=not args.no_certify,
            trace=obs.bus,
            metrics=obs.registry,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        for note in obs.finish():
            print(note, file=sys.stderr)
    title = "overload sweep"
    if capacity is not None:
        title += f" (capacity ~ {capacity:.3f} proc/t)"
    print(
        format_table([result.load_row() for result in results], title=title)
    )
    certified = sum(1 for result in results if result.certified)
    frec_sheds = sum(result.frec_sheds for result in results)
    productive = sum(
        1 for result in results if result.metrics.processes_committed > 0
    )
    print(
        f"\n{certified}/{len(results)} runs certified "
        f"(PRED + reducible + terminated); {frec_sheds} F-REC sheds "
        f"(must be 0); {productive}/{len(results)} runs committed work"
    )
    healthy = (
        certified == len(results)
        and frec_sheds == 0
        and productive == len(results)
    )
    return 0 if healthy else 1


def _cmd_federation(args: argparse.Namespace) -> int:
    from repro.nemesis import FederationSpec, run_plan, scaling_sweep

    obs = _ObsSession(args)
    try:
        if args.scaling:
            counts = tuple(
                count for count in (1, 2, 4, 8) if count <= args.shards
            )
            results = scaling_sweep(
                counts, seeds=args.seeds, trace=obs.bus
            )
        else:
            groups = max(args.shards, 2 * args.shards)
            base = FederationSpec(
                shards=args.shards,
                service_groups=groups,
                processes_per_group=args.processes,
                cross_shard_fraction=args.cross,
                conflict_rate=args.conflicts,
                shard_capacity=args.capacity,
                drop_rate=args.drop,
                delay_rate=args.delay,
                duplicate_rate=args.duplicate,
                kills=tuple(
                    (args.kill_start + args.kill_spacing * index, index,
                     args.downtime)
                    for index in range(args.shards)
                ) if args.kill else (),
                partitions=tuple(
                    (2.0 + 4.0 * index, index, index + 1, 2.0)
                    for index in range(args.partitions)
                ) if args.shards > 1 else (),
            )
            results = [
                run_plan(base.with_seed(seed), invariants=[], trace=obs.bus)
                for seed in args.seeds
            ]
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        for note in obs.finish():
            print(note, file=sys.stderr)
    for result in results:
        if result.certification is None:
            # The run machinery gave up, or the history could not be
            # replayed: there is no row to print.
            print(f"error: {result.violation.describe()}", file=sys.stderr)
            return 1
    title = "federation scaling sweep" if args.scaling else (
        "federation chaos sweep" if args.kill else "federation sweep"
    )
    print(format_table([result.row() for result in results], title=title))
    certified = sum(1 for result in results if result.certified)
    lost = sum(len(result.lost_decisions) for result in results)
    dups = sum(len(result.dup_applications) for result in results)
    residue = sum(len(result.in_doubt_residue) for result in results)
    lost_procs = sum(len(result.lost_processes) for result in results)
    print(
        f"\n{certified}/{len(results)} runs certified "
        f"(PRED + reducible + terminated + audit); "
        f"{lost} lost decisions, {dups} duplicated applications, "
        f"{residue} in-doubt residue, {lost_procs} lost processes "
        f"(all must be 0)"
    )
    if args.scaling and len(results) > 1:
        by_shards = {result.spec.shards: result for result in results}
        low = by_shards[min(by_shards)]
        high = by_shards[max(by_shards)]
        if low.throughput > 0:
            print(
                f"throughput x{high.throughput / low.throughput:.2f} at "
                f"{high.spec.shards} shards vs {low.spec.shards}"
            )
    healthy = (
        certified == len(results)
        and not (lost or dups or residue or lost_procs)
    )
    return 0 if healthy else 1


def _nemesis_spec(args: argparse.Namespace):
    from dataclasses import replace

    from repro.nemesis import NEMESIS

    groups = args.groups if args.groups else max(2 * args.shards, 2)
    return replace(
        NEMESIS,
        shards=args.shards,
        service_groups=groups,
        processes_per_group=args.processes,
        cross_shard_fraction=args.cross,
        conflict_rate=args.conflicts,
        backend=args.backend,
        seed=args.seed,
        horizon=args.horizon,
    )


def _nemesis_invariants(args: argparse.Namespace):
    """Invariant factory from flags (``None`` = the default registry)."""
    canary = getattr(args, "canary", None)
    if not canary:
        return None
    from repro.nemesis import CanaryInvariant, default_invariants

    families = tuple(
        name.strip() for name in canary.split(",") if name.strip()
    )
    threshold = getattr(args, "canary_threshold", 1)

    def factory():
        return default_invariants() + [
            CanaryInvariant(families=families, threshold=threshold)
        ]

    return factory


def _print_nemesis_coverage(coverage) -> None:
    from repro.nemesis import ALL_SITES

    payload = coverage.to_dict()
    fired = ", ".join(payload["fired"]) or "none"
    print(
        f"fault-site coverage: {payload['percent']:.0f}% "
        f"({len(payload['fired'])}/{len(ALL_SITES)} sites; "
        f"families: {', '.join(coverage.families_covered()) or 'none'})"
    )
    print(f"fired sites: {fired}")


def _cmd_nemesis_search(args: argparse.Namespace) -> int:
    from repro.nemesis import nemesis_search
    from repro.sim.certify import EXIT_OK, EXIT_VIOLATION

    obs = _ObsSession(args)
    try:
        result = nemesis_search(
            _nemesis_spec(args),
            plans=args.plans,
            seed=args.search_seed,
            actions=args.actions,
            invariants=_nemesis_invariants(args),
            max_shrink_runs=args.max_shrink_runs,
            bundle_dir=args.bundle_dir,
            bundle_trace=not args.no_bundle_trace,
            trace=obs.bus,
            metrics_registry=obs.registry,
        )
    except CorrectnessViolation as error:
        print(f"violation: {error}", file=sys.stderr)
        return EXIT_VIOLATION
    finally:
        for note in obs.finish():
            print(note, file=sys.stderr)
    print(result.summary())
    _print_nemesis_coverage(result.coverage)
    print(f"total plan executions: {result.total_runs}")
    if args.min_coverage and result.coverage.percent < args.min_coverage:
        print(
            f"coverage {result.coverage.percent:.0f}% below required "
            f"{args.min_coverage:.0f}%",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    if args.expect_violation:
        if not result.found:
            print(
                "expected a violation but the search came up clean",
                file=sys.stderr,
            )
            return EXIT_VIOLATION
        return EXIT_OK
    return EXIT_VIOLATION if result.found else EXIT_OK


def _cmd_nemesis_run(args: argparse.Namespace) -> int:
    from repro.nemesis import FaultPlan, run_plan
    from repro.sim.certify import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION

    with open(args.plan, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    # Accept either a bare plan file or a full bundle.
    if payload.get("format") == "repro/nemesis-bundle":
        payload = payload["plan"]
    try:
        plan = FaultPlan.from_dict(payload)
    except (KeyError, ValueError) as error:
        print(f"error: not a fault plan: {error}", file=sys.stderr)
        return EXIT_USAGE
    factory = _nemesis_invariants(args)
    obs = _ObsSession(args)
    try:
        result = run_plan(
            _nemesis_spec(args),
            plan,
            invariants=factory() if factory is not None else None,
            trace=obs.bus,
            metrics_registry=obs.registry,
        )
    finally:
        for note in obs.finish():
            print(note, file=sys.stderr)
    if result.violation is not None:
        print(f"violation: {result.violation.describe()}")
    else:
        print(
            f"clean run: certified="
            f"{bool(result.certification and result.certification.certified)}"
            f" audit={result.audit_clean} rounds={result.rounds}"
        )
    _print_nemesis_coverage(result.coverage)
    return EXIT_OK if result.clean else EXIT_VIOLATION


def _cmd_nemesis_replay(args: argparse.Namespace) -> int:
    from repro.nemesis import replay_bundle
    from repro.sim.certify import EXIT_OK, EXIT_VIOLATION

    obs = _ObsSession(args)
    try:
        report = replay_bundle(
            args.bundle,
            runs=args.runs,
            invariants=_nemesis_invariants(args),
            trace=obs.bus,
            metrics_registry=obs.registry,
        )
    finally:
        for note in obs.finish():
            print(note, file=sys.stderr)
    print(report.describe())
    if report.reproduced:
        print(f"reproduced: identical violation in {args.runs}/{args.runs} replays")
        return EXIT_OK
    print("NOT reproduced", file=sys.stderr)
    return EXIT_VIOLATION


def _cmd_explain(args: argparse.Namespace) -> int:
    records = read_trace(args.trace)
    if args.check:
        errors = validate_stream(records)
        if errors:
            for line in errors[:20]:
                print(f"invalid: {line}", file=sys.stderr)
            if len(errors) > 20:
                print(
                    f"... and {len(errors) - 20} more problems",
                    file=sys.stderr,
                )
            return 1
        print(f"trace OK: {len(records)} events")
        if args.target is None:
            return 0
    explanation = explain_trace(records, target=args.target)
    if explanation is None:
        who = args.target or "any process"
        print(
            f"no blocking/rejecting/aborting decision recorded for {who}",
            file=sys.stderr,
        )
        return 1
    print(explanation.render())
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    records = read_trace(args.trace)
    console = OpsConsole(interval=args.interval, out=sys.stdout)
    for record in records:
        console.handle(TraceEvent.from_dict(record))
    print(console.render())
    return 0


def _cmd_slow(args: argparse.Namespace) -> int:
    records = read_trace(args.trace)
    paths = critical_paths(records)
    if not paths:
        print("no process spans in trace", file=sys.stderr)
        return 1
    if args.process is not None:
        path = paths.get(args.process)
        if path is None:
            print(
                f"no process {args.process!r} in trace "
                f"({len(paths)} processes recorded)",
                file=sys.stderr,
            )
            return 1
    else:
        path = max(paths.values(), key=lambda p: (p.duration, p.process))
    dominant = path.dominant
    if dominant is None:
        print(
            f"{path.process}: zero-duration span, nothing to attribute",
            file=sys.stderr,
        )
        return 1
    rows = [
        {
            "phase": phase,
            "time": f"{time:.2f}",
            "share": f"{time / path.duration:.1%}"
            if path.duration > 0
            else "-",
            "slices": path.counts.get(phase, 0),
        }
        for phase, time in sorted(
            path.phases.items(), key=lambda item: -item[1]
        )
    ]
    print(
        format_table(
            rows,
            columns=["phase", "time", "share", "slices"],
            title=(
                f"{path.process}: {path.duration:.2f}t end-to-end "
                f"[{path.start:.2f}, {path.end:.2f}]"
            ),
        )
    )
    print(
        f"\ndominant phase: {dominant} "
        f"({path.phases[dominant]:.2f}t, "
        f"{path.phases[dominant] / path.duration:.0%} of end-to-end)"
    )
    if dominant in ("queue-wait", "graph-admission"):
        explanation = explain_trace(records, target=path.process)
        decision = (
            explanation.decision if explanation is not None else None
        )
        if decision is not None and not decision.waiting_for:
            # The *last* decision may blame nobody by name (e.g. an
            # in-flight edge-exchange barrier); fall back to the most
            # recent deferral that names concrete predecessors.
            for record in reversed(records):
                if (
                    record.get("kind") == "deferred"
                    and record.get("process") == path.process
                    and (record.get("data") or {}).get("waiting_for")
                ):
                    data = record.get("data") or {}
                    print(
                        f"waiting on: "
                        f"{', '.join(data['waiting_for'])} "
                        f"(rule {data.get('rule') or '?'}: "
                        f"{data.get('reason') or ''})"
                    )
                    break
            else:
                print(
                    f"waiting on: (no named blocker) "
                    f"(rule {decision.rule or '?'}: "
                    f"{decision.reason or ''})"
                )
        elif decision is not None:
            print(
                f"waiting on: {', '.join(decision.waiting_for)} "
                f"(rule {decision.rule or '?'}: {decision.reason or ''})"
            )
        if explanation is not None:
            for pair in explanation.conflict_pairs():
                print(f"  conflicting predecessor: {pair[0]} @ {pair[1]}")
    if args.fleet:
        table = attribution(paths)
        print()
        print(
            format_table(
                [
                    {
                        "phase": phase,
                        "total": f"{row['total']:.2f}",
                        "share": f"{row['share']:.1%}",
                        "p50": f"{row['p50']:.2f}",
                        "p95": f"{row['p95']:.2f}",
                        "p99": f"{row['p99']:.2f}",
                        "procs": int(row["processes"]),
                    }
                    for phase, row in table.items()
                ],
                columns=[
                    "phase", "total", "share", "p50", "p95", "p99", "procs",
                ],
                title=f"fleet attribution ({len(paths)} processes)",
            )
        )
    return 0


def _cmd_dot(args: argparse.Namespace) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    kind = payload.get("format")
    if kind == "repro/process":
        from repro.core.serialize import process_from_dict

        print(process_to_dot(process_from_dict(payload)))
        return 0
    if kind == "repro/schedule":
        print(schedule_to_dot(schedule_from_dict(payload)))
        return 0
    print(f"error: unknown format {kind!r}", file=sys.stderr)
    return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Transactional process management (PODS'99 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="classify a schedule JSON file")
    check.add_argument("schedule", help="path to a serialized schedule")
    check.set_defaults(handler=_cmd_check)

    render = commands.add_parser("render", help="pretty-print a process")
    render.add_argument("process", help="path to a serialized process")
    render.add_argument(
        "--executions",
        action="store_true",
        help="also enumerate the valid executions",
    )
    render.set_defaults(handler=_cmd_render)

    workload = commands.add_parser(
        "workload", help="run a random workload under a discipline"
    )
    workload.add_argument("--processes", type=int, default=5)
    workload.add_argument("--conflicts", type=float, default=0.1)
    workload.add_argument("--failures", type=float, default=0.0)
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument(
        "--scheduler", choices=sorted(SCHEDULERS), default="pred"
    )
    workload.add_argument(
        "--order", choices=["strong", "weak"], default="strong"
    )
    workload.add_argument(
        "--backend",
        choices=["memory", "sqlite", "procpool"],
        default="memory",
        help="store backend behind every subsystem (sqlite: real "
        "fsync-on-commit files; procpool: an external worker process)",
    )
    workload.add_argument("--show-history", action="store_true")
    workload.add_argument(
        "--perf-counters",
        action="store_true",
        help="print the incremental scheduling core's perf counters "
        "(conflict-cache hits, index lookups, graph/topo maintenance, "
        "certification cost)",
    )
    _add_obs_arguments(workload)
    workload.set_defaults(handler=_cmd_workload)

    demo = commands.add_parser("demo", help="run the CIM demonstration")
    demo.add_argument(
        "--fail-test",
        action="store_true",
        help="make the test activity fail (§2.2's recovery scenario)",
    )
    demo.set_defaults(handler=_cmd_demo)

    dot = commands.add_parser(
        "dot", help="export a process/schedule JSON file as Graphviz DOT"
    )
    dot.add_argument("file", help="path to a serialized process or schedule")
    dot.set_defaults(handler=_cmd_dot)

    sweep = commands.add_parser(
        "sweep", help="compare disciplines over a conflict/failure grid"
    )
    sweep.add_argument(
        "--conflicts", type=float, nargs="+", default=[0.0, 0.1, 0.3]
    )
    sweep.add_argument("--failures", type=float, nargs="+", default=[0.0])
    sweep.add_argument(
        "--disciplines", nargs="*", choices=sorted(SCHEDULERS), default=None
    )
    sweep.add_argument("--processes", type=int, default=5)
    sweep.add_argument("--seed", type=int, default=7)
    sweep.add_argument("--order", choices=["strong", "weak"], default="strong")
    sweep.set_defaults(handler=_cmd_sweep)

    chaos = commands.add_parser(
        "chaos",
        help="seeded chaos runs through the resilience layer",
    )
    chaos.add_argument(
        "--mix",
        choices=["all", "aborts", "latency", "hangs", "crashes", "mixed"],
        default="all",
        help="named fault mix (default: the full standard sweep)",
    )
    chaos.add_argument("--processes", type=int, default=8)
    chaos.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    chaos.add_argument(
        "--abort-rate", type=float, default=None, help="override abort rate"
    )
    chaos.add_argument(
        "--latency-rate",
        type=float,
        default=None,
        help="override latency-spike rate",
    )
    chaos.add_argument(
        "--hang-rate", type=float, default=None, help="override hang rate"
    )
    chaos.add_argument(
        "--crash-rate",
        type=float,
        default=None,
        help="override crash-stop rate",
    )
    chaos.add_argument(
        "--timeout",
        type=float,
        default=3.0,
        help="per-invocation timeout (virtual time)",
    )
    chaos.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="retry budget per activity before ◁-degradation",
    )
    chaos.add_argument(
        "--breaker-threshold",
        type=int,
        default=2,
        help="consecutive failures before a breaker opens",
    )
    chaos.add_argument(
        "--breaker-reset",
        type=float,
        default=8.0,
        help="open-window length before the half-open probe",
    )
    chaos.add_argument(
        "--backend",
        choices=["memory", "sqlite", "procpool"],
        default="memory",
        help="store backend behind every subsystem; certification must "
        "be identical over every choice",
    )
    chaos.add_argument(
        "--no-certify",
        action="store_true",
        help="report instead of raising when a run fails certification",
    )
    _add_obs_arguments(chaos)
    chaos.set_defaults(handler=_cmd_chaos)

    crashpoints = commands.add_parser(
        "crashpoints",
        help="crash after every LSN (and every recovery step), certify",
    )
    crashpoints.add_argument("--processes", type=int, default=4)
    crashpoints.add_argument("--conflicts", type=float, default=0.08)
    crashpoints.add_argument("--seeds", type=int, nargs="+", default=[0])
    crashpoints.add_argument(
        "--abort-rate",
        type=float,
        default=0.25,
        help="pre-crash chaos abort injection rate",
    )
    crashpoints.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        help="auto-checkpoint the WAL every N appends (default: never)",
    )
    crashpoints.add_argument(
        "--stride",
        type=int,
        default=1,
        help="crash after every Nth LSN (1 = every single one)",
    )
    crashpoints.add_argument(
        "--recovery-stride",
        type=int,
        default=1,
        help=(
            "sweep second-crash-during-recovery at every Nth crash point "
            "(0 disables)"
        ),
    )
    crashpoints.add_argument(
        "--no-file-faults",
        action="store_true",
        help="skip the torn-tail / bit-flip FileWAL torture",
    )
    crashpoints.add_argument(
        "--backend",
        choices=["memory", "sqlite", "procpool"],
        default="memory",
        help="store backend behind every subsystem; sqlite adds the "
        "disk-fault torture, procpool one real-SIGKILL recovery run",
    )
    _add_obs_arguments(crashpoints)
    crashpoints.set_defaults(handler=_cmd_crashpoints)

    overload = commands.add_parser(
        "overload",
        help="open-loop overload sweep through bounded admission",
    )
    overload.add_argument("--processes", type=int, default=24)
    overload.add_argument("--conflicts", type=float, default=0.03)
    overload.add_argument(
        "--loads",
        type=float,
        nargs="+",
        default=None,
        help=(
            "offered loads (proc/t); default sweeps 0.5x-4x the "
            "estimated capacity"
        ),
    )
    overload.add_argument("--seeds", type=int, nargs="+", default=[0])
    overload.add_argument(
        "--max-active",
        type=int,
        default=4,
        help="concurrent admitted processes (admission bound)",
    )
    overload.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        help="admission queue depth bound",
    )
    overload.add_argument(
        "--queue-age",
        type=float,
        default=10.0,
        help="evict queued offers older than this (virtual time)",
    )
    overload.add_argument(
        "--shed-policy",
        choices=["reject-new", "shed-youngest-brec"],
        default="shed-youngest-brec",
    )
    overload.add_argument(
        "--no-certify",
        action="store_true",
        help="report instead of raising when a run fails certification",
    )
    _add_obs_arguments(overload)
    overload.set_defaults(handler=_cmd_overload)

    federation = commands.add_parser(
        "federation",
        help="sharded federation: scaling and shard-kill chaos sweeps",
    )
    federation.add_argument(
        "--shards", type=int, default=3, help="scheduler shards"
    )
    federation.add_argument(
        "--processes", type=int, default=2, help="processes per service group"
    )
    federation.add_argument(
        "--cross",
        type=float,
        default=0.35,
        help="fraction of processes with a cross-shard footprint",
    )
    federation.add_argument(
        "--conflicts",
        type=float,
        default=0.05,
        help="probability that two services conflict",
    )
    federation.add_argument(
        "--capacity", type=int, default=4, help="per-shard activity capacity"
    )
    federation.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    federation.add_argument(
        "--drop", type=float, default=0.0, help="message drop rate"
    )
    federation.add_argument(
        "--delay", type=float, default=0.0, help="message delay rate"
    )
    federation.add_argument(
        "--duplicate", type=float, default=0.0, help="message duplicate rate"
    )
    federation.add_argument(
        "--partitions",
        type=int,
        default=0,
        help="number of timed network-partition windows to inject",
    )
    federation.add_argument(
        "--kill",
        action="store_true",
        help="kill and recover every shard once (staggered)",
    )
    federation.add_argument(
        "--kill-start",
        type=float,
        default=4.0,
        help="virtual time of the first shard kill",
    )
    federation.add_argument(
        "--kill-spacing",
        type=float,
        default=8.0,
        help="virtual time between successive shard kills",
    )
    federation.add_argument(
        "--downtime",
        type=float,
        default=4.0,
        help="how long a killed shard stays down",
    )
    federation.add_argument(
        "--scaling",
        action="store_true",
        help="run the service-disjoint scaling sweep (1..--shards shards) "
        "instead of the chaos workload",
    )
    _add_obs_arguments(federation)
    federation.set_defaults(handler=_cmd_federation)

    nemesis = commands.add_parser(
        "nemesis",
        help="unified fault simulation: search, run and replay fault plans",
    )
    nemesis_commands = nemesis.add_subparsers(
        dest="nemesis_command", required=True
    )

    def _add_nemesis_spec_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--shards", type=int, default=2, help="scheduler shards"
        )
        sub.add_argument(
            "--groups",
            type=int,
            default=0,
            help="service groups (default: 2x shards)",
        )
        sub.add_argument(
            "--processes",
            type=int,
            default=2,
            help="processes per service group",
        )
        sub.add_argument(
            "--cross",
            type=float,
            default=0.25,
            help="fraction of processes with a cross-shard footprint",
        )
        sub.add_argument(
            "--conflicts",
            type=float,
            default=0.05,
            help="probability that two services conflict",
        )
        sub.add_argument(
            "--backend",
            choices=["memory", "sqlite", "procpool"],
            default="memory",
            help="subsystem backend under test",
        )
        sub.add_argument(
            "--seed", type=int, default=0, help="workload seed"
        )
        sub.add_argument(
            "--horizon",
            type=float,
            default=24.0,
            help="virtual-time horizon fault actions are drawn from",
        )
        sub.add_argument(
            "--canary",
            default=None,
            metavar="FAM1,FAM2",
            help="arm the canary invariant for these fault families "
            "(a deterministic fault-injection-of-the-injector fixture)",
        )
        sub.add_argument(
            "--canary-threshold",
            type=int,
            default=1,
            help="faults per family before the canary fires",
        )

    nemesis_search = nemesis_commands.add_parser(
        "search",
        help="explore seeded random fault plans; shrink + bundle on "
        "violation",
    )
    _add_nemesis_spec_arguments(nemesis_search)
    nemesis_search.add_argument(
        "--plans", type=int, default=20, help="fault plans to explore"
    )
    nemesis_search.add_argument(
        "--search-seed", type=int, default=0, help="search campaign seed"
    )
    nemesis_search.add_argument(
        "--actions", type=int, default=8, help="fault actions per plan"
    )
    nemesis_search.add_argument(
        "--max-shrink-runs",
        type=int,
        default=128,
        help="replay budget for the delta-debugging shrinker",
    )
    nemesis_search.add_argument(
        "--bundle-dir",
        default=None,
        metavar="DIR",
        help="write a repro bundle here when a violation is found",
    )
    nemesis_search.add_argument(
        "--no-bundle-trace",
        action="store_true",
        help="skip the trace/explain artefacts in the bundle",
    )
    nemesis_search.add_argument(
        "--expect-violation",
        action="store_true",
        help="invert success: exit 0 only when a violation IS found "
        "(for canary fixtures in CI)",
    )
    nemesis_search.add_argument(
        "--min-coverage",
        type=float,
        default=0.0,
        help="fail unless fault-site coverage reaches this percentage",
    )
    _add_obs_arguments(nemesis_search)
    nemesis_search.set_defaults(handler=_cmd_nemesis_search)

    nemesis_run = nemesis_commands.add_parser(
        "run", help="execute one fault plan JSON against the system"
    )
    nemesis_run.add_argument(
        "plan", help="path to a fault-plan JSON (or a bundle.json)"
    )
    _add_nemesis_spec_arguments(nemesis_run)
    _add_obs_arguments(nemesis_run)
    nemesis_run.set_defaults(handler=_cmd_nemesis_run)

    nemesis_replay = nemesis_commands.add_parser(
        "replay",
        help="re-execute a repro bundle; verify the identical violation",
    )
    nemesis_replay.add_argument(
        "bundle", help="bundle directory or bundle.json path"
    )
    nemesis_replay.add_argument(
        "--runs", type=int, default=2, help="number of replays"
    )
    nemesis_replay.add_argument(
        "--canary",
        default=None,
        metavar="FAM1,FAM2",
        help="arm the canary invariant (must match the bundle's search)",
    )
    nemesis_replay.add_argument(
        "--canary-threshold", type=int, default=1, help=argparse.SUPPRESS
    )
    _add_obs_arguments(nemesis_replay)
    nemesis_replay.set_defaults(handler=_cmd_nemesis_replay)

    explain = commands.add_parser(
        "explain",
        help="explain a scheduling decision from an exported trace",
    )
    explain.add_argument(
        "trace", help="path to a JSONL trace (from a --trace run)"
    )
    explain.add_argument(
        "target",
        nargs="?",
        default=None,
        help="process or activity id (default: first blocked process)",
    )
    explain.add_argument(
        "--check",
        action="store_true",
        help="validate the trace against the event schema first",
    )
    explain.set_defaults(handler=_cmd_explain)

    top = commands.add_parser(
        "top",
        help="replay a trace through the live ops console",
    )
    top.add_argument(
        "trace", help="path to a JSONL trace (from a --trace run)"
    )
    top.add_argument(
        "--interval",
        type=float,
        default=5.0,
        help="virtual-time period between snapshots",
    )
    top.set_defaults(handler=_cmd_top)

    slow = commands.add_parser(
        "slow",
        help="attribute a process's commit latency to phases",
    )
    slow.add_argument(
        "trace", help="path to a JSONL trace (from a --trace run)"
    )
    slow.add_argument(
        "process",
        nargs="?",
        default=None,
        help="process id (default: the slowest recorded process)",
    )
    slow.add_argument(
        "--fleet",
        action="store_true",
        help="also print the fleet-wide per-phase attribution table",
    )
    slow.set_defaults(handler=_cmd_slow)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, every metric by name.

Run from the repository root::

    python3 perfbench/run.py --workload contention --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``contention``, ``durable`` and ``federated``
(see ``perfbench/README.md``); ``--seed`` makes the inputs (the same
seed gives the same inputs); ``--seconds`` is how long the timed phase
runs; ``--trace 1`` prints the per-layer metrics instead of the
end-to-end ones.

A run has three phases:

1. **Reference pass** (also the warm-up): every batch of the workload
   runs once; its output is checked and its history certified.  The
   certification time is ``certify_s``.
2. **Timed rounds**: until ``--seconds`` have passed (and at least
   twice), every batch is set up afresh and run again.  Each
   repeat must reproduce its reference history digest and decision
   counts exactly.  ``commits_per_s`` and ``setup_s`` are medians over
   rounds.
3. **Report**: one line per batch with its normalised history digest,
   the unscaled wall-clock figures, then, as the last line, a JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Times are reported in seconds of a reference machine (see
``calibrate.py``): the machine-speed probes run next to every measured
section.

With ``--trace 1`` the timed rounds alternate untraced and traced
rounds; both must give the reference digests and counts.  Per-layer
metrics come from the traced rounds, ``bench.trace_overhead`` from the
ratio of their run times, and the spans are written to
``.perfbench/spans/``.

Exit codes: 0 when every check passed, 1 when an output check failed,
2 when the program or ``BENCHMARK.json`` cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from calibrate import Clock, Probes, Timing
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")

EXIT_OK, EXIT_FAILED, EXIT_MISSING = 0, 1, 2

#: Timed rounds per run at the least, whatever ``--seconds`` says.
MIN_ROUNDS = 2


@dataclass
class Reference:
    """What the reference run of one batch must be repeated as.

    Only scalars are kept: a retained history would enlarge the heap
    that every later garbage collection scans, and so slow the runs
    being timed.
    """

    digest: str
    counts: Dict[str, int]
    submitted: int
    committed: int
    latencies: List[float]
    makespan: float


@dataclass
class Round:
    """Sums over one timed pass through every batch of a workload."""

    probes: Probes
    setup: Timing
    run: Timing
    submitted: int = 0
    commits: int = 0
    counts: Dict[str, int] = field(default_factory=dict)
    stats: Dict[str, int] = field(default_factory=dict)
    perf: Dict[str, float] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)

    def run_s(self) -> float:
        """The round's run time in reference seconds."""
        return self.probes.scale(self.run)

    def setup_s(self) -> float:
        return self.probes.scale(self.setup)

    def wall_factor(self) -> float:
        """Reference seconds per wall second of running, for spans."""
        return self.run_s() / self.run.wall


def _add(into: Dict[str, float], values: Dict[str, float]) -> None:
    for key, value in values.items():
        into[key] = into.get(key, 0) + value


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Bench:
    """One benchmark run of one workload and seed."""

    def __init__(self, workload, seed: int, tracer=None) -> None:
        from workloads import batch_seeds

        self.workload = workload
        self.seeds = batch_seeds(seed, workload.batches)
        self.tracer = tracer
        self.workdir = os.path.join(OUT, "work")
        self.probe_path = os.path.join(self.workdir, "fsync-probe")
        self.problems: List[str] = []
        self.reference: Dict[int, Reference] = {}
        self.certify = Timing()
        self.certify_probes = Probes(self.probe_path)
        self.attempted = 0
        self.failed = 0
        #: Batch runs so far; a run's index is its span run id.
        self.batch_runs = 0

    def _traced(self):
        return self.tracer.instrument() if self.tracer else nullcontext()

    def _one(self, seed: int, probes):
        # Start every batch from a collected heap, so a collection of
        # an earlier batch's garbage never lands in this one's timing.
        gc.collect()
        probes.run()
        if self.tracer:
            self.tracer.run_id = self.batch_runs
        self.batch_runs += 1
        with Clock() as setup:
            batch = self.workload.build(seed, self.workdir)
        with Clock() as run:
            outcome = batch.run()
        return batch, outcome, setup.timing, run.timing

    def reference_pass(self) -> None:
        from workloads import digest

        os.makedirs(self.workdir, exist_ok=True)
        for seed in self.seeds:
            batch, outcome, _, _ = self._one(seed, Probes(self.probe_path))
            try:
                problems = batch.verify(outcome)
                self.certify_probes.run()
                with self._traced(), Clock() as clock:
                    problems += batch.certify(outcome)
                self.certify += clock.timing
            finally:
                batch.close()
            self._tally(seed, outcome, problems)
            self.reference[seed] = Reference(
                digest=digest(outcome.history, batch.submitted_ids),
                counts=dict(outcome.counts),
                submitted=outcome.submitted,
                committed=outcome.committed,
                latencies=list(outcome.latencies),
                makespan=outcome.makespan,
            )

    def timed_round(self) -> Round:
        from workloads import digest

        result = Round(Probes(self.probe_path), Timing(), Timing())
        for seed in self.seeds:
            batch, outcome, setup, run = self._one(seed, result.probes)
            try:
                problems = batch.verify(outcome)
            finally:
                batch.close()
            expected = self.reference[seed]
            found = digest(outcome.history, batch.submitted_ids)
            if found != expected.digest:
                problems.append(
                    f"history digest {found} differs from the reference "
                    f"{expected.digest}"
                )
            if outcome.counts != expected.counts:
                problems.append(
                    f"counts {outcome.counts} differ from the reference "
                    f"{expected.counts}"
                )
            self._tally(seed, outcome, problems)
            result.setup += setup
            result.run += run
            result.submitted += outcome.submitted
            result.commits += outcome.committed
            _add(result.counts, outcome.counts)
            _add(result.stats, outcome.stats)
            for snapshot in outcome.perf:
                _add(result.perf, snapshot)
            _add(result.extra, outcome.extra)
        return result

    def _tally(self, seed: int, outcome, problems: List[str]) -> None:
        """Count a batch run; every process of a failed one fails."""
        self.attempted += outcome.submitted
        if problems:
            self.problems.extend(f"batch {seed}: {p}" for p in problems)
            self.failed += outcome.submitted

    def digest_lines(self) -> List[str]:
        lines = []
        for seed in self.seeds:
            ref = self.reference[seed]
            lines.append(
                f"batch {seed} digest={ref.digest} "
                + " ".join(f"{k}={v}" for k, v in sorted(ref.counts.items()))
                + f" submitted={ref.submitted}"
            )
        combined = hashlib.sha256(
            " ".join(self.reference[s].digest for s in self.seeds).encode()
        ).hexdigest()[:16]
        lines.append(f"run digest={combined}")
        return lines

    # -- metrics -----------------------------------------------------------

    def certify_s(self) -> float:
        return self.certify_probes.scale(self.certify)

    def raw_line(self, rounds: List[Round]) -> str:
        """The unscaled wall-clock figures and probe readings."""
        return (
            "wall-clock: commits_per_s="
            f"{statistics.median(r.commits / r.run.wall for r in rounds):.4f}"
            f" setup_s={statistics.median(r.setup.wall for r in rounds):.4f}"
            f" certify_s={self.certify.wall:.4f} probes: loop_s="
            f"{self.certify_probes.loop_mean_s():.6f} fsync_s="
            f"{self.certify_probes.fsync_mean_s():.6f}"
        )

    def end_to_end(self, rounds: List[Round]) -> Dict[str, float]:
        references = [self.reference[seed] for seed in self.seeds]
        return {
            "commits_per_s": statistics.median(
                r.commits / r.run_s() for r in rounds
            ),
            "commit_ratio": sum(r.committed for r in references)
            / sum(r.submitted for r in references),
            "latency_p50_vt": statistics.median(
                v for r in references for v in r.latencies
            ),
            "makespan_vt": statistics.mean(r.makespan for r in references),
            "certify_s": self.certify_s(),
            "setup_s": statistics.median(r.setup_s() for r in rounds),
            "peak_rss_mb": peak_rss_mb(),
        }

    def per_layer(
        self,
        traced: List[Tuple[Round, Dict, Tuple[int, int]]],
        untraced: List[Round],
        certification: Dict,
    ) -> Dict[str, float]:
        tracer = self.tracer
        per_round = [
            self._layer_round(result, window, spans)
            for result, window, spans in traced
        ]
        metrics = {
            name: statistics.median_low(values[name] for values in per_round)
            for name in per_round[0]
        }
        metrics["bench.trace_overhead"] = statistics.median(
            r.run_s() for r, _, _ in traced
        ) / statistics.median(r.run_s() for r in untraced)
        metrics["bench.probe_loop_s"] = self.certify_probes.loop_mean_s()
        metrics["bench.probe_fsync_s"] = self.certify_probes.fsync_mean_s()
        factor = self.certify_s() / self.certify.wall
        cert_self = {
            layer: seconds * factor
            for layer, seconds in tracer.layer_self(certification).items()
        }
        metrics.update(
            {
                "core.reduction.reduce_calls": certification[
                    "reduce_schedule"
                ][0],
                "core.reduction.self_s": cert_self["core.reduction"],
                "core.completion.self_s": cert_self["core.completion"],
                "core.pred.self_s": cert_self["core.pred"],
                "sim.certify.self_s": cert_self["sim.certify"],
            }
        )
        return metrics

    def _layer_round(
        self, result: Round, window: Dict, spans: Tuple[int, int]
    ) -> Dict[str, float]:
        tracer = self.tracer
        factor = result.wall_factor()
        layer = {
            name: seconds * factor
            for name, seconds in tracer.layer_self(window).items()
        }

        def calls(*labels: str) -> int:
            return sum(window[label][0] for label in labels)

        stats, perf, extra = result.stats, result.perf, result.extra
        commits = result.commits
        sergraph = [
            label
            for label, name in zip(tracer.labels, tracer.layers)
            if name == "core.sergraph"
        ]
        step = "TransactionalProcessScheduler.step_instance"
        stall = "TransactionalProcessScheduler.resolve_stall"
        return {
            "sim.runner.self_s": layer["sim.runner"],
            "fed.runner.self_s": layer["fed.runner"],
            "core.scheduler.step_calls": calls(step),
            "core.scheduler.self_s": layer["core.scheduler"],
            "core.scheduler.dispatch_ratio": _ratio(
                stats["dispatched"], calls(step)
            ),
            "core.scheduler.deferrals_per_dispatch": _ratio(
                stats["deferred"], stats["dispatched"]
            ),
            "core.scheduler.stall_calls": calls(stall),
            "core.scheduler.stall_s": window[stall][2] * factor,
            "core.scheduler.victim_aborts": stats["victim_aborts"],
            "core.scheduler.cascading_aborts": stats["cascading_aborts"],
            "core.scheduler.aborts_per_commit": _ratio(
                result.submitted - commits, commits
            ),
            "core.sergraph.calls": calls(*sergraph),
            "core.sergraph.self_s": layer["core.sergraph"],
            "core.sergraph.cycle_dfs_ratio": _ratio(
                perf["cycle_dfs"], perf["cycle_dfs"] + perf["cycle_fast_path"]
            ),
            "core.sergraph.rebuilds": calls(
                "IncrementalSerializationGraph.rebuild"
            ),
            "core.conflict.cache_hit_ratio": _ratio(
                perf.get("conflict_cache_hits", 0),
                perf.get("conflict_lookups", 0),
            ),
            "subsystems.subsystem.invoke_calls": calls("Subsystem.invoke"),
            "subsystems.subsystem.self_s": layer["subsystems.subsystem"],
            "subsystems.twophase.groups": calls(
                "TwoPhaseCoordinator.commit_group"
            ),
            "subsystems.twophase.self_s": layer["subsystems.twophase"],
            "subsystems.wal.appends": calls(
                "FileWAL.append", "InMemoryWAL.append"
            ),
            "subsystems.wal.fsyncs": extra.get("wal_fsyncs", 0),
            "subsystems.wal.self_s": layer["subsystems.wal"],
            "subsystems.wal.bytes_per_commit": _ratio(
                extra.get("wal_bytes", 0), commits
            ),
            "subsystems.backend.applies": calls(
                "SqliteBackend.apply", "MemoryBackend.apply"
            ),
            "subsystems.backend.fsyncs": extra.get("store_fsyncs", 0),
            "subsystems.backend.self_s": layer["subsystems.backend"],
            "fed.federation.pump_calls": calls("Federation.pump"),
            "fed.federation.self_s": layer["fed.federation"],
            "fed.federation.fed_deferrals": extra.get("fed_deferrals", 0),
            "fed.federation.recover_s": window["Federation.recover_shard"][2]
            * factor,
            "fed.messages.requests": calls("FederationNetwork.request"),
            "fed.messages.posts_delivered": extra.get("posts_delivered", 0),
            "fed.messages.faults_injected": extra.get("faults_injected", 0),
            "fed.messages.self_s": layer["fed.messages"],
            "fed.twopc.groups": calls("CrossShardCoordinator.commit_group"),
            "fed.twopc.resends": self._resends(spans),
            "fed.twopc.self_s": layer["fed.twopc"],
            "fsyncs_per_commit": _ratio(result.counts["fsyncs"], commits),
        }

    def _resends(self, spans: Tuple[int, int]) -> int:
        """Decision requests sent by ``resend`` within a span range."""
        tracer = self.tracer
        request = tracer.labels.index("FederationNetwork.request")
        resend = tracer.labels.index("CrossShardCoordinator.resend")
        labels, parents = tracer.span_label, tracer.span_parent
        return sum(
            1
            for span in range(*spans)
            if labels[span] == request
            and parents[span] >= 0
            and labels[parents[span]] == resend
        )


def peak_rss_mb() -> float:
    """Peak resident memory of this process in MiB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run one workload; returns ``(bench, metrics, notes)``."""
    bench = Bench(workload, seed, tracer=Tracer() if trace else None)
    # Leave the interpreter's and the benchmark's own long-lived objects
    # out of every later collection: only objects the batches create
    # are scanned, as they would be in a process serving them alone.
    gc.collect()
    gc.freeze()
    if trace:
        before = bench.tracer.snapshot()
    bench.reference_pass()
    deadline = perf_counter() + seconds
    if not trace:
        rounds: List[Round] = []
        while len(rounds) < MIN_ROUNDS or perf_counter() < deadline:
            rounds.append(bench.timed_round())
        return bench, bench.end_to_end(rounds), [bench.raw_line(rounds)]

    tracer = bench.tracer
    certification = Tracer.delta(tracer.snapshot(), before)
    untraced: List[Round] = []
    traced: List[Tuple[Round, Dict, Tuple[int, int]]] = []
    while (
        len(traced) < MIN_ROUNDS
        or len(untraced) < MIN_ROUNDS
        or perf_counter() < deadline
    ):
        # Alternate which side runs first, so drift hits both alike.
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for traced_round in order:
            if not traced_round:
                untraced.append(bench.timed_round())
                continue
            before = tracer.snapshot()
            first = len(tracer.span_label)
            with tracer.instrument():
                result = bench.timed_round()
            window = Tracer.delta(tracer.snapshot(), before)
            traced.append((result, window, (first, len(tracer.span_label))))
    notes = [bench.raw_line(untraced)]
    return bench, bench.per_layer(traced, untraced, certification), notes


def load_spec() -> Optional[dict]:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = load_spec()
    if spec is None or not os.path.isfile(
        os.path.join(SRC, "repro", "__init__.py")
    ):
        print(
            f"perfbench: {ROOT} has no BENCHMARK.json or no src/repro",
            file=sys.stderr,
        )
        return EXIT_MISSING
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"expected one of {', '.join(WORKLOADS)}"
        )
    bench, metrics, notes = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    shutil.rmtree(bench.workdir, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(units) != set(metrics):
        bench.problems.append(
            f"metrics {sorted(set(metrics) ^ set(units))} are measured "
            f"but not declared in BENCHMARK.json, or declared but not "
            f"measured"
        )
    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"batches={len(bench.seeds)} trace={args.trace}"
    )
    for line in bench.digest_lines() + notes:
        print(line)
    if bench.tracer:
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        path = os.path.join(
            OUT, "spans", f"{args.workload}-seed{args.seed}.tsv.gz"
        )
        count = bench.tracer.write_spans(path)
        print(f"spans={count} written to {os.path.relpath(path, ROOT)}")
    for problem in bench.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    correct = not bench.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                    if name in metrics
                },
            }
        )
    )
    return EXIT_OK if correct else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())

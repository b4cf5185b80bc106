"""Crash-point torture harness: crash everywhere, recover, certify.

The paper's recovery story (Definition 8 2(b)) promises that a crash at
*any* moment leaves the process manager able to finish every active
process through its completion.  This harness makes "any moment"
operational: for a seeded workload it

* crashes the scheduler after **every LSN** the write-ahead log ever
  reaches (a :class:`CrashingWAL` wrapper raises
  :class:`SimulatedCrash` right after a chosen record becomes durable),
* crashes **recovery itself** after every record the recovery pass
  appends (the second-crash-during-recovery case restartable recovery
  exists for),
* injects **file-level faults** — torn tails and bit flips — into an
  on-disk :class:`~repro.subsystems.wal.FileWAL` and checks the salvage
  / typed-corruption contract,

then re-runs :func:`~repro.subsystems.recovery.recover` and certifies
the combined pre+post-crash history with the offline PRED/RED and
termination checkers (shared with the chaos harness via
:func:`~repro.sim.certify.certify_history`).  Each crash point also
checks recovery *idempotence*: a second :func:`recover` must append
nothing and abort nothing.

Faults can be mixed in: an abort-rate chaos policy (deterministic per
seed) exercises alternative paths and compensations before the crash,
so crash points land inside partially-compensated histories too.

Entry points:

* :func:`run_crashpoints` — the full seeded sweep (benchmark X9, CLI
  ``python -m repro crashpoints``);
* :func:`crash_once` — one crash point, recovered and certified;
* :func:`run_file_faults` — torn-tail / bit-flip torture on a FileWAL.
"""

from __future__ import annotations

import os
import shutil
import signal
import tempfile
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.core.scheduler import TransactionalProcessScheduler
from repro.errors import LogCorruptionError, StoreCorruptionError
from repro.sim.certify import Certification, certify_history
from repro.sim.workload import WorkloadSpec, generate_workload
from repro.subsystems.backend import (
    BACKEND_KINDS,
    BackendHub,
    SqliteBackend,
    tear_file,
)
from repro.subsystems.failures import (
    ChaosPolicy,
    DiskFaultPolicy,
    FailurePolicy,
    NoFailures,
)
from repro.subsystems.recovery import (
    analyze_wal,
    recover,
    replay_history,
)
from repro.subsystems.services import Service, ServicePair
from repro.subsystems.subsystem import SubsystemRegistry
from repro.subsystems.wal import FileWAL, InMemoryWAL, WriteAheadLog

__all__ = [
    "SimulatedCrash",
    "CrashingWAL",
    "CrashPointSpec",
    "CrashPointResult",
    "CrashPointSweep",
    "FileFaultResult",
    "DiskFaultResult",
    "RealKillResult",
    "baseline_lsns",
    "crash_once",
    "run_crashpoints",
    "run_file_faults",
    "run_disk_faults",
    "run_real_kill",
]


class SimulatedCrash(Exception):
    """Control signal: the simulated machine died at this instant.

    Deliberately **not** a :class:`~repro.errors.ReproError` — the
    scheduler's typed error handling must never catch it, exactly as no
    exception handler survives a real power failure.  ``lsn`` is the
    last record that made it to the log before the lights went out.
    """

    def __init__(self, lsn: int) -> None:
        super().__init__(f"simulated crash after lsn {lsn}")
        self.lsn = lsn


class CrashingWAL(WriteAheadLog):
    """WAL wrapper that kills the process after a chosen durable write.

    The crash fires *after* the inner append returns — the record is on
    the log, the scheduler never learns it succeeded.  That is the
    worst honest crash shape: everything before the crash point is
    durable, nothing after it happened.  Two triggers:

    * ``crash_lsn`` — fire once a record with this LSN (or beyond, for
      LSNs consumed by checkpoint compaction) is written;
    * ``crash_after_appends`` — fire after the N-th append *through
      this wrapper* (used to crash recovery at each of its own steps).
    """

    def __init__(
        self,
        inner: WriteAheadLog,
        crash_lsn: Optional[int] = None,
        crash_after_appends: Optional[int] = None,
    ) -> None:
        self.inner = inner
        self.crash_lsn = crash_lsn
        self.crash_after_appends = crash_after_appends
        self.appends = 0
        self.fired = False

    def _after_write(self, lsn: int) -> None:
        if self.fired:
            return
        self.appends += 1
        if self.crash_lsn is not None and lsn >= self.crash_lsn:
            self.fired = True
            raise SimulatedCrash(lsn)
        if (
            self.crash_after_appends is not None
            and self.appends >= self.crash_after_appends
        ):
            self.fired = True
            raise SimulatedCrash(lsn)

    def append(self, record: Dict[str, object]) -> int:
        lsn = self.inner.append(record)
        self._after_write(lsn)
        return lsn

    def checkpoint(self, state: Dict[str, object]) -> int:
        lsn = self.inner.checkpoint(state)
        self._after_write(lsn)
        return lsn

    def records(self) -> List[Dict[str, object]]:
        return self.inner.records()

    def truncate(self) -> None:
        self.inner.truncate()

    def close(self) -> None:
        self.inner.close()

    def sync(self) -> None:
        self.inner.sync()


@dataclass(frozen=True)
class CrashPointSpec:
    """One torture campaign: workload shape + fault knobs + coverage."""

    name: str = "crashpoints"
    workload: WorkloadSpec = field(
        default_factory=lambda: WorkloadSpec(
            processes=4,
            prefix_range=(1, 3),
            service_pool=8,
            conflict_rate=0.08,
        )
    )
    #: Pre-crash chaos: per-attempt abort injection (deterministic per
    #: seed; 0 disables).  Aborts force alternative paths and
    #: compensations, so crash points land in mid-recovery shapes.
    abort_rate: float = 0.25
    #: Auto-checkpoint the scheduler every N WAL appends (None: never).
    checkpoint_interval: Optional[int] = None
    #: Crash after every ``stride``-th LSN (1 = every single one).
    stride: int = 1
    #: Also crash *recovery* after each of its own appends, at every
    #: ``recovery_stride``-th crash LSN (0 disables the inner sweep).
    recovery_stride: int = 1
    #: Master seed (workload and chaos derive from it).
    seed: int = 0
    #: Store backend behind every subsystem (``memory``/``sqlite``/
    #: ``procpool``).  Scheduler decisions are backend-independent, so
    #: every crash point must certify identically over real storage;
    #: ``sqlite`` additionally runs the disk-fault torture and
    #: ``procpool`` the real-SIGKILL run.
    backend: str = "memory"

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_KINDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{', '.join(BACKEND_KINDS)}"
            )

    def with_seed(self, seed: int) -> "CrashPointSpec":
        return replace(self, seed=seed)


@dataclass
class CrashPointResult:
    """Verdict for one crash point (optionally one recovery crash)."""

    crash_lsn: int
    #: Recovery was additionally crashed after this many of its own
    #: appends before the final, completing recovery (None: it wasn't).
    recovery_crash_after: Optional[int]
    #: The workload actually reached the crash point (late LSNs may
    #: complete first — those runs certify the undisturbed history).
    crashed: bool
    certification: Certification
    #: Second recover() appended nothing and aborted nothing.
    idempotent: bool
    #: No prepared transactions survived recovery.
    in_doubt_clear: bool
    #: The final recovery resumed a crashed one (recovery_begin without
    #: recovery_end in the log).
    resumed: bool
    #: Records the final recovery's analysis had to iterate.
    records_scanned: int
    #: Retained log length after everything settled.
    log_length: int

    @property
    def certified(self) -> bool:
        return (
            self.certification.certified
            and self.idempotent
            and self.in_doubt_clear
        )

    def describe(self) -> str:
        where = f"lsn {self.crash_lsn}"
        if self.recovery_crash_after is not None:
            where += f" + recovery append {self.recovery_crash_after}"
        return (
            f"crash at {where}: {self.certification.describe()} "
            f"idempotent={self.idempotent} in_doubt_clear={self.in_doubt_clear}"
        )


@dataclass
class CrashPointSweep:
    """Every crash point of one campaign, certified."""

    spec: CrashPointSpec
    #: Log length of the undisturbed baseline run (the LSN space swept).
    total_lsns: int
    results: List[CrashPointResult]
    file_faults: List["FileFaultResult"] = field(default_factory=list)
    #: Injected *store*-level disk faults (sqlite backend only).
    disk_faults: List["DiskFaultResult"] = field(default_factory=list)
    #: Real-SIGKILL runs (procpool backend only).
    real_kills: List["RealKillResult"] = field(default_factory=list)

    @property
    def all_certified(self) -> bool:
        return (
            all(result.certified for result in self.results)
            and all(fault.passed for fault in self.file_faults)
            and all(fault.passed for fault in self.disk_faults)
            and all(kill.passed for kill in self.real_kills)
        )

    @property
    def failures(self) -> List[str]:
        notes = [
            result.describe()
            for result in self.results
            if not result.certified
        ]
        notes.extend(
            f"file fault {fault.fault}: {fault.detail}"
            for fault in self.file_faults
            if not fault.passed
        )
        notes.extend(
            f"disk fault {fault.fault}: {fault.detail}"
            for fault in self.disk_faults
            if not fault.passed
        )
        notes.extend(
            f"real kill: {kill.describe()}"
            for kill in self.real_kills
            if not kill.passed
        )
        return notes

    def row(self) -> Dict[str, object]:
        """Flat summary row for sweep tables."""
        recovery_crashes = sum(
            1
            for result in self.results
            if result.recovery_crash_after is not None
        )
        return {
            "seed": self.spec.seed,
            "backend": self.spec.backend,
            "lsns": self.total_lsns,
            "crash_points": len(self.results) - recovery_crashes,
            "recovery_crashes": recovery_crashes,
            "file_faults": len(self.file_faults),
            "disk_faults": len(self.disk_faults),
            "real_kills": len(self.real_kills),
            "max_scanned": max(
                (result.records_scanned for result in self.results),
                default=0,
            ),
            "certified": self.all_certified,
        }


def _ledger_service(name: str) -> ServicePair:
    """A write-bearing service pair for the store-level tortures.

    Every forward invocation appends a ``+1`` entry under a key derived
    from its transaction id; the compensation appends the reversing
    ``-1`` entry (ledger-style undo).  Physical keys are unique per
    invocation, so commits always carry a non-empty write batch — real
    fsyncs on ``sqlite``, real IPC on ``procpool`` — without the lock
    contention a shared counter key would add between held (prepared)
    transactions and immediate ones.
    """

    def forward(context) -> object:
        context.write(f"{name}/{context.txn_id}", 1)
        return 1

    def inverse(context) -> object:
        context.write(f"{name}~inv/{context.txn_id}", -1)
        return -1

    return ServicePair(
        forward=Service(name=name, handler=forward),
        compensation=Service(name=f"{name}~inv", handler=inverse),
    )


def _build(
    spec: CrashPointSpec,
    wal: WriteAheadLog,
    trace=None,
    metrics=None,
    hub: Optional[BackendHub] = None,
    services: str = "noop",
):
    """Deterministic scheduler + repository for one campaign seed.

    Processes are *not* submitted here — submission already writes the
    log, so it belongs inside :func:`_drive`'s crash scope.  ``hub``
    backs every auto-provisioned subsystem with real storage; the same
    hub must span a crash/recover cycle (its store files are the
    surviving state).

    ``services`` selects what the workload's service names resolve to:
    the historical ``"noop"`` (effect-free placeholders, what the main
    LSN sweep has always used — keeps its decisions bit-identical), or
    ``"ledger"`` — :func:`_ledger_service` pairs whose commits carry
    non-empty write batches, so durable backends actually fsync and
    worker processes actually hold state.  The disk-fault and real-kill
    tortures use the latter: a store fault harness over stores nothing
    ever writes to would be vacuous.
    """
    workload = generate_workload(replace(spec.workload, seed=spec.seed))
    failures: FailurePolicy
    if spec.abort_rate > 0.0:
        failures = ChaosPolicy(abort_rate=spec.abort_rate, seed=spec.seed + 1)
    else:
        failures = NoFailures()
    registry = SubsystemRegistry(
        backend_factory=hub.backend_for if hub is not None else None
    )
    if services == "ledger":
        subsystem = registry.provision("default")
        for i in range(spec.workload.service_pool):
            subsystem.register(_ledger_service(f"svc{i}"))
    scheduler = TransactionalProcessScheduler(
        registry=registry,
        conflicts=workload.conflicts,
        wal=wal,
        checkpoint_interval=spec.checkpoint_interval,
        trace=trace,
        metrics=metrics,
    )
    repository = {process.process_id: process for process in workload.processes}
    return scheduler, repository, workload, failures


def _drive(scheduler, workload, failures) -> bool:
    """Submit and run the workload; True if a crash cut it short.

    Submission is inside the crash scope: the very first LSNs belong to
    ``process_submit`` records, and a crash there must be survivable
    like any other.
    """
    try:
        for process in workload.processes:
            scheduler.submit(process, failures=failures)
        scheduler.run()
        return False
    except SimulatedCrash:
        return True


def _certify(
    wal: WriteAheadLog,
    repository,
    workload,
    report,
    compacted: bool,
) -> Certification:
    """Certify the combined pre+post-crash history.

    On an uncompacted log the *entire* combined history is rebuilt from
    the log and checked — the strongest claim.  Checkpoint compaction
    discards old records by design, so there the certification covers
    the recovery scheduler's own history (replayed survivors plus the
    completions it drove).
    """
    terminated = not analyze_wal(wal).active
    if compacted:
        return certify_history(report.history, terminated)
    full = replay_history(wal, repository, workload.conflicts)
    return certify_history(full, terminated)


def crash_once(
    spec: CrashPointSpec,
    crash_lsn: int,
    recovery_crash_after: Optional[int] = None,
    trace=None,
    metrics=None,
) -> CrashPointResult:
    """Crash at one LSN (optionally once more during recovery), recover
    fully, and certify the outcome.

    With a non-memory backend the run's :class:`BackendHub` spans the
    whole crash/recover cycle — the store files are the surviving
    durable state the recovered completions execute against.
    """
    inner = InMemoryWAL()
    hub = BackendHub(spec.backend) if spec.backend != "memory" else None
    try:
        scheduler, repository, workload, failures = _build(
            spec, CrashingWAL(inner, crash_lsn=crash_lsn), trace=trace,
            metrics=metrics, hub=hub,
        )
        if trace is not None and trace.enabled:
            trace.emit(
                "run_begin",
                harness="crashpoints",
                seed=spec.seed,
                crash_lsn=crash_lsn,
                recovery_crash_after=recovery_crash_after,
                backend=spec.backend,
            )
        crashed = _drive(scheduler, workload, failures)
        scheduler.crash()

        resumed = False
        if crashed and recovery_crash_after is not None:
            # Second crash: kill the first recovery after its N-th append.
            try:
                recover(
                    CrashingWAL(
                        inner, crash_after_appends=recovery_crash_after
                    ),
                    scheduler.registry,
                    repository,
                    conflicts=workload.conflicts,
                )
            except SimulatedCrash:
                pass  # the recovery died; the next one must resume it

        report = recover(
            inner, scheduler.registry, repository, conflicts=workload.conflicts
        )
        resumed = report.resumed
        certification = _certify(
            inner,
            repository,
            workload,
            report,
            compacted=spec.checkpoint_interval is not None,
        )
        in_doubt_clear = not scheduler.registry.prepared_transactions()

        # Idempotence: a completed recovery leaves nothing for another.
        length_before = len(inner)
        again = recover(
            inner, scheduler.registry, repository, conflicts=workload.conflicts
        )
        idempotent = again.noop and len(inner) == length_before
        scheduler.registry.close()
    finally:
        if hub is not None:
            hub.close()

    if trace is not None and trace.enabled:
        trace.emit(
            "run_end",
            harness="crashpoints",
            seed=spec.seed,
            crash_lsn=crash_lsn,
            crashed=crashed,
            certified=certification.certified,
            idempotent=idempotent,
        )
    return CrashPointResult(
        crash_lsn=crash_lsn,
        recovery_crash_after=recovery_crash_after,
        crashed=crashed,
        certification=certification,
        idempotent=idempotent,
        in_doubt_clear=in_doubt_clear,
        resumed=resumed,
        records_scanned=report.analysis.records_scanned,
        log_length=len(inner),
    )


def _recovery_appends(spec: CrashPointSpec, crash_lsn: int) -> int:
    """How many records a clean recovery at this crash point appends.

    Auxiliary counting runs execute on the in-memory backend: the
    scheduler's decisions (and hence its log) are backend-independent,
    which the torture sweep itself then re-verifies point by point.
    """
    spec = replace(spec, backend="memory")
    inner = InMemoryWAL()
    scheduler, repository, workload, failures = _build(
        spec, CrashingWAL(inner, crash_lsn=crash_lsn)
    )
    if not _drive(scheduler, workload, failures):
        return 0
    scheduler.crash()
    before = len(inner)
    recover(inner, scheduler.registry, repository, conflicts=workload.conflicts)
    return len(inner) - before


def baseline_lsns(spec: CrashPointSpec, services: str = "noop") -> int:
    """Log length of the undisturbed run — the crash-LSN space."""
    spec = replace(spec, backend="memory")
    inner = InMemoryWAL()
    scheduler, _, workload, failures = _build(
        spec, CrashingWAL(inner), services=services
    )
    if _drive(scheduler, workload, failures):
        raise AssertionError("baseline run must not crash")
    # Compaction consumes LSNs too: the next LSN is the space bound.
    records = inner.records()
    if not records:
        return 0
    return int(records[-1]["lsn"]) + 1  # type: ignore[call-overload]


def run_crashpoints(
    spec: CrashPointSpec,
    file_faults: bool = True,
    trace=None,
    metrics=None,
) -> CrashPointSweep:
    """The full torture sweep for one seed.

    Crashes after every ``stride``-th LSN of the baseline run; at every
    ``recovery_stride``-th of those crash points additionally sweeps a
    second crash through each append the recovery pass makes.  With
    ``file_faults`` the torn-tail / bit-flip torture runs as well.  On
    the ``sqlite`` backend the sweep additionally injects *store*-level
    disk faults (:func:`run_disk_faults`); on ``procpool`` it performs
    one real-SIGKILL run (:func:`run_real_kill`).
    """
    total = baseline_lsns(spec)
    results: List[CrashPointResult] = []
    for index, crash_lsn in enumerate(range(0, total, spec.stride)):
        result = crash_once(spec, crash_lsn, trace=trace, metrics=metrics)
        results.append(result)
        if not result.crashed:
            continue
        if spec.recovery_stride and index % spec.recovery_stride == 0:
            appends = _recovery_appends(spec, crash_lsn)
            for step in range(1, appends + 1):
                results.append(
                    crash_once(
                        spec,
                        crash_lsn,
                        recovery_crash_after=step,
                        trace=trace,
                        metrics=metrics,
                    )
                )
    faults = run_file_faults(spec) if file_faults else []
    disk_faults = run_disk_faults(spec) if spec.backend == "sqlite" else []
    real_kills = (
        [run_real_kill(spec)] if spec.backend == "procpool" else []
    )
    return CrashPointSweep(
        spec=spec,
        total_lsns=total,
        results=results,
        file_faults=faults,
        disk_faults=disk_faults,
        real_kills=real_kills,
    )


# ---------------------------------------------------------------------------
# File-level fault torture
# ---------------------------------------------------------------------------


@dataclass
class FileFaultResult:
    """Outcome of one on-disk fault injection."""

    fault: str  # "torn_tail" | "bit_flip_tail" | "bit_flip_mid"
    passed: bool
    detail: str = ""


def _file_crash_run(
    spec: CrashPointSpec, path: str, crash_lsn: int
) -> Tuple[Dict[str, object], object, object]:
    """Drive the seeded workload over a FileWAL until the crash point."""
    wal = FileWAL(path)
    scheduler, repository, workload, failures = _build(
        spec, CrashingWAL(wal, crash_lsn=crash_lsn)
    )
    _drive(scheduler, workload, failures)
    scheduler.crash()
    wal.close()
    return repository, workload, scheduler.registry


def run_file_faults(
    spec: CrashPointSpec, crash_lsn: int = 12
) -> List[FileFaultResult]:
    """Torn-tail and bit-flip torture against the on-disk log.

    * a torn tail (truncated mid-record, as a crash mid-append leaves
      it) must salvage: the log reopens minus the torn record and
      recovery certifies;
    * a flipped bit in the *last* record must fail its checksum and
      salvage the same way;
    * a flipped bit in an *earlier* record must raise the typed
      :class:`~repro.errors.LogCorruptionError` — mid-log damage is not
      explainable by a crash and recovery must not guess.
    """
    results: List[FileFaultResult] = []
    for fault in ("torn_tail", "bit_flip_tail", "bit_flip_mid"):
        with tempfile.TemporaryDirectory(prefix="crashpoints-") as tmp:
            path = os.path.join(tmp, "wal.jsonl")
            repository, workload, registry = _file_crash_run(
                spec, path, crash_lsn
            )
            with open(path, "rb") as handle:
                raw = bytearray(handle.read())
            if len(raw) < 40:
                results.append(
                    FileFaultResult(fault, False, "log too short to damage")
                )
                continue
            if fault == "torn_tail":
                damaged = bytes(raw[: len(raw) - 9])
            elif fault == "bit_flip_tail":
                line_start = raw.rstrip(b"\n").rfind(b"\n") + 1
                raw[line_start + 20] ^= 0x04
                damaged = bytes(raw)
            else:  # bit_flip_mid: damage the first record's payload
                raw[14] ^= 0x04
                damaged = bytes(raw)
            with open(path, "wb") as handle:
                handle.write(damaged)

            if fault == "bit_flip_mid":
                try:
                    FileWAL(path)
                except LogCorruptionError as error:
                    ok = error.offset == 0
                    results.append(
                        FileFaultResult(
                            fault,
                            ok,
                            "" if ok else f"wrong offset: {error.offset}",
                        )
                    )
                else:
                    results.append(
                        FileFaultResult(
                            fault, False, "mid-log corruption not detected"
                        )
                    )
                continue

            wal = FileWAL(path)
            if wal.salvaged is None:
                results.append(
                    FileFaultResult(fault, False, "tail damage not salvaged")
                )
                wal.close()
                continue
            report = recover(
                wal, registry, repository, conflicts=workload.conflicts
            )
            certification = _certify(
                wal, repository, workload, report, compacted=False
            )
            in_doubt = not registry.prepared_transactions()
            ok = certification.certified and in_doubt
            results.append(
                FileFaultResult(
                    fault,
                    ok,
                    "" if ok else certification.describe(),
                )
            )
            wal.close()
    return results


# ---------------------------------------------------------------------------
# Store-level disk-fault torture (sqlite backend)
# ---------------------------------------------------------------------------


@dataclass
class DiskFaultResult:
    """Outcome of one injected store-level disk fault."""

    fault: str  # "fsync_fail" | "torn_write" | "short_read" | "durable_reopen"
    passed: bool
    detail: str = ""


def _run_sqlite_workload(
    spec: CrashPointSpec, hub: BackendHub
) -> Tuple[Certification, Dict[str, Dict[str, object]], object]:
    """Drive the seeded workload to completion over the hub's stores."""
    inner = InMemoryWAL()
    scheduler, repository, workload, failures = _build(
        spec, CrashingWAL(inner), hub=hub, services="ledger"
    )
    if _drive(scheduler, workload, failures):
        raise AssertionError("undisturbed sqlite workload must not crash")
    certification = certify_history(
        scheduler.history(), scheduler.all_terminated()
    )
    snapshot = scheduler.registry.snapshot()
    return certification, snapshot, scheduler.registry


def run_disk_faults(spec: CrashPointSpec) -> List[DiskFaultResult]:
    """Inject real disk faults into sqlite stores; certify the contract.

    * **fsync failures** — a bounded run of commits cannot be made
      durable; each surfaces as a clean
      :class:`~repro.errors.StorageFault` abort (atomicity holds, the
      scheduler retries or takes alternatives) and the workload still
      terminates with a certified history;
    * **torn write** — bytes damaged at chosen offsets in the closed
      store file; every reopen must either raise the typed
      :class:`~repro.errors.StoreCorruptionError` or serve exactly the
      committed snapshot (damage in dead space) — never silently serve
      wrong values;
    * **short read** — a reopen that sees a truncated header must raise
      the typed error, then heal on the next (full) reopen with every
      committed value intact;
    * **durable reopen** — a plain close/reopen serves exactly what was
      committed (fsync-on-commit durability).

    The torture drives the spec's workload *without* abort chaos: the
    injected disk faults must be the only failure source, both so the
    fsync-fault budget is reliably consumed by real commits and so any
    certification failure is attributable to the storage layer alone.
    """
    spec = replace(spec, abort_rate=0.0)
    results: List[DiskFaultResult] = []

    # fsync failures: bounded injection, clean aborts, still certifies.
    faults = DiskFaultPolicy(fail_fsync=3)
    with BackendHub("sqlite", faults=faults) as hub:
        certification, _, registry = _run_sqlite_workload(spec, hub)
        delivered = faults.delivered["fsync"]
        ok = certification.certified and delivered == 3
        results.append(
            DiskFaultResult(
                "fsync_fail",
                ok,
                "" if ok else (
                    f"{certification.describe()} delivered={delivered}"
                ),
            )
        )
        registry.close()

    # One clean run provides the committed snapshot the file-damage
    # checks compare against.
    with BackendHub("sqlite") as hub:
        certification, snapshots, registry = _run_sqlite_workload(spec, hub)
        registry.close()
        if not certification.certified:
            return results + [
                DiskFaultResult(
                    "durable_reopen", False, certification.describe()
                )
            ]
        stores = {
            name: hub.path_for(name)
            for name in snapshots
        }

        # Durable reopen: the files outlive every connection.
        for name, path in stores.items():
            with SqliteBackend(path) as reopened:
                served = reopened.snapshot()
            if served != snapshots[name]:
                results.append(
                    DiskFaultResult(
                        "durable_reopen",
                        False,
                        f"{name}: reopened snapshot diverged",
                    )
                )
                break
        else:
            results.append(DiskFaultResult("durable_reopen", True))

        # Torn writes: damage a copy at a sweep of offsets.  The
        # contract is "detected or harmless", never silently wrong.
        name, path = next(iter(stores.items()))
        size = os.path.getsize(path)
        offsets = sorted(
            {0, 7, 16, 100, min(1060, size - 1), size // 2, max(0, size - 24)}
        )
        torn_ok = True
        detail = ""
        detections = 0
        for offset in offsets:
            copy = f"{path}.torn{offset}"
            shutil.copyfile(path, copy)
            if tear_file(copy, offset) == 0:
                continue
            try:
                with SqliteBackend(copy) as damaged:
                    served = damaged.snapshot()
            except StoreCorruptionError:
                detections += 1
                continue
            if served != snapshots[name]:
                torn_ok = False
                detail = (
                    f"offset {offset}: damage served silently with "
                    f"wrong values"
                )
                break
        if torn_ok and detections == 0:
            torn_ok = False
            detail = "no torn offset was ever detected"
        results.append(
            DiskFaultResult(
                "torn_write",
                torn_ok,
                detail if not torn_ok else f"{detections} offsets detected",
            )
        )

        # Short read on reopen: typed error first, heals on retry.
        short = DiskFaultPolicy(short_read=True)
        try:
            SqliteBackend(path, faults=short)
        except StoreCorruptionError:
            with SqliteBackend(path, faults=short) as healed:
                served = healed.snapshot()
            ok = served == snapshots[name]
            results.append(
                DiskFaultResult(
                    "short_read",
                    ok,
                    "" if ok else "post-heal snapshot diverged",
                )
            )
        else:
            results.append(
                DiskFaultResult(
                    "short_read", False, "short read not detected"
                )
            )
    return results


# ---------------------------------------------------------------------------
# Real-SIGKILL torture (procpool backend)
# ---------------------------------------------------------------------------


@dataclass
class RealKillResult:
    """Outcome of one real worker-process SIGKILL + WAL recovery."""

    killed_pid: int
    respawned_pid: Optional[int]
    crashed: bool
    certification: Certification
    idempotent: bool
    in_doubt_clear: bool
    #: Honest wall-clock seconds from the SIGKILL to the respawned
    #: worker answering again (benchmark X14's latency metric).
    kill_to_recovered_s: Optional[float]

    @property
    def passed(self) -> bool:
        return (
            self.crashed
            and self.certification.certified
            and self.idempotent
            and self.in_doubt_clear
            and self.respawned_pid is not None
            and self.respawned_pid != self.killed_pid
        )

    def describe(self) -> str:
        return (
            f"killed pid {self.killed_pid}, respawned "
            f"{self.respawned_pid}: {self.certification.describe()} "
            f"idempotent={self.idempotent} "
            f"in_doubt_clear={self.in_doubt_clear}"
        )


def run_real_kill(
    spec: CrashPointSpec, crash_lsn: Optional[int] = None
) -> RealKillResult:
    """One genuine crash: SIGKILL the storage worker, recover, certify.

    The seeded workload runs over the ``procpool`` backend until the
    scheduler's crash point, then the worker OS process is killed with
    a real ``SIGKILL`` (no cleanup handlers run — committed sqlite
    state survives on disk, everything else dies).  Restart recovery
    must respawn the worker and replay the WAL against the surviving
    on-disk state: in-doubt transactions resolve, completions execute
    through the new process, the combined history certifies, and a
    second recovery is a no-op.
    """
    if crash_lsn is None:
        crash_lsn = max(1, baseline_lsns(spec, services="ledger") // 2)
    inner = InMemoryWAL()
    with BackendHub("procpool") as hub:
        scheduler, repository, workload, failures = _build(
            spec, CrashingWAL(inner, crash_lsn=crash_lsn), hub=hub,
            services="ledger",
        )
        assert hub.host is not None
        crashed = _drive(scheduler, workload, failures)
        scheduler.crash()

        # The real kill: no simulated flag, an actual signal.  The next
        # IPC would fail with StorageFault; recovery respawns first.
        killed_pid = hub.host.ensure_alive()
        os.kill(killed_pid, signal.SIGKILL)

        report = recover(
            inner, scheduler.registry, repository, conflicts=workload.conflicts
        )
        respawned_pid = hub.host.pid
        certification = _certify(
            inner, repository, workload, report, compacted=False
        )
        in_doubt_clear = not scheduler.registry.prepared_transactions()
        length_before = len(inner)
        again = recover(
            inner, scheduler.registry, repository, conflicts=workload.conflicts
        )
        idempotent = again.noop and len(inner) == length_before
        latency = (
            hub.host.kill_to_recovered[-1]
            if hub.host.kill_to_recovered
            else None
        )
        scheduler.registry.close()
    return RealKillResult(
        killed_pid=killed_pid,
        respawned_pid=respawned_pid,
        crashed=crashed,
        certification=certification,
        idempotent=idempotent,
        in_doubt_clear=in_doubt_clear,
        kill_to_recovered_s=latency,
    )

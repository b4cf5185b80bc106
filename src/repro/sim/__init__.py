"""Discrete-event simulation: virtual time, workloads, metrics."""

from repro.sim.clock import VirtualClock
from repro.sim.engine import EventQueue
from repro.sim.metrics import RunMetrics, summarize
from repro.sim.runner import (
    SimulationRunner,
    constant_durations,
    simulate_run,
)
from repro.sim.workload import (
    Workload,
    WorkloadSpec,
    generate_process,
    generate_workload,
)
from repro.sim.experiments import DISCIPLINES, grade_history, run_discipline, sweep
from repro.sim.certify import (
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    Certification,
    certify_history,
    ensure_certified,
)
from repro.sim.harness import (
    OVERLOAD,
    HarnessResult,
    HarnessSpec,
    default_mixes,
    estimate_capacity,
    harness_sweep,
    run_harness,
)
from repro.sim.crashpoints import (
    CrashingWAL,
    CrashPointResult,
    CrashPointSpec,
    CrashPointSweep,
    FileFaultResult,
    SimulatedCrash,
    crash_once,
    run_crashpoints,
    run_file_faults,
)

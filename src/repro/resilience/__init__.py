"""Resilience layer: timeouts, backoff, circuit breakers, degradation.

The paper's flex process model already encodes graceful degradation —
the preference order ◁ names the alternative execution paths to take
when a preferred activity cannot commit.  This package turns that
static order into an operational degradation policy under real failure
classes (latency spikes, hangs, crash-stopped subsystems):

* :mod:`repro.resilience.policy` — per-service invocation budgets:
  timeouts and bounded retries with exponential backoff and
  deterministic seeded jitter (virtual-clock based, replayable);
* :mod:`repro.resilience.breaker` — per-service closed/open/half-open
  circuit breakers;
* :mod:`repro.resilience.manager` — the facade the scheduler consults:
  an open breaker on a preferred activity's service triggers a
  proactive switch to the next ◁-alternative, preserving guaranteed
  termination without burning the retry budget.

The single-scheduler harness (:mod:`repro.sim.harness`) sweeps fault
mixes over workloads and certifies that every produced history stays
PRED.
"""

from repro.resilience.breaker import (
    BreakerBoard,
    BreakerConfig,
    BreakerState,
    CircuitBreaker,
)
from repro.resilience.manager import ResilienceManager
from repro.resilience.policy import RetryPolicy, deterministic_jitter

__all__ = [
    "BreakerBoard",
    "BreakerConfig",
    "BreakerState",
    "CircuitBreaker",
    "ResilienceManager",
    "RetryPolicy",
    "deterministic_jitter",
]

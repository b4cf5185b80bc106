"""Repro bundles: a violation you can hand to someone else.

A bundle is a directory (or a single ``bundle.json``) that pins one
minimized violation completely: the system spec, the minimal fault
plan, the violation identity (invariant + event index + seed), the
search provenance (search seed, plan index, pre-shrink action count),
a structured JSONL trace of the violating run and the ``explain``
output for the violating process where one exists.
``repro nemesis replay BUNDLE`` re-executes it deterministically and
verifies the *identical* violation — same invariant, same event index
— as many times as asked.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.nemesis.executor import FederationResult, FederationSpec, run_plan
from repro.nemesis.invariants import InvariantViolation
from repro.nemesis.plan import FaultPlan

__all__ = ["Bundle", "write_bundle", "read_bundle", "replay_bundle"]

_FORMAT = "repro/nemesis-bundle"


@dataclass
class Bundle:
    """One minimized, replayable violation."""

    spec: FederationSpec
    plan: FaultPlan
    violation: InvariantViolation
    #: Provenance: search seed, plan index, action count before shrink.
    search: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": _FORMAT,
            "version": 1,
            "spec": self.spec.to_dict(),
            "plan": self.plan.to_dict(),
            "violation": self.violation.to_dict(),
            "search": dict(self.search),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Bundle":
        if payload.get("format") != _FORMAT:
            raise ValueError(
                f"not a nemesis bundle: format={payload.get('format')!r}"
            )
        return cls(
            spec=FederationSpec.from_dict(payload["spec"]),
            plan=FaultPlan.from_dict(payload["plan"]),
            violation=InvariantViolation.from_dict(payload["violation"]),
            search=dict(payload.get("search", {})),
        )


def _trace_and_explain(bundle: Bundle, directory: str, invariants) -> None:
    """Best-effort artefacts: a JSONL trace of the violating run and
    the explain output for its last recorded decision."""
    from repro.obs import JsonlSink, TraceBus, explain_trace, read_trace

    trace_path = os.path.join(directory, "trace.jsonl")
    bus = TraceBus()
    bus.subscribe(JsonlSink(trace_path))
    try:
        run_plan(
            bundle.spec,
            bundle.plan,
            invariants=invariants() if invariants is not None else None,
            trace=bus,
        )
    finally:
        bus.close()
    try:
        explanation = explain_trace(read_trace(trace_path))
    except Exception:
        explanation = None
    explain_path = os.path.join(directory, "explain.txt")
    with open(explain_path, "w", encoding="utf-8") as handle:
        handle.write(bundle.violation.describe() + "\n\n")
        if explanation is not None:
            handle.write(explanation.render() + "\n")


def write_bundle(
    directory: str,
    bundle: Bundle,
    invariants=None,
    with_trace: bool = True,
) -> str:
    """Write a bundle directory; returns the ``bundle.json`` path.

    ``invariants`` is the zero-argument invariant factory the violating
    run used (fresh instances per run keep replays independent).
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "bundle.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(bundle.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    if with_trace:
        _trace_and_explain(bundle, directory, invariants)
    return path


def read_bundle(path: str) -> Bundle:
    """Load a bundle from a directory or a ``bundle.json`` path."""
    if os.path.isdir(path):
        path = os.path.join(path, "bundle.json")
    with open(path, "r", encoding="utf-8") as handle:
        return Bundle.from_dict(json.load(handle))


@dataclass
class ReplayReport:
    """Outcome of deterministically re-executing a bundle."""

    bundle: Bundle
    results: List[FederationResult]

    @property
    def reproduced(self) -> bool:
        """Every replay hit the identical violation (invariant + event)."""
        expected = self.bundle.violation.identity
        return bool(self.results) and all(
            result.violation is not None
            and result.violation.identity == expected
            for result in self.results
        )

    def describe(self) -> str:
        expected = self.bundle.violation
        lines = [
            f"expected: {expected.describe()}",
        ]
        for index, result in enumerate(self.results):
            got = (
                result.violation.describe()
                if result.violation is not None
                else "no violation"
            )
            match = (
                result.violation is not None
                and result.violation.identity == expected.identity
            )
            lines.append(
                f"replay {index + 1}: {got} "
                f"[{'match' if match else 'MISMATCH'}]"
            )
        return "\n".join(lines)


def replay_bundle(
    path_or_bundle,
    runs: int = 2,
    invariants: Optional[object] = None,
    trace=None,
    metrics_registry=None,
) -> ReplayReport:
    """Re-execute a bundle ``runs`` times; report identity matches.

    ``invariants`` is a zero-argument factory returning fresh
    :class:`~repro.nemesis.invariants.Invariant` instances per run
    (``None`` = the default registry).
    """
    bundle = (
        path_or_bundle
        if isinstance(path_or_bundle, Bundle)
        else read_bundle(path_or_bundle)
    )
    results = [
        run_plan(
            bundle.spec,
            bundle.plan,
            invariants=invariants() if invariants is not None else None,
            trace=trace,
            metrics_registry=metrics_registry,
        )
        for _ in range(runs)
    ]
    return ReplayReport(bundle=bundle, results=results)

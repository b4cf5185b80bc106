"""Per-layer tracing from outside the program.

The tracer wraps public functions of each layer at class (or module)
level, records one span per call and restores the originals when the
traced section ends.  A span carries its function, start, end, parent
span and the run id of the batch run it belongs to; spans stay in
memory (flat arrays) and are written out once, at the end of the run.

A layer's self time is the duration of its spans minus the time their
child spans cover, so self times of all layers add up to the traced
wall time without double counting.

``ConflictRelation.conflicts`` runs over a million times per
certification and is deliberately not wrapped; the conflict cache
figures come from the scheduler's ``perf_snapshot()`` instead.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Tuple

__all__ = ["TARGETS", "Tracer"]

_MISSING = object()

#: ``(layer, module, owner, attribute)``: ``owner`` is a class name, or
#: ``None`` for a module-level function patched where it is looked up.
TARGETS: Tuple[Tuple[str, str, object, str], ...] = (
    ("sim.runner", "repro.sim.runner", "SimulationRunner", "run"),
    ("fed.runner", "repro.fed.runner", "FederationRunner", "run"),
    *(
        ("core.scheduler", "repro.core.scheduler",
         "TransactionalProcessScheduler", name)
        for name in ("submit", "step_instance", "resolve_stall",
                     "pump_admission")
    ),
    *(
        ("core.sergraph", "repro.core.sergraph",
         "IncrementalSerializationGraph", name)
        for name in ("add_event", "remove_event", "order_permits",
                     "has_path", "conflicting_events",
                     "conflicting_processes_after", "predecessors",
                     "rebuild")
    ),
    *(
        ("subsystems.subsystem", "repro.subsystems.subsystem", "Subsystem",
         name)
        for name in ("invoke", "commit_prepared", "rollback_prepared")
    ),
    ("subsystems.twophase", "repro.subsystems.twophase",
     "TwoPhaseCoordinator", "commit_group"),
    ("subsystems.wal", "repro.subsystems.wal", "FileWAL", "append"),
    ("subsystems.wal", "repro.subsystems.wal", "FileWAL", "sync"),
    ("subsystems.wal", "repro.subsystems.wal", "InMemoryWAL", "append"),
    *(
        ("subsystems.backend", "repro.subsystems.backend", "SqliteBackend",
         name)
        for name in ("apply", "get", "sync")
    ),
    ("subsystems.backend", "repro.subsystems.backend", "MemoryBackend",
     "apply"),
    *(
        ("fed.federation", "repro.fed.federation", "Federation", name)
        for name in ("pump", "kill", "recover_shard")
    ),
    *(
        ("fed.messages", "repro.fed.messages", "FederationNetwork", name)
        for name in ("request", "post", "deliver_due")
    ),
    ("fed.twopc", "repro.fed.twopc", "CrossShardCoordinator",
     "commit_group"),
    ("fed.twopc", "repro.fed.twopc", "CrossShardCoordinator", "resend"),
    ("fed.twopc", "repro.fed.twopc", "ShardCommitAgent", "handle"),
    ("fed.twopc", "repro.fed.twopc", "ShardCommitAgent", "apply_decision"),
    ("sim.certify", "repro.sim.certify", None, "certify_history"),
    ("core.pred", "repro.sim.certify", None, "check_pred"),
    ("core.reduction", "repro.sim.certify", None, "reduce_schedule"),
    ("core.reduction", "repro.core.pred", None, "reduce_schedule"),
    ("core.completion", "repro.core.reduction", None, "complete_schedule"),
)


def _label(owner: object, attribute: str) -> str:
    return f"{owner}.{attribute}" if owner else attribute


class Tracer:
    """Span recorder; :meth:`instrument` patches :data:`TARGETS`."""

    def __init__(self) -> None:
        self.labels: List[str] = []
        self.layers: List[str] = []
        for layer, _, owner, attribute in TARGETS:
            label = _label(owner, attribute)
            if label not in self.labels:
                self.labels.append(label)
                self.layers.append(layer)
        count = len(self.labels)
        self.calls = [0] * count
        self.self_s = [0.0] * count
        #: Time inside the outermost call of each function (recursion
        #: and re-entry are not counted twice).
        self.outer_s = [0.0] * count
        self._depth = [0] * count
        self._stack: List[List[float]] = []
        #: The spans, one array per field.
        self.span_label = array("i")
        self.span_parent = array("q")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Id of the batch run that new spans belong to.
        self.run_id = 0

    # -- aggregates ------------------------------------------------------

    def snapshot(self) -> Dict[str, Tuple[int, float, float]]:
        """``label -> (calls, self_s, outer_s)`` so far."""
        return {
            label: (self.calls[i], self.self_s[i], self.outer_s[i])
            for i, label in enumerate(self.labels)
        }

    @staticmethod
    def delta(
        after: Dict[str, Tuple[int, float, float]],
        before: Dict[str, Tuple[int, float, float]],
    ) -> Dict[str, Tuple[int, float, float]]:
        return {
            label: tuple(a - b for a, b in zip(after[label], before[label]))
            for label in after
        }

    def layer_self(
        self, window: Dict[str, Tuple[int, float, float]]
    ) -> Dict[str, float]:
        """Self seconds per layer within a :meth:`delta` window."""
        totals: Dict[str, float] = {}
        for label, layer in zip(self.labels, self.layers):
            totals[layer] = totals.get(layer, 0.0) + window[label][1]
        return totals

    # -- patching ----------------------------------------------------------

    def _wrap(self, index: int, function):
        stack = self._stack
        calls, self_s, outer_s, depth = (
            self.calls, self.self_s, self.outer_s, self._depth
        )
        labels, parents, runs = self.span_label, self.span_parent, self.span_run
        starts, ends = self.span_start, self.span_end
        tracer = self

        def traced(*args, **kwargs):
            span = len(labels)
            labels.append(index)
            parents.append(int(stack[-1][0]) if stack else -1)
            runs.append(tracer.run_id)
            ends.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            depth[index] += 1
            start = perf_counter()
            starts.append(start)
            try:
                return function(*args, **kwargs)
            finally:
                end = perf_counter()
                ends[span] = end
                stack.pop()
                depth[index] -= 1
                elapsed = end - start
                calls[index] += 1
                self_s[index] += elapsed - frame[1]
                if not depth[index]:
                    outer_s[index] += elapsed
                if stack:
                    stack[-1][1] += elapsed

        traced.__wrapped__ = function
        return traced

    @contextmanager
    def instrument(self) -> Iterator["Tracer"]:
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for _, module_name, owner, attribute in TARGETS:
                module = importlib.import_module(module_name)
                host = getattr(module, owner) if owner else module
                original = host.__dict__.get(attribute, _MISSING)
                function = getattr(host, attribute)
                if not callable(function):
                    raise TypeError(
                        f"{module_name}.{attribute} is not callable"
                    )
                index = self.labels.index(_label(owner, attribute))
                setattr(host, attribute, self._wrap(index, function))
                saved.append((host, attribute, original))
            yield self
        finally:
            for host, attribute, original in reversed(saved):
                if original is _MISSING:
                    delattr(host, attribute)
                else:
                    setattr(host, attribute, original)

    # -- output ------------------------------------------------------------

    def write_spans(self, path: str) -> int:
        """Write every span as a gzip'd TSV; returns the span count.

        Columns: span id, function, parent span id (-1 for a root), run
        id, start and end in seconds (``perf_counter``).
        """
        count = len(self.span_label)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("span\tfunction\tparent\trun\tstart\tend\n")
            for span in range(count):
                out.write(
                    f"{span}\t{self.labels[self.span_label[span]]}\t"
                    f"{self.span_parent[span]}\t{self.span_run[span]}\t"
                    f"{self.span_start[span]:.9f}\t{self.span_end[span]:.9f}\n"
                )
        return count

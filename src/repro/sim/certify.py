"""The one certification gate every harness funnels through.

Four harnesses (chaos, crash-points, overload, federation) used to
carry near-identical copies of the same three steps: run the offline
checkers over the produced history, fold in harness-specific audit
bits, and raise :class:`~repro.errors.CorrectnessViolation` with an
ad-hoc message when the verdict is dirty.  This module unifies them:

* :class:`Certification` / :func:`certify_history` — the offline
  verdict (PRED, reducibility, guaranteed termination);
* :func:`ensure_certified` — the single raise site.  Every harness
  passes its verdict plus structured context (harness name, seed,
  extra audit findings) and gets a :class:`CorrectnessViolation`
  carrying a *typed payload* — machine-readable fields the nemesis
  bundle writer and the CLI exit-code logic consume instead of parsing
  prose;
* ``EXIT_OK`` / ``EXIT_VIOLATION`` / ``EXIT_USAGE`` — the CLI exit-code
  contract (0 healthy, 1 correctness violation, 2 usage/typed error),
  stated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.pred import check_pred
from repro.core.reduction import reduce_schedule
from repro.errors import CorrectnessViolation

__all__ = [
    "Certification",
    "certify_history",
    "ensure_certified",
    "EXIT_OK",
    "EXIT_VIOLATION",
    "EXIT_USAGE",
]

#: CLI exit-code contract shared by every ``repro`` subcommand.
EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class Certification:
    """Offline verdict on one produced history (all harnesses share
    it): PRED, reducibility, and termination."""

    pred: bool
    reducible: bool
    terminated: bool

    @property
    def certified(self) -> bool:
        return self.pred and self.reducible and self.terminated

    def describe(self) -> str:
        return (
            f"pred={self.pred} reducible={self.reducible} "
            f"terminated={self.terminated}"
        )

    def as_dict(self) -> Dict[str, bool]:
        return {
            "pred": self.pred,
            "reducible": self.reducible,
            "terminated": self.terminated,
        }


def certify_history(history, terminated: bool) -> Certification:
    """Run the offline checkers over a produced history.

    ``terminated`` is the harness's own observation that every submitted
    process reached a terminal state (guaranteed termination) — the
    checkers cannot see processes that produced no events.  A PRED
    history is reducible too — its longest prefix is the history
    itself — so the full reduction only runs when PRED fails.
    """
    pred = check_pred(history).is_pred
    return Certification(
        pred=pred,
        reducible=pred or reduce_schedule(history).is_reducible,
        terminated=terminated,
    )


def ensure_certified(
    verdict: Certification,
    *,
    harness: str,
    seed: Optional[int] = None,
    clean: bool = True,
    detail: str = "",
    details: Optional[Dict[str, object]] = None,
) -> None:
    """Raise a typed :class:`CorrectnessViolation` unless the run is clean.

    ``clean`` folds in harness-specific audit results (decision audit,
    F-REC shed count, ...) that the offline checkers cannot see;
    ``detail``/``details`` describe them for the message and the typed
    payload respectively.
    """
    if verdict.certified and clean:
        return
    context = f" (seed {seed})" if seed is not None else ""
    message = (
        f"{harness} run{context} failed certification: "
        f"{verdict.describe()}"
    )
    if detail:
        message = f"{message} {detail}"
    raise CorrectnessViolation(
        message,
        harness=harness,
        seed=seed,
        verdict=verdict.as_dict(),
        details=dict(details or {}),
    )

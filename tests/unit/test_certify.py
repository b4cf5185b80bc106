"""Unit tests for the shared certification gate (``sim/certify.py``)."""

from repro.sim.certify import certify_history


def test_red_but_not_pred_history_keeps_both_verdicts(fig4a):
    """Example 8: S_t2 reduces although a prefix does not — the gate
    still runs the full reduction when PRED fails."""
    verdict = certify_history(fig4a.schedule, terminated=True)
    assert verdict.pred is False
    assert verdict.reducible is True
    assert not verdict.certified


def test_pred_history_is_reducible(fig7):
    verdict = certify_history(fig7.schedule, terminated=True)
    assert verdict.as_dict() == {
        "pred": True,
        "reducible": True,
        "terminated": True,
    }
    assert verdict.certified

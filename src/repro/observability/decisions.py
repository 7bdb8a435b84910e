"""Scheduler decision audit: why Algs. 2-4 chose what they chose.

Every scheduling policy in :mod:`repro.core` — main-device selection
(Alg. 2), device-count optimization (Alg. 3, Eqs. 10-11), guide-array
distribution (Alg. 4, Eq. 12) — accepts an optional
:class:`DecisionAudit`.  When given, the policy records a structured
:class:`DecisionRecord`: the candidates it weighed, the measured/modeled
per-step kernel inputs it weighed them with, each candidate's score
(update throughput, predicted ``Top(p) + Tcomm(p)``, guide share), the
chosen option, and the margin by which it won.

:meth:`repro.core.optimizer.Optimizer.plan` threads one audit through
all three stages and stashes it in ``plan.notes["audit"]``;
:func:`explain_plan` renders it, and ``tiledqr plan --explain`` exposes
it on the command line.  The audit also serializes (``to_dict``) into
trace JSONL meta — additive keys only, the export schema stays v1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dag.tasks import Step
from ..devices.registry import SystemSpec

#: Stage names the core policies record under.
STAGE_MAIN_DEVICE = "main_device"
STAGE_DEVICE_COUNT = "device_count"
STAGE_DISTRIBUTION = "distribution"
STAGE_TREE = "elimination_tree"


@dataclass
class Candidate:
    """One option a policy weighed.

    ``metrics`` holds the numbers the policy compared (e.g. update
    throughput and feasibility-check slack for Alg. 2, ``t_op`` /
    ``t_comm`` / ``total`` for Alg. 3, throughput and guide share for
    Alg. 4).  ``feasible`` marks options that passed the stage's
    eligibility checks; the winner has ``chosen=True``.
    """

    name: str
    feasible: bool = True
    chosen: bool = False
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "feasible": self.feasible,
            "chosen": self.chosen,
            "metrics": dict(self.metrics),
        }


@dataclass
class DecisionRecord:
    """One recorded scheduling decision.

    Attributes
    ----------
    stage:
        ``"main_device"``, ``"device_count"``, or ``"distribution"``.
    chosen:
        The winning option, as a string (device id, ``p=<n>``, ...).
    metric:
        Name of the score the stage minimized/maximized.
    margin:
        Relative distance from the winner to the runner-up on that
        score (0.0 when there was no alternative).
    inputs:
        The measured/modeled numbers the decision consumed — notably
        per-device T/E/UT/UE kernel seconds at the plan's tile size.
    candidates:
        Every option weighed, with per-candidate metrics.
    notes:
        Free-form stage extras (fallback reasons, shares, modes).
    """

    stage: str
    chosen: str
    metric: str
    margin: float = 0.0
    inputs: dict = field(default_factory=dict)
    candidates: list[Candidate] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "chosen": self.chosen,
            "metric": self.metric,
            "margin": self.margin,
            "inputs": dict(self.inputs),
            "candidates": [c.to_dict() for c in self.candidates],
            "notes": dict(self.notes),
        }

    def to_text(self) -> str:
        lines = [
            f"[{self.stage}] chose {self.chosen} "
            f"(metric: {self.metric}, margin over runner-up: {self.margin:.1%})"
        ]
        for key, val in sorted(self.notes.items()):
            lines.append(f"  note: {key} = {val}")
        if self.inputs:
            lines.append("  measured/modeled inputs:")
            for key, val in sorted(self.inputs.items()):
                lines.append(f"    {key}: {_fmt_value(val)}")
        if self.candidates:
            lines.append("  candidates:")
            for c in self.candidates:
                mark = "*" if c.chosen else ("-" if c.feasible else "x")
                metrics = ", ".join(
                    f"{k}={_fmt_value(v)}" for k, v in sorted(c.metrics.items())
                )
                lines.append(f"    {mark} {c.name}: {metrics}")
        return "\n".join(lines)


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        if v == 0.0:
            return "0"
        if abs(v) < 1e-3 or abs(v) >= 1e5:
            return f"{v:.4g}"
        return f"{v:.6g}"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_fmt_value(x)}" for k, x in sorted(v.items())) + "}"
    return str(v)


class DecisionAudit:
    """Collects :class:`DecisionRecord` s across the planning pipeline."""

    def __init__(self):
        self.records: list[DecisionRecord] = []

    def record(self, rec: DecisionRecord) -> DecisionRecord:
        self.records.append(rec)
        return rec

    def get(self, stage: str) -> DecisionRecord | None:
        """Latest record for a stage, or ``None``."""
        for rec in reversed(self.records):
            if rec.stage == stage:
                return rec
        return None

    def to_dict(self) -> dict:
        return {"decisions": [r.to_dict() for r in self.records]}

    def explain(self) -> str:
        if not self.records:
            return "(no scheduling decisions recorded)"
        return "\n".join(r.to_text() for r in self.records)


def margin_over_runner_up(scores: list[float], best: float, minimize: bool = True) -> float:
    """Relative gap from the winning score to the next-best alternative.

    For a minimized score this is ``(runner_up - best) / best``; for a
    maximized one, ``(best - runner_up) / runner_up`` — positive either
    way, 0.0 when there is no alternative or the winner is degenerate.
    """
    others = [s for s in scores if s != best] or [
        s for i, s in enumerate(scores) if i != scores.index(best)
    ]
    if not others:
        return 0.0
    if minimize:
        runner = min(others)
        return (runner - best) / best if best > 0 else 0.0
    runner = max(others)
    return (best - runner) / runner if runner > 0 else 0.0


def device_step_inputs(system: SystemSpec, tile_size: int) -> dict:
    """Per-device T/E/UT/UE kernel seconds at ``tile_size``.

    These are the numbers every stage's comparisons reduce to —
    recorded into ``DecisionRecord.inputs`` so an audit shows *which*
    measured (or calibrated) kernel times produced the choice.
    """
    return {
        d.device_id: {s.value: d.time(s, tile_size) for s in Step}
        for d in system
    }


def explain_plan(plan) -> str:
    """Render the decision audit attached to a plan.

    Reads ``plan.notes["audit"]`` (a :class:`DecisionAudit` left there
    by ``Optimizer.plan(audit=...)``).  Plans built without an audit —
    including plans restored from JSON, which drop their notes — get a
    pointer instead of a traceback.
    """
    audit = plan.notes.get("audit") if isinstance(plan.notes, dict) else None
    header = plan.describe()
    if isinstance(audit, DecisionAudit):
        return f"{header}\n{audit.explain()}"
    return (
        f"{header}\n(no decision audit on this plan — build it with "
        f"Optimizer.plan(audit=DecisionAudit()) or `tiledqr plan --explain`)"
    )

"""Per-device kernel-backend selection from measured profiles.

The backend registry (:mod:`repro.kernels.backends`) holds ``reference``
and any backend a user registers; which one is fastest depends on the
device and the tile size (a compiled backend wins on small tiles, where
call overhead dominates).
This stage closes that loop the same way the scheduling
policies do: it reads *measured* per-``(device, kind, tile size,
backend)`` timings from a :class:`~repro.observability.profile.
ProfileStore` and picks, per participant device, the backend with the
smallest summed mean per-call seconds over the kernel kinds every
candidate was measured on (see :meth:`ProfileStore.backend_ranking`).

Devices with no measured backend timings fall back to the ``reference``
backend — an explicit, audited fallback, never a silent one.  The
decision lands in the plan's :class:`~repro.observability.decisions.
DecisionAudit` under :data:`~repro.observability.decisions.
STAGE_BACKEND`, so ``tiledqr plan --explain`` shows which timings made
the choice.
"""

from __future__ import annotations

from ..kernels.backends import DEFAULT_BACKEND, available_backends
from ..observability.decisions import (
    STAGE_BACKEND,
    Candidate,
    DecisionRecord,
    margin_over_runner_up,
)


def select_kernel_backends(
    participants,
    tile_size: int,
    profile=None,
    audit=None,
) -> dict[str, str]:
    """Pick the fastest measured kernel backend for each participant.

    Parameters
    ----------
    participants:
        Device ids (the plan's participants; first entry is treated as
        the primary device for the audit's margin figure).
    tile_size:
        Tile edge the plan executes at; timings are filtered to it.
    profile:
        Optional :class:`~repro.observability.profile.ProfileStore` of
        measured timings.  ``None`` (or a store with no backend-tagged
        measurements for a device) selects ``reference`` for that
        device, with the fallback noted in the audit.
    audit:
        Optional :class:`~repro.observability.decisions.DecisionAudit`;
        when given, one :data:`STAGE_BACKEND` record is always appended
        — fallbacks are audited decisions too.

    Returns
    -------
    dict mapping each device id to a registered backend name.
    """
    registered = set(available_backends())
    choices: dict[str, str] = {}
    cands: list[Candidate] = []
    notes: dict = {}
    inputs: dict = {}
    margin = 0.0
    margin_set = False
    for dev in participants:
        ranking: list[tuple[str, float]] = []
        if profile is not None:
            ranking = [
                (be, score)
                for be, score in profile.backend_ranking(
                    device=dev, tile_size=tile_size
                )
                if be in registered
            ]
        if not ranking:
            choices[dev] = DEFAULT_BACKEND
            notes[dev] = "no measured backend timings; reference fallback"
            cands.append(Candidate(name=f"{dev}:{DEFAULT_BACKEND}", chosen=True))
            continue
        best, best_score = ranking[0]
        choices[dev] = best
        inputs[dev] = {be: score for be, score in ranking}
        notes[dev] = f"fastest of {len(ranking)} measured backend(s)"
        if not margin_set and len(ranking) > 1:
            margin = margin_over_runner_up(
                [s for _, s in ranking], best_score, minimize=True
            )
            margin_set = True
        for be, score in ranking:
            cands.append(
                Candidate(
                    name=f"{dev}:{be}",
                    chosen=be == best,
                    metrics={"sum_mean_seconds": score},
                )
            )
    if audit is not None:
        audit.record(
            DecisionRecord(
                stage=STAGE_BACKEND,
                chosen=", ".join(f"{d}={b}" for d, b in choices.items()),
                metric="sum_mean_seconds",
                margin=margin,
                inputs=inputs,
                candidates=cands,
                notes=notes,
            )
        )
    return choices

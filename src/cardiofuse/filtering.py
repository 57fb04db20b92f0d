"""Uncertainty-quantile filtering of training samples.

Landmark uncertainties are pooled across modalities and split into Q
equal-frequency quantile bins; the most uncertain bin is retired one at a
time, dropping every training sample with any landmark in a retired bin.
Filtering stops once validation AUROC has failed to improve for two
consecutive iterations, and the subset with the best AUROC wins.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

PATIENCE = 2


@dataclass
class FilterReport:
    Q: int
    removed_bins: int
    removed_subject_ids: list[str]
    validation_auroc_trace: list[tuple[int, float]]
    best_auroc: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def _pooled_landmarks(subjects) -> list[tuple[float, str, str, int]]:
    """(uncertainty, subject_id, modality, landmark_id) over all modalities."""
    return [(float(u), s.id, modality, j)
            for s in subjects
            for modality, lm in sorted(s.landmarks.items())
            for j, u in enumerate(lm.uncertainties)]


def filter_training_samples(train_subjects, Q: int, eval_fn,
                            min_improvement: float) -> FilterReport:
    """Iterative quantile filtering driven by a validation-AUROC callback.

    ``eval_fn`` receives the list of candidate training subject ids and
    returns a validation AUROC.  Ties in uncertainty break on
    (uncertainty, subject_id, modality, landmark_id) so runs are
    deterministic.
    """
    if Q < 2:
        raise ValueError("Q must be at least 2")
    subjects = list(train_subjects)
    entries = sorted(_pooled_landmarks(subjects))
    if not entries:
        raise ValueError("no landmarks available for filtering")
    if Q > len(entries):
        raise ValueError(f"Q={Q} exceeds the {len(entries)} pooled landmarks")

    # ascending uncertainty; bin Q-1 is the most uncertain.  A subject goes
    # once its worst bin is retired; with no landmarks (-1) it never does
    all_ids = [s.id for s in subjects]
    worst = dict.fromkeys(all_ids, -1)
    for b, chunk in enumerate(np.array_split(np.arange(len(entries)), Q)):
        for i in chunk:
            sid = entries[i][1]
            worst[sid] = max(worst[sid], b)

    baseline = float(eval_fn(all_ids))
    trace = [(0, baseline)]
    best_auroc, best_rho, best_removed = baseline, 0, []

    stale = 0
    for rho in range(1, Q + 1):
        removed = [sid for sid in all_ids if worst[sid] >= Q - rho]
        removed_set = set(removed)
        kept = [sid for sid in all_ids if sid not in removed_set]
        kept_labels = {s.label for s in subjects if s.id not in removed_set}
        if not kept or len(kept_labels) < 2:
            break  # filtering must leave a trainable set behind
        score = float(eval_fn(kept))
        trace.append((rho, score))
        if score > best_auroc + min_improvement:
            best_auroc, best_rho, best_removed = score, rho, removed
            stale = 0
        else:
            stale += 1
            if stale >= PATIENCE:
                break

    return FilterReport(
        Q=Q,
        removed_bins=best_rho,
        removed_subject_ids=best_removed,
        validation_auroc_trace=trace,
        best_auroc=best_auroc,
    )

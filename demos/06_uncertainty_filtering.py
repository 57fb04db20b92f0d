"""Uncertainty-quantile filtering of low-quality training samples.

Landmark annotations come with epistemic uncertainty scores. Pooling all
training landmarks, sorting by uncertainty and retiring the worst
quantile bins (while a validation AUROC keeps improving) removes badly
annotated subjects before they poison the model.
"""

import numpy as np

from cardiofuse import svm
from cardiofuse.data import Subject
from cardiofuse.filtering import filter_training_samples
from cardiofuse.metrics import auroc
from cardiofuse.registration import LandmarkSet

rng = np.random.default_rng(0)
TRIANGLE = np.array([[10.0, 8.0], [22.0, 9.0], [16.0, 22.0]])

# 80 training subjects in a simple 2-D feature space. The last 16 are
# "corrupted": flipped labels and conspicuously high landmark uncertainty
# (exactly the damage a failed registration causes).
n, n_bad = 80, 16
true_labels = rng.integers(0, 2, n)
x = true_labels[:, None] + rng.normal(0, 0.9, (n, 2))
subjects = []
for i in range(n):
    bad = i >= n - n_bad
    unc = rng.uniform(4.0, 6.0) if bad else rng.uniform(0.1, 1.0)
    label = int(1 - true_labels[i]) if bad else int(true_labels[i])
    subjects.append(Subject(
        id=f"s{i:02d}",
        landmarks={m: LandmarkSet(f"s{i:02d}", m, TRIANGLE, [unc] * 3)
                   for m in ("short_axis", "four_chamber")},
        label=label))

# Clean validation pool for the per-iteration quality signal.
val_y = rng.integers(0, 2, 60)
val_x = val_y[:, None] + rng.normal(0, 0.9, (60, 2))


def eval_fn(candidate_ids):
    keep = [int(sid[1:]) for sid in candidate_ids]
    labels = np.array([subjects[i].label for i in keep])
    clf = svm.train_linear(x[keep], labels, C=1.0, epochs=80)
    return auroc(svm.decision_scores(clf, val_x), val_y)


report = filter_training_samples(subjects, Q=10, eval_fn=eval_fn,
                                 min_improvement=1e-4)

print("bins removed -> validation AUROC:")
for rho, score in report.validation_auroc_trace:
    print(f"  rho={rho}: {score:.4f}")
print(f"\nkept best subset at rho={report.removed_bins} "
      f"(AUROC {report.best_auroc:.4f})")
removed = report.removed_subject_ids
truly_bad = {f"s{i:02d}" for i in range(n - n_bad, n)}
print(f"removed {len(removed)} subjects, "
      f"{sum(r in truly_bad for r in removed)} of them actually corrupted")

"""Linear hinge-loss classification and the evaluation stack.

Train the linear hinge-loss classifier (solved exactly on its dual by
SMO, with 10-fold grid-search CV over C; ``epochs`` caps the solver at
epochs x m pair steps), then walk through the evaluation report: AUROC,
accuracy, MCC, and the decision-curve analysis that expresses clinical
utility as net benefit across treatment thresholds.
"""

import json

import numpy as np

from cardiofuse import metrics, svm

rng = np.random.default_rng(0)

# Two overlapping Gaussian classes in 8 dimensions.
n = 300
labels = rng.integers(0, 2, n)
x = rng.normal(size=(n, 8)) + 0.9 * labels[:, None]
# The last quarter of the train rows is held out, as a run holds out its
# validation split: the risk squash is fitted on scores the classifier
# was not trained on.
train, held_out, test = np.arange(150), np.arange(150, 200), np.arange(200, n)

cv = svm.grid_search_cv(x[train], labels[train], grid=[0.001, 0.01, 0.1, 1.0],
                        folds=10, epochs=100, seed=0)
print("grid-search CV (mean fold AUROC per C):")
for C, a in zip(cv.grid, cv.mean_aurocs):
    marker = "  <- chosen" if C == cv.chosen_c else ""
    print(f"  C={C:<6} {a:.4f}{marker}")

clf = svm.train_linear(x[train], labels[train], C=cv.chosen_c, epochs=300)
print(f"refit: {clf.steps} SMO pair steps, KKT gap {clf.kkt_gap:.1e}"
      f" (converged below {svm.KKT_TOL:g})")
scores = svm.decision_scores(clf, x[test])

# Platt-style squash turns margins into [0, 1] risks for DCA; fitted on
# the training scores it would learn the classifier's overconfidence.
squash = metrics.fit_score_squash(
    svm.decision_scores(clf, x[held_out]), labels[held_out])
report = metrics.evaluate(scores, labels[test], squash=squash)
print(f"\ntest AUROC {report.auroc:.4f}  accuracy {report.accuracy:.4f}  "
      f"MCC {report.mcc:.4f}")
print(f"confusion (TP, FP, TN, FN): {report.confusion}")

# Net benefit of acting on the model vs treating everyone / no one.
print("\npt     model     treat-all  treat-none")
for pt, nb_m, nb_a, nb_n in report.dca_curve[9:60:10]:
    print(f"{pt:.2f}  {nb_m:+.4f}   {nb_a:+.4f}    {nb_n:+.4f}")

# The report serializes to stable JSON: `cardiofuse run` writes it to
# eval_report.json.
text = report.to_json()
print(f"\neval_report.json would hold {len(text)} bytes, "
      f"keys {sorted(json.loads(text))}")

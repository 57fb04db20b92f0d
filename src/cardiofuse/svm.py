"""Linear-margin binary classifier (hinge loss + L2) and grid-search CV.

Objective: 0.5*||w||^2 + C * sum_i max(0, 1 - y_i (w.x_i + b)) with
y in {-1, +1} and the bias b unregularized, solved exactly on its dual by
SMO with second-order working-set selection (Platt 1998; Fan, Chen & Lin,
JMLR 2005).  The solver is deterministic.  Features are standardized
internally so every fusion branch gets identical treatment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import auroc

DEFAULT_C_GRID = (0.001, 0.01, 0.1, 1.0)
DEFAULT_FOLDS = 10
KKT_TOL = 1e-3  # stop once the maximal KKT violation falls below this
_TAU = 1e-12    # curvature floor for a pair of identical rows


@dataclass
class LinearClassifier:
    weights: np.ndarray
    bias: float
    C: float
    scaler_mean: np.ndarray
    scaler_std: np.ndarray
    steps: int = 0         # SMO pair steps taken
    kkt_gap: float = 0.0   # maximal KKT violation at exit; >= KKT_TOL if capped


@dataclass
class CvGridResult:
    grid: list[float]
    mean_aurocs: list[float]
    chosen_c: float


def _standardize_fit(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def hinge_objective(w: np.ndarray, b: float, x: np.ndarray, y_pm: np.ndarray,
                    C: float) -> float:
    margins = 1.0 - y_pm * (x @ w + b)
    return 0.5 * float(w @ w) + C * float(np.sum(np.maximum(margins, 0.0)))


def train_linear(features: np.ndarray, labels, C: float = 1.0,
                 epochs: int = 300) -> LinearClassifier:
    """Fit the hinge-loss classifier by SMO on the dual, in at most
    ``epochs * m`` pair steps for m samples.

    The dual variables are kept as beta_t = y_t a_t in the box [0, C] or
    [-C, 0], with sum(beta) = 0, w = sum_t beta_t x_t and f_t = y_t - w.x_t.
    A step moves beta_i up and beta_j down by one amount: i maximizes f
    over the betas that can rise, j the second-order gain
    (f_i - f_j)^2 / ||x_i - x_j||^2 over those that can fall.  The fit stops
    once max f over the first set minus min f over the second is below
    ``KKT_TOL``.  The bias is the mean of f over the free betas, or the
    midpoint of the two bounds if none is free.

    The Gram matrix is built one matrix-vector product per row: a
    matrix-matrix product sums in an order that depends on the BLAS thread
    count, and the fit must not.
    """
    x_raw = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x_raw.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if not np.all(np.isfinite(x_raw)):
        raise ValueError("non-finite feature values")
    if len(np.unique(y)) < 2:
        raise ValueError("training needs both classes present")
    if C <= 0:
        raise ValueError("C must be positive")

    mean, std = _standardize_fit(x_raw)
    x = (x_raw - mean) / std
    y_pm = np.where(y == 1, 1.0, -1.0)
    m = len(y_pm)

    gram = np.empty((m, m))
    for t in range(m):
        np.dot(x, x[t], out=gram[t])
    diag = gram.diagonal().copy()
    lo, hi = np.minimum(C * y_pm, 0.0), np.maximum(C * y_pm, 0.0)
    beta = np.zeros(m)
    f = y_pm.copy()
    steps = 0
    while True:
        f_up = np.where(beta < hi, f, -np.inf)
        f_low = np.where(beta > lo, f, np.inf)
        i = int(f_up.argmax())
        gap = float(f[i] - f_low.min())
        if gap < KKT_TOL or steps == epochs * m:
            break
        steps += 1
        gain = np.maximum(f[i] - f_low, 0.0)
        curvature = np.maximum(diag[i] + diag - 2.0 * gram[i], _TAU)
        j = int((gain * gain / curvature).argmax())
        room_i, room_j = hi[i] - beta[i], beta[j] - lo[j]
        delta = min(gain[j] / curvature[j], room_i, room_j)
        # a step that uses up a room lands exactly on the bound
        beta[i] = hi[i] if delta == room_i else beta[i] + delta
        beta[j] = lo[j] if delta == room_j else beta[j] - delta
        f -= delta * (gram[i] - gram[j])

    free = (lo < beta) & (beta < hi)
    b = (float(f[free].mean()) if free.any()
         else 0.5 * float(f[i] + f_low.min()))
    return LinearClassifier(weights=beta @ x, bias=b, C=float(C),
                            scaler_mean=mean, scaler_std=std, steps=steps,
                            kkt_gap=max(gap, 0.0))


def decision_scores(clf: LinearClassifier, x: np.ndarray) -> np.ndarray:
    """Signed margin of each row of ``x``; score > 0 predicts class 1."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != len(clf.weights):
        raise ValueError(f"feature matrix {x.shape} does not have"
                         f" {len(clf.weights)} columns")
    scaled = (x - clf.scaler_mean) / clf.scaler_std
    return scaled @ clf.weights + clf.bias


def stratified_folds(labels, folds: int, seed: int = 0) -> list[np.ndarray]:
    """Partition sample indices into ``folds`` label-stratified folds."""
    y = np.asarray(labels, dtype=np.int64)
    if folds < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(y), dtype=np.int64)
    for c in np.unique(y):
        idx = np.flatnonzero(y == c)
        if len(idx) < folds:
            raise ValueError(f"class {c} has fewer samples ({len(idx)}) than folds")
        rng.shuffle(idx)
        assignment[idx] = np.arange(len(idx)) % folds
    return [np.flatnonzero(assignment == k) for k in range(folds)]


def grid_search_cv(features: np.ndarray, labels, grid=DEFAULT_C_GRID,
                   folds: int = DEFAULT_FOLDS, seed: int = 0,
                   epochs: int = 300) -> CvGridResult:
    """Mean validation AUROC per C over stratified folds; best (smallest) C.

    Standardization happens inside each fold's training portion only
    (``train_linear`` fits its scaler on the data it sees).
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    fold_idx = stratified_folds(y, folds, seed=seed)
    all_idx = np.arange(len(y))
    means = []
    for C in grid:
        fold_scores = []
        for val in fold_idx:
            train = np.setdiff1d(all_idx, val)
            clf = train_linear(x[train], y[train], C=C, epochs=epochs)
            fold_scores.append(auroc(decision_scores(clf, x[val]), y[val]))
        means.append(float(np.mean(fold_scores)))
    order = sorted(range(len(grid)), key=lambda i: (-means[i], grid[i]))
    return CvGridResult(grid=list(grid), mean_aurocs=means,
                        chosen_c=float(grid[order[0]]))

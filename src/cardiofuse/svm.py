"""Linear-margin binary classifier (hinge loss + L2) and grid-search CV.

Objective: 0.5*||w||^2 + C * sum_i max(0, 1 - y_i (w.x_i + b)) with
y in {-1, +1}, solved by deterministic Pegasos-style projected subgradient
descent with seeded shuffling.  Features are standardized internally so
every fusion branch gets identical treatment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import auroc

DEFAULT_C_GRID = (0.001, 0.01, 0.1, 1.0)
DEFAULT_FOLDS = 10


@dataclass
class LinearClassifier:
    weights: np.ndarray
    bias: float
    C: float
    scaler_mean: np.ndarray
    scaler_std: np.ndarray


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


def _recenter_bias(w: np.ndarray, b: float, x: np.ndarray, y_pm: np.ndarray,
                   C: float) -> float:
    """Exact minimizer of the hinge sum over the bias, ``w`` held fixed.

    The loss is piecewise linear in b, so the optimum sits at one of the
    per-sample breakpoints y_i - w.x_i (or at the incoming b itself).
    """
    s = x @ w
    cands = np.append(y_pm - s, b)
    margins = 1.0 - y_pm[None, :] * (s[None, :] + cands[:, None])
    totals = np.maximum(margins, 0.0).sum(axis=1)
    return float(cands[int(np.argmin(totals))])


def train_linear(features: np.ndarray, labels, C: float = 1.0,
                 epochs: int = 300, seed: int = 0) -> LinearClassifier:
    """Fit the hinge-loss classifier; returns the best-objective iterate.

    The subgradient bias step 1/(lam*t) shrinks too fast when C is small,
    so training alternates phases: one joint pass over (w, b), then
    bias-frozen passes (where the w subproblem is the pure strongly convex
    Pegasos objective) with the bias recentered exactly after every epoch.
    Each phase restarts the step-size schedule from the best iterate.

    The per-sample step runs in the interpreter, so it keeps numpy calls
    few and cheap: rows come from a list, labels are Python floats, dot
    products use ``ndarray.dot`` and the norm is ``sqrt(w.dot(w))``, which
    is how ``np.linalg.norm`` computes a 1-D float64 norm.  Every update
    keeps its operation order, so the fit is bit-for-bit the same as with
    array indexing and ``np.linalg.norm``.  Fused or BLAS axpy updates (or
    a scaled ``w = s * v`` form) would change the rounding, and a sample
    that ``_recenter_bias`` puts exactly on the margin would then flip
    sides of ``margin < 1``.
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
    m, n_feat = x.shape

    lam = 1.0 / (C * m)
    radius = 1.0 / np.sqrt(lam)
    rng = np.random.default_rng(seed)
    rows = list(x)
    y_list = y_pm.tolist()
    w = np.zeros(n_feat)
    b = 0.0
    best = (hinge_objective(w, b, x, y_pm, C), w.copy(), b)
    phase_lengths = [len(chunk) for chunk in
                     np.array_split(np.arange(epochs), min(4, epochs))]
    for phase, length in enumerate(phase_lengths):
        t = 0
        for _ in range(length):
            for i in rng.permutation(m).tolist():
                t += 1
                eta = 1.0 / (lam * t)
                xi, yi = rows[i], y_list[i]
                margin = yi * (xi.dot(w) + b)
                w *= 1.0 - eta * lam
                if margin < 1.0:
                    w += eta * yi * xi
                    if phase == 0:
                        b += eta * yi
                norm = math.sqrt(w.dot(w))
                if norm > radius:
                    w *= radius / norm
            b_star = _recenter_bias(w, b, x, y_pm, C)
            obj = hinge_objective(w, b_star, x, y_pm, C)
            if obj < best[0]:
                best = (obj, w.copy(), b_star)
        w, b = best[1].copy(), best[2]

    _, w, b = best
    return LinearClassifier(weights=w, bias=float(b), C=float(C),
                            scaler_mean=mean, scaler_std=std)


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
            clf = train_linear(x[train], y[train], C=C, epochs=epochs, seed=seed)
            fold_scores.append(auroc(decision_scores(clf, x[val]), y[val]))
        means.append(float(np.mean(fold_scores)))
    order = sorted(range(len(grid)), key=lambda i: (-means[i], grid[i]))
    return CvGridResult(grid=list(grid), mean_aurocs=means,
                        chosen_c=float(grid[order[0]]))

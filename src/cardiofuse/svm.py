"""Linear-margin binary classifier (hinge loss + L2) and grid-search CV.

Objective: 0.5*||w||^2 + C * sum_i max(0, 1 - y_i (w.x_i + b)) with
y in {-1, +1} and the bias b unregularized, solved exactly on its dual by
SMO with second-order working-set selection (Platt 1998; Fan, Chen & Lin,
JMLR 2005).  The solver is deterministic.  Features are standardized
internally, by ``standardize``, so every fusion branch gets identical
treatment; the GAT's subject graph is built on the same standardizer.
Grid-search CV standardizes each fold's train rows and builds their Gram
matrix once, and fits every C of the grid on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .metrics import auroc

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


def standardize(features: np.ndarray, fit_mask: np.ndarray | None = None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(x, mean, std)``: zero-mean / unit-variance columns from the
    statistics of the ``fit_mask`` rows (all rows if None); a column whose
    std is below 1e-12 keeps std 1."""
    x = np.asarray(features, dtype=np.float64)
    rows = x if fit_mask is None else x[np.asarray(fit_mask, dtype=bool)]
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return (x - mean) / std, mean, std


def hinge_objective(w: np.ndarray, b: float, x: np.ndarray, y_pm: np.ndarray,
                    C: float) -> float:
    margins = 1.0 - y_pm * (x @ w + b)
    return 0.5 * float(w @ w) + C * float(np.sum(np.maximum(margins, 0.0)))


class _Prepared(NamedTuple):
    """What a fit needs of its features whatever C: the standardized rows,
    their scaler, the Gram matrix and the pair curvature."""
    x: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    gram: np.ndarray
    curvature: np.ndarray


def _prepare(x_raw: np.ndarray) -> _Prepared:
    """Standardize ``x_raw`` and build its Gram matrix, one matrix-vector
    product per row, and the curvature ||x_i - x_t||^2 floored at
    ``_TAU``."""
    x, mean, std = standardize(x_raw)
    m = len(x)
    gram = np.empty((m, m))
    for t in range(m):
        np.dot(x, x[t], out=gram[t])
    diag = gram.diagonal()
    # (diag_i + diag_t) - 2 gram_it, built in place: as one expression, with
    # three m x m temporaries, it raised a default run's peak RSS by ~9 MB
    curvature = np.add(diag[:, None], diag)
    curvature -= 2.0 * gram
    np.maximum(curvature, _TAU, out=curvature)
    return _Prepared(x, mean, std, gram, curvature)


def train_linear(features: np.ndarray, labels, C: float = 1.0,
                 epochs: int = 300, *,
                 prepared: _Prepared | None = None) -> LinearClassifier:
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

    f lives only in two masked copies: ``f_up`` holds f_t where beta_t can
    rise and -inf where it sits at its upper bound, ``f_low`` holds f_t
    where beta_t can fall and +inf at its lower bound.  Every t is in at
    least one of them, because the box is never a point.  A step subtracts
    the same ``delta * (gram[i] - gram[j])`` from both, in place (an
    infinity stays infinite), then rewrites entries i and j, the only betas
    that moved, from their new value and bounds; f is rebuilt from the two
    copies at exit.  The curvature ||x_i - x_j||^2, floored at ``_TAU``, is
    one m x m matrix per fit.  So a step is about ten numpy calls on
    preallocated buffers, each with the arithmetic of the plain form, and
    the fit gives the same bits as it.

    The Gram matrix is built one matrix-vector product per row: a
    matrix-matrix product sums in an order that depends on the BLAS thread
    count, and the fit must not.

    The standardized rows, their scaler, the Gram matrix and the curvature
    do not depend on C or the labels.  ``prepared`` passes them in, as
    ``_prepare(features)`` builds them, so fits of one matrix at several C
    build them once; without it the fit builds its own.  The inputs are
    checked either way, and a preparation of another shape than
    ``features`` raises ValueError.
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
    if not isinstance(epochs, (int, np.integer)) or epochs < 0:
        raise ValueError(
            f"epochs must be a non-negative integer, not {epochs!r}")

    if prepared is None:
        prepared = _prepare(x_raw)
    elif prepared.x.shape != x_raw.shape:
        raise ValueError(f"preparation of shape {prepared.x.shape} for"
                         f" features of shape {x_raw.shape}")
    x, mean, std, gram, curvature = prepared
    y_pm = np.where(y == 1, 1.0, -1.0)
    m = len(y_pm)

    lo_arr, hi_arr = np.minimum(C * y_pm, 0.0), np.maximum(C * y_pm, 0.0)
    lo, hi = lo_arr.tolist(), hi_arr.tolist()
    beta = [0.0] * m
    f_up = np.where(y_pm > 0, y_pm, -np.inf)   # beta = 0 = hi for y = -1
    f_low = np.where(y_pm < 0, y_pm, np.inf)   # beta = 0 = lo for y = +1
    gain, score, d = np.empty(m), np.empty(m), np.empty(m)
    cap, steps = epochs * m, 0
    while True:
        i = int(f_up.argmax())
        # the value at argmin is the minimum; argmin costs a third of min()
        f_i, low_min = f_up.item(i), f_low.item(f_low.argmin())
        gap = f_i - low_min
        if gap < KKT_TOL or steps >= cap:
            break
        steps += 1
        np.subtract(f_i, f_low, out=gain)
        np.maximum(gain, 0.0, out=gain)
        curv_i = curvature[i]
        np.multiply(gain, gain, out=score)
        np.divide(score, curv_i, out=score)
        j = int(score.argmax())
        room_i, room_j = hi[i] - beta[i], beta[j] - lo[j]
        delta = min(gain.item(j) / curv_i.item(j), room_i, room_j)
        # a step that uses up a room lands exactly on the bound
        beta[i] = b_i = hi[i] if delta == room_i else beta[i] + delta
        beta[j] = b_j = lo[j] if delta == room_j else beta[j] - delta
        np.subtract(gram[i], gram[j], out=d)
        np.multiply(d, delta, out=d)
        f_up -= d
        f_low -= d
        # i was free to rise and j to fall, so those copies hold their f
        f_i, f_j = f_up.item(i), f_low.item(j)
        f_up[i] = f_i if b_i < hi[i] else -np.inf
        f_low[i] = f_i if b_i > lo[i] else np.inf
        f_up[j] = f_j if b_j < hi[j] else -np.inf
        f_low[j] = f_j if b_j > lo[j] else np.inf

    beta = np.array(beta)
    f = np.where(beta < hi_arr, f_up, f_low)
    free = (lo_arr < beta) & (beta < hi_arr)
    b = (float(f[free].mean()) if free.any()
         else 0.5 * (f_i + low_min))
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


def grid_search_cv(features: np.ndarray, labels, grid, folds: int,
                   epochs: int, seed: int = 0) -> CvGridResult:
    """Mean validation AUROC per C over stratified folds; best (smallest) C.

    Standardization happens inside each fold's training portion only
    (``train_linear`` fits its scaler on the data it sees).  Each fold's
    rows are taken once, and its standardized rows, Gram matrix and
    curvature built once, then shared by the fits at every C; only one
    fold's are held at a time.  Each C's mean is taken over its per-fold
    AUROCs in fold order.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    all_idx = np.arange(len(y))
    fold_scores = [[] for _ in grid]
    for val in stratified_folds(y, folds, seed=seed):
        train = np.setdiff1d(all_idx, val)
        x_train, y_train, x_val, y_val = x[train], y[train], x[val], y[val]
        prepared = _prepare(x_train)
        for scores, C in zip(fold_scores, grid):
            clf = train_linear(x_train, y_train, C=C, epochs=epochs,
                               prepared=prepared)
            scores.append(auroc(decision_scores(clf, x_val), y_val))
        # dropped before the next fold's is built: one fold's at a time
        del prepared
    means = [float(np.mean(scores)) for scores in fold_scores]
    order = sorted(range(len(grid)), key=lambda i: (-means[i], grid[i]))
    return CvGridResult(grid=list(grid), mean_aurocs=means,
                        chosen_c=float(grid[order[0]]))

"""Evaluation metrics: AUROC, accuracy, MCC and decision-curve net benefit."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

# Newton fit of the risk squash: it stops when both gradient entries are
# below SQUASH_GRAD_TOL, after SQUASH_MAX_ITERS steps, or when a step
# shorter than SQUASH_MIN_STEP still does not lower the likelihood;
# SQUASH_RIDGE on the Hessian's diagonal bounds a step where the
# likelihood is flat
SQUASH_GRAD_TOL = 1e-9
SQUASH_MAX_ITERS = 100
SQUASH_MIN_STEP = 1e-10
SQUASH_RIDGE = 1e-12


def _average_ranks(values) -> np.ndarray:
    """1-based ranks of ``values``, ties sharing their mean rank.

    The formula of ``scipy.stats.rankdata(method="average")``: a stable
    sort, tie groups from the sorted run boundaries, then the mean of each
    group's first and last rank.
    """
    values = np.asarray(values)
    order = np.argsort(values, kind="stable")
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.arange(order.size, dtype=np.intp)
    ordered = values[order]
    starts = np.r_[True, ordered[1:] != ordered[:-1]]
    dense = np.cumsum(starts)[inverse]
    count = np.r_[np.flatnonzero(starts), starts.size]
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def auroc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative.

    Ties get half credit (Mann-Whitney); equals the trapezoidal ROC area.
    Requires both classes to be present and every score to be finite: a
    NaN or infinite score raises ValueError, as it has no defined rank.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs both classes present")
    n_bad = int(np.sum(~np.isfinite(scores)))
    if n_bad:
        raise ValueError(f"AUROC needs finite scores; {n_bad} of "
                         f"{scores.size} are NaN or infinite")
    ranks = _average_ranks(scores)
    rank_sum = float(np.sum(ranks[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def confusion(predictions, labels) -> tuple[int, int, int, int]:
    """(TP, FP, TN, FN) from binary predictions and labels."""
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    tp = int(np.sum((predictions == 1) & (labels == 1)))
    fp = int(np.sum((predictions == 1) & (labels == 0)))
    tn = int(np.sum((predictions == 0) & (labels == 0)))
    fn = int(np.sum((predictions == 0) & (labels == 1)))
    return tp, fp, tn, fn


def accuracy(predictions, labels) -> float:
    tp, fp, tn, fn = confusion(predictions, labels)
    return (tp + tn) / (tp + fp + tn + fn)


def mcc(conf: tuple[int, int, int, int]) -> float:
    """Matthews correlation coefficient; any zero denominator factor -> 0."""
    tp, fp, tn, fn = conf
    if min(tp, fp, tn, fn) < 0:
        raise ValueError("confusion counts must be nonnegative")
    denom_sq = float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom_sq == 0.0:
        return 0.0
    return (tp * tn - fp * fn) / np.sqrt(denom_sq)


def _squash_probabilities(s, a, b) -> np.ndarray:
    """p = 1/(1+exp(a*s+b)), with the exponent clipped to [-500, 500]."""
    return 1.0 / (1.0 + np.exp(np.clip(a * s + b, -500, 500)))


def _squash_nll(s, y, a, b) -> float:
    """Negative log-likelihood of the squash, each p clipped to
    [1e-12, 1 - 1e-12]."""
    p = np.clip(_squash_probabilities(s, a, b), 1e-12, 1 - 1e-12)
    return -float(np.sum(y * np.log(p) + (1 - y) * np.log(1 - p)))


def fit_score_squash(scores, labels) -> tuple[float, float]:
    """Fit a logistic squashing p = 1/(1+exp(a*s+b)) on labelled scores.

    Maximum-likelihood (Platt-style, on the 0/1 labels themselves, not
    Platt's smoothed targets) so decision scores can be read as risks in
    [0, 1] for decision-curve analysis.  The pipeline fits it on held-out
    validation scores: in-sample scores of an overfit classifier are
    near-separable and give near-0/1 risks.

    Newton's method (Lin, Lin & Weng 2007) starts from the constant risk
    (a, b) = (0, log(n0/n1)) and steps along the likelihood's exact
    gradient and Hessian; a backtracking (Armijo) line search accepts a
    step only if it lowers the negative log-likelihood with each p clipped
    to [1e-12, 1 - 1e-12].  When the scores separate the classes, no
    finite optimum exists: the fit stops, at a finite a < 0, once the
    clipped likelihood stops falling.  Returns (a, b); ``a`` is
    non-positive so higher score means higher risk: a fitted a > 0
    becomes a = 0 with b = log(n0/n1), the maximum-likelihood constant
    risk.  Both classes must be present and every score finite, or
    ValueError.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"the squash fit needs both classes present; got "
                         f"{n_pos} of label 1 and {n_neg} of label 0")
    n_bad = int(np.sum(~np.isfinite(s)))
    if n_bad:
        raise ValueError(f"the squash fit needs finite scores; {n_bad} of "
                         f"{s.size} are NaN or infinite")
    a, b = 0.0, float(np.log(n_neg / n_pos))
    nll = _squash_nll(s, y, a, b)
    for _ in range(SQUASH_MAX_ITERS):
        p = _squash_probabilities(s, a, b)
        r = y - p  # d nll / d(a*s+b)
        w = p * (1.0 - p)
        grad_a, grad_b = float(r @ s), float(np.sum(r))
        if max(abs(grad_a), abs(grad_b)) < SQUASH_GRAD_TOL:
            break
        h_aa = float(w @ (s * s)) + SQUASH_RIDGE
        h_ab = float(w @ s)
        h_bb = float(np.sum(w)) + SQUASH_RIDGE
        det = h_aa * h_bb - h_ab * h_ab
        if not det > 0:
            break
        step_a = -(h_bb * grad_a - h_ab * grad_b) / det
        step_b = -(h_aa * grad_b - h_ab * grad_a) / det
        slope = grad_a * step_a + grad_b * step_b
        t = 1.0
        while t >= SQUASH_MIN_STEP:
            trial = _squash_nll(s, y, a + t * step_a, b + t * step_b)
            if trial <= nll + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            break  # no step lowers the likelihood any more
        a, b, nll = a + t * step_a, b + t * step_b, trial
    if a > 0:
        a, b = 0.0, np.log(n_neg / n_pos)
    return float(a), float(b)


def squash_scores(scores, squash: tuple[float, float]) -> np.ndarray:
    a, b = squash
    return _squash_probabilities(np.asarray(scores, dtype=np.float64), a, b)


def default_threshold_grid() -> np.ndarray:
    """0.01 .. 0.99 in steps of 0.01 (covers the clinically relevant band)."""
    return np.round(np.arange(1, 100) * 0.01, 10)


def dca(risks, labels, thresholds=None) -> list[tuple[float, float, float, float]]:
    """Decision-curve analysis.

    Returns rows ``(pt, nb_model, nb_treat_all, nb_treat_none)`` where a
    subject is treated iff risk >= pt and
    ``nb = TP/N - FP/N * pt/(1-pt)``.
    """
    risks = np.asarray(risks, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(risks < 0) or np.any(risks > 1):
        raise ValueError("risks must lie in [0, 1]")
    if thresholds is None:
        thresholds = default_threshold_grid()
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if np.any(thresholds >= 1.0) or np.any(thresholds <= 0.0):
        raise ValueError("thresholds must lie strictly inside (0, 1)")

    n = len(labels)
    prevalence = float(np.mean(labels))
    curve = []
    for pt in thresholds:
        treated = risks >= pt
        tp = float(np.sum(treated & (labels == 1)))
        fp = float(np.sum(treated & (labels == 0)))
        odds = pt / (1.0 - pt)
        nb_model = tp / n - fp / n * odds
        nb_all = prevalence - (1.0 - prevalence) * odds
        curve.append((float(pt), nb_model, nb_all, 0.0))
    return curve


@dataclass
class EvalReport:
    """Bundle of headline metrics plus the DCA curve."""

    auroc: float
    accuracy: float
    mcc: float
    confusion: tuple[int, int, int, int]
    dca_curve: list[tuple[float, float, float, float]] = field(default_factory=list)

    def to_json(self) -> str:
        d = asdict(self)
        d["confusion"] = list(self.confusion)
        d["dca_curve"] = [list(row) for row in self.dca_curve]
        return json.dumps(d, sort_keys=True, indent=2)


def evaluate(scores, labels, squash: tuple[float, float]) -> EvalReport:
    """Full report from decision scores; prediction is score > 0.  The
    decision curve's ``squash`` must be fitted on held-out scores."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    preds = (scores > 0).astype(np.int64)
    conf = confusion(preds, labels)
    curve = dca(squash_scores(scores, squash), labels)
    return EvalReport(
        auroc=auroc(scores, labels),
        accuracy=accuracy(preds, labels),
        mcc=mcc(conf),
        confusion=conf,
        dca_curve=curve,
    )


def dca_curve_csv(curve) -> str:
    lines = ["threshold,net_benefit_model,net_benefit_treat_all,net_benefit_treat_none"]
    for pt, nb_m, nb_a, nb_n in curve:
        lines.append(f"{pt:.6g},{nb_m:.10g},{nb_a:.10g},{nb_n:.10g}")
    return "\n".join(lines) + "\n"

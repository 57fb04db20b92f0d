"""Linear hinge-loss classifier tests.

Reference oracle for the objective: scipy.optimize.minimize on the
(convex, subdifferentiable) hinge objective from several starts, which
serves as the "long-run reference optimizer" the solver must approach.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from cardiofuse import svm
from cardiofuse.metrics import auroc
from cardiofuse.pipeline import DEFAULT_CONFIG


def blobs(n_per_class, gap, seed, d=2):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_per_class, d)) - gap / 2
    b = rng.normal(size=(n_per_class, d)) + gap / 2
    x = np.vstack([a, b])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return x, y


def reference_objective(x_std, y_pm, C, starts=5, seed=0):
    """Multi-start smooth-solver oracle for min 0.5||w||^2 + C*sum hinge."""
    d = x_std.shape[1]

    def obj(p):
        w, b = p[:d], p[d]
        margins = 1.0 - y_pm * (x_std @ w + b)
        return 0.5 * w @ w + C * np.sum(np.maximum(margins, 0.0))

    rng = np.random.default_rng(seed)
    best = np.inf
    for i in range(starts):
        p0 = np.zeros(d + 1) if i == 0 else rng.normal(size=d + 1)
        res = minimize(obj, p0, method="Nelder-Mead",
                       options={"maxiter": 20000, "xatol": 1e-10,
                                "fatol": 1e-12})
        best = min(best, res.fun)
    return best


class TestTrainLinear:
    def test_separable_blobs_perfect_accuracy(self):
        x, y = blobs(20, gap=6.0, seed=0)
        clf = svm.train_linear(x, y, C=1.0)
        scores = svm.decision_scores(clf, x)
        preds = (scores > 0).astype(int)
        assert np.mean(preds == y) == 1.0
        # every margin has the right sign
        y_pm = np.where(y == 1, 1.0, -1.0)
        assert np.all(y_pm * scores > 0)

    def test_label_flip_negates_scores(self):
        x, y = blobs(15, gap=3.0, seed=1)
        c1 = svm.train_linear(x, y, C=0.5)
        c2 = svm.train_linear(x, 1 - y, C=0.5)
        s1 = svm.decision_scores(c1, x)
        s2 = svm.decision_scores(c2, x)
        np.testing.assert_allclose(s1, -s2, atol=0.05)

    def test_objective_within_half_percent_of_reference(self):
        x, y = blobs(10, gap=2.0, seed=2)
        clf = svm.train_linear(x, y, C=0.1, epochs=300)
        x_std = (x - clf.scaler_mean) / clf.scaler_std
        y_pm = np.where(y == 1, 1.0, -1.0)
        achieved = svm.hinge_objective(clf.weights, clf.bias, x_std, y_pm, 0.1)
        reference = reference_objective(x_std, y_pm, 0.1)
        assert achieved <= reference * 1.005 + 1e-9

    def test_objective_never_exceeds_zero_classifier(self):
        rng = np.random.default_rng(3)
        for C in (0.001, 0.1, 1.0):
            x = rng.normal(size=(30, 4))
            y = rng.integers(0, 2, 30)
            if len(np.unique(y)) < 2:
                continue
            clf = svm.train_linear(x, y, C=C)
            x_std = (x - clf.scaler_mean) / clf.scaler_std
            y_pm = np.where(y == 1, 1.0, -1.0)
            obj = svm.hinge_objective(clf.weights, clf.bias, x_std, y_pm, C)
            assert obj <= C * len(y) + 1e-9

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            svm.train_linear(np.ones((5, 2)), np.zeros(5))

    def test_non_finite_rejected(self):
        x = np.ones((4, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValueError):
            svm.train_linear(x, np.array([0, 1, 0, 1]))

    def test_invalid_c_rejected(self):
        x, y = blobs(5, 2.0, seed=4)
        with pytest.raises(ValueError):
            svm.train_linear(x, y, C=0.0)

    def test_deterministic(self):
        x, y = blobs(12, 2.0, seed=5)
        c1 = svm.train_linear(x, y, C=0.1)
        c2 = svm.train_linear(x, y, C=0.1)
        np.testing.assert_array_equal(c1.weights, c2.weights)
        assert c1.bias == c2.bias

    def test_prediction_invariant_to_feature_rescaling(self):
        x, y = blobs(15, 2.5, seed=6, d=3)
        c1 = svm.train_linear(x, y, C=0.1)
        scale = np.array([10.0, 0.2, 3.0])
        c2 = svm.train_linear(x * scale, y, C=0.1)
        s1 = np.sign(svm.decision_scores(c1, x))
        s2 = np.sign(svm.decision_scores(c2, x * scale))
        np.testing.assert_array_equal(s1, s2)

    def test_reports_converged_fit(self):
        x, y = blobs(20, 1.5, seed=13, d=4)
        clf = svm.train_linear(x, y, C=1.0)
        assert 0 < clf.steps < 300 * len(y)
        assert 0.0 <= clf.kkt_gap < svm.KKT_TOL

    def test_tiny_epochs_report_the_step_cap(self):
        # overlapping classes at C = 1 need many pair steps; one epoch
        # allows m of them
        x, y = blobs(40, 0.5, seed=14, d=3)
        clf = svm.train_linear(x, y, C=1.0, epochs=1)
        assert clf.steps == len(y)
        assert clf.kkt_gap >= svm.KKT_TOL

    @pytest.mark.parametrize("epochs", [-1, 2.5])
    def test_invalid_epochs_rejected(self, epochs):
        # m = 21 is odd: 2.5 * m steps is a cap that no step count meets
        x, y = seeded_problem(4, 3, 1.0, m=21)
        with pytest.raises(ValueError, match=str(epochs)):
            svm.train_linear(x, y, C=1.0, epochs=epochs)


def reference_train_linear(features, labels, C, epochs):
    """The plain SMO loop, one masked copy of f per step: (weights, bias,
    steps, kkt_gap, whether any beta ended free)."""
    x_raw = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    x, _, _ = svm.standardize(x_raw)
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
        if gap < svm.KKT_TOL or steps == epochs * m:
            break
        steps += 1
        gain = np.maximum(f[i] - f_low, 0.0)
        curvature = np.maximum(diag[i] + diag - 2.0 * gram[i], svm._TAU)
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
    return beta @ x, b, steps, max(gap, 0.0), bool(free.any())


def seeded_problem(seed, d, noise, m=199):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(m, d))
    y = (x[:, :3].sum(axis=1) + noise * rng.normal(size=m) > 0)
    return x, y.astype(np.int64)


class TestMatchesPlainLoop:
    """``train_linear`` keeps f in two masked copies updated in place and
    its curvature in one matrix per fit; it must give the bits of the plain
    loop above."""

    @pytest.mark.parametrize("problem, C, epochs, ends", [
        (seeded_problem(0, 210, 0.0), 0.1, 300, "converged"),  # separable
        (seeded_problem(1, 15, 3.0), 1.0, 15, "capped"),       # overlapping
        (blobs(20, 1.0, seed=15, d=3), 1e-4, 300, "none free"),
        (seeded_problem(1, 15, 3.0), 1.0, 0, "capped"),
    ], ids=["separable", "cap-bound", "midpoint-bias", "epochs-0"])
    def test_bit_identical(self, problem, C, epochs, ends):
        x, y = problem
        w, b, steps, gap, any_free = reference_train_linear(x, y, C, epochs)
        # each case reaches the exit it is meant to test
        assert {"converged": gap < svm.KKT_TOL,
                "capped": steps == epochs * len(y),
                "none free": not any_free}[ends]
        clf = svm.train_linear(x, y, C=C, epochs=epochs)
        assert clf.weights.tobytes() == w.tobytes()
        assert np.float64(clf.bias).tobytes() == np.float64(b).tobytes()
        assert clf.steps == steps
        assert np.float64(clf.kkt_gap).tobytes() == np.float64(gap).tobytes()


FIT_IN_CHILD = """
import sys
import numpy as np
from cardiofuse import svm

rng = np.random.default_rng(int(sys.argv[1]))
x = rng.normal(size=(199, int(sys.argv[2])))
noise = float(sys.argv[3]) * rng.normal(size=199)
y = (x[:, :3].sum(axis=1) + noise > 0).astype(np.int64)
clf = svm.train_linear(x, y, C=float(sys.argv[4]))
print(clf.weights.tobytes().hex(), np.float64(clf.bias).tobytes().hex())
"""


class TestBlasThreadCount:
    """The fit does not depend on how many threads BLAS uses: the Gram
    matrix is built one matrix-vector product per row."""

    @staticmethod
    def fit_in_child(threads: int, *args) -> str:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", FIT_IN_CHILD, *map(str, args)], env=env,
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    # (seed, columns, label noise, C): 199 x 210 is separable, as the
    # imaging branch's CV fits are; 199 x 15 overlaps, as the EHR branch's do
    @pytest.mark.parametrize("problem", [(0, 210, 0.0, 0.1),
                                         (1, 15, 1.5, 1.0)])
    def test_weights_and_bias_equal_at_one_and_two_threads(self, problem):
        assert self.fit_in_child(1, *problem) == self.fit_in_child(2, *problem)


class TestDecisionScore:
    """``decision_scores`` on one-row matrices."""

    def test_scaler_mean_maps_to_bias(self):
        clf = svm.LinearClassifier(weights=np.array([2.0, -1.0]), bias=0.0,
                                   C=1.0, scaler_mean=np.array([3.0, 4.0]),
                                   scaler_std=np.ones(2))
        assert svm.decision_scores(clf, np.array([[3.0, 4.0]])).tolist() == [0.0]

    def test_zero_weights_bias_three(self):
        clf = svm.LinearClassifier(weights=np.zeros(2), bias=3.0, C=1.0,
                                   scaler_mean=np.zeros(2),
                                   scaler_std=np.ones(2))
        for x in (np.zeros((1, 2)), np.array([[5.0, -9.0]])):
            assert svm.decision_scores(clf, x).tolist() == [3.0]

    def test_support_point_near_unit_margin(self):
        # symmetric 2-D max-margin configuration: classes at x = -1 and +1,
        # so the margin-boundary points score exactly +-1 for the exact SVM
        x = np.array([[-1.0, 0.0], [-1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        clf = svm.train_linear(x, y, C=10.0, epochs=2000)
        (score,) = svm.decision_scores(clf, np.array([[1.0, 0.5]]))
        assert score == pytest.approx(1.0, abs=0.1)

    def test_length_mismatch(self):
        clf = svm.LinearClassifier(weights=np.zeros(3), bias=0.0, C=1.0,
                                   scaler_mean=np.zeros(3),
                                   scaler_std=np.ones(3))
        # a one-column row would broadcast against the scaler without the check
        for x in (np.zeros((1, 2)), np.zeros((1, 1)), np.zeros(3)):
            with pytest.raises(ValueError):
                svm.decision_scores(clf, x)


class TestCrossValidation:
    def test_folds_form_partition(self):
        labels = np.random.default_rng(8).integers(0, 2, 53)
        folds = svm.stratified_folds(labels, 10, seed=0)
        combined = np.sort(np.concatenate(folds))
        np.testing.assert_array_equal(combined, np.arange(53))

    def test_folds_are_stratified(self):
        labels = np.array([0] * 30 + [1] * 20)
        folds = svm.stratified_folds(labels, 10, seed=0)
        for f in folds:
            assert np.sum(labels[f] == 0) in (3,)
            assert np.sum(labels[f] == 1) in (2,)

    def test_single_value_grid_chosen(self):
        x, y = blobs(20, 2.0, seed=9)
        result = svm.grid_search_cv(x, y, grid=[0.05], folds=4, epochs=300)
        assert result.chosen_c == 0.05
        assert len(result.mean_aurocs) == 1

    def test_default_grid_records_four_entries(self):
        x, y = blobs(25, 2.0, seed=10)
        result = svm.grid_search_cv(x, y, DEFAULT_CONFIG["svm"]["grid"],
                                    folds=10, epochs=50)
        assert result.grid == [0.001, 0.01, 0.1, 1.0]
        assert len(result.mean_aurocs) == 4

    def test_matches_refit_oracle(self):
        x, y = blobs(20, 1.5, seed=11, d=4)
        grid = [0.01, 1.0]
        result = svm.grid_search_cv(x, y, grid=grid, folds=5, seed=3,
                                    epochs=100)
        # independent recomputation with the same fold partition
        folds = svm.stratified_folds(y, 5, seed=3)
        all_idx = np.arange(len(y))
        for ci, C in enumerate(grid):
            scores = []
            for val in folds:
                train = np.setdiff1d(all_idx, val)
                clf = svm.train_linear(x[train], y[train], C=C, epochs=100)
                scores.append(auroc(svm.decision_scores(clf, x[val]), y[val]))
            assert result.mean_aurocs[ci] == pytest.approx(np.mean(scores),
                                                           abs=1e-12)

    def test_tie_breaks_toward_smaller_c(self):
        # perfectly separable data: every C reaches AUROC 1.0 in each fold
        x, y = blobs(20, 10.0, seed=12)
        result = svm.grid_search_cv(x, y, grid=[0.001, 0.01, 0.1, 1.0],
                                    folds=4, epochs=100)
        if len(set(result.mean_aurocs)) == 1:
            assert result.chosen_c == 0.001


class TestSharedPreparation:
    """``grid_search_cv`` builds each fold's standardized rows, Gram matrix
    and curvature once and passes them to that fold's fits through
    ``train_linear(..., prepared=)``; nothing of the result may move."""

    @pytest.mark.parametrize("problem, C, epochs", [
        (seeded_problem(0, 210, 0.0), 0.1, 300),
        (seeded_problem(1, 15, 3.0), 1.0, 15),
        (blobs(20, 1.0, seed=15, d=3), 1e-4, 300),
        (seeded_problem(1, 15, 3.0), 1.0, 0),
    ], ids=["separable", "cap-bound", "midpoint-bias", "epochs-0"])
    def test_prepared_fit_gives_the_plain_bytes(self, problem, C, epochs):
        x, y = problem
        plain = svm.train_linear(x, y, C=C, epochs=epochs)
        shared = svm.train_linear(x, y, C=C, epochs=epochs,
                                  prepared=svm._prepare(x))
        assert shared.weights.tobytes() == plain.weights.tobytes()
        for field in ("bias", "kkt_gap"):
            assert (np.float64(getattr(shared, field)).tobytes()
                    == np.float64(getattr(plain, field)).tobytes())
        assert shared.steps == plain.steps
        assert shared.scaler_mean.tobytes() == plain.scaler_mean.tobytes()
        assert shared.scaler_std.tobytes() == plain.scaler_std.tobytes()

    def test_mismatched_preparation_rejected(self):
        x, y = seeded_problem(1, 15, 3.0)
        for other in (x[:-1], x[:, :-1]):
            with pytest.raises(ValueError, match="preparation"):
                svm.train_linear(x, y, C=1.0, prepared=svm._prepare(other))
        # the inputs are still checked when a preparation is given
        bad = x.copy()
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            svm.train_linear(bad, y, C=1.0, prepared=svm._prepare(x))

    # 199 x 210 is separable, as the imaging branch's CV matrix is; 199 x 15
    # overlaps, as the EHR branch's does
    @pytest.mark.parametrize("problem", [seeded_problem(0, 210, 0.0),
                                         seeded_problem(1, 15, 1.5)],
                             ids=["separable", "overlapping"])
    def test_grid_matches_unshared_fits_bytes(self, problem):
        x, y = problem
        grid, folds = [0.001, 0.01, 0.1, 1.0], 10
        result = svm.grid_search_cv(x, y, grid=grid, folds=folds, epochs=15)
        all_idx = np.arange(len(y))
        splits = [(np.setdiff1d(all_idx, val), val)
                  for val in svm.stratified_folds(y, folds, seed=0)]
        means = []
        for C in grid:
            scores = []
            for train, val in splits:
                clf = svm.train_linear(x[train], y[train], C=C, epochs=15)
                scores.append(auroc(svm.decision_scores(clf, x[val]), y[val]))
            means.append(float(np.mean(scores)))
        assert np.array(result.mean_aurocs).tobytes() == np.array(means).tobytes()
        best = max(range(len(grid)), key=lambda i: (means[i], -grid[i]))
        assert result.chosen_c == grid[best]

    def test_grid_calls_train_linear_once_per_c_and_fold(self, monkeypatch):
        calls = []
        original = svm.train_linear

        def counted(*args, **kwargs):
            calls.append(kwargs.get("prepared"))
            return original(*args, **kwargs)

        # the module binding, which a tracer patches too
        monkeypatch.setattr(svm, "train_linear", counted)
        x, y = blobs(20, 1.5, seed=11, d=4)
        svm.grid_search_cv(x, y, grid=[0.01, 0.1, 1.0], folds=5, epochs=50)
        assert len(calls) == 3 * 5
        # each fold's three fits share one preparation, and no two folds do
        assert len({id(p) for p in calls}) == 5
        assert all(p is not None for p in calls)

    def test_one_fold_preparation_held_at_a_time(self):
        import tracemalloc

        x, y = seeded_problem(0, 210, 0.0)
        val = svm.stratified_folds(y, 10, seed=0)[0]
        train = np.setdiff1d(np.arange(len(y)), val)
        prepared = svm._prepare(x[train])
        one_fold = sum(a.nbytes for a in prepared)
        # a first call's one-off allocations (lazy imports) are not its own
        svm.grid_search_cv(x, y, grid=[0.1], folds=10, epochs=1)
        tracemalloc.start()
        try:
            svm.grid_search_cv(x, y, grid=[0.001, 0.01, 0.1, 1.0], folds=10,
                               epochs=15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * one_fold
        # beside it and the fold's raw train rows, less than one m x m
        # matrix: the curvature takes no m x m temporary
        assert peak < one_fold + x[train].nbytes + prepared.gram.nbytes

    @pytest.mark.parametrize("problem", [
        seeded_problem(0, 210, 0.0), seeded_problem(1, 15, 1.5, m=45),
        blobs(3, 1.0, seed=2, d=2)], ids=["199x210", "45x15", "6x2"])
    def test_curvature_equals_the_one_expression_form(self, problem):
        x, _ = problem
        prepared = svm._prepare(x)
        diag = prepared.gram.diagonal()
        expected = np.maximum((diag[:, None] + diag) - 2.0 * prepared.gram,
                              svm._TAU)
        assert prepared.curvature.tobytes() == expected.tobytes()

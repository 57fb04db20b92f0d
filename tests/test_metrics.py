"""Metric tests with exhaustive pair-counting and direct-formula oracles."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.stats import rankdata

from cardiofuse import metrics


def pair_counting_auroc(scores, labels):
    """O(n^2) oracle: positives outrank negatives, ties get half credit."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def rankdata_auroc(scores, labels):
    """Oracle: the Mann-Whitney formula on scipy's average ranks."""
    labels = np.asarray(labels)
    n_pos, n_neg = int(np.sum(labels == 1)), int(np.sum(labels == 0))
    rank_sum = float(np.sum(rankdata(scores)[labels == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


class TestAuroc:
    def test_perfect_ordering(self):
        assert metrics.auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert metrics.auroc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_hand_case_with_tie(self):
        scores = [0.1, 0.4, 0.35, 0.8, 0.35, 0.9, 0.5, 0.2]
        labels = [0, 0, 1, 1, 0, 1, 1, 0]
        assert metrics.auroc(scores, labels) == pytest.approx(
            pair_counting_auroc(scores, labels), abs=1e-15)

    def test_matches_pair_counting_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            n = int(rng.integers(4, 20))
            labels = rng.integers(0, 2, n)
            if len(np.unique(labels)) < 2:
                continue
            # quantized scores so ties actually occur
            scores = np.round(rng.normal(size=n), 1)
            assert metrics.auroc(scores, labels) == pytest.approx(
                pair_counting_auroc(scores, labels), abs=1e-12)

    def test_equals_rankdata_oracle_with_many_ties(self):
        rng = np.random.default_rng(5)
        for trial in range(400):
            n = int(rng.integers(2, 300))
            labels = rng.integers(0, 2, n)
            labels[:2] = [0, 1]
            # few distinct values: most scores share a tie group
            levels = rng.normal(size=int(rng.integers(1, 8)))
            scores = rng.choice(levels, size=n)
            if trial % 4 == 0:
                scores = np.round(rng.normal(size=n), 1)
            assert (metrics._average_ranks(scores).tobytes()
                    == rankdata(scores).tobytes())
            assert metrics.auroc(scores, labels) == rankdata_auroc(scores, labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        scores = [0.1, 0.4, bad, 0.8]
        with pytest.raises(ValueError, match="1 of 4 are NaN or infinite"):
            metrics.auroc(scores, [0, 1, 0, 1])

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            metrics.auroc([0.1, 0.9], [1, 1])

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, 30)
        labels[0], labels[1] = 0, 1
        a1 = metrics.auroc(scores, labels)
        a2 = metrics.auroc(np.exp(scores) * 3 + 2, labels)
        assert a1 == a2

    def test_negation_complements(self):
        rng = np.random.default_rng(2)
        scores = np.round(rng.normal(size=25), 1)
        labels = rng.integers(0, 2, 25)
        labels[0], labels[1] = 0, 1
        total = metrics.auroc(scores, labels) + metrics.auroc(-scores, labels)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestConfusionAccuracy:
    def test_counts(self):
        preds = [1, 0, 1, 1, 0, 0]
        labels = [1, 0, 0, 1, 1, 0]
        tp, fp, tn, fn = metrics.confusion(preds, labels)
        assert (tp, fp, tn, fn) == (2, 1, 2, 1)
        assert sum((tp, fp, tn, fn)) == 6
        assert metrics.accuracy(preds, labels) == pytest.approx(4 / 6)


class TestMcc:
    def test_perfect(self):
        assert metrics.mcc((5, 0, 7, 0)) == 1.0

    def test_total_inversion(self):
        assert metrics.mcc((0, 3, 0, 4)) == -1.0

    def test_direct_formula(self):
        tp, fp, tn, fn = 3, 1, 4, 2
        expected = (tp * tn - fp * fn) / math.sqrt(
            (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
        assert metrics.mcc((tp, fp, tn, fn)) == pytest.approx(expected,
                                                              abs=1e-12)

    def test_zero_denominator_convention(self):
        assert metrics.mcc((0, 0, 5, 5)) == 0.0

    def test_class_swap_invariance(self):
        tp, fp, tn, fn = 6, 2, 9, 3
        assert metrics.mcc((tp, fp, tn, fn)) == pytest.approx(
            metrics.mcc((tn, fn, tp, fp)), abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*[st.integers(0, 50)] * 4))
    def test_range(self, conf):
        value = metrics.mcc(conf)
        assert -1.0 <= value <= 1.0


class TestDca:
    def test_small_threshold_approaches_prevalence(self):
        labels = np.array([1, 1, 0, 0, 0])
        risks = np.array([0.9, 0.8, 0.3, 0.2, 0.1])
        curve = metrics.dca(risks, labels, thresholds=[0.01])
        pt, nb_model, nb_all, nb_none = curve[0]
        prevalence = 0.4
        assert nb_model == pytest.approx(prevalence, abs=0.01)
        assert nb_all == pytest.approx(
            prevalence - (1 - prevalence) * pt / (1 - pt), abs=1e-12)
        assert nb_none == 0.0

    def test_perfect_classifier_net_benefit_is_prevalence(self):
        labels = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0])
        risks = np.where(labels == 1, 0.99, 0.01)
        for pt, nb_model, _, _ in metrics.dca(risks, labels,
                                              thresholds=[0.2, 0.5, 0.9]):
            assert nb_model == pytest.approx(0.3, abs=1e-12)

    def test_hand_tabulated_case(self):
        # 10 subjects, prevalence 0.4, threshold 0.5:
        # treated = risk >= 0.5 -> 3 true positives, 1 false positive
        risks = np.array([0.9, 0.8, 0.6, 0.3, 0.7, 0.2, 0.1, 0.4, 0.45, 0.05])
        labels = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0])
        curve = metrics.dca(risks, labels, thresholds=[0.5])
        pt, nb_model, nb_all, nb_none = curve[0]
        assert nb_model == pytest.approx(3 / 10 - (1 / 10) * 0.5 / 0.5,
                                         abs=1e-12)
        assert nb_all == pytest.approx(0.4 - 0.6 * 1.0, abs=1e-12)
        assert nb_none == 0.0

    def test_treat_all_formula_across_grid(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(0, 2, 40)
        labels[0], labels[1] = 0, 1
        risks = rng.random(40)
        prevalence = labels.mean()
        for pt, _, nb_all, nb_none in metrics.dca(risks, labels):
            expected = prevalence - (1 - prevalence) * pt / (1 - pt)
            assert nb_all == pytest.approx(expected, abs=1e-12)
            assert nb_none == 0.0

    def test_model_curve_bounded_by_prevalence(self):
        rng = np.random.default_rng(4)
        labels = rng.integers(0, 2, 50)
        labels[0], labels[1] = 0, 1
        risks = rng.random(50)
        prevalence = labels.mean()
        for _, nb_model, _, _ in metrics.dca(risks, labels):
            assert nb_model <= prevalence + 1e-12

    def test_threshold_one_rejected(self):
        with pytest.raises(ValueError):
            metrics.dca(np.array([0.5]), np.array([1]), thresholds=[1.0])

    def test_default_grid(self):
        grid = metrics.default_threshold_grid()
        assert len(grid) == 99
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(0.99)


def nelder_mead_squash(scores, labels):
    """Oracle: the Nelder-Mead fit the squash used before its Newton fit,
    copied verbatim."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)

    def nll(theta):
        a, b = theta
        z = np.clip(a * s + b, -500, 500)
        p = 1.0 / (1.0 + np.exp(z))
        p = np.clip(p, 1e-12, 1 - 1e-12)
        return -float(np.sum(y * np.log(p) + (1 - y) * np.log(1 - p)))

    res = minimize(nll, x0=np.array([-1.0, 0.0]), method="Nelder-Mead",
                   options={"xatol": 1e-8, "fatol": 1e-10, "maxiter": 2000})
    a, b = res.x
    if a > 0:
        a, b = 0.0, np.log(np.sum(y == 0) / np.sum(y == 1))
    return float(a), float(b)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSquash:
    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(5)
        scores = rng.normal(size=60)
        labels = (scores + rng.normal(0, 0.5, 60) > 0).astype(int)
        squash = metrics.fit_score_squash(scores, labels)
        risks = metrics.squash_scores(np.sort(scores), squash)
        assert np.all(risks >= 0) and np.all(risks <= 1)
        assert np.all(np.diff(risks) >= 0)  # monotone in the score

    def test_auroc_preserved(self):
        rng = np.random.default_rng(6)
        scores = rng.normal(size=40)
        labels = rng.integers(0, 2, 40)
        labels[0], labels[1] = 0, 1
        squash = metrics.fit_score_squash(scores, labels)
        risks = metrics.squash_scores(scores, squash)
        assert metrics.auroc(risks, labels) == metrics.auroc(scores, labels)

    def test_inverted_scores_give_the_constant_risk(self):
        # label 1 scores low, so the free fit has a > 0; with a = 0 the
        # likelihood is maximal at the share of label 1 (10 of 40)
        rng = np.random.default_rng(8)
        labels = np.array([0] * 30 + [1] * 10)
        scores = -2.0 * labels + rng.normal(0, 0.5, 40)
        a, b = metrics.fit_score_squash(scores, labels)
        assert a == 0.0
        assert b == pytest.approx(np.log(30 / 10), rel=1e-12)
        np.testing.assert_allclose(metrics.squash_scores(scores, (a, b)), 0.25,
                                   rtol=1e-12)

    @pytest.mark.parametrize("seed,n,effect", [(0, 56, 1.5), (1, 40, 0.8),
                                               (2, 120, 2.5), (3, 80, 1.0)])
    def test_matches_the_nelder_mead_oracle(self, seed, n, effect):
        rng = np.random.default_rng(seed)
        labels = (rng.random(n) < 0.4).astype(int)
        labels[0], labels[1] = 0, 1
        scores = effect * labels + rng.normal(size=n) - 0.5
        assert scores[labels == 1].min() < scores[labels == 0].max()
        a, b = metrics.fit_score_squash(scores, labels)
        a_ref, b_ref = nelder_mead_squash(scores, labels)
        assert a < 0
        assert abs(a - a_ref) <= 1e-6 and abs(b - b_ref) <= 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_separable_scores_stop_at_a_finite_fit(self, seed):
        # no finite optimum exists: the fit must stop where the clipped
        # likelihood saturates, without overflow
        rng = np.random.default_rng(seed)
        labels = np.array([0] * 20 + [1] * 15)
        scores = np.where(labels == 1, 1.0, -1.0) + rng.uniform(-0.5, 0.5, 35)
        a, b = metrics.fit_score_squash(scores, labels)
        assert np.isfinite(a) and np.isfinite(b) and a < 0
        risks = metrics.squash_scores(np.sort(scores), (a, b))
        assert np.all(risks >= 0) and np.all(risks <= 1)
        assert np.all(np.diff(risks) >= 0)
        assert metrics.auroc(risks, np.sort(labels)) == 1.0

    @pytest.mark.parametrize("label", [0, 1])
    def test_single_class_rejected(self, label):
        n_pos, n_neg = (8, 0) if label else (0, 8)
        with pytest.raises(ValueError, match=f"got {n_pos} of label 1 and "
                                             f"{n_neg} of label 0"):
            metrics.fit_score_squash(np.linspace(-1, 1, 8), [label] * 8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_score_rejected(self, bad):
        scores = np.linspace(-1, 1, 8)
        scores[3] = bad
        with pytest.raises(ValueError, match="1 of 8 are NaN or infinite"):
            metrics.fit_score_squash(scores, [0, 1] * 4)


class TestEvalReport:
    def _report(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=50)
        labels = (scores + rng.normal(0, 1.0, 50) > 0).astype(int)
        # the squash is fitted on separate held-out scores, as the
        # pipeline fits it on the validation split
        held_out = rng.normal(size=40)
        held_out_labels = (held_out + rng.normal(0, 1.0, 40) > 0).astype(int)
        squash = metrics.fit_score_squash(held_out, held_out_labels)
        return metrics.evaluate(scores, labels, squash)

    def test_fields_consistent(self):
        rep = self._report()
        assert 0.0 <= rep.auroc <= 1.0
        assert -1.0 <= rep.mcc <= 1.0
        assert sum(rep.confusion) == 50
        assert len(rep.dca_curve) == 99

    def test_json_roundtrip_byte_stable(self):
        rep = self._report()
        text = rep.to_json()
        assert self._report().to_json() == text
        parsed = json.loads(text)
        # sorted keys and a fixed indent: re-serializing gives the same bytes
        assert json.dumps(parsed, sort_keys=True, indent=2) == text
        assert set(parsed) == {"auroc", "accuracy", "mcc", "confusion",
                               "dca_curve"}

    def test_dca_csv_header(self):
        rep = self._report()
        lines = metrics.dca_curve_csv(rep.dca_curve).strip().split("\n")
        assert lines[0] == ("threshold,net_benefit_model,"
                            "net_benefit_treat_all,net_benefit_treat_none")
        assert len(lines) == 100

"""Uncertainty-quantile filtering tests.

The eval callback is scripted per-test so the stopping rule and subset
bookkeeping can be checked exactly.
"""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cardiofuse.data import Subject
from cardiofuse.filtering import (PATIENCE, _pooled_landmarks,
                                  filter_training_samples)
from cardiofuse.metrics import auroc
from cardiofuse.registration import LandmarkSet

# the pipeline's default; the stale-improvement test sits just below it
MIN_IMPROVEMENT = 1e-4

TRIANGLE = np.array([[10.0, 8.0], [22.0, 9.0], [16.0, 22.0]])


def subject(sid, uncertainties, label=0):
    lms = {
        m: LandmarkSet(sid, m, TRIANGLE, np.asarray(u, dtype=np.float64))
        for m, u in uncertainties.items()
    }
    return Subject(id=sid, landmarks=lms, label=label)


def uniform_subjects(n, base=0.5):
    """n subjects, all landmark uncertainties equal (pure tie case)."""
    return [
        subject(f"s{i:02d}", {"short_axis": [base] * 3,
                              "four_chamber": [base] * 3}, label=i % 2)
        for i in range(n)
    ]


def graded_subjects(n):
    """Subject i gets uncertainty ~i so bins align with subject order."""
    return [
        subject(f"s{i:02d}",
                {"short_axis": [i + 0.1, i + 0.2, i + 0.3],
                 "four_chamber": [i + 0.4, i + 0.5, i + 0.6]},
                label=i % 2)
        for i in range(n)
    ]


class TestValidation:
    def test_q_below_two_rejected(self):
        with pytest.raises(ValueError):
            filter_training_samples(uniform_subjects(4), 1, lambda ids: 0.5,
                                    MIN_IMPROVEMENT)

    def test_q_exceeding_landmark_count_rejected(self):
        with pytest.raises(ValueError):
            filter_training_samples(uniform_subjects(2), 13, lambda ids: 0.5,
                                    MIN_IMPROVEMENT)

    def test_eval_failure_propagates(self):
        def boom(ids):
            raise RuntimeError("downstream failure")
        with pytest.raises(RuntimeError):
            filter_training_samples(uniform_subjects(6), 4, boom,
                                    MIN_IMPROVEMENT)


class TestStoppingRule:
    def test_stops_after_two_stale_iterations(self):
        calls = []

        def eval_fn(ids):
            calls.append(len(ids))
            return 0.5  # never improves

        report = filter_training_samples(graded_subjects(10), 5, eval_fn,
                                         MIN_IMPROVEMENT)
        # baseline + rho=1 + rho=2, then two consecutive non-improvements stop
        assert len(report.validation_auroc_trace) == 3
        assert report.removed_bins == 0
        assert report.removed_subject_ids == []
        assert report.best_auroc == 0.5

    def test_keeps_best_subset_not_last(self):
        scores = {0: 0.60, 1: 0.75, 2: 0.70, 3: 0.68}
        counter = {"i": 0}

        def eval_fn(ids):
            score = scores[counter["i"]]
            counter["i"] += 1
            return score

        report = filter_training_samples(graded_subjects(10), 5, eval_fn,
                                         MIN_IMPROVEMENT)
        assert report.removed_bins == 1
        assert report.best_auroc == 0.75
        # with graded uncertainties, bin 5 of 5 covers the last 2 subjects
        assert report.removed_subject_ids == ["s08", "s09"]

    def test_improvement_below_min_counts_as_stale(self):
        scores = iter([0.70, 0.70 + 5e-5, 0.70 + 6e-5])

        def eval_fn(ids):
            return next(scores)

        report = filter_training_samples(graded_subjects(10), 5, eval_fn,
                                         MIN_IMPROVEMENT)
        assert report.removed_bins == 0
        assert report.best_auroc == 0.70

    def test_never_removes_more_than_q_bins(self):
        scores = iter(np.linspace(0.5, 0.99, 20))

        def eval_fn(ids):
            return float(next(scores))

        report = filter_training_samples(graded_subjects(12), 4, eval_fn,
                                         MIN_IMPROVEMENT)
        assert report.removed_bins <= 4


class TestSubsetSemantics:
    def test_removed_subject_has_any_landmark_in_retired_bin(self):
        subjects = graded_subjects(10)
        seen = []

        def eval_fn(ids):
            seen.append(sorted(ids))
            return 0.9 - 0.01 * len(seen)  # always stale after baseline

        filter_training_samples(subjects, 5, eval_fn, MIN_IMPROVEMENT)
        # first candidate removal retires bin 5 (highest 12 of 60 landmarks):
        # subjects s08, s09 hold those, so the candidate set drops exactly them
        assert seen[0] == [s.id for s in subjects]
        assert seen[1] == [f"s{i:02d}" for i in range(8)]

    def test_removal_is_monotone(self):
        candidates = []

        def eval_fn(ids):
            candidates.append(set(ids))
            return 0.5 + 0.02 * len(candidates)  # always improves

        filter_training_samples(graded_subjects(12), 6, eval_fn,
                                MIN_IMPROVEMENT)
        for earlier, later in zip(candidates, candidates[1:]):
            assert later <= earlier

    def test_tie_break_is_deterministic(self):
        subjects = uniform_subjects(8)
        runs = []
        for _ in range(2):
            def eval_fn(ids, runs=runs):
                return 0.5

            report = filter_training_samples(subjects, 4, eval_fn,
                                             MIN_IMPROVEMENT)
            runs.append(report.validation_auroc_trace)
        assert runs[0] == runs[1]

    def test_stops_before_losing_class_diversity(self):
        # all class-1 subjects carry the highest uncertainties; an unbounded
        # removal would wipe the class out, so the loop must stop early
        subjects = [
            subject(f"a{i}", {"short_axis": [0.1] * 3,
                              "four_chamber": [0.1] * 3}, label=0)
            for i in range(4)
        ] + [
            subject("b0", {"short_axis": [9.0] * 3, "four_chamber": [9.0] * 3},
                    label=1)
        ]

        def eval_fn(ids):
            return 0.9 + 0.001 * (30 - len(ids))  # rewards removal forever

        report = filter_training_samples(subjects, 5, eval_fn, MIN_IMPROVEMENT)
        kept = {s.id for s in subjects} - set(report.removed_subject_ids)
        labels = {s.label for s in subjects if s.id in kept}
        assert labels == {0, 1}


def rescan_filter(subjects, Q, eval_fn, min_improvement):
    """The filtering loop as it was written before each subject's worst bin
    was computed once: every round rescans every landmark for one in the
    retired bins.  (removed_subject_ids, validation_auroc_trace)."""
    entries = sorted(_pooled_landmarks(subjects))
    bin_of = {}
    for b, chunk in enumerate(np.array_split(np.arange(len(entries)), Q)):
        for i in chunk:
            u, sid, modality, j = entries[i]
            bin_of[(sid, modality, j)] = b
    all_ids = [s.id for s in subjects]
    baseline = float(eval_fn(all_ids))
    trace = [(0, baseline)]
    best_auroc, best_removed, stale = baseline, [], 0
    for rho in range(1, Q + 1):
        retired = set(range(Q - rho, Q))
        removed = [
            s.id for s in subjects
            if any(bin_of[(s.id, m, j)] in retired
                   for m, lm in sorted(s.landmarks.items())
                   for j in range(len(lm.uncertainties)))
        ]
        kept = [sid for sid in all_ids if sid not in set(removed)]
        if not kept or len({s.label for s in subjects
                            if s.id in set(kept)}) < 2:
            break
        score = float(eval_fn(kept))
        trace.append((rho, score))
        if score > best_auroc + min_improvement:
            best_auroc, best_removed, stale = score, removed, 0
        else:
            stale += 1
            if stale >= PATIENCE:
                break
    return best_removed, trace


Q_MAX = 10
# few distinct values, so bins split tied uncertainties
UNCERTAINTY = st.sampled_from([0.1, 0.2, 0.2, 0.5, 0.9])
MODALITY_SETS = st.sampled_from([("short_axis",), ("four_chamber",),
                                 ("short_axis", "four_chamber")])


@st.composite
def drawn_study(draw):
    """Subjects with one or both modalities, two without landmarks, a Q
    and the scores a scripted eval returns call by call."""
    n = draw(st.integers(2, 8))
    subjects = [
        subject(f"s{i}", {m: draw(st.lists(UNCERTAINTY, min_size=3,
                                           max_size=3))
                          for m in draw(MODALITY_SETS)},
                label=draw(st.integers(0, 1)))
        for i in range(n)
    ]
    # once every bin is retired only these two, one of each class, are left
    for label in (0, 1):
        subjects.insert(draw(st.integers(0, len(subjects))),
                        Subject(id=f"bare{label}", label=label))
    q = draw(st.integers(2, Q_MAX))
    scores = draw(st.lists(st.sampled_from([0.5, 0.6, 0.6, 0.7, 0.9]),
                           min_size=Q_MAX + 1, max_size=Q_MAX + 1))
    return subjects, q, scores


class TestWorstBinRule:
    @settings(max_examples=200, deadline=None)
    @given(drawn_study())
    def test_equals_the_per_round_rescan(self, drawn):
        subjects, q, scores = drawn
        assume(q <= 3 * sum(len(s.landmarks) for s in subjects))

        def scripted():
            calls = []

            def eval_fn(ids):
                calls.append(list(ids))
                return scores[len(calls) - 1]
            return eval_fn, calls

        ours, our_calls = scripted()
        theirs, their_calls = scripted()
        report = filter_training_samples(subjects, q, ours, MIN_IMPROVEMENT)
        removed, trace = rescan_filter(subjects, q, theirs, MIN_IMPROVEMENT)
        assert report.removed_subject_ids == removed
        assert report.validation_auroc_trace == trace
        assert our_calls == their_calls
        assert all({"bare0", "bare1"} <= set(ids) for ids in our_calls)


class TestReport:
    def test_json_fields(self):
        report = filter_training_samples(graded_subjects(10), 5,
                                         lambda ids: 0.5,
                                         MIN_IMPROVEMENT)
        parsed = json.loads(report.to_json())
        assert parsed["Q"] == 5
        assert set(parsed) == {"Q", "removed_bins", "removed_subject_ids",
                               "validation_auroc_trace", "best_auroc"}


class TestEndToEndBenefit:
    def test_corrupted_decile_removed_and_auroc_improves(self):
        """Corrupt the top-uncertainty subjects' labels and verify
        filtering strictly improves a real validation AUROC."""
        from cardiofuse import svm

        rng = np.random.default_rng(0)
        n = 60
        subjects = []
        x = np.empty((n, 2))
        true_labels = rng.integers(0, 2, n)
        for i in range(n):
            corrupted = i >= 50  # top-uncertainty decile
            unc = rng.uniform(5.0, 6.0) if corrupted else rng.uniform(0.1, 0.9)
            label = (int(1 - true_labels[i]) if corrupted
                     else int(true_labels[i]))
            x[i] = true_labels[i] + rng.normal(0, 0.5, 2)
            subjects.append(subject(
                f"s{i:02d}",
                {"short_axis": [unc] * 3, "four_chamber": [unc] * 3},
                label=label))
        # validation set from the same clean distribution
        val_y = rng.integers(0, 2, 40)
        val_x = val_y[:, None] + rng.normal(0, 0.5, (40, 2))

        def eval_fn(ids):
            keep = [int(sid[1:]) for sid in ids]
            labels = np.array([subjects[i].label for i in keep])
            clf = svm.train_linear(x[keep], labels, C=1.0, epochs=60)
            return auroc(svm.decision_scores(clf, val_x), val_y)

        report = filter_training_samples(subjects, 10, eval_fn,
                                         MIN_IMPROVEMENT)
        baseline = report.validation_auroc_trace[0][1]
        assert report.removed_bins >= 1
        assert report.best_auroc > baseline
        # only corrupted subjects carry top-decile uncertainty, so whatever
        # was removed must come from that group
        removed = set(report.removed_subject_ids)
        assert removed
        assert removed <= {f"s{i:02d}" for i in range(50, 60)}

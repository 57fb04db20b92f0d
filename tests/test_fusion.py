"""Fusion strategy tests: concatenation index maps, late-fusion oracle,
plan validation, and run_plan behavior on a small synthetic study.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from cardiofuse import fusion, mpca, pipeline, svm, synthetic
from cardiofuse.data import (StudyTable, carve_validation,
                             chronological_split, clean_tabular, load_study)
from cardiofuse.fusion import (FusionPlan, early_concat, fit_late_fusion,
                               late_fuse, run_plan)
from cardiofuse.metrics import auroc
from cardiofuse.tensor3 import frobenius_sq

SA, FC, EHR = "short_axis", "four_chamber", "ehr"


class TestConcat:
    def test_duplicate_halves(self):
        a = np.random.default_rng(0).normal(size=(3, 3, 2))
        out = early_concat(a, a)
        np.testing.assert_array_equal(out[:, :, :2], a)
        np.testing.assert_array_equal(out[:, :, 2:], a)

    def test_entrywise_placement_2x2x1(self):
        a = np.arange(4, dtype=np.float64).reshape(2, 2, 1)
        b = np.arange(10, 14, dtype=np.float64).reshape(2, 2, 1)
        out = early_concat(a, b)
        assert out.shape == (2, 2, 2)
        for i in range(2):
            for j in range(2):
                assert out[i, j, 0] == a[i, j, 0]
                assert out[i, j, 1] == b[i, j, 0]

    def test_frobenius_additivity(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4, 3))
        b = rng.normal(size=(4, 4, 3))
        assert frobenius_sq(early_concat(a, b)) == pytest.approx(
            frobenius_sq(a) + frobenius_sq(b), rel=1e-12)

    def test_bijection_on_random_tensors(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 4, 2))
        b = rng.normal(size=(3, 4, 2))
        out = early_concat(a, b)
        inputs = sorted(np.concatenate([a.ravel(), b.ravel()]).tolist())
        assert sorted(out.ravel().tolist()) == inputs

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            early_concat(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))

    def test_dtype(self):
        a = np.random.default_rng(3).normal(size=(3, 4, 2))
        narrow = a.astype(np.float32)
        for x, y, dtype in ((narrow, narrow, np.float32), (a, a, np.float64),
                            (narrow, a, np.float64), (a, narrow, np.float64),
                            (np.ones((3, 4, 2), int), a, np.float64)):
            out = early_concat(x, y)
            assert out.dtype == dtype
            np.testing.assert_array_equal(out, np.concatenate(
                [x.astype(np.float64), y.astype(np.float64)], axis=2))


def own_stats(score_vectors):
    """Each vector's own (mean, std): late_fuse then weighs standardized
    scores."""
    return [(float(np.mean(s)), float(np.std(s))) for s in score_vectors]


class TestLateFuse:
    def test_single_branch_preserves_ranking(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=30)
        labels = rng.integers(0, 2, 30)
        labels[0], labels[1] = 0, 1
        fused = late_fuse([scores], [1.0], own_stats([scores]))
        assert auroc(fused, labels) == auroc(scores, labels)

    def test_identical_branches_preserve_ranking(self):
        rng = np.random.default_rng(4)
        scores = rng.normal(size=25)
        branches = [scores, scores.copy()]
        fused = late_fuse(branches, [1.0, 1.0], own_stats(branches))
        np.testing.assert_array_equal(np.argsort(fused), np.argsort(scores))

    def test_weight_one_zero_reproduces_branch0(self):
        rng = np.random.default_rng(5)
        s0 = rng.normal(size=40)
        s1 = rng.normal(size=40)
        labels = rng.integers(0, 2, 40)
        labels[0], labels[1] = 0, 1
        fused = late_fuse([s0, s1], [1.0, 0.0], own_stats([s0, s1]))
        assert abs(auroc(fused, labels) - auroc(s0, labels)) < 1e-12

    def test_complementary_errors_beat_both_branches(self):
        """Two branches ~0.75 with independent errors fuse strictly
        higher, verified by brute-force pair counting."""
        rng = np.random.default_rng(6)
        n = 400
        labels = rng.integers(0, 2, n)
        s0 = labels + rng.normal(0, 0.9, n)
        s1 = labels + rng.normal(0, 0.9, n)

        def pair_count(scores):
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = sum((p > neg).sum() + 0.5 * (p == neg).sum() for p in pos)
            return wins / (len(pos) * len(neg))

        a0, a1 = pair_count(s0), pair_count(s1)
        assert 0.65 < a0 < 0.85 and 0.65 < a1 < 0.85
        fused = late_fuse([s0, s1], [1.0, 1.0], own_stats([s0, s1]))
        af = pair_count(fused)
        assert af > max(a0, a1)
        assert af == pytest.approx(auroc(fused, labels), abs=1e-12)

    def test_branch_scales_do_not_dominate(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 2, 100)
        good = labels + rng.normal(0, 0.3, 100)          # strong, small scale
        weak = 1000.0 * rng.normal(size=100)             # noise, huge scale
        fused = late_fuse([good, weak], [1.0, 1.0], own_stats([good, weak]))
        assert auroc(fused, labels) > 0.8

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            late_fuse([np.zeros(3), np.zeros(4)], [1.0, 1.0],
                      [(0.0, 1.0), (0.0, 1.0)])


class TestFitLateFusion:
    """The late-fusion combiner is fitted on held-out validation scores."""

    def setup_method(self):
        rng = np.random.default_rng(8)
        self.y_val = np.repeat([0, 1], 30)
        self.val = self.y_val + rng.normal(0, 0.8, 60)
        self.train = rng.normal(0, 1.0, 200)

    def test_overfit_training_spread_does_not_shrink_a_branch(self):
        # branch 1 separates validation subjects exactly as well as branch 0
        # (an affine copy), but its training scores spread 3x wider, as an
        # overfit branch's do
        val1 = 2.0 * self.val + 5.0
        train1 = 3.0 * (2.0 * self.train + 5.0)
        stats, weights = fit_late_fusion([self.train, train1],
                                         [self.val, val1], self.y_val)
        assert weights[0] == pytest.approx(weights[1], rel=1e-12)
        contributions = [
            late_fuse([v], [1.0], [stat]) * w
            for v, stat, w in zip((self.val, val1), stats, weights)
        ]
        assert np.std(contributions[0]) == pytest.approx(
            np.std(contributions[1]), rel=1e-12)

    def test_branch_without_validation_separation_gets_weight_zero(self):
        # same multiset of scores in each class: no separation
        flat = np.concatenate([np.arange(30.0), np.arange(30.0)])
        reversed_ = -self.val                    # separates the wrong way
        _, weights = fit_late_fusion([self.train] * 3,
                                     [self.val, flat, reversed_], self.y_val)
        assert weights[0] == 1.0
        assert weights[1] == 0.0 and weights[2] == 0.0

    def test_single_branch_keeps_training_centre(self):
        # alone, a branch keeps the whole weight even if it separates no one
        stats, weights = fit_late_fusion([self.train], [-self.val],
                                         self.y_val)
        assert weights == [1.0]
        assert stats[0] == (pytest.approx(np.mean(self.train)),
                            pytest.approx(np.std(self.val)))

    def test_needs_both_validation_classes(self):
        with pytest.raises(ValueError):
            fit_late_fusion([self.train], [self.val], np.zeros(60))


class TestFusionPlan:
    def test_valid_strategies(self):
        FusionPlan("early", [SA, FC])
        FusionPlan("late", [SA, EHR])
        FusionPlan("hybrid_intermediate", [SA, FC, EHR])

    def test_tensor_fusion_rejects_ehr(self):
        for strategy in ("early", "intermediate"):
            with pytest.raises(ValueError):
                FusionPlan(strategy, [SA, EHR])

    def test_hybrid_requires_ehr(self):
        with pytest.raises(ValueError):
            FusionPlan("hybrid_early", [SA, FC])

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            FusionPlan("stacking", [SA])


@pytest.fixture(scope="module")
def small_study(tmp_path_factory):
    root = tmp_path_factory.mktemp("study")
    spec = synthetic.SyntheticSpec(seed=1, n_subjects=60, dims=(12, 12, 4),
                                   corrupted_fraction=0.0,
                                   heavy_missing_columns=0,
                                   missing_cell_fraction=0.0)
    synthetic.generate_synthetic(spec, root)
    table = load_study(root)
    chronological_split(table, train_fraction=0.7, test_segments=2)
    carve_validation(table, fraction=0.2, seed=0)
    clean_tabular(table, max_missing_fraction=0.05)
    return table


def merged_config(**overrides) -> fusion.PipelineConfig:
    """The PipelineConfig of DEFAULT_CONFIG with ``overrides`` merged in."""
    return pipeline.pipeline_config(pipeline.load_config(overrides=overrides))


def test_pipeline_config_fields_are_the_mpca_and_svm_keys():
    """Each ``mpca`` and ``svm`` key is the ``PipelineConfig`` field of the
    same name: a key added to either section without a field is a
    TypeError in ``pipeline_config``, not a silently dropped setting."""
    defaults = pipeline.DEFAULT_CONFIG
    fields = {f.name for f in dataclasses.fields(fusion.PipelineConfig)}
    assert fields == {*defaults["mpca"], *defaults["svm"], "seed",
                      "ehr_features"}
    cfg = pipeline.load_config()
    cfg["svm"]["tolerance"] = 1e-3
    with pytest.raises(TypeError, match="tolerance"):
        pipeline.pipeline_config(cfg)


def without_modality(study, split, modality):
    """A copy of ``study`` whose first ``split`` subject has no
    ``modality`` stack, and that subject's id."""
    subjects = [dataclasses.replace(s, tensors=dict(s.tensors))
                for s in study.subjects]
    target = next(s for s in subjects if s.split == split)
    del target.tensors[modality]
    return (StudyTable(subjects=subjects,
                       feature_names=list(study.feature_names)), target.id)


FAST = merged_config(svm={"fixed_c": 0.1, "epochs": 40}, mpca={"kappa": 30})


class TestRunPlan:
    def test_degenerate_early_equals_unimodal(self, small_study):
        r1 = run_plan(FusionPlan("early", [SA]), small_study, FAST)
        r2 = run_plan(FusionPlan("late", [SA]), small_study, FAST)
        np.testing.assert_allclose(r1.fused_scores["test"],
                                   r2.fused_scores["test"], atol=1e-12)

    def test_hybrid_has_two_branches_in_manifest(self, small_study):
        result = run_plan(FusionPlan("hybrid_intermediate", [SA, FC, EHR]),
                          small_study, FAST)
        manifest = result.manifest()
        assert manifest["branch_count"] == 2
        assert manifest["strategy"] == "hybrid_intermediate"
        names = [b["name"] for b in manifest["branches"]]
        assert names == [f"intermediate({SA}+{FC})", EHR]

    def test_missing_modality_rejected(self, small_study):
        import dataclasses
        study = StudyTable(
            subjects=[dataclasses.replace(
                s, tensors={SA: s.tensors[SA]} if SA in s.tensors else {})
                for s in small_study.subjects],
            feature_names=list(small_study.feature_names),
        )
        with pytest.raises(ValueError):
            run_plan(FusionPlan("early", [SA, FC]), study, FAST)

    def test_missing_modality_names_the_subject(self, small_study):
        study, sid = without_modality(small_study, "validation", FC)
        with pytest.raises(ValueError,
                           match=f"subject {sid}: missing modality {FC}"):
            run_plan(FusionPlan("intermediate", [SA, FC]), study, FAST)

    def test_intermediate_latent_dims_shared(self, small_study):
        result = run_plan(FusionPlan("intermediate", [SA, FC]), small_study,
                          FAST)
        assert result.branches[0].kappa is not None

    def test_intermediate_latents_use_early_index_map(self, small_study):
        """The batched latent concatenation equals ``early_concat`` of each
        subject's two projected tensors, bit for bit."""
        splits = fusion._splits(small_study)
        config = merged_config(mpca={"kappa": 10 ** 6})  # keep every feature
        x, kappa, models = fusion._imaging_features(
            splits, small_study.labels(splits["train"]), [SA, FC],
            "intermediate", config)

        def per_subject(subjects):
            return np.stack([
                early_concat(mpca.transform(models[0], s.tensors[SA]),
                             mpca.transform(models[1], s.tensors[FC])).ravel()
                for s in subjects])

        train = per_subject(splits["train"])
        assert kappa == train.shape[1]
        order, _ = mpca.fisher_rank(train, [s.label for s in splits["train"]])
        np.testing.assert_array_equal(x["validation"],
                                      per_subject(splits["validation"])[:, order])

    # kappa below one block's width, above it, and every feature; 1e-9
    # keeps one latent per block
    SELECTIONS = ((10, 0.97), (200, 0.97), (10 ** 6, 0.97), (10 ** 6, 1e-9))

    @staticmethod
    def assert_whole_matrix_selection(x, kappa, requested, latents, splits):
        """``x`` is the full-matrix oracle's selection: ``fisher_rank`` on
        the whole train latent matrix, then ``[:, order[:kappa]]``, bit for
        bit and in its layout, on which ``decision_scores``' sums depend."""
        train = latents(splits["train"])
        order, _ = mpca.fisher_rank(train, [s.label for s in splits["train"]])
        assert kappa == min(requested, train.shape[1])
        for tag in ("train", "validation", "test"):
            expected = latents(splits[tag])[:, order[:kappa]]
            assert x[tag].shape == expected.shape, tag
            assert x[tag].tobytes() == expected.tobytes(), tag
            assert x[tag].flags == expected.flags, tag

    def test_intermediate_latents_equal_concatenated_stacks(self,
                                                            small_study):
        """Block-by-block selection equals selecting from each modality's
        latents stacked and concatenated along mode 3."""
        splits = fusion._splits(small_study)
        for kappa, variance in self.SELECTIONS:
            config = merged_config(mpca={"kappa": kappa,
                                         "variance_fraction": variance})
            x, selected, models = fusion._imaging_features(
                splits, small_study.labels(splits["train"]), [SA, FC],
                "intermediate", config)

            def concatenated(subjects):
                latents = [np.stack([mpca.transform(model, s.tensors[m])
                                     for s in subjects])
                           for m, model in zip((SA, FC), models)]
                return np.concatenate(latents, axis=3).reshape(len(subjects),
                                                               -1)

            self.assert_whole_matrix_selection(x, selected, kappa,
                                               concatenated, splits)

    def test_one_latent_blocks_rank_as_in_the_whole(self, small_study):
        """numpy sums a lone column pairwise and a wider matrix row by row,
        so two one-latent blocks, whose scores agree to the last bits here
        (the four-chamber stacks are 31/42 of the short-axis ones), are
        scored as columns of the whole and keep its pick."""
        subjects = [dataclasses.replace(s, tensors={
            SA: s.tensors[SA], FC: 31 / 42 * s.tensors[SA]})
            for s in small_study.subjects]
        study = StudyTable(subjects=subjects,
                           feature_names=list(small_study.feature_names))
        splits = fusion._splits(study)
        config = merged_config(mpca={"kappa": 1, "variance_fraction": 1e-9})
        x, selected, models = fusion._imaging_features(
            splits, study.labels(splits["train"]), [SA, FC], "intermediate",
            config)
        assert [m.n_features for m in models] == [1, 1]

        def concatenated(subjects):
            return np.stack([np.concatenate([
                mpca.transform(model, s.tensors[m]).ravel()
                for m, model in zip((SA, FC), models)]) for s in subjects])

        self.assert_whole_matrix_selection(x, selected, 1, concatenated,
                                           splits)

    def test_early_latents_equal_flattened_concatenation(self, small_study):
        """The early-fusion twin: one block, the latents of each subject's
        mode-3 concatenated stacks."""
        splits = fusion._splits(small_study)
        for kappa, variance in self.SELECTIONS:
            config = merged_config(mpca={"kappa": kappa,
                                         "variance_fraction": variance})
            x, selected, (model,) = fusion._imaging_features(
                splits, small_study.labels(splits["train"]), [SA, FC],
                "early", config)

            def flattened(subjects):
                return mpca.transform_flat(model, [
                    early_concat(s.tensors[SA], s.tensors[FC])
                    for s in subjects])

            self.assert_whole_matrix_selection(x, selected, kappa, flattened,
                                               splits)

    def test_intermediate_selection_never_builds_the_latent_matrix(
            self, small_study):
        """The intermediate branch's traced peak stays below one train
        latent matrix of both modalities (the parent of block-by-block
        selection peaked at 2.6 of them here)."""
        splits = fusion._splits(small_study)
        y = small_study.labels(splits["train"])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _, _, models = fusion._imaging_features(splits, y, [SA, FC],
                                                    "intermediate", FAST)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        n_features = sum(m.n_features for m in models)
        assert peak < len(y) * n_features * 8

    @staticmethod
    def with_stacks_as(study, dtype):
        """A copy of ``study`` whose stacks hold the same values as
        ``dtype`` arrays."""
        return StudyTable(
            subjects=[dataclasses.replace(s, tensors={
                m: t.astype(dtype) for m, t in s.tensors.items()})
                for s in study.subjects],
            feature_names=list(study.feature_names))

    def test_early_features_of_float32_stacks_are_the_float64_ones(
            self, small_study):
        """The composed float32 stacks are widened by MPCA, so features and
        models are those of the same values held as float64."""
        narrow = self.with_stacks_as(small_study, np.float32)
        results = []
        for study in (narrow, self.with_stacks_as(narrow, np.float64)):
            splits = fusion._splits(study)
            results.append(fusion._imaging_features(
                splits, study.labels(splits["train"]), [SA, FC], "early",
                FAST))
        (x32, k32, (m32,)), (x64, k64, (m64,)) = results
        assert k32 == k64
        for tag in ("train", "validation", "test"):
            assert x32[tag].flags == x64[tag].flags, tag
            assert x32[tag].tobytes() == x64[tag].tobytes(), tag
        for a, b in zip(m32.projections + [m32.mean_tensor],
                        m64.projections + [m64.mean_tensor]):
            assert a.tobytes() == b.tobytes()

    def test_early_fusion_composes_float32_stacks(self, small_study):
        """Early fusion keeps the composed train stacks at the study's
        float32: its traced peak stays below 2.2 times the float64 stack
        ``mpca.fit`` centres (1.9 of it here; 2.4 when the composed stacks
        were widened to float64)."""
        study = self.with_stacks_as(small_study, np.float32)
        splits = fusion._splits(study)
        y = study.labels(splits["train"])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fusion._imaging_features(splits, y, [SA, FC], "early", FAST)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        voxels = 2 * study.subjects[0].tensors[SA].size
        assert peak < 2.2 * len(y) * voxels * 8

    def test_manifest_cv_null_under_fixed_c(self, small_study):
        result = run_plan(FusionPlan("early", [SA]), small_study, FAST)
        (entry,) = result.manifest()["branches"]
        assert entry["cv_grid"] is None and entry["cv_mean_aurocs"] is None
        assert entry["chosen_c"] == FAST.fixed_c
        assert len(entry["mpca"]) == 1

    def test_manifest_says_whether_the_step_cap_bound(self, small_study):
        plan = FusionPlan("early", [SA])
        for epochs, bound in ((40, False), (0, True)):
            config = dataclasses.replace(FAST, epochs=epochs)
            (entry,) = run_plan(plan, small_study, config).manifest()["branches"]
            assert entry["svm_step_cap_bound"] is bound
            assert (entry["svm_kkt_gap"] >= svm.KKT_TOL) is bound
            assert 0 <= entry["svm_steps"] <= 40 * len(
                small_study.by_split("train"))

    def test_deterministic(self, small_study):
        plan = FusionPlan("hybrid_early", [SA, FC, EHR])
        r1 = run_plan(plan, small_study, FAST)
        r2 = run_plan(plan, small_study, FAST)
        np.testing.assert_array_equal(r1.fused_scores["test"],
                                      r2.fused_scores["test"])

    def test_never_reads_test_labels(self, small_study):
        """Access-logging harness: test-split labels are poisoned with a
        sentinel; run_plan must complete without touching them."""
        import dataclasses
        study = StudyTable(
            subjects=[dataclasses.replace(s) for s in small_study.subjects],
            feature_names=list(small_study.feature_names),
        )

        class Poisoned(int):
            def __new__(cls):
                return super().__new__(cls, 0)

            def __index__(self):
                raise AssertionError("test label read during training")

            def __int__(self):
                raise AssertionError("test label read during training")

        original = {}
        for s in study.subjects:
            if s.split == "test":
                original[s.id] = s.label
                s.label = Poisoned()
        result = run_plan(FusionPlan("late", [SA, EHR]), study, FAST)
        # the scores exist for the test split even though labels were sealed
        assert len(result.fused_scores["test"]) == len(original)


def filter_eval_oracle(study, cfg):
    """``pipeline.make_filter_eval`` as it was before it became a
    ``fit_branch`` call: its own MPCA -> Fisher -> SVM copy."""
    from cardiofuse.svm import decision_scores, train_linear

    fcfg = cfg["filtering"]
    modality = fcfg["eval_modality"]
    val = study.by_split("validation")
    y_val = np.asarray([s.label for s in val], dtype=np.int64)
    val_tensors = [s.tensors[modality] for s in val]
    by_id = {s.id: s for s in study.subjects}

    def eval_fn(candidate_ids):
        subjects = [by_id[sid] for sid in candidate_ids]
        tensors = [s.tensors[modality] for s in subjects]
        y = np.asarray([s.label for s in subjects], dtype=np.int64)
        model = mpca.fit(tensors,
                         variance_fraction=cfg["mpca"]["variance_fraction"],
                         max_iters=cfg["mpca"]["iters"])
        x = mpca.transform_flat(model, tensors)
        order, _ = mpca.fisher_rank(x, y)
        kappa = min(cfg["mpca"]["kappa"], x.shape[1])
        clf = train_linear(mpca.select_top(x, order, kappa), y,
                           C=fcfg["eval_c"], epochs=fcfg["eval_epochs"])
        x_val = mpca.select_top(mpca.transform_flat(model, val_tensors),
                                order, kappa)
        return auroc(decision_scores(clf, x_val), y_val)

    return eval_fn


@pytest.mark.parametrize("modality,seed", [(FC, 0), (SA, 3)])
def test_filter_eval_is_the_unimodal_branch_bit_for_bit(small_study, modality,
                                                        seed):
    cfg = pipeline.load_config(overrides={
        "seed": seed, "mpca": {"kappa": 30},
        "filtering": {"eval_modality": modality, "eval_epochs": 20}})
    ours = pipeline.make_filter_eval(small_study, cfg)
    oracle = filter_eval_oracle(small_study, cfg)
    train_ids = [s.id for s in small_study.by_split("train")]
    rng = np.random.default_rng(seed)
    subsets = [train_ids, train_ids[5:], train_ids[:-7]]
    subsets += [sorted(rng.choice(train_ids, size=25, replace=False).tolist())
                for _ in range(2)]
    for ids in subsets:
        assert ours(ids) == oracle(ids)


def test_filter_eval_names_a_candidate_without_the_modality(small_study):
    study, sid = without_modality(small_study, "train", FC)
    cfg = pipeline.load_config(overrides={
        "mpca": {"kappa": 30}, "filtering": {"eval_epochs": 20}})
    eval_fn = pipeline.make_filter_eval(study, cfg)
    with pytest.raises(ValueError,
                       match=f"subject {sid}: missing modality {FC}"):
        eval_fn([s.id for s in study.by_split("train")])

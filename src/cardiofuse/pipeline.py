"""Staged pipeline orchestration.

Stages, in order: registration to a common space, uncertainty filtering,
tabular feature selection, fusion training, evaluation, decision-curve
analysis.  All randomness flows from the single config seed.  The config
is a JSON document; see DEFAULT_CONFIG for the full key-value schema.
"""

from __future__ import annotations

import copy
import json
import time
from pathlib import Path

import numpy as np

from . import gat, metrics, mpca, svg
from .data import (StudyTable, carve_validation, chronological_split,
                   clean_tabular, load_study)
from .filtering import FilterReport, filter_training_samples
from .fusion import EHR, FusionPlan, PipelineConfig, RunResult, run_plan
from .registration import MODALITIES, build_template, register_stack
from .svm import decision_scores, train_linear
from .synthetic import SyntheticSpec, generate_synthetic

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "data_dir": "data",
    "out_dir": "out",
    "synthetic": {},  # SyntheticSpec field overrides for `generate`
    "split": {
        "train_fraction": 0.7,
        "test_segments": 5,
        "validation_fraction": 0.2,
    },
    "clean": {"max_missing_fraction": 0.05},
    "filtering": {
        "Q": 10,
        "min_improvement": 1e-4,
        "eval_modality": "four_chamber",
        "eval_c": 0.1,
        "eval_epochs": 100,
    },
    "gat": {
        "hidden_dims": [64, 64, 64],
        "heads": 3,
        "leaky_slope": 0.25,
        "dropout": 0.5,
        "learning_rate": 0.01,
        "epochs": 400,
        "target_degree": 10,
        "theta": 15,
    },
    "mpca": {"kappa": 210, "variance_fraction": 0.97, "iters": 1},
    "svm": {"grid": [0.001, 0.01, 0.1, 1.0], "folds": 10, "epochs": 300,
            "fixed_c": None},
    "fusion": {
        "strategy": "hybrid_intermediate",
        "modalities": ["short_axis", "four_chamber", "ehr"],
        "late_weights": None,
    },
    "stages": {
        "generate": False,
        "preprocess": True,
        "filtering": True,
        "select_features": True,
        "train": True,
        "evaluate": True,
        "dca": True,
    },
}


def _deep_merge(base: dict, override: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _deep_merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def load_config(path=None, overrides: dict | None = None) -> dict:
    cfg = DEFAULT_CONFIG
    if path is not None:
        with open(path, encoding="utf-8") as f:
            cfg = _deep_merge(cfg, json.load(f))
    if overrides:
        cfg = _deep_merge(cfg, overrides)
    return cfg


def pipeline_config(cfg: dict, ehr_features=None) -> PipelineConfig:
    return PipelineConfig(
        kappa=cfg["mpca"]["kappa"],
        variance_fraction=cfg["mpca"]["variance_fraction"],
        mpca_iters=cfg["mpca"]["iters"],
        c_grid=tuple(cfg["svm"]["grid"]),
        fixed_c=cfg["svm"]["fixed_c"],
        cv_folds=cfg["svm"]["folds"],
        svm_epochs=cfg["svm"]["epochs"],
        seed=cfg["seed"],
        ehr_features=ehr_features,
    )


def stage_generate(cfg: dict, out_dir) -> dict:
    spec_kwargs = dict(cfg.get("synthetic", {}))
    spec_kwargs.setdefault("seed", cfg["seed"])
    if "dims" in spec_kwargs:
        spec_kwargs["dims"] = tuple(spec_kwargs["dims"])
    spec = SyntheticSpec(**spec_kwargs)
    return generate_synthetic(spec, out_dir)


def stage_load(cfg: dict) -> StudyTable:
    study = load_study(cfg["data_dir"])
    chronological_split(study, cfg["split"]["train_fraction"],
                        cfg["split"]["test_segments"])
    carve_validation(study, cfg["split"]["validation_fraction"],
                     seed=cfg["seed"])
    clean_tabular(study, cfg["clean"]["max_missing_fraction"])
    return study


def stage_preprocess(study: StudyTable) -> dict[str, np.ndarray]:
    """Register every subject's stacks to per-modality mean-landmark templates."""
    templates = {}
    train = study.by_split("train", "validation")
    for modality in MODALITIES:
        sets = [s.landmarks[modality] for s in train if modality in s.landmarks]
        if not sets:
            continue
        templates[modality] = build_template(sets)
    for s in study.subjects:
        for modality, template in templates.items():
            if modality in s.tensors and modality in s.landmarks:
                s.tensors[modality] = register_stack(
                    s.tensors[modality], s.landmarks[modality], template
                )
    return templates


def make_filter_eval(study: StudyTable, cfg: dict):
    """Validation-AUROC callback: quick unimodal MPCA + linear classifier."""
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
                           C=fcfg["eval_c"], epochs=fcfg["eval_epochs"],
                           seed=cfg["seed"])
        x_val = mpca.select_top(mpca.transform_flat(model, val_tensors),
                                order, kappa)
        return metrics.auroc(decision_scores(clf, x_val), y_val)

    return eval_fn


def stage_filtering(study: StudyTable, cfg: dict) -> FilterReport:
    """Run uncertainty filtering and re-tag removed train subjects."""
    train = study.by_split("train")
    report = filter_training_samples(
        train, cfg["filtering"]["Q"], make_filter_eval(study, cfg),
        min_improvement=cfg["filtering"]["min_improvement"],
    )
    removed = set(report.removed_subject_ids)
    for s in train:
        if s.id in removed:
            s.split = "excluded"
    return report


def stage_select_features(study: StudyTable, cfg: dict):
    """GAT-based tabular feature selection on train + validation nodes."""
    gcfg = cfg["gat"]
    nodes = study.by_split("train", "validation")
    features = study.tabular_matrix(nodes)
    labels = study.labels(nodes)
    train_mask = np.asarray([s.split == "train" for s in nodes])
    val_mask = np.asarray([s.split == "validation" for s in nodes])
    graph = gat.build_graph(
        features, target_degree=gcfg["target_degree"], labels=labels,
        train_mask=train_mask, val_mask=val_mask,
        feature_names=study.feature_names,
    )
    config = gat.GatConfig(
        hidden_dims=tuple(gcfg["hidden_dims"]),
        heads=gcfg["heads"],
        leaky_slope=gcfg["leaky_slope"],
        dropout=gcfg["dropout"],
        learning_rate=gcfg["learning_rate"],
        epochs=gcfg["epochs"],
        seed=cfg["seed"],
    )
    model = gat.train(graph, config)
    return gat.ablation_importance(model, graph, theta=gcfg["theta"])


def stage_train(study: StudyTable, cfg: dict,
                ehr_features=None) -> RunResult:
    plan = FusionPlan(
        strategy=cfg["fusion"]["strategy"],
        modalities=list(cfg["fusion"]["modalities"]),
        late_weights=cfg["fusion"]["late_weights"],
    )
    return run_plan(plan, study, pipeline_config(cfg, ehr_features))


def segment_metrics(result: RunResult, study: StudyTable) -> list[dict]:
    """Per-test-segment AUROC / accuracy / MCC of the fused scores."""
    by_id = {s.id: s for s in study.subjects}
    labels = np.asarray([by_id[sid].label for sid in result.ids["test"]],
                        dtype=np.int64)
    scores = result.fused_scores["test"]
    segments = np.asarray([seg if seg is not None else 0
                           for seg in result.segments])
    rows = []
    for seg in sorted(set(segments.tolist())):
        idx = segments == seg
        preds = (scores[idx] > 0).astype(np.int64)
        conf = metrics.confusion(preds, labels[idx])
        rows.append({
            "segment": int(seg),
            "n": int(idx.sum()),
            "auroc": metrics.auroc(scores[idx], labels[idx]),
            "accuracy": metrics.accuracy(preds, labels[idx]),
            "mcc": metrics.mcc(conf),
        })
    return rows


def stage_evaluate(result: RunResult, study: StudyTable) -> tuple:
    """(EvalReport on all test subjects, per-segment metric rows)."""
    by_id = {s.id: s for s in study.subjects}
    labels = np.asarray([by_id[sid].label for sid in result.ids["test"]],
                        dtype=np.int64)
    # fitted on held-out scores: overfit branches make the training fused
    # scores near-separable, which drives the squash to 0/1 risks
    squash = metrics.fit_score_squash(result.fused_scores["validation"],
                                      result.validation_labels)
    report = metrics.evaluate(result.fused_scores["test"], labels,
                              squash=squash)
    return report, segment_metrics(result, study)


def dca_svg(curve) -> str:
    series = {
        "Model": [(row[0], row[1]) for row in curve],
        "Treat All": [(row[0], row[2]) for row in curve],
        "Treat None": [(row[0], row[3]) for row in curve],
    }
    return svg.line_chart(series, title="Decision curve analysis",
                          x_label="Threshold probability",
                          y_label="Net benefit")


def run_all(cfg: dict, out_dir) -> dict:
    """Execute all enabled stages; write artifacts; return the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stages = cfg["stages"]
    manifest = {
        "config": cfg,
        "seed": cfg["seed"],
        "version": __import__("cardiofuse").__version__,
        "stages": [],
        "artifacts": {},
    }

    def record(name, start, **artifacts):
        manifest["stages"].append(
            {"name": name, "wall_clock_s": round(time.monotonic() - start, 3)}
        )
        manifest["artifacts"].update(artifacts)

    study = None
    result = None
    selected = None
    if stages.get("generate"):
        start = time.monotonic()
        stage_generate(cfg, cfg["data_dir"])
        record("generate", start, data_dir=str(cfg["data_dir"]))
    needs_study = any(stages[k] for k in
                      ("preprocess", "filtering", "select_features", "train"))
    if needs_study:
        study = stage_load(cfg)

    if stages["preprocess"]:
        start = time.monotonic()
        stage_preprocess(study)
        record("preprocess", start)

    if stages["filtering"]:
        start = time.monotonic()
        report = stage_filtering(study, cfg)
        path = out / "filter_report.json"
        path.write_text(report.to_json(), encoding="utf-8")
        record("filtering", start, filter_report=str(path))

    if stages["select_features"]:
        start = time.monotonic()
        importance = stage_select_features(study, cfg)
        path = out / "feature_importance.csv"
        path.write_text(importance.to_csv(), encoding="utf-8")
        selected = importance.selected
        manifest["gat"] = importance.convergence
        record("select_features", start, feature_importance=str(path))

    if stages["train"]:
        start = time.monotonic()
        ehr_features = selected if EHR in cfg["fusion"]["modalities"] else None
        result = stage_train(study, cfg, ehr_features)
        scores_path = out / "test_scores.csv"
        with open(scores_path, "w", encoding="utf-8") as f:
            f.write("subject_id,segment,score\n")
            for sid, seg, score in zip(result.ids["test"], result.segments,
                                       result.fused_scores["test"]):
                f.write(f"{sid},{'' if seg is None else seg},{score:.12g}\n")
        run_path = out / "run_manifest.json"
        run_path.write_text(json.dumps(result.manifest(), sort_keys=True,
                                       indent=2), encoding="utf-8")
        record("train", start, test_scores=str(scores_path),
               run_manifest=str(run_path))

    if stages["evaluate"]:
        if result is None:
            raise RuntimeError("evaluate stage needs the train stage enabled")
        start = time.monotonic()
        report, segments = stage_evaluate(result, study)
        report_path = out / "eval_report.json"
        report_path.write_text(report.to_json(), encoding="utf-8")
        seg_path = out / "segment_metrics.json"
        seg_path.write_text(json.dumps(segments, sort_keys=True, indent=2),
                            encoding="utf-8")
        record("evaluate", start, eval_report=str(report_path),
               segment_metrics=str(seg_path))
        if stages["dca"]:
            start = time.monotonic()
            csv_path = out / "dca_curve.csv"
            csv_path.write_text(metrics.dca_curve_csv(report.dca_curve),
                                encoding="utf-8")
            svg_path = out / "dca_curve.svg"
            svg_path.write_text(dca_svg(report.dca_curve), encoding="utf-8")
            record("dca", start, dca_csv=str(csv_path), dca_svg=str(svg_path))

    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2),
                             encoding="utf-8")
    return manifest

"""Staged pipeline orchestration.

Stages, in order: registration to a common space, uncertainty filtering,
tabular feature selection, fusion training, evaluation, decision-curve
analysis.  All randomness flows from the single config seed.  The config
is a JSON document merged over DEFAULT_CONFIG, the full key-value schema
and the one place a pipeline default is written: ``load_config`` rejects
a key it lacks, the typed configs (``PipelineConfig``, ``GatConfig``,
``FusionPlan``, ``SyntheticSpec``) are built from its sections, and the
library functions it feeds take these values as arguments.
``PipelineConfig``'s fields are the ``mpca`` and ``svm`` keys themselves,
so ``pipeline_config`` unpacks both sections as they are.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import json
import resource
import time
from pathlib import Path

import numpy as np

from . import gat, metrics, svg
from .data import (StudyTable, carve_validation, chronological_split,
                   clean_tabular, load_study)
from .filtering import FilterReport, filter_training_samples
from .fusion import (FusionPlan, PipelineConfig, RunResult, fit_branch,
                     run_plan)
from .registration import MODALITIES, build_template, register_stack
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


# the keys `synthetic` takes; SyntheticSpec checks their values
_SPEC_FIELDS = frozenset(f.name for f in dataclasses.fields(SyntheticSpec))


def _merge(cfg: dict, override, source: str, path: str = "") -> dict:
    """Merge the JSON object ``override`` into ``cfg`` in place; return it.

    A key ``cfg`` lacks, a section that is not a JSON object, or a JSON
    object where ``cfg`` holds a plain value raises ValueError naming
    ``source`` and the key's dotted path; so does a ``synthetic`` section
    that ``SyntheticSpec`` rejects.
    """
    if not isinstance(override, dict):
        where = f"config key {path[:-1]!r}" if path else "the config"
        raise ValueError(f"{source}: {where} must be a JSON object, "
                         f"not {type(override).__name__}")
    spec = path == "synthetic."
    for key, value in override.items():
        name = path + key
        if key not in (_SPEC_FIELDS if spec else cfg):
            raise ValueError(f"{source}: unknown config key {name!r}")
        if not spec and isinstance(cfg[key], dict):
            _merge(cfg[key], value, source, name + ".")
        elif not spec and isinstance(value, dict):
            raise ValueError(f"{source}: config key {name!r} must be a "
                             f"plain value, not a JSON object")
        else:
            cfg[key] = copy.deepcopy(value)
    if spec:
        try:
            SyntheticSpec(**cfg)
        except ValueError as exc:
            raise ValueError(f"{source}: config key synthetic.{exc}") from None
    return cfg


def load_config(path=None, overrides: dict | None = None) -> dict:
    """A copy of DEFAULT_CONFIG merged with the JSON file at ``path``, then
    with ``overrides``; a key the defaults lack raises ValueError."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path, encoding="utf-8") as f:
            _merge(cfg, json.load(f), str(path))
    return _merge(cfg, overrides or {}, "overrides")


def pipeline_config(cfg: dict, ehr_features=None) -> PipelineConfig:
    """The config's ``mpca`` and ``svm`` sections, seed and the EHR
    columns selected upstream, as ``PipelineConfig`` fields."""
    return PipelineConfig(**cfg["mpca"], **cfg["svm"], seed=cfg["seed"],
                          ehr_features=ehr_features)


def stage_generate(cfg: dict, out_dir) -> dict:
    spec = SyntheticSpec(**{"seed": cfg["seed"], **cfg["synthetic"]})
    return generate_synthetic(spec, out_dir)


def stage_load(cfg: dict) -> StudyTable:
    study = load_study(cfg["data_dir"])
    chronological_split(study, cfg["split"]["train_fraction"],
                        cfg["split"]["test_segments"])
    carve_validation(study, cfg["split"]["validation_fraction"],
                     seed=cfg["seed"])
    clean_tabular(study, cfg["clean"]["max_missing_fraction"])
    return study


def _load_record(study: StudyTable) -> dict:
    """What reading the study excluded, dropped and imputed, and the size
    and share of label 1 of each split."""
    splits = {}
    for tag in ("train", "validation", "test"):
        labels = study.labels(study.by_split(tag))
        splits[tag] = {"subjects": len(labels),
                       "label_1_share": (float(np.mean(labels == 1))
                                         if len(labels) else None)}
    return {
        "exclusions": [{"subject_id": sid, "reason": reason}
                       for sid, reason in study.exclusions],
        "cleaning": dataclasses.asdict(study.cleaning),
        "splits": splits,
    }


def stage_preprocess(study: StudyTable) -> dict[str, np.ndarray]:
    """Register every subject's stacks to per-modality mean-landmark templates."""
    train = study.by_split("train", "validation")
    templates = {modality: build_template([s.landmarks[modality]
                                           for s in train])
                 for modality in MODALITIES}
    for s in study.subjects:
        for modality, template in templates.items():
            s.tensors[modality] = register_stack(
                s.tensors[modality], s.landmarks[modality], template
            )
    return templates


def make_filter_eval(study: StudyTable, cfg: dict):
    """Validation-AUROC callback: one quick unimodal ``fit_branch``."""
    fcfg = cfg["filtering"]
    modality = fcfg["eval_modality"]
    val = study.by_split("validation")
    y_val = study.labels(val)
    by_id = {s.id: s for s in study.subjects}
    config = dataclasses.replace(pipeline_config(cfg), fixed_c=fcfg["eval_c"],
                                 epochs=fcfg["eval_epochs"])

    def eval_fn(candidate_ids):
        splits = {"train": [by_id[sid] for sid in candidate_ids],
                  "validation": val, "test": []}
        branch = fit_branch(modality, [modality], "early", splits, study,
                            config)
        return metrics.auroc(branch.scores["validation"], y_val)

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
    config = gat.GatConfig(**{k: v for k, v in gcfg.items()
                              if k not in ("target_degree", "theta")},
                           seed=cfg["seed"])
    model = gat.train(graph, config)
    return gat.ablation_importance(model, graph, theta=gcfg["theta"])


def _test_labels(result: RunResult, study: StudyTable) -> np.ndarray:
    """Labels of the run's test subjects, in the order of its scores."""
    test = study.by_split("test")
    if [s.id for s in test] != result.ids["test"]:
        raise ValueError("the study's test split is not the run's")
    return study.labels(test)


def segment_metrics(result: RunResult, study: StudyTable) -> list[dict]:
    """Per-test-segment AUROC and ``metrics.operating_point`` accuracy and
    MCC of the fused scores.

    AUROC is undefined for a segment whose subjects all share one class:
    its ``auroc`` is None and ``auroc_undefined`` says why.
    """
    return _segment_rows(result, _test_labels(result, study))


def _segment_rows(result: RunResult, labels: np.ndarray) -> list[dict]:
    scores = result.fused_scores["test"]
    segments = np.asarray([seg if seg is not None else 0
                           for seg in result.segments])
    rows = []
    for seg in sorted(set(segments.tolist())):
        idx = segments == seg
        acc, phi, _ = metrics.operating_point(scores[idx], labels[idx])
        row = {"segment": int(seg), "n": int(idx.sum()), "auroc": None,
               "accuracy": acc, "mcc": phi}
        classes = np.unique(labels[idx])
        if len(classes) == 2:
            row["auroc"] = metrics.auroc(scores[idx], labels[idx])
        else:
            row["auroc_undefined"] = (f"every subject in the segment has"
                                      f" label {int(classes[0])}")
        rows.append(row)
    return rows


def stage_evaluate(result: RunResult, study: StudyTable) -> tuple:
    """(EvalReport on all test subjects, per-segment metric rows)."""
    # fitted on held-out scores: overfit branches make the training fused
    # scores near-separable, which drives the squash to 0/1 risks
    squash = metrics.fit_score_squash(result.fused_scores["validation"],
                                      result.validation_labels)
    labels = _test_labels(result, study)
    report = metrics.evaluate(result.fused_scores["test"], labels,
                              squash=squash)
    return report, _segment_rows(result, labels)


def dca_svg(curve) -> str:
    series = {
        "Model": [(row[0], row[1]) for row in curve],
        "Treat All": [(row[0], row[2]) for row in curve],
        "Treat None": [(row[0], row[3]) for row in curve],
    }
    return svg.line_chart(series, title="Decision curve analysis",
                          x_label="Threshold probability",
                          y_label="Net benefit")


class _StageLog:
    """The running stage and the directory artifacts go to; each finished
    stage appends its manifest entry."""

    def __init__(self, manifest: dict, out: Path):
        self.manifest = manifest
        self.out = out
        self.running: str | None = None

    @contextlib.contextmanager
    def stage(self, name: str):
        """Time the ``with`` body; append its entry once the body ends."""
        self.running, start = name, time.monotonic()
        yield
        # the process's peak resident set so far; ru_maxrss counts KiB
        max_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.manifest["stages"].append(
            {"name": name,
             "wall_clock_s": round(time.monotonic() - start, 3),
             "max_rss_mb": round(max_rss / 1024, 1)}
        )

    def write(self, key: str, file_name: str, text: str) -> None:
        """Write ``text`` to ``out/file_name``; list it as artifact ``key``."""
        path = self.out / file_name
        path.write_text(text, encoding="utf-8")
        self.manifest["artifacts"][key] = str(path)


def run_all(cfg: dict, out_dir) -> dict:
    """Execute all enabled stages; write artifacts; return the manifest.

    ``manifest.json`` is written even when a stage raises: it then names
    the stage (``failed_stage``, ``load`` for reading the study) and the
    ``error``, and the exception propagates.  An artifact is listed once
    its file is written, so a failed stage lists what it wrote before it
    failed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "config": cfg,
        "seed": cfg["seed"],
        "version": __import__("cardiofuse").__version__,
        "stages": [],
        "artifacts": {},
    }
    log = _StageLog(manifest, out)
    try:
        _run_stages(cfg, log)
    except BaseException as exc:  # an interrupt leaves a failed run too
        manifest["failed_stage"] = log.running
        manifest["error"] = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        (out / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2), encoding="utf-8")
    return manifest


def _run_stages(cfg: dict, log: _StageLog) -> None:
    stages = cfg["stages"]
    study = result = selected = None
    if stages.get("generate"):
        with log.stage("generate"):
            stage_generate(cfg, cfg["data_dir"])
            log.manifest["artifacts"]["data_dir"] = str(cfg["data_dir"])
    if any(stages[k] for k in
           ("preprocess", "filtering", "select_features", "train")):
        with log.stage("load"):
            study = stage_load(cfg)
            log.manifest["load"] = _load_record(study)

    if stages["preprocess"]:
        with log.stage("preprocess"):
            stage_preprocess(study)

    if stages["filtering"]:
        with log.stage("filtering"):
            report = stage_filtering(study, cfg)
            log.write("filter_report", "filter_report.json", report.to_json())

    if stages["select_features"]:
        with log.stage("select_features"):
            importance = stage_select_features(study, cfg)
            log.write("feature_importance", "feature_importance.csv",
                      importance.to_csv())
            selected = importance.selected
            log.manifest["gat"] = importance.convergence

    if stages["train"]:
        with log.stage("train"):
            # ``selected`` is read only by a plan's EHR branch
            result = run_plan(FusionPlan(**cfg["fusion"]), study,
                              pipeline_config(cfg, selected))
            rows = "".join(
                f"{sid},{'' if seg is None else seg},{score:.12g}\n"
                for sid, seg, score in zip(result.ids["test"], result.segments,
                                           result.fused_scores["test"]))
            log.write("test_scores", "test_scores.csv",
                      "subject_id,segment,score\n" + rows)
            log.write("run_manifest", "run_manifest.json",
                      json.dumps(result.manifest(), sort_keys=True, indent=2))

    if stages["evaluate"]:
        with log.stage("evaluate"):
            if result is None:
                raise RuntimeError(
                    "evaluate stage needs the train stage enabled")
            report, segments = stage_evaluate(result, study)
            log.write("eval_report", "eval_report.json", report.to_json())
            log.write("segment_metrics", "segment_metrics.json",
                      json.dumps(segments, sort_keys=True, indent=2))
        if stages["dca"]:
            with log.stage("dca"):
                log.write("dca_csv", "dca_curve.csv",
                          metrics.dca_curve_csv(report.dca_curve))
                log.write("dca_svg", "dca_curve.svg", dca_svg(report.dca_curve))

"""Per-layer metrics of a traced run, and the counts a config implies.

The layer -> end-to-end mapping each metric serves is in README.md.
"""

from __future__ import annotations

from tracer import TRACED_MODULES, Tracer

STAGES = ("preprocess", "filtering", "select_features", "train", "evaluate")


def _recall(report) -> dict:
    informative = [n for n in report.feature_names
                   if n.startswith("informative_")]
    chosen = [n for n in report.selected if n.startswith("informative_")]
    return {"gat.informative_recall": len(chosen) / max(len(informative), 1)}


# span name -> fn(arguments, result) -> counters to add
OBSERVERS = {
    "svm.train_linear": lambda a, r: {
        "svm.pegasos_steps": a["epochs"] * len(a["features"])},
    "svm.grid_search_cv": lambda a, r: {
        "svm.boundary_choices": int(r.chosen_c in (min(a["grid"]),
                                                   max(a["grid"])))},
    "gat.build_graph": lambda a, r: {
        "gat.attention_density": float(r.adjacency.sum()) / r.n_nodes ** 2},
    "gat.ablation_importance": lambda a, r: _recall(r),
    "data.load_study": lambda a, r: {"data.exclusions": len(r.exclusions)},
    "filtering.filter_training_samples": lambda a, r: {
        "filtering.evals": len(r.validation_auroc_trace),
        "filtering.removed_bins": r.removed_bins},
}


def stage_metrics(manifest: dict) -> dict:
    """The pipeline's own stage clocks from a run's ``manifest.json``."""
    stage_s = {s["name"]: s["wall_clock_s"] for s in manifest["stages"]}
    return {f"stage.{name}_s": (stage_s.get(name, 0.0), "s") for name in STAGES}


def per_layer_metrics(t: Tracer) -> dict:
    """name -> (value, unit) for every per-layer metric taken from spans."""
    c = t.counters
    m = {
        "svm.train_linear_calls": (t.calls("svm.train_linear"), "count"),
        "svm.train_linear_s": (t.total_s("svm.train_linear"), "s"),
        "svm.fit_ms": (t.median_ms("svm.train_linear"), "ms"),
        "svm.grid_search_cv_s": (t.self_s("svm.grid_search_cv"), "s"),
        "svm.pegasos_steps": (c.get("svm.pegasos_steps", 0), "count"),
        "svm.boundary_choices": (c.get("svm.boundary_choices", 0), "count"),
        "gat.train_s": (t.total_s("gat.train"), "s"),
        "gat.epoch_ms": (t.median_ms("gat.loss_and_grads"), "ms"),
        "gat.loss_and_grads_calls": (t.calls("gat.loss_and_grads"), "count"),
        "gat.attention_density": (c.get("gat.attention_density", 0.0), "ratio"),
        "gat.ablation_s": (t.total_s("gat.ablation_importance"), "s"),
        "gat.forward_calls": (t.calls("gat.predict_scores"), "count"),
        "gat.informative_recall": (c.get("gat.informative_recall", 0.0),
                                   "ratio"),
        "mpca.fit_calls": (t.calls("mpca.fit"), "count"),
        "mpca.fit_s": (t.total_s("mpca.fit"), "s"),
        "mpca.transform_calls": (t.calls("mpca.transform"), "count"),
        "mpca.transform_s": (t.total_s("mpca.transform"), "s"),
        "tensor3.mode_n_product_calls": (t.calls("tensor3.mode_n_product"),
                                         "count"),
        "registration.register_stack_calls": (
            t.calls("registration.register_stack"), "count"),
        "registration.register_stack_s": (
            t.total_s("registration.register_stack"), "s"),
        "data.load_study_s": (t.total_s("data.load_study"), "s"),
        "data.exclusions": (c.get("data.exclusions", 0), "count"),
        "filtering.evals": (c.get("filtering.evals", 0), "count"),
        "filtering.removed_bins": (c.get("filtering.removed_bins", 0), "count"),
        "fusion.run_plan_s": (t.total_s("fusion.run_plan"), "s"),
        "fusion.run_plan_self_s": (t.self_s("fusion.run_plan"), "s"),
        "metrics.auroc_calls": (t.calls("metrics.auroc"), "count"),
        "metrics.evaluate_s": (t.total_s("metrics.evaluate"), "s"),
    }
    for short in TRACED_MODULES:
        m[f"self.{short}_s"] = (t.module_self_s(short), "s")
    m["trace.overhead_s"] = (t.overhead_s(), "s")
    return m


def _branch_count(fusion_cfg: dict) -> int:
    # hybrid fusion trains an imaging branch and an EHR branch
    return 2 if fusion_cfg["strategy"].startswith("hybrid") else 1


def _mpca_fits_per_run(fusion_cfg: dict) -> int:
    # intermediate fusion of several imaging modalities fits each twice:
    # a first pass for the shared dims, then one
    imaging = [m for m in fusion_cfg["modalities"] if m != "ehr"]
    return 2 * len(imaging) if len(imaging) > 1 else len(imaging)


def count_checks(cfg: dict, t: Tracer) -> list[str]:
    """Mismatches between traced call counts and the counts ``cfg`` implies.

    An empty list means every binding of every wrapped name was traced.
    """
    from cardiofuse.synthetic import SyntheticSpec

    stages, spec = cfg["stages"], SyntheticSpec(**cfg["synthetic"])
    evals = int(t.counters.get("filtering.evals", 0))
    branches = _branch_count(cfg["fusion"])
    cv_fits = 0 if cfg["svm"]["fixed_c"] is not None else (
        len(cfg["svm"]["grid"]) * cfg["svm"]["folds"])
    gat_on = stages["select_features"]
    # columns over the missing-cell limit are dropped before the GAT sees them
    n_features = (spec.n_informative_tabular + spec.n_noise_tabular
                  - spec.heavy_missing_columns)
    expected = {
        "pipeline.run_all": 1,
        "data.load_study": 1,
        "filtering.filter_training_samples": int(stages["filtering"]),
        "registration.register_stack": 2 * spec.n_subjects * stages["preprocess"],
        "svm.train_linear": branches * (cv_fits + 1) + evals,
        "svm.grid_search_cv": branches * (cv_fits > 0),
        "mpca.fit": _mpca_fits_per_run(cfg["fusion"]) + evals,
        "gat.loss_and_grads": cfg["gat"]["epochs"] * gat_on,
        "gat.predict_scores": (1 + n_features) * gat_on,
        "metrics.evaluate": int(stages["evaluate"]),
    }
    return [f"{name}: traced {t.calls(name)} calls, config implies {n}"
            for name, n in expected.items() if t.calls(name) != n]


def span_lines(rows: list[dict]) -> list[str]:
    """The span table (``Tracer.span_table``) as aligned text."""
    width = max((len(r["path"]) for r in rows), default=4)
    lines = [f"{'span':<{width}}  {'calls':>7}  {'total_s':>9}  {'self_s':>9}"]
    for r in rows:
        lines.append(f"{r['path']:<{width}}  {r['calls']:>7}  "
                     f"{r['total_s']:>9.4f}  {r['self_s']:>9.4f}")
    return lines

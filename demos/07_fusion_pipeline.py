"""End-to-end pipeline: synthetic study, preprocessing, and fusion compare.

Generates a small seeded study (two cine modalities + EHR table), runs
registration, uncertainty filtering and GAT feature selection once, then
trains several fusion strategies and compares mean test AUROC. The same
flow is available from the command line:

    cardiofuse run --config my_config.json --stage generate=on
"""

import tempfile

import numpy as np

from cardiofuse import pipeline
from cardiofuse.fusion import EHR, FusionPlan, run_plan

SA, FC = "short_axis", "four_chamber"

# The study lives in a temporary directory that is deleted once it is
# loaded: every later stage works on the in-memory study.
with tempfile.TemporaryDirectory(prefix="cardiofuse_demo_") as data_dir:
    # A scaled-down configuration so the demo finishes in about a minute.
    cfg = pipeline.load_config(overrides={
        "data_dir": data_dir,
        "synthetic": {"n_subjects": 120, "dims": [16, 16, 4]},
        "split": {"test_segments": 3},
        "svm": {"fixed_c": 0.1, "epochs": 80},
        "mpca": {"kappa": 60},
        "gat": {"epochs": 200, "target_degree": 8},
        "filtering": {"eval_epochs": 40},
    })

    print("generating synthetic study ...")
    truth = pipeline.stage_generate(cfg, data_dir)
    print(f"  {len(truth['corrupted_ids'])} corrupted subjects planted")

    study = pipeline.stage_load(cfg)
pipeline.stage_preprocess(study)

freport = pipeline.stage_filtering(study, cfg)
print(f"filtering removed {len(freport.removed_subject_ids)} subjects "
      f"({freport.removed_bins} bins), val AUROC {freport.best_auroc:.3f}")

importance = pipeline.stage_select_features(study, cfg)
n_info = sum(1 for s in importance.selected if s.startswith("informative"))
print(f"top-ranked EHR features: {importance.selected[:4]} ... "
      f"({n_info}/5 informative columns kept)")


def mean_auroc(plan):
    features = importance.selected if EHR in plan.modalities else None
    result = run_plan(plan, study, pipeline.pipeline_config(cfg, features))
    rows = pipeline.segment_metrics(result, study)
    return float(np.mean([r["auroc"] for r in rows]))


plans = [
    ("unimodal SA", FusionPlan("early", [SA])),
    ("unimodal EHR", FusionPlan("late", [EHR])),
    ("early SA+FC", FusionPlan("early", [SA, FC])),
    ("late SA+EHR", FusionPlan("late", [SA, EHR])),
    ("hybrid tri-modal", FusionPlan("hybrid_intermediate", [SA, FC, EHR])),
]
print("\nstrategy            mean test AUROC")
for name, plan in plans:
    print(f"{name:<19s} {mean_auroc(plan):.4f}")

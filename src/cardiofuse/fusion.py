"""Fusion strategies over imaging and tabular branches.

- early: mode-3 concatenation of raw imaging tensors before MPCA;
- intermediate: per-modality MPCA with shared latent dims, concatenated in
  latent space;
- late: weighted mean of per-branch standardized decision scores;
- hybrid: early or intermediate on the imaging pair, then late with the
  tabular branch.

An imaging branch's features are the top ``kappa`` Fisher-ranked columns
of its flattened latents, early or intermediate.  That latent matrix is
never built whole: ``_imaging_features`` ranks it one latent block (the
composed tensor, or one modality) at a time and projects validation and
test subjects straight into the selected columns, with the bits of
ranking and selecting from the whole.

``run_plan`` executes the full DAG with the settings of a
``PipelineConfig``.  ``fit_branch`` fits each branch (MPCA, Fisher
ranking, classifier) on the train split only; the one combiner,
each branch's scale and weight, is fitted on the branches' held-out
validation scores (``fit_late_fusion``).  Test labels are never read;
callers join returned test scores with labels at metric time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mpca
from .data import StudyTable, Subject
from .svm import (KKT_TOL, CvGridResult, LinearClassifier, decision_scores,
                  grid_search_cv, train_linear)

STRATEGIES = ("early", "intermediate", "late", "hybrid_early",
              "hybrid_intermediate")

EHR = "ehr"


@dataclass
class FusionPlan:
    strategy: str
    modalities: list[str]

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        imaging = [m for m in self.modalities if m != EHR]
        if self.strategy in ("early", "intermediate") and EHR in self.modalities:
            raise ValueError("tensor-space fusion cannot include tabular data;"
                             " use late or hybrid")
        if self.strategy.startswith("hybrid") and EHR not in self.modalities:
            raise ValueError("hybrid fusion needs the tabular branch")
        if not imaging and self.strategy != "late":
            raise ValueError("plan needs at least one imaging modality")


@dataclass(frozen=True)
class PipelineConfig:
    """The settings ``run_plan`` trains with: the keys of a config's
    ``mpca`` and ``svm`` sections under their own names, and its ``seed``
    (``pipeline.pipeline_config`` unpacks them)."""
    kappa: int
    variance_fraction: float
    iters: int
    grid: list[float]
    folds: int
    epochs: int
    fixed_c: float | None
    seed: int
    ehr_features: list[str] | None  # names selected upstream (GAT)


@dataclass
class BranchResult:
    name: str
    chosen_c: float
    kappa: int | None
    scores: dict[str, np.ndarray]  # split tag -> per-subject decision scores
    classifier: LinearClassifier | None = None
    late_stats: tuple[float, float] | None = None  # (centre, scale)
    late_weight: float | None = None               # normalized
    cv: CvGridResult | None = None                 # None under fixed_c
    mpca_models: list[mpca.MpcaModel] | None = None  # imaging branches

    def manifest(self) -> dict:
        return {
            "name": self.name, "chosen_c": self.chosen_c, "kappa": self.kappa,
            "cv_grid": None if self.cv is None else self.cv.grid,
            "cv_mean_aurocs": None if self.cv is None else self.cv.mean_aurocs,
            "late_centre": self.late_stats[0], "late_scale": self.late_stats[1],
            "late_weight": self.late_weight,
            "svm_steps": self.classifier.steps,
            "svm_kkt_gap": self.classifier.kkt_gap,
            "svm_step_cap_bound": self.classifier.kkt_gap >= KKT_TOL,
            "mpca": None if self.mpca_models is None else [
                {"target_dims": list(m.target_dims),
                 "scatter_trace": list(m.scatter_trace)}
                for m in self.mpca_models
            ],
        }


@dataclass
class RunResult:
    plan: FusionPlan
    branches: list[BranchResult]
    ids: dict[str, list[str]]               # split tag -> subject ids
    fused_scores: dict[str, np.ndarray]     # split tag -> fused scores
    validation_labels: np.ndarray
    segments: list[int | None]              # per test subject

    def manifest(self) -> dict:
        return {
            "strategy": self.plan.strategy,
            "modalities": list(self.plan.modalities),
            "branch_count": len(self.branches),
            "branches": [b.manifest() for b in self.branches],
        }


def early_concat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mode-3 concatenation of two same-shape tensors.

    Concatenation is exact, so two float32 stacks give a float32 stack
    (MPCA widens it where it computes); any other pair gives float64.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"cannot concatenate dims {a.shape} and {b.shape}")
    dtype = np.float32 if a.dtype == b.dtype == np.float32 else np.float64
    return np.concatenate([a, b], axis=2, dtype=dtype)


def late_fuse(score_vectors, weights, stats) -> np.ndarray:
    """Weighted mean of per-branch standardized decision scores.

    ``stats`` holds one (centre, scale) per branch, so no branch's scale
    dominates, and ``weights`` one weight per branch, renormalized here to
    sum to 1; ``run_plan`` takes both from ``fit_late_fusion``.
    """
    score_vectors = [np.asarray(s, dtype=np.float64) for s in score_vectors]
    lengths = {len(s) for s in score_vectors}
    if len(lengths) != 1:
        raise ValueError("branch score vectors differ in length")
    weights = np.asarray(weights, dtype=np.float64)
    fused = np.zeros(len(score_vectors[0]))
    for w, s, (mean, std) in zip(weights / weights.sum(), score_vectors,
                                 stats):
        fused += w * (s - mean) / max(std, 1e-12)
    return fused


def fit_late_fusion(train_scores, val_scores, val_labels):
    """Per-branch ``late_fuse`` stats and weights, fitted on held-out scores.

    An overfit branch spreads its training scores far wider than its
    held-out ones, so the scale of each branch is the std of its validation
    scores.  Each branch is weighted by its validation class separation:
    the difference of the class means of its standardized validation
    scores, clipped at 0 so a branch that does not separate held-out
    subjects drops out.  The combiner is thus fitted on held-out
    predictions, as in stacked generalization (Wolpert, 1992).  If no
    branch separates, the weights are equal.  The centre stays at the mean
    of the training scores, so a single-branch plan keeps its ``score > 0``
    operating point.

    Returns ``(stats, weights)``: one (centre, scale) per branch, and the
    weights normalized to sum to 1.
    """
    y = np.asarray(val_labels, dtype=np.int64)
    if not (np.any(y == 0) and np.any(y == 1)):
        raise ValueError("late fusion is fitted on validation scores; the"
                         " validation split needs both classes")
    stats, separations = [], []
    for train, val in zip(train_scores, val_scores):
        val = np.asarray(val, dtype=np.float64)
        if len(val) != len(y):
            raise ValueError("validation scores and labels differ in length")
        scale = max(float(np.std(val)), 1e-12)
        stats.append((float(np.mean(train)), scale))
        gap = (np.mean(val[y == 1]) - np.mean(val[y == 0])) / scale
        separations.append(max(float(gap), 0.0))
    total = np.sum(separations)
    weights = (np.asarray(separations) / total if total > 0
               else np.full(len(stats), 1.0 / len(stats)))
    return stats, weights.tolist()


def _splits(study: StudyTable) -> dict[str, list[Subject]]:
    return {
        "train": study.by_split("train"),
        "validation": study.by_split("validation"),
        "test": study.by_split("test"),
    }


def _imaging_features(splits, y_train: np.ndarray, modalities: list[str],
                      mode: str, config: PipelineConfig):
    """Flat Fisher-selected features per split for one imaging branch.

    The features are columns of one latent matrix that is never built:
    each subject's MPCA latent, or for intermediate fusion the mode-3
    concatenation of its modalities' latents (``early_concat``'s index
    map), flattened.  Its B blocks, the one composed block of early fusion
    or one per modality for intermediate fusion, share the latent dims
    J1 x J2 x J3, and block i's column (j1, j2, k) is column
    ((j1 J2 + j2) B + i) J3 + k of the whole.  Each block's MPCA fit hands
    back its train latents, made by its last pass (``mpca.fit(...,
    latents=True)``), which are Fisher-ranked on their own, keep their top
    ``kappa`` columns as candidates and are freed before the next block is
    fit, so one block's latents are alive at a time.  A block's columns
    keep their relative order in the whole, so its candidates hold its
    share of the whole's top ``kappa``, which is picked from them by
    descending score, then column, as ``mpca.fisher_rank`` ranks.
    Validation and test subjects are projected block by block straight
    into their selected columns.  So scores, ranking and values are those
    of ``fisher_rank`` on the whole matrix and ``x[:, order[:kappa]]``, in
    that indexing's Fortran-order layout, on which ``decision_scores``'
    sums depend.

    Returns ``(features, kappa, models)``: the feature matrix of each split
    tag, the feature count, and the fitted MPCA models, one per block.
    """
    def gather(subjects):
        for s in subjects:
            for m in modalities:
                if m not in s.tensors:
                    raise ValueError(f"subject {s.id}: missing modality {m}")
        return [[s.tensors[m] for m in modalities] for s in subjects]

    train_stacks = gather(splits["train"])

    if mode == "early" or len(modalities) == 1:
        def block(stacks, i):  # the one block: the mode-3 concatenation
            t = stacks[0]
            for other in stacks[1:]:
                t = early_concat(t, other)
            return t
        train_blocks = [[block(ts, 0) for ts in train_stacks]]
        shared = None
    elif mode == "intermediate":
        def block(stacks, i):
            return stacks[i]
        train_blocks = [[ts[i] for ts in train_stacks]
                        for i in range(len(modalities))]
        # only the target dims are read, and initialization fixes them
        first_pass = [
            mpca.fit(tensors, variance_fraction=config.variance_fraction,
                     max_iters=0).target_dims
            for tensors in train_blocks
        ]
        # shared latent dims so the latent concatenation lines up
        shared = tuple(max(dims[d] for dims in first_pass) for d in range(3))
    else:
        raise ValueError(f"unknown imaging fusion mode {mode!r}")

    n_blocks = len(train_blocks)
    if config.kappa < 1:
        raise ValueError(f"kappa={config.kappa} must be at least 1")

    def candidates(tensors):
        """Block ``tensors``' MPCA model, and its top ``kappa`` local
        columns with their scores and train values; the fit's latents are
        freed on return, before the next block is fit."""
        model, flat = mpca.fit(tensors,
                               variance_fraction=config.variance_fraction,
                               max_iters=config.iters, target_dims=shared,
                               latents=True)
        if flat.shape[1] == 1 and n_blocks > 1:
            # fisher_rank sums one column pairwise and a wider matrix row
            # by row: beside a copy of itself a column is scored as in the
            # whole matrix
            order = np.zeros(1, dtype=np.intp)
            score = mpca.fisher_rank(np.hstack([flat, flat]), y_train)[1][:1]
        else:
            order, score = mpca.fisher_rank(flat, y_train)
        keep = order[:config.kappa]
        return model, keep, score[keep], flat[:, keep]

    models, local, scores, values = zip(*(candidates(tensors)
                                          for tensors in train_blocks))
    del train_blocks  # early fusion's composed stacks
    kappa = min(config.kappa, n_blocks * models[0].n_features)
    owner = np.repeat(np.arange(n_blocks), [len(keep) for keep in local])
    local = np.concatenate(local)
    j3 = models[0].target_dims[2]
    column = (local // j3 * n_blocks + owner) * j3 + local % j3
    pick = np.lexsort((column, -np.concatenate(scores)))[:kappa]
    local, owner = local[pick], owner[pick]

    def select(subjects):
        stacks = gather(subjects)
        out = np.empty((kappa, len(stacks))).T  # the layout of x[:, idx]
        for i, model in enumerate(models):
            at = np.flatnonzero(owner == i)
            cols = local[at]
            for row, ts in zip(out, stacks):
                row[at] = mpca.transform(model, block(ts, i)).ravel()[cols]
        return out

    features = {"train": np.hstack(values)[:, pick]}
    for tag in ("validation", "test"):
        features[tag] = select(splits[tag])
    return features, kappa, list(models)


def _ehr_features(splits, study: StudyTable, config: PipelineConfig):
    names = study.feature_names
    if config.ehr_features is not None:
        missing = [n for n in config.ehr_features if n not in names]
        if missing:
            raise ValueError(f"unknown EHR features: {missing}")
        cols = [names.index(n) for n in config.ehr_features]
    else:
        cols = list(range(len(names)))
    return {
        tag: np.stack([s.tabular[cols] for s in subjects]) if subjects
        else np.zeros((0, len(cols)))
        for tag, subjects in splits.items()
    }


def _branch_specs(plan: FusionPlan) -> list[tuple[str, list[str], str]]:
    """(name, modalities, mode) per branch for the plan's DAG."""
    imaging = [m for m in plan.modalities if m != EHR]
    if plan.strategy == "early":
        return [("early(" + "+".join(imaging) + ")", imaging, "early")]
    if plan.strategy == "intermediate":
        return [("intermediate(" + "+".join(imaging) + ")", imaging,
                 "intermediate")]
    if plan.strategy == "late":
        specs = [(m, [m], "early") for m in imaging]
        if EHR in plan.modalities:
            specs.append((EHR, [EHR], EHR))
        return specs
    mode = "early" if plan.strategy == "hybrid_early" else "intermediate"
    return [
        (f"{mode}(" + "+".join(imaging) + ")", imaging, mode),
        (EHR, [EHR], EHR),
    ]


def fit_branch(name: str, modalities: list[str], mode: str,
               splits: dict[str, list[Subject]], study: StudyTable,
               config: PipelineConfig) -> BranchResult:
    """Fit one branch's features, C and classifier on ``splits["train"]``;
    score every split."""
    y_train = study.labels(splits["train"])
    kappa = models = None
    if mode == EHR:
        x = _ehr_features(splits, study, config)
    else:
        x, kappa, models = _imaging_features(splits, y_train, modalities,
                                             mode, config)
    x_train = x["train"]
    cv = None
    if config.fixed_c is not None:
        chosen_c = config.fixed_c
    else:
        cv = grid_search_cv(x_train, y_train, grid=config.grid,
                            folds=config.folds, seed=config.seed,
                            epochs=config.epochs)
        chosen_c = cv.chosen_c
    clf = train_linear(x_train, y_train, C=chosen_c, epochs=config.epochs)
    scores = {tag: decision_scores(clf, x[tag]) for tag in splits}
    return BranchResult(name=name, chosen_c=float(chosen_c), kappa=kappa,
                        scores=scores, classifier=clf, cv=cv,
                        mpca_models=models)


def run_plan(plan: FusionPlan, study: StudyTable,
             config: PipelineConfig) -> RunResult:
    """Train every branch of the plan and emit fused decision scores.

    A subject without a stack of the plan raises ValueError naming it.
    """
    splits = _splits(study)
    if not splits["train"]:
        raise ValueError("study has no train split")
    if EHR in plan.modalities and any(s.tabular is None
                                      for s in study.subjects):
        raise ValueError("plan needs tabular data for every subject")

    branches = [fit_branch(name, modalities, mode, splits, study, config)
                for name, modalities, mode in _branch_specs(plan)]

    y_val = study.labels(splits["validation"])
    stats, weights = fit_late_fusion([b.scores["train"] for b in branches],
                                     [b.scores["validation"] for b in branches],
                                     y_val)
    for b, stat, weight in zip(branches, stats, weights):
        b.late_stats, b.late_weight = stat, weight
    fused = {
        tag: late_fuse([b.scores[tag] for b in branches], weights, stats)
        for tag in splits
    }
    return RunResult(
        plan=plan,
        branches=branches,
        ids={tag: [s.id for s in subjects] for tag, subjects in splits.items()},
        fused_scores=fused,
        validation_labels=y_val,
        segments=[s.segment for s in splits["test"]],
    )

"""Micro-benchmark of the pipeline's kernels on fixed seeded inputs.

Usage, from the repository root:

    python3 benchmarks/kernels.py --out BENCH.json
    python3 benchmarks/kernels.py --baseline-src ../other/src --out BENCH.json
    python3 benchmarks/kernels.py --kernels "mpca.fit 48x48x8" \
        "mpca.fit 48x48x8 started" --out BENCH.json

Times ``svm.train_linear`` (200 x 210, C = 0.1, 15 epochs, as in a CV fit
of the benchmark's ``default`` workload; and at C = 1.0 and 15 epochs the
179 x 15 train rows of the third of the ten CV folds of the EHR matrix
below, where the ``epochs * m`` step cap binds, as it does in most of that
workload's EHR fits at C = 1.0), ``svm.grid_search_cv`` (4 C x 10 folds at
15 epochs, as in that workload, on each of the two CV matrices of a
default ``cardiofuse run`` at seed 0), ``mpca.fit`` (280 stacks of
32 x 32 x 8, and 224 stacks of 48 x 48 x 8, the shape of the benchmark's
``imaging_hires`` workload; one refinement pass each; the projections and
the scatter trace are compared; and, as ``mpca.fit 48x48x8 started``, the
intermediate branch's refined fit of those 224 stacks with their train
latents, started from the dims pass ``fit(..., max_iters=0)`` made once
beforehand, at that pass's target dims; a tree whose ``fit`` takes no
``start`` fits them afresh, as its branch did; the projections, mean,
trace and latents are compared) and ``tensor3.mode_n_product`` (a
32 x 32 x 8 stack by a 30 x 32, 30 x 32 and 8 x 8 matrix along modes 1, 2
and 3), ``registration.warp_stack`` (a 32 x 32 x 8 and a 48 x 48 x 8 stack
under a small rotation, scaling and shift, as in ``register_stack``, and
the 48 x 48 x 8 stack's float32 values, as a study holds them;
the 100 outputs of a sample are all kept until it ends, as a run keeps
its registered stacks),
``mpca.fisher_rank`` (224 x 33,856, the shape of the train latents of the
benchmark's ``imaging_hires`` workload), ``mpca.transform_flat`` (224
stacks of 48 x 48 x 8 onto 46 x 46 x 8), ``fusion._imaging_features``
(the intermediate imaging branch of the default study below, short axis
and four chamber: both MPCA fits, Fisher ranking and selection; the three
splits' features and their layouts, and the models, are compared; and the
same branch on 224 train, 56 validation and 56 test subjects whose two
stacks are drawn from the 224 48 x 48 x 8 stacks of the ``mpca.fit``
kernel, the ``imaging_hires`` shapes), ``gat.loss_and_grads`` (one
epoch's loss and gradients on the graph ``stage_select_features`` builds
from the default study below, with the default ``GatConfig``, parameters
from ``init_params`` at a fixed seed and a dropout generator re-seeded
each call; the loss and every gradient are compared),
``gat.ablation_importance`` (the baseline and one ablated forward per
feature, 49 forwards, on that graph with those parameters; the baseline
AUROC, the deltas and the ranking are compared; each tree derives the
graph's edge list itself),
``data.load_study`` (the generated default study below, read from disk:
every tensor, EHR row, label, screening time and landmark set, the
feature names and the exclusions are compared),
``synthetic.generate_synthetic``
(a 40-subject study of default-shaped 32 x 32 x 8 stacks, written to a
temporary directory), ``metrics.fit_score_squash`` (56 seeded scores, the
size of a default run's validation split) and a cold
``import cardiofuse.pipeline`` (a fresh interpreter per sample, so the time
includes the interpreter's own start-up; that part is the same for both
trees).  With ``--baseline-src`` a second source tree is imported beside
this one under another package name; each round times every kernel once
in each tree, alternating which tree goes first, so drift in the
machine's speed reaches both alike.  The minimum over ``--repeats``
rounds is reported, with every sample, and whether the baseline's output
equals this tree's byte for byte (null for the import, which has no output).
The two CV matrices are made once, by this tree, from a generated default
study at seed 0 (400 subjects, 32 x 32 x 8): loaded, registered and
uncertainty-filtered as ``cardiofuse run`` does, then the train split's
features of the intermediate imaging branch (199 x 210) and of the EHR
branch (199 x 15) on the columns that run's GAT selects at one BLAS
thread, fixed here so the GAT need not run.
Beside ``speedup``, the ratio of the two minima, ``paired_speedup`` is the
median over rounds of baseline / current within a round, with its
quartiles: a round times both trees back to back, so drift in the
machine's speed cancels in its ratio, and on a kernel both trees share
the paired median stays within a few percent of 1 where the ratio of
minima can read 0.80 or 1.12 at 15 rounds.
For both ``svm.train_linear`` kernels the quality of the solution is
reported too: ``<tree>_objective`` is the hinge objective
0.5 |w|^2 + C sum_i max(0, 1 - y_i (w.x_i + b)) of each tree's classifier
on the same standardized input (computed here, not by the package), and
``objective_ratio`` is current / baseline, printed beside ``bit_identical``:
below 1 the current solver reached the lower objective.  For
``metrics.fit_score_squash`` the objective is the negative log-likelihood
of each tree's (a, b), and ``bit_identical`` compares what a run writes
from them, the decision curve of the 56 scores' risks: a fit by another
method can agree with the baseline's (a, b) to 1e-6 but not in every bit.
The generator's output is the sha256 of every file it wrote.
``values_equal`` says whether the outputs hold equal values whatever
their dtype (NaN equal to NaN, as in the EHR cells ``load_study`` leaves
missing): a tree that returns float32 where the other returns float64
reads ``bit_identical`` false but ``values_equal`` true when every value
survives the rounding.
After the timed rounds each kernel runs once more per tree under
``tracemalloc``, which numpy reports its allocations to; ``<tree>_peak_mib``
is the peak it allocated above what was allocated when it started (null for
the import, whose allocations are in a child process).

BLAS runs on one thread (``OPENBLAS_NUM_THREADS`` and its siblings are set
before numpy loads); the JSON records the thread count OpenBLAS reports,
``nproc``, the numpy, scipy and BLAS versions, and for each tree its git
sha, whether its ``src`` differs from that commit, and a digest of its
sources.
``--kernels`` times only the kernels it names (all by default), and builds
only the inputs they read: ``--kernels metrics.fit_score_squash`` generates
no study and fits no MPCA model.
This script is not a test and no CI step runs it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def load_tree(src: Path, alias: str) -> dict:
    """Import ``src/cardiofuse`` as package ``alias``; its kernel modules."""
    pkg = src / "cardiofuse"
    spec = importlib.util.spec_from_file_location(
        alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return {name: importlib.import_module(f"{alias}.{name}")
            for name in ("svm", "mpca", "tensor3", "registration", "fusion",
                         "pipeline", "synthetic", "metrics", "gat", "data")}


# the EHR columns the GAT of a default run at seed 0 selects, in rank order
CV_EHR_COLUMNS = ["informative_3", "informative_0", "noise_26", "informative_1",
                  "noise_18", "noise_14", "noise_11", "noise_37",
                  "informative_2", "noise_41", "noise_6", "noise_42",
                  "noise_34", "noise_3", "noise_36"]

# the CV fold whose EHR train rows the cap-bound train_linear kernel fits:
# at C = 1.0 it stops at the 15-epoch cap, 2,685 steps, with KKT gap 0.017
CAPPED_FOLD = 2


def seeded_problem(rng) -> dict:
    x = rng.normal(size=(200, 210))
    y = (x[:, :5].sum(axis=1) + rng.normal(scale=2.0, size=200) > 0)
    return {"x": x, "y": y.astype(np.int64)}


def seeded_stacks(rng) -> dict:
    basis = rng.normal(size=(32, 32, 8))
    stacks = [basis * rng.normal() + 0.5 * rng.normal(size=(32, 32, 8))
              for _ in range(280)]
    return {"stacks": stacks, "tensor": stacks[0]}


def seeded_mats(rng) -> dict:
    return {"mats": {1: rng.normal(size=(30, 32)), 2: rng.normal(size=(30, 32)),
                     3: rng.normal(size=(8, 8))}}


def seeded_hires(rng) -> dict:
    basis = rng.normal(size=(48, 48, 8))
    return {"hires_stacks": [basis * rng.normal()
                             + 0.5 * rng.normal(size=(48, 48, 8))
                             for _ in range(224)]}


def seeded_warp(rng) -> dict:
    return {"warp_stacks": {h: rng.normal(size=(h, h, 8)) for h in (32, 48)}}


def seeded_latents(rng) -> dict:
    return {"latents": rng.normal(size=(224, 33_856)),
            "latent_labels": rng.integers(0, 2, 224)}


# the seeded inputs' names and draws, in the order they are drawn from one
# generator seeded with 0
SEEDED = ((("x", "y"), seeded_problem), (("stacks", "tensor"), seeded_stacks),
          (("mats",), seeded_mats), (("hires_stacks",), seeded_hires),
          (("warp_stacks",), seeded_warp),
          (("latents", "latent_labels"), seeded_latents))
SEEDED_STEPS = {name: k for k, (names, _) in enumerate(SEEDED)
                for name in names}


class Inputs(dict):
    """Kernel inputs by name, each built on first use by ``BUILT[name]``
    (with this tree's modules) or as one of the ``SEEDED`` draws, so a run
    of a few kernels builds only what they read.

    A seeded draw continues the generator from where the draw before it
    left it, so each input holds the values it would in one pass over all
    of them; the draws before it are made again only if never made, and
    what they draw is dropped unless asked for.
    """

    def __init__(self, mods: dict):
        super().__init__()
        self.mods = mods
        # step -> the generator's state before that draw
        self.states = {0: np.random.default_rng(0).bit_generator.state}

    def __missing__(self, name: str):
        if name in BUILT:
            self[name] = BUILT[name](self)
            return self[name]
        step = SEEDED_STEPS[name]
        first = max(k for k in self.states if k <= step)
        rng = np.random.default_rng()
        rng.bit_generator.state = self.states[first]
        for k in range(first, step + 1):
            self.states[k] = rng.bit_generator.state
            drawn = SEEDED[k][1](rng)
        self.states[step + 1] = rng.bit_generator.state
        self.update(drawn)
        return drawn[name]


def default_dir(data: Inputs) -> tempfile.TemporaryDirectory:
    """A default study at seed 0, generated into a temporary directory
    (removed at exit)."""
    pipeline = data.mods["pipeline"]
    study_dir = tempfile.TemporaryDirectory()
    pipeline.stage_generate(pipeline.load_config(), study_dir.name)
    return study_dir


def default_study(data: Inputs) -> tuple:
    """(study, config) of a default run at seed 0 on ``default_dir``:
    loaded, registered and uncertainty-filtered as ``cardiofuse run``
    does."""
    pipeline = data.mods["pipeline"]
    cfg = pipeline.load_config()
    cfg["data_dir"] = data["default_dir"].name
    study = pipeline.stage_load(cfg)
    pipeline.stage_preprocess(study)
    pipeline.stage_filtering(study, cfg)
    return study, cfg


def cv_matrices(data: Inputs) -> dict:
    """Branch name -> (train features, labels) of a default run at seed 0."""
    pipeline, fusion = data.mods["pipeline"], data.mods["fusion"]
    study, cfg = data["default_study"]
    config = pipeline.pipeline_config(cfg, CV_EHR_COLUMNS)
    splits = fusion._splits(study)
    labels = study.labels(splits["train"])
    imaging, _, _ = fusion._imaging_features(
        splits, labels, ["short_axis", "four_chamber"], "intermediate", config)
    ehr = fusion._ehr_features(splits, study, config)
    return {"imaging": (imaging["train"], labels),
            "ehr": (ehr["train"], labels)}


def capped_rows(data: Inputs) -> tuple:
    """The EHR train rows of the ``CAPPED_FOLD`` CV fold."""
    ehr_x, ehr_y = data["cv"]["ehr"]
    val = data.mods["svm"].stratified_folds(ehr_y, 10, seed=0)[CAPPED_FOLD]
    train = np.setdiff1d(np.arange(len(ehr_y)), val)
    return ehr_x[train], ehr_y[train]


def gat_graph(data: Inputs):
    """The graph ``stage_select_features`` trains the GAT on."""
    study, cfg = data["default_study"]
    nodes = study.by_split("train", "validation")
    return data.mods["gat"].build_graph(
        study.tabular_matrix(nodes), target_degree=cfg["gat"]["target_degree"],
        labels=study.labels(nodes),
        train_mask=np.asarray([s.split == "train" for s in nodes]),
        val_mask=np.asarray([s.split == "validation" for s in nodes]),
        feature_names=study.feature_names)


def own_graph(gat, g):
    """``g`` as a ``SubjectGraph`` of ``gat``'s tree, which derives the edge
    list its own way."""
    return gat.SubjectGraph(**{f.name: getattr(g, f.name)
                               for f in dataclasses.fields(g) if f.init})


def gat_params(data: Inputs) -> dict:
    """Fixed parameters, from a generator of their own."""
    gat = data.mods["gat"]
    return gat.init_params(gat.GatConfig(), data["graph"].n_features,
                           np.random.default_rng(GAT_SEED))


def default_splits(data: Inputs) -> tuple:
    """(splits, train labels, config) of the default study."""
    study, cfg = data["default_study"]
    splits = data.mods["fusion"]._splits(study)
    return splits, study.labels(splits["train"]), cfg


def hires_splits(data: Inputs) -> tuple:
    """(splits, train labels, config) of an imaging branch on the 224
    ``imaging_hires``-shaped stacks: 224 train subjects whose short-axis
    stack is one of them and four-chamber stack another, and 56 validation
    and 56 test subjects drawn from them too (the stacks are shared, not
    copied).  The labels come from a generator of their own."""
    stacks, mods = data["hires_stacks"], data.mods
    rng = np.random.default_rng(3)
    n = len(stacks)

    def subjects(tag, count):
        picks = rng.permutation(n)[:count]
        return [mods["data"].Subject(
            id=f"{tag}{i}", label=int(rng.integers(0, 2)), split=tag,
            tensors={"short_axis": stacks[i],
                     "four_chamber": stacks[(i + n // 2) % n]})
            for i in picks]

    splits = {"train": subjects("train", n),
              "validation": subjects("validation", 56),
              "test": subjects("test", 56)}
    labels = np.array([s.label for s in splits["train"]], dtype=np.int64)
    return splits, labels, mods["pipeline"].load_config()


def squash_inputs(data: Inputs) -> tuple:
    """(scores, labels) from a generator of their own."""
    rng = np.random.default_rng(1)
    labels = (rng.random(SQUASH_N) < 0.4).astype(np.int64)
    return 1.5 * labels + rng.normal(size=SQUASH_N) - 0.5, labels


# input name -> its builder, for the inputs that are not seeded draws
BUILT = {"default_dir": default_dir, "default_study": default_study,
         "cv": cv_matrices, "capped": capped_rows, "graph": gat_graph,
         "gat_params": gat_params, "default_splits": default_splits,
         "hires_splits": hires_splits, "squash": squash_inputs}


# the warp kernels' affine: a small rotation, scaling and shift
WARP_MATRIX = 1.03 * np.array([[np.cos(0.04), -np.sin(0.04)],
                               [np.sin(0.04), np.cos(0.04)]])
WARP_OFFSET = np.array([0.7, -1.2])
SQUASH_N = 56  # scores of the metrics.fit_score_squash kernel
GAT_SEED = 2  # seeds the loss_and_grads parameters; the dropout RNG is +1
GENERATED_SUBJECTS = 40  # subjects of the synthetic.generate_synthetic kernel
SVM_C = 0.1  # the C of the svm.train_linear kernel
CAPPED_C = 1.0  # the C of the cap-bound svm.train_linear kernel
CAPPED = "svm.train_linear 179x15 capped"


def svm_objective(x: np.ndarray, y: np.ndarray, C: float, output) -> float:
    """Hinge objective of ``train_linear``'s output (weights, bias) on
    ``x``, standardized as ``train_linear`` standardizes it."""
    std = x.std(axis=0)
    x = (x - x.mean(axis=0)) / np.where(std < 1e-12, 1.0, std)
    y_pm = np.where(y == 1, 1.0, -1.0)
    w, b = output[0], float(output[1][0])
    margins = 1.0 - y_pm * (x @ w + b)
    return 0.5 * float(w @ w) + C * float(np.sum(np.maximum(margins, 0.0)))


def squash_nll(scores: np.ndarray, labels: np.ndarray, output) -> float:
    """Negative log-likelihood of ``fit_score_squash``'s (a, b), each risk
    clipped to [1e-12, 1 - 1e-12] as the fit clips it."""
    a, b = output[0]
    p = np.clip(1.0 / (1.0 + np.exp(np.clip(a * scores + b, -500, 500))),
                1e-12, 1 - 1e-12)
    return -float(np.sum(labels * np.log(p) + (1 - labels) * np.log(1 - p)))


# kernel name -> fn(inputs, output) -> a solution-quality number
QUALITY = {
    "svm.train_linear": lambda data, out: svm_objective(
        data["x"], data["y"], SVM_C, out),
    CAPPED: lambda data, out: svm_objective(*data["capped"], CAPPED_C, out),
    "metrics.fit_score_squash": lambda data, out: squash_nll(
        *data["squash"], out),
}


def squash_curve(mods: dict, data: dict, output) -> list:
    """The decision curve a run writes from the squash ``output``."""
    metrics = mods["current"]["metrics"]
    scores, labels = data["squash"]
    a, b = output[0]
    curve = metrics.dca(metrics.squash_scores(scores, (a, b)), labels)
    return [np.array(curve)]


# kernel name -> fn(modules, inputs, output) -> the arrays compared bit for
# bit in place of the output
COMPARED = {"metrics.fit_score_squash": squash_curve}

PRODUCT_CALLS = 300  # mode products per sample: one call is ~10 us
WARP_CALLS = 100  # warps per sample: one call is ~0.5 ms
GAT_CALLS = 10  # GAT epochs per sample: one call is ~10 ms


def kernels(src: Path, mods: dict, data: Inputs) -> dict:
    """name -> (input, factory, calls per fn); ``factory()`` reads the
    kernel's inputs and returns the fn that returns the output arrays or
    None."""
    svm, mpca, tensor3 = mods["svm"], mods["mpca"], mods["tensor3"]
    registration, synthetic = mods["registration"], mods["synthetic"]
    # the pipeline's CV grid and folds; grid_search_cv has no defaults for them
    svm_cfg = mods["pipeline"].DEFAULT_CONFIG["svm"]
    affine = registration.AffineTransform(WARP_MATRIX, WARP_OFFSET)

    def train(x, y, C):
        def fn():
            clf = svm.train_linear(x, y, C=C, epochs=15)
            return [clf.weights, np.array([clf.bias])]
        return fn

    def cross_validate():
        cv_data = data["cv"]

        def fn():
            out = []
            for x, y in cv_data.values():
                cv = svm.grid_search_cv(x, y, grid=svm_cfg["grid"],
                                        folds=svm_cfg["folds"], epochs=15)
                out += [np.array(cv.mean_aurocs), np.array([cv.chosen_c])]
            return out
        return fn

    def fit(stacks):
        def fn():
            model = mpca.fit(stacks, max_iters=1)
            return model.projections + [np.array(model.scatter_trace)]
        return fn

    def refine():
        stacks = data["hires_stacks"]
        dims_pass = mpca.fit(stacks, max_iters=0)
        # a tree before MPCA's started fit refits from scratch, as its
        # intermediate branch did
        start = ({"start": dims_pass}
                 if "start" in inspect.signature(mpca.fit).parameters else {})

        def fn():
            model, latents = mpca.fit(stacks, max_iters=1,
                                      target_dims=dims_pass.target_dims,
                                      latents=True, **start)
            return model.projections + [model.mean_tensor,
                                        np.array(model.scatter_trace), latents]
        return fn

    def products():
        tensor, mats = data["tensor"], data["mats"]

        def fn():
            out = []
            for _ in range(PRODUCT_CALLS // 3):
                out = [tensor3.mode_n_product(tensor, m, n)
                       for n, m in mats.items()]
            return out
        return fn

    def warp(stack):
        # every output stays alive until the loop ends, as the registered
        # stacks of a run do: a loop that dropped each one would time the
        # heap handing its pages back to the system as much as the gather
        def fn():
            return [registration.warp_stack(stack, affine)
                    for _ in range(WARP_CALLS)]
        return fn

    def epoch():
        graph, params = own_graph(mods["gat"], data["graph"]), data["gat_params"]

        def fn():
            # each call draws the same dropout masks from a fresh generator
            config = mods["gat"].GatConfig()
            for _ in range(GAT_CALLS):
                loss, grads = mods["gat"].loss_and_grads(
                    params, config, graph,
                    dropout_rng=np.random.default_rng(GAT_SEED + 1))
            return [np.array([loss])] + [grads[name] for name in sorted(grads)]
        return fn

    def ablate():
        gat = mods["gat"]
        graph = own_graph(gat, data["graph"])
        model = gat.GatModel(config=gat.GatConfig(), in_dim=graph.n_features,
                             params=data["gat_params"])
        theta = mods["pipeline"].DEFAULT_CONFIG["gat"]["theta"]

        def fn():
            report = gat.ablation_importance(model, graph, theta)
            return [np.array([report.baseline_auroc]), report.deltas,
                    report.ranking]
        return fn

    def rank():
        latents, labels = data["latents"], data["latent_labels"]
        return lambda: list(mpca.fisher_rank(latents, labels))

    def select(splits, labels, cfg):
        def fn():
            config = mods["pipeline"].pipeline_config(cfg, CV_EHR_COLUMNS)
            x, kappa, models = mods["fusion"]._imaging_features(
                splits, labels, ["short_axis", "four_chamber"],
                "intermediate", config)
            return imaging_outputs(x, kappa, models)
        return fn

    def imaging_outputs(x, kappa, models):
        # each split's layout too: decision_scores' sums depend on it
        out = [np.array([kappa])]
        for tag in ("train", "validation", "test"):
            out += [x[tag], np.array([x[tag].flags.c_contiguous,
                                      x[tag].flags.f_contiguous])]
        for model in models:
            out += model.projections + [model.mean_tensor,
                                        np.array(model.scatter_trace)]
        return out

    def project():
        stacks = data["hires_stacks"]
        model = mpca.fit(stacks, max_iters=0, target_dims=(46, 46, 8))
        return lambda: [mpca.transform_flat(model, stacks)]

    def load():
        study_dir = data["default_dir"].name

        def fn():
            # references to what was read, not copies: the comparison after
            # the timed rounds reads them
            table = mods["data"].load_study(study_dir)
            names = json.dumps([table.feature_names, table.exclusions,
                                [s.id for s in table.subjects]]).encode()
            out = [np.frombuffer(names, dtype=np.uint8),
                   np.array([(s.label, s.order_key) for s in table.subjects])]
            for s in table.subjects:
                out.append(s.tabular)
                for m in sorted(s.tensors):
                    out += [s.tensors[m], s.landmarks[m].points,
                            s.landmarks[m].uncertainties]
            return out
        return fn

    def generate():
        study_dir = tempfile.TemporaryDirectory()  # removed at exit

        def fn():
            synthetic.generate_synthetic(
                synthetic.SyntheticSpec(seed=0, n_subjects=GENERATED_SUBJECTS),
                study_dir.name)
            digest = hashlib.sha256()
            for path in sorted(Path(study_dir.name).rglob("*")):
                if path.is_file():
                    digest.update(path.name.encode() + b"\0"
                                  + path.read_bytes())
            return [np.frombuffer(digest.digest(), dtype=np.uint8)]
        return fn

    def squash():
        inputs = data["squash"]
        return lambda: [np.array(mods["metrics"].fit_score_squash(*inputs))]

    def cold_import():
        subprocess.run([sys.executable, "-c", "import cardiofuse.pipeline"],
                       env={**os.environ, "PYTHONPATH": str(src)}, check=True)

    return {
        "svm.train_linear": ("200x210, C=0.1, 15 epochs",
                             lambda: train(data["x"], data["y"], SVM_C), 1),
        CAPPED: ("default run's EHR CV fold 3 train rows, C=1.0, 15 epochs",
                 lambda: train(*data["capped"], CAPPED_C), 1),
        "svm.grid_search_cv": ("default run's 199x210 and 199x15, 4 C x 10"
                               " folds, 15 epochs", cross_validate, 1),
        "mpca.fit": ("280 x 32x32x8, max_iters=1",
                     lambda: fit(data["stacks"]), 1),
        "mpca.fit 48x48x8": ("224 x 48x48x8, max_iters=1",
                             lambda: fit(data["hires_stacks"]), 1),
        "mpca.fit 48x48x8 started": (
            "224 x 48x48x8, max_iters=1, latents, from its dims pass",
            refine, 1),
        "tensor3.mode_n_product": ("32x32x8 by 30x32 / 30x32 / 8x8, per call",
                                   products, PRODUCT_CALLS),
        "registration.warp_stack 32x32x8": (
            "32x32x8, per call", lambda: warp(data["warp_stacks"][32]),
            WARP_CALLS),
        "registration.warp_stack 48x48x8": (
            "48x48x8, per call", lambda: warp(data["warp_stacks"][48]),
            WARP_CALLS),
        "registration.warp_stack 48x48x8 float32": (
            "48x48x8 float32, per call",
            lambda: warp(data["warp_stacks"][48].astype(np.float32)),
            WARP_CALLS),
        "gat.loss_and_grads": ("seed-0 default graph, default GatConfig,"
                               " per call", epoch, GAT_CALLS),
        "gat.ablation_importance": ("seed-0 default graph, default GatConfig,"
                                    " 49 forwards", ablate, 1),
        "mpca.fisher_rank": ("224 x 33,856", rank, 1),
        "fusion._imaging_features": ("seed-0 default study, intermediate"
                                     " short_axis + four_chamber",
                                     lambda: select(*data["default_splits"]),
                                     1),
        "fusion._imaging_features 48x48x8": (
            "224 / 56 / 56 subjects of 48x48x8 stacks, intermediate"
            " short_axis + four_chamber",
            lambda: select(*data["hires_splits"]), 1),
        "mpca.transform_flat": ("224 x 48x48x8 onto 46x46x8",
                                project, 1),
        "data.load_study": ("generated default study, seed 0, 400 subjects,"
                            " 32x32x8", load, 1),
        "synthetic.generate_synthetic": (
            f"{GENERATED_SUBJECTS} subjects, 32x32x8", generate, 1),
        "metrics.fit_score_squash": (f"{SQUASH_N} scores", squash, 1),
        "import cardiofuse.pipeline": ("fresh interpreter, per process",
                                       lambda: cold_import, 1),
    }


def git_state(src: Path) -> dict:
    """HEAD of the checkout holding ``src``, and whether ``src`` differs."""
    def git(*cmd):
        proc = subprocess.run(["git", "-C", str(src), *cmd],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    return {"git_sha": sha,
            "src_modified": None if sha is None
            else bool(git("status", "--porcelain", "--", "."))}


def src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "cardiofuse").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def blas_threads_in_use() -> int | None:
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def timed_ms(fn, calls: int) -> float:
    start = time.perf_counter()
    fn()
    return 1e3 * (time.perf_counter() - start) / calls


def traced_peak_mib(fn) -> float:
    """Peak MiB traced while ``fn`` runs, above what was traced at its start."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--baseline-src", type=Path,
                   help="the src directory of a second tree to time")
    p.add_argument("--repeats", type=int, default=15,
                   help="rounds; the minimum over them is reported")
    p.add_argument("--kernels", nargs="+", metavar="NAME",
                   help="time only these kernels (default: all)")
    p.add_argument("--out", type=Path, required=True, help="JSON result")
    args = p.parse_args(argv)

    trees = {"current": ROOT / "src"}
    if args.baseline_src is not None:
        trees["baseline"] = args.baseline_src.resolve()
    mods = {tag: load_tree(src, f"cardiofuse_{tag}")
            for tag, src in trees.items()}
    data = Inputs(mods["current"])
    tables = {tag: kernels(src, mods[tag], data) for tag, src in trees.items()}
    names = args.kernels or list(tables["current"])
    unknown = sorted(set(names) - set(tables["current"]))
    if unknown:
        p.error(f"unknown kernels {unknown}; known:"
                f" {sorted(tables['current'])}")
    # only the chosen kernels' factories run, so only their inputs are built
    suites = {tag: {name: (table[name][0], table[name][1](), table[name][2])
                    for name in names}
              for tag, table in tables.items()}

    samples = {name: {tag: [] for tag in trees} for name in suites["current"]}
    outputs = {name: {} for name in samples}
    for name in samples:  # warm-up: imports, caches, first-call costs
        for tag in trees:
            outputs[name][tag] = suites[tag][name][1]()
    for r in range(args.repeats):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for name in samples:
            for tag in order:
                _, fn, calls = suites[tag][name]
                samples[name][tag].append(timed_ms(fn, calls))

    results = {}
    for name, (shape, _, _) in suites["current"].items():
        entry = {"input": shape}
        for tag in trees:
            entry[f"{tag}_min_ms"] = min(samples[name][tag])
            entry[f"{tag}_samples_ms"] = [round(s, 4) for s in samples[name][tag]]
            entry[f"{tag}_peak_mib"] = (
                None if outputs[name][tag] is None
                else round(traced_peak_mib(suites[tag][name][1]), 3))
        if name in QUALITY:
            for tag in trees:
                entry[f"{tag}_objective"] = QUALITY[name](
                    data, outputs[name][tag])
            if "baseline" in trees:
                entry["objective_ratio"] = (entry["current_objective"]
                                            / entry["baseline_objective"])
        if "baseline" in trees:
            entry["speedup"] = entry["baseline_min_ms"] / entry["current_min_ms"]
            q1, median, q3 = np.percentile(
                [b / c for b, c in zip(samples[name]["baseline"],
                                       samples[name]["current"])],
                [25, 50, 75])
            entry["paired_speedup"] = float(median)
            entry["paired_speedup_quartiles"] = [float(q1), float(q3)]
            current, baseline = outputs[name]["current"], outputs[name]["baseline"]
            if name in COMPARED:
                current, baseline = (COMPARED[name](mods, data, current),
                                     COMPARED[name](mods, data, baseline))
            entry["bit_identical"] = None if current is None else all(
                a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes()
                for a, b in zip(current, baseline))
            entry["values_equal"] = None if current is None else all(
                np.array_equal(a, b, equal_nan=True)
                for a, b in zip(current, baseline))
        results[name] = entry
        print(f"{name:<32} " + "  ".join(
            f"{tag} {entry[f'{tag}_min_ms']:9.3f} ms"
            + ("" if entry[f"{tag}_peak_mib"] is None
               else f" {entry[f'{tag}_peak_mib']:8.2f} MiB")
            for tag in trees)
            + (f"  x{entry['speedup']:.2f} (paired x{entry['paired_speedup']:.2f})"
               f"  identical {entry['bit_identical']}"
               if "baseline" in trees else "")
            + (f"  objective {entry['current_objective']:.6g}"
               + (f" (ratio {entry['objective_ratio']:.6f})"
                  if "baseline" in trees else "")
               if name in QUALITY else ""))

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "repeats": args.repeats,
        "trees": {tag: {**git_state(src), "src_sha256": src_digest(src)}
                  for tag, src in trees.items()},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "kernels": results,
    }
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Micro-benchmark of the pipeline's kernels on fixed seeded inputs.

Usage, from the repository root:

    python3 benchmarks/kernels.py --out BENCH.json
    python3 benchmarks/kernels.py --baseline-src ../other/src --out BENCH.json

Times ``svm.train_linear`` (200 x 210, C = 0.1, 15 epochs, as in a CV fit
of the benchmark's ``default`` workload; and at C = 1.0 and 15 epochs the
179 x 15 train rows of the third of the ten CV folds of the EHR matrix
below, where the ``epochs * m`` step cap binds, as it does in most of that
workload's EHR fits at C = 1.0), ``svm.grid_search_cv`` (4 C x 10 folds at
15 epochs, as in that workload, on each of the two CV matrices of a
default ``cardiofuse run`` at seed 0), ``mpca.fit`` (280 stacks of
32 x 32 x 8, one refinement pass) and ``tensor3.mode_n_product`` (a
32 x 32 x 8 stack by a 30 x 32, 30 x 32 and 8 x 8 matrix along modes 1, 2
and 3), ``registration.warp_stack`` (a 32 x 32 x 8 and a 48 x 48 x 8 stack
under a small rotation, scaling and shift, as in ``register_stack``),
``mpca.fisher_rank`` (224 x 33,856, the shape of the train latents of the
benchmark's ``imaging_hires`` workload), ``mpca.transform_flat`` (224
stacks of 48 x 48 x 8 onto 46 x 46 x 8), ``synthetic.generate_synthetic``
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
After the timed rounds each kernel runs once more per tree under
``tracemalloc``, which numpy reports its allocations to; ``<tree>_peak_mib``
is the peak it allocated above what was allocated when it started (null for
the import, whose allocations are in a child process).

BLAS runs on one thread (``OPENBLAS_NUM_THREADS`` and its siblings are set
before numpy loads); the JSON records the thread count OpenBLAS reports,
``nproc``, the numpy, scipy and BLAS versions, and for each tree its git
sha, whether its ``src`` differs from that commit, and a digest of its
sources.
This script is not a test and no CI step runs it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
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
                         "pipeline", "synthetic", "metrics")}


# the EHR columns the GAT of a default run at seed 0 selects, in rank order
CV_EHR_COLUMNS = ["informative_3", "informative_0", "noise_26", "informative_1",
                  "noise_18", "noise_14", "noise_11", "noise_37",
                  "informative_2", "noise_41", "noise_6", "noise_42",
                  "noise_34", "noise_3", "noise_36"]

# the CV fold whose EHR train rows the cap-bound train_linear kernel fits:
# at C = 1.0 it stops at the 15-epoch cap, 2,685 steps, with KKT gap 0.017
CAPPED_FOLD = 2


def cv_matrices(mods: dict) -> dict:
    """Branch name -> (train features, labels) of a default run at seed 0."""
    pipeline, fusion = mods["pipeline"], mods["fusion"]
    cfg = pipeline.load_config()
    with tempfile.TemporaryDirectory() as tmp:
        cfg["data_dir"] = tmp
        pipeline.stage_generate(cfg, tmp)
        study = pipeline.stage_load(cfg)
    pipeline.stage_preprocess(study)
    pipeline.stage_filtering(study, cfg)
    config = pipeline.pipeline_config(cfg, CV_EHR_COLUMNS)
    splits = fusion._splits(study)
    labels = study.labels(splits["train"])
    imaging, _, _ = fusion._imaging_features(
        splits, ["short_axis", "four_chamber"], "intermediate", config)
    ehr = fusion._ehr_features(splits, study, config)
    return {"imaging": (imaging["train"], labels),
            "ehr": (ehr["train"], labels)}


def inputs(mods: dict) -> dict:
    rng = np.random.default_rng(0)
    x = rng.normal(size=(200, 210))
    y = (x[:, :5].sum(axis=1) + rng.normal(scale=2.0, size=200) > 0)
    basis = rng.normal(size=(32, 32, 8))
    stacks = [basis * rng.normal() + 0.5 * rng.normal(size=(32, 32, 8))
              for _ in range(280)]
    mats = {1: rng.normal(size=(30, 32)), 2: rng.normal(size=(30, 32)),
            3: rng.normal(size=(8, 8))}
    angle, scale = 0.04, 1.03
    warp_matrix = scale * np.array([[np.cos(angle), -np.sin(angle)],
                                    [np.sin(angle), np.cos(angle)]])
    hires_basis = rng.normal(size=(48, 48, 8))
    hires = [hires_basis * rng.normal() + 0.5 * rng.normal(size=(48, 48, 8))
             for _ in range(224)]
    cv = cv_matrices(mods)
    ehr_x, ehr_y = cv["ehr"]
    val = mods["svm"].stratified_folds(ehr_y, 10, seed=0)[CAPPED_FOLD]
    train = np.setdiff1d(np.arange(len(ehr_y)), val)
    # a generator of its own, so the other kernels' inputs stay as they were
    squash_rng = np.random.default_rng(1)
    squash_labels = (squash_rng.random(SQUASH_N) < 0.4).astype(np.int64)
    squash_scores = (1.5 * squash_labels + squash_rng.normal(size=SQUASH_N)
                     - 0.5)
    return {"x": x, "y": y.astype(np.int64), "stacks": stacks,
            "tensor": stacks[0], "mats": mats,
            "warp_stacks": {h: rng.normal(size=(h, h, 8)) for h in (32, 48)},
            "warp_affine": (warp_matrix, np.array([0.7, -1.2])),
            "latents": rng.normal(size=(224, 33_856)),
            "latent_labels": rng.integers(0, 2, 224),
            "hires_stacks": hires, "cv": cv,
            "capped": (ehr_x[train], ehr_y[train]),
            "squash": (squash_scores, squash_labels)}


SQUASH_N = 56  # scores of the metrics.fit_score_squash kernel
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


def kernels(src: Path, mods: dict, data: dict) -> dict:
    """name -> (input, fn returning the output arrays or None, calls per fn)."""
    svm, mpca, tensor3 = mods["svm"], mods["mpca"], mods["tensor3"]
    registration, synthetic = mods["registration"], mods["synthetic"]
    study_dir = tempfile.TemporaryDirectory()  # removed at exit
    affine = registration.AffineTransform(*data["warp_affine"])
    hires_model = mpca.fit(data["hires_stacks"], max_iters=0,
                           target_dims=(46, 46, 8))

    def train(x, y, C):
        def fn():
            clf = svm.train_linear(x, y, C=C, epochs=15)
            return [clf.weights, np.array([clf.bias])]
        return fn

    def cross_validate():
        out = []
        for x, y in data["cv"].values():
            cv = svm.grid_search_cv(x, y, epochs=15)
            out += [np.array(cv.mean_aurocs), np.array([cv.chosen_c])]
        return out

    def fit():
        # the scatter trace is summed in another order now (equal to 1e-12
        # relative, see tests/test_mpca.py), so only projections are compared
        return mpca.fit(data["stacks"], max_iters=1).projections

    def products():
        out = []
        for _ in range(PRODUCT_CALLS // 3):
            out = [tensor3.mode_n_product(data["tensor"], m, n)
                   for n, m in data["mats"].items()]
        return out

    def warp(h):
        def fn():
            for _ in range(WARP_CALLS):
                out = registration.warp_stack(data["warp_stacks"][h], affine)
            return [out]
        return fn

    def rank():
        return list(mpca.fisher_rank(data["latents"], data["latent_labels"]))

    def project():
        return [mpca.transform_flat(hires_model, data["hires_stacks"])]

    def generate():
        synthetic.generate_synthetic(
            synthetic.SyntheticSpec(seed=0, n_subjects=GENERATED_SUBJECTS),
            study_dir.name)
        digest = hashlib.sha256()
        for path in sorted(Path(study_dir.name).rglob("*")):
            if path.is_file():
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
        return [np.frombuffer(digest.digest(), dtype=np.uint8)]

    def squash():
        return [np.array(mods["metrics"].fit_score_squash(*data["squash"]))]

    def cold_import():
        subprocess.run([sys.executable, "-c", "import cardiofuse.pipeline"],
                       env={**os.environ, "PYTHONPATH": str(src)}, check=True)

    return {
        "svm.train_linear": ("200x210, C=0.1, 15 epochs",
                             train(data["x"], data["y"], SVM_C), 1),
        CAPPED: ("default run's EHR CV fold 3 train rows, C=1.0, 15 epochs",
                 train(*data["capped"], CAPPED_C), 1),
        "svm.grid_search_cv": ("default run's 199x210 and 199x15, 4 C x 10"
                               " folds, 15 epochs", cross_validate, 1),
        "mpca.fit": ("280 x 32x32x8, max_iters=1", fit, 1),
        "tensor3.mode_n_product": ("32x32x8 by 30x32 / 30x32 / 8x8, per call",
                                   products, PRODUCT_CALLS),
        "registration.warp_stack 32x32x8": ("32x32x8, per call", warp(32),
                                            WARP_CALLS),
        "registration.warp_stack 48x48x8": ("48x48x8, per call", warp(48),
                                            WARP_CALLS),
        "mpca.fisher_rank": ("224 x 33,856", rank, 1),
        "mpca.transform_flat": ("224 x 48x48x8 onto 46x46x8",
                                project, 1),
        "synthetic.generate_synthetic": (
            f"{GENERATED_SUBJECTS} subjects, 32x32x8", generate, 1),
        "metrics.fit_score_squash": (f"{SQUASH_N} scores", squash, 1),
        "import cardiofuse.pipeline": ("fresh interpreter, per process",
                                       cold_import, 1),
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
    p.add_argument("--out", type=Path, required=True, help="JSON result")
    args = p.parse_args(argv)

    trees = {"current": ROOT / "src"}
    if args.baseline_src is not None:
        trees["baseline"] = args.baseline_src.resolve()
    mods = {tag: load_tree(src, f"cardiofuse_{tag}")
            for tag, src in trees.items()}
    data = inputs(mods["current"])
    suites = {tag: kernels(src, mods[tag], data) for tag, src in trees.items()}

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

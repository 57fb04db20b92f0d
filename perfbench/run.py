"""cardiofuse benchmark: seeded synthetic studies through ``pipeline.run_all``.

Usage, from the repository root:

    python3 perfbench/run.py --workload default --seed 0 --seconds 60 --trace 0

Set-up generates the workload's study from ``--seed`` in a fresh process
(``make_study.py``) and is timed as a whole.  This process then runs the
study through ``run_all`` closed-loop, one run after another, while they
fit in ``--seconds``; the first run is timed too, as a user's one run in a
fresh process would be.  Set-up is timed three times, spread over the
measurement: before the first run, once half of ``--seconds`` has passed,
and at the end.  ``run_s`` is the run time per run over the whole
measurement (the inverse of runs per second), ``setup_s`` the median
set-up; the median run and a tail percentile are printed too.  Every
run's outputs are checked.  With ``--trace 1`` there is one set-up,
a warm-up run, one untraced and one traced run, and the per-layer metrics
come from the trace.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full result, with the environment, every sample and the
span table, is also written under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers
from tracer import Tracer
from workloads import WORKLOADS, config_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = 1  # at most nproc; why one, see README.md
MIN_RUNS = 2  # test_scores.csv is compared across the runs of one invocation
SETUPS = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), default="default")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the generated study (default 0)")
    p.add_argument("--seconds", type=float, default=60.0,
                   help="measurement time; at least two runs and three "
                        "set-ups are made")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: untraced and traced run, per-layer metrics")
    return p.parse_args(argv)


def pin_blas_threads() -> int:
    """Let BLAS use ``BLAS_THREADS`` threads, here and in set-up
    processes; returns nproc."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def blas_threads_in_use() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy as np

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


def environment(args, nproc: int) -> dict:
    """What a result depends on besides the code."""
    import numpy as np
    import scipy

    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cardiofuse").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads_in_use(),
        "nproc": nproc,
        "machine": platform.machine(),
    }


def check_outputs(out: Path, reference_scores: bytes | None
                  ) -> tuple[list[str], dict, bytes]:
    """(problems, quality metrics, test_scores.csv bytes) of one run."""
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"], {}, b""
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    problems = [f"artifact {key} listed but missing: {path}"
                for key, path in manifest["artifacts"].items()
                if not Path(path).exists()]
    problems += [f"{name} missing" for name in
                 ("test_scores.csv", "eval_report.json", "segment_metrics.json")
                 if not (out / name).is_file()]
    if problems:
        return problems, {}, b""
    scores_bytes = (out / "test_scores.csv").read_bytes()
    rows = scores_bytes.decode("utf-8").splitlines()[1:]
    scores = [float(row.rsplit(",", 1)[1]) for row in rows]
    if not scores or not all(math.isfinite(s) for s in scores):
        problems.append(f"test scores empty or not finite ({len(scores)} rows)")
    if reference_scores is not None and scores_bytes != reference_scores:
        problems.append("test_scores.csv differs from the first run's")
    report = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))
    segments = json.loads((out / "segment_metrics.json").read_text(
        encoding="utf-8"))
    quality = {
        "test_auroc": report["auroc"],
        "test_accuracy": report["accuracy"],
        "test_mcc": report["mcc"],
        "segment_auroc_mean": (statistics.fmean(s["auroc"] for s in segments)
                               if segments else math.nan),
    }
    problems += [f"{k} is not finite: {v}" for k, v in quality.items()
                 if not math.isfinite(v)]
    return problems, quality, scores_bytes


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(samples)[max(math.ceil(p / 100 * n) - 1, 0)]


class Session:
    """The set-ups and runs of one invocation."""

    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.study = work / "study"
        self.cfg = config_for(args.workload, args.seed, str(self.study))
        self.setup_s: list[float] = []
        self.runs: list[dict] = []  # checked runs: kind, run_s, stages
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.reference: bytes | None = None
        self.quality: dict = {}
        self.peak_rss_mb = math.nan

    def setup(self) -> None:
        """Time one fresh import-and-generate process."""
        shutil.rmtree(self.study, ignore_errors=True)
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "make_study.py"),
                        self.args.workload, str(self.args.seed),
                        str(self.study)], cwd=ROOT).check_returncode()
        self.setup_s.append(time.perf_counter() - start)

    def run(self, kind: str, tracer=None) -> bool:
        """One timed and checked ``run_all``; False if it raised or failed
        a check."""
        from cardiofuse import pipeline

        self.attempted += 1
        out = self.work / f"run{self.attempted}"
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            pipeline.run_all(self.cfg, out)
        except Exception:  # a failed run is counted and reported, not raised
            self.failed += 1
            self.problems.append(f"run {self.attempted} raised:\n"
                                 f"{traceback.format_exc()}")
            return False
        finally:
            run_s = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        if self.attempted == 1:
            self.peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024)
        problems, self.quality, scores = check_outputs(out, self.reference)
        if self.reference is None:
            self.reference = scores
        if problems:
            self.failed += 1
            self.problems += [f"run {self.attempted}: {p}" for p in problems]
            return False
        manifest = json.loads((out / "manifest.json").read_text(
            encoding="utf-8"))
        self.runs.append({"kind": kind, "run_s": run_s,
                          "stages": layers.stage_metrics(manifest)})
        shutil.rmtree(out)
        return True

    def timed(self) -> list[dict]:
        return [r for r in self.runs if r["kind"] == "timed"]

    def measure(self) -> None:
        """Set-up, then timed runs while they fit in ``--seconds``; the
        other set-ups fall due evenly through ``--seconds``, the last at
        the end."""
        start = time.perf_counter()
        self.setup()
        while self.run("timed"):
            spent = time.perf_counter() - start
            due = 1 + int((SETUPS - 1) * spent / self.args.seconds)
            while len(self.setup_s) < min(due, SETUPS - 1):
                self.setup()
            spent = time.perf_counter() - start
            need = (statistics.median(r["run_s"] for r in self.runs)
                    + (SETUPS - len(self.setup_s))
                    * statistics.median(self.setup_s))
            if len(self.runs) >= MIN_RUNS and spent + need > self.args.seconds:
                break
        else:
            return
        while len(self.setup_s) < SETUPS:
            self.setup()

    def measure_traced(self):
        """Set-up, warm-up, one untraced and one traced run; the tracer, or
        None if a run failed."""
        self.setup()
        tracer = Tracer(layers.OBSERVERS)
        if self.run("warmup") and self.run("timed") and self.run("traced",
                                                                 tracer):
            return tracer
        return None


def collect_metrics(session: Session, tracer) -> tuple[dict, dict]:
    """(metrics of the JSON line, metrics printed only), name -> (value, unit).

    MCC at the pipeline's score > 0 operating point varies too much between
    seeds to bound (README.md); untraced runs print it, and traced runs
    report it among the per-layer metrics of ``metrics``.
    """
    if session.failed:
        return {}, {}
    quality = session.quality
    mcc = (quality["test_mcc"], "1")
    if session.args.trace:
        untraced, traced = session.runs[-2:]
        return {**untraced["stages"],
                **layers.per_layer_metrics(tracer),
                "metrics.test_mcc": mcc,
                "trace.run_delta_s": (traced["run_s"] - untraced["run_s"],
                                      "s")}, {}
    return {
        "run_s": (statistics.fmean(r["run_s"] for r in session.timed()), "s"),
        "setup_s": (statistics.median(session.setup_s), "s"),
        "peak_rss_mb": (session.peak_rss_mb, "MB"),
        "test_auroc": (quality["test_auroc"], "1"),
        "test_accuracy": (quality["test_accuracy"], "1"),
        "segment_auroc_mean": (quality["segment_auroc_mean"], "1"),
    }, {"run_median_s": (statistics.median(r["run_s"] for r in session.timed()),
                         "s"),
        "test_mcc": mcc}


def main(argv=None) -> int:
    if not (SRC / "cardiofuse" / "__init__.py").is_file():
        print(f"error: no cardiofuse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    nproc = pin_blas_threads()
    env = environment(args, nproc)

    work = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    session = Session(args, work)
    tracer = None
    try:
        if args.trace:
            tracer = session.measure_traced()
        else:
            session.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = max(session.attempted, 1)
    problems = list(session.problems)
    if tracer is not None:
        problems += layers.count_checks(session.cfg, tracer)
    metrics, printed_only = collect_metrics(session, tracer)
    correct = not problems and bool(metrics)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    if tracer is not None:
        print("\n".join(layers.span_lines(tracer.span_table())))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"runs {attempted}  failed_ratio {session.failed / attempted:.3f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>14.6g} {unit}")
    for name, (value, unit) in printed_only.items():
        print(f"{name:<36} {value:>14.6g} {unit}  (printed only)")
    run_s = [r["run_s"] for r in session.timed()]
    tail = tail_percentile(run_s)
    print(f"run_s samples {[round(s, 3) for s in run_s]}; " + (
        f"p{tail[0]} {tail[1]:.4f} s" if tail
        else "no percentile has 10 samples beyond it"))
    print(f"setup_s samples {[round(s, 3) for s in session.setup_s]}")
    print("env " + json.dumps(env, sort_keys=True))

    final = {"correct": correct, "attempted": attempted,
             "failed": session.failed,
             "metrics": {k: {"value": v, "unit": u}
                         for k, (v, u) in metrics.items()}}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                   f"{stamp}-{os.getpid()}.json").write_text(
        json.dumps({**final, "env": env, "setup_s": session.setup_s,
                    "runs": session.runs,
                    "spans": tracer.span_table() if tracer else None,
                    "problems": problems},
                   indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

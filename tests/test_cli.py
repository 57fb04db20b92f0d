"""CLI and pipeline-orchestration tests on a miniature synthetic study."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cardiofuse import cli, pipeline

ROOT = Path(__file__).resolve().parent.parent

SMALL_SYNTHETIC = {
    "n_subjects": 60,
    "dims": [10, 10, 3],
    "corrupted_fraction": 0.1,
}
FAST_OVERRIDES = {
    "synthetic": SMALL_SYNTHETIC,
    "split": {"test_segments": 2},
    "svm": {"fixed_c": 0.1, "epochs": 30},
    "mpca": {"kappa": 30},
    "gat": {"epochs": 15, "hidden_dims": [8, 8], "target_degree": 5},
    "filtering": {"Q": 5, "eval_epochs": 20},
}


def run_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    """A fresh interpreter with this tree's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def write_config(tmp_path, **extra) -> Path:
    cfg = dict(FAST_OVERRIDES)
    cfg["data_dir"] = str(tmp_path / "data")
    cfg["out_dir"] = str(tmp_path / "out")
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


class TestConfig:
    def test_defaults_complete(self):
        cfg = pipeline.load_config()
        for key in ("seed", "data_dir", "out_dir", "split", "clean",
                    "filtering", "gat", "mpca", "svm", "fusion", "stages"):
            assert key in cfg

    def test_overrides_deep_merge(self):
        cfg = pipeline.load_config(overrides={"svm": {"epochs": 5}})
        assert cfg["svm"]["epochs"] == 5
        assert cfg["svm"]["folds"] == 10  # untouched sibling key

    def test_file_then_overrides(self, tmp_path):
        path = write_config(tmp_path)
        cfg = pipeline.load_config(path, {"seed": 99})
        assert cfg["seed"] == 99
        assert cfg["svm"]["fixed_c"] == 0.1

    def test_unknown_override_key_names_dotted_path(self):
        with pytest.raises(ValueError, match="'svm.epoch'"):
            pipeline.load_config(overrides={"svm": {"epoch": 5}})
        with pytest.raises(ValueError, match="'sed'"):
            pipeline.load_config(overrides={"sed": 1})

    def test_unknown_file_key_names_file_and_path(self, tmp_path):
        path = write_config(tmp_path, gat={"epochs": 5, "head": 2})
        with pytest.raises(ValueError, match="config.json: .*'gat.head'"):
            pipeline.load_config(path)
        with pytest.raises(SystemExit, match="'gat.head'"):
            cli.main(["run", "--config", str(path)])

    def test_non_object_config_names_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ValueError, match="config.json: the config must "
                                             "be a JSON object, not list"):
            pipeline.load_config(path)
        proc = run_python("-m", "cardiofuse.cli", "run", "--config", str(path),
                          cwd=tmp_path)
        assert proc.returncode == 1
        assert proc.stderr.startswith("bad config: ")
        assert "config.json" in proc.stderr and "Traceback" not in proc.stderr

    def test_non_object_section_names_dotted_path(self, tmp_path):
        path = write_config(tmp_path, svm=[1])
        with pytest.raises(SystemExit, match="bad config: .*'svm' must be a "
                                             "JSON object, not list"):
            cli.main(["run", "--config", str(path)])
        with pytest.raises(ValueError, match="'synthetic' must be"):
            pipeline.load_config(overrides={"synthetic": 3})

    def test_removed_late_weights_key_rejected(self):
        # late fusion always fits its weights on validation scores
        with pytest.raises(ValueError, match="'fusion.late_weights'"):
            pipeline.load_config(
                overrides={"fusion": {"late_weights": [1.0, 1.0]}})

    def test_synthetic_keys_are_spec_fields(self):
        cfg = pipeline.load_config(overrides={
            "synthetic": {"n_subjects": 50, "informative_fraction": {"ehr": 1}}})
        assert cfg["synthetic"]["n_subjects"] == 50
        with pytest.raises(ValueError, match="'synthetic.n_subject'"):
            pipeline.load_config(overrides={"synthetic": {"n_subject": 50}})


def test_cli_import_loads_no_scipy():
    """The package's only scipy use is `sparse`, which the GAT imports when
    it first runs; importing the CLI must load no scipy module at all, so
    neither `sparse` nor the `ndimage`, `stats` or `optimize` it once used."""
    proc = run_python("-c", "import sys, cardiofuse.cli; print(sorted("
                      "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestRunCommand:
    def test_all_stages_disabled_exits_zero(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        stages = [f"--stage={name}=off"
                  for name in pipeline.DEFAULT_CONFIG["stages"]]
        rc = cli.main(["run", "--config", str(cfg_path)] + stages)
        assert rc == 0
        manifest = json.loads(
            (tmp_path / "out" / "manifest.json").read_text())
        assert manifest["stages"] == []

    def test_full_run_produces_all_artifacts(self, tmp_path):
        cfg_path = write_config(tmp_path)
        rc = cli.main(["run", "--config", str(cfg_path),
                       "--stage", "generate=on"])
        assert rc == 0
        out = tmp_path / "out"
        for name in ("manifest.json", "eval_report.json", "dca_curve.csv",
                     "dca_curve.svg", "filter_report.json",
                     "feature_importance.csv", "run_manifest.json",
                     "segment_metrics.json", "test_scores.csv"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        for path in manifest["artifacts"].values():
            assert Path(path).exists()

    def test_manifest_records_gat_convergence(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path),
                         "--stage", "generate=on"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        gat_run = manifest["gat"]
        assert gat_run["epochs"] == FAST_OVERRIDES["gat"]["epochs"]
        for key in ("loss_first", "loss_last", "loss_min"):
            assert np.isfinite(gat_run[key]) and gat_run[key] > 0.0
        assert gat_run["loss_min"] <= min(gat_run["loss_first"],
                                          gat_run["loss_last"])
        # one self-loop per node plus both directions of each undirected pair
        n_nodes = round(gat_run["attention_edges"]
                        / (1.0 + gat_run["mean_degree"]))
        assert 0 < n_nodes <= SMALL_SYNTHETIC["n_subjects"]
        assert gat_run["attention_edges"] == pytest.approx(
            n_nodes * (1.0 + gat_run["mean_degree"]))
        assert (gat_run["attention_edges"] - n_nodes) % 2 == 0
        assert abs(gat_run["mean_degree"]
                   - FAST_OVERRIDES["gat"]["target_degree"]) <= 1.0

    def test_manifest_records_running_peak_rss(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path),
                         "--stage", "generate=on"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        peaks = [s["max_rss_mb"] for s in manifest["stages"]]
        assert len(peaks) == 8  # generate, load and the six pipeline stages
        assert peaks[0] > 0
        # a running maximum: never falls from one stage to the next
        assert peaks == sorted(peaks)

    def test_manifest_records_load(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert cli.main(["generate", "--config", str(cfg_path)]) == 0
        tensor = sorted((tmp_path / "data" / "tensors").glob("*.hft"))[0]
        tensor.unlink()
        sid = tensor.name.split("_")[0]
        off = [f"--stage={name}=off" for name in
               ("filtering", "select_features", "train", "evaluate", "dca")]
        assert cli.main(["run", "--config", str(cfg_path)] + off) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        load_entry, preprocess = manifest["stages"]
        assert (load_entry["name"], preprocess["name"]) == ("load",
                                                            "preprocess")
        assert load_entry["wall_clock_s"] >= 0.0
        assert 0.0 < load_entry["max_rss_mb"] <= preprocess["max_rss_mb"]
        load = manifest["load"]
        assert load["exclusions"] == [
            {"subject_id": sid, "reason": f"missing tensor {tensor.name}"}]
        # the synthetic study pushes a column over the missing-cell limit
        dropped = load["cleaning"]["dropped_columns"]
        imputed = load["cleaning"]["imputed_counts"]
        assert dropped and imputed and not set(dropped) & set(imputed)
        assert all(n > 0 for n in imputed.values())
        splits = load["splits"]
        assert sum(s["subjects"] for s in splits.values()) == (
            SMALL_SYNTHETIC["n_subjects"] - 1)
        assert splits["test"]["subjects"] == round(0.3 * 59)
        for s in splits.values():
            assert 0.0 < s["label_1_share"] < 1.0

    def test_failed_stage_writes_manifest_naming_stage_and_subject(
            self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert cli.main(["generate", "--config", str(cfg_path)]) == 0
        landmarks = tmp_path / "data" / "landmarks.csv"
        header, *rows = landmarks.read_text().splitlines()
        sid, modality = rows[0].split(",")[:2]
        bad = []
        for row in rows:  # put the subject's three points on one line
            cells = row.split(",")
            if cells[:2] == [sid, modality]:
                cells[3] = cells[4] = str(float(cells[2]))
            bad.append(",".join(cells))
        landmarks.write_text("\n".join([header, *bad]) + "\n")
        assert cli.main(["run", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"run failed in preprocess: subject {sid}")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failed_stage"] == "preprocess"
        assert manifest["error"] == (f"DegenerateLandmarksError: subject {sid}"
                                     f" {modality} landmarks are collinear")
        assert [s["name"] for s in manifest["stages"]] == ["load"]

    def test_run_manifest_records_cv_curve_and_mpca(self, tmp_path):
        cfg_path = write_config(tmp_path, svm={"fixed_c": None, "epochs": 5,
                                               "folds": 3,
                                               "grid": [0.01, 1.0]})
        assert cli.main(["run", "--config", str(cfg_path),
                         "--stage", "generate=on"]) == 0
        run = json.loads((tmp_path / "out" / "run_manifest.json").read_text())
        imaging, ehr = run["branches"]
        for branch in (imaging, ehr):
            assert branch["cv_grid"] == [0.01, 1.0]
            assert len(branch["cv_mean_aurocs"]) == 2
            assert all(0.0 <= a <= 1.0 for a in branch["cv_mean_aurocs"])
        assert ehr["mpca"] is None
        assert len(imaging["mpca"]) == 2  # short-axis and four-chamber
        for model in imaging["mpca"]:
            assert model["target_dims"] == imaging["mpca"][0]["target_dims"]
            # one entry before the refinement pass and one after it
            assert len(model["scatter_trace"]) == 2
            assert model["scatter_trace"][1] >= model["scatter_trace"][0] * (
                1 - 1e-9)

    def test_rerun_same_seed_byte_identical_report(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert cli.main(["run", "--config", str(cfg_path),
                         "--stage", "generate=on"]) == 0
        first = (tmp_path / "out" / "eval_report.json").read_bytes()
        assert cli.main(["run", "--config", str(cfg_path),
                         "--stage", "generate=on"]) == 0
        second = (tmp_path / "out" / "eval_report.json").read_bytes()
        assert first == second

    def test_missing_modality_aborts_nonzero(self, tmp_path, capsys):
        cfg_path = write_config(
            tmp_path, fusion={"strategy": "early",
                              "modalities": ["missing_view"]})
        rc = cli.main(["run", "--config", str(cfg_path),
                       "--stage", "generate=on"])
        assert rc != 0
        assert "run failed" in capsys.readouterr().err

    def test_bad_stage_toggle_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path)
        with pytest.raises(SystemExit):
            cli.main(["run", "--config", str(cfg_path),
                      "--stage", "nonsense=maybe"])

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path)
        alt = tmp_path / "alt_out"
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(alt))
        stages = [f"--stage={name}=off"
                  for name in pipeline.DEFAULT_CONFIG["stages"]]
        assert cli.main(["run", "--config", str(cfg_path)] + stages) == 0
        assert (alt / "manifest.json").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = write_config(tmp_path)
        stages = [f"--stage={name}=off"
                  for name in pipeline.DEFAULT_CONFIG["stages"]]
        assert cli.main(["run", "--config", str(cfg_path), "--seed", "77"]
                        + stages) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["seed"] == 77


class TestSingleClassSegment:
    def test_segment_auroc_undefined_not_fatal(self):
        from types import SimpleNamespace
        study = SimpleNamespace(subjects=[
            SimpleNamespace(id=f"s{i}", label=label)
            for i, label in enumerate([0, 1, 1, 1])])
        result = SimpleNamespace(ids={"test": ["s0", "s1", "s2", "s3"]},
                                 fused_scores={"test": np.array(
                                     [-1.0, 2.0, 0.5, -0.5])},
                                 segments=[1, 1, 2, 2])
        first, second = pipeline.segment_metrics(result, study)
        assert first["auroc"] == 1.0 and "auroc_undefined" not in first
        assert second["auroc"] is None
        assert second["auroc_undefined"] == ("every subject in the segment"
                                             " has label 1")
        assert second["n"] == 2 and second["accuracy"] == 0.5

    def test_run_with_single_class_segments_completes(self, tmp_path,
                                                      capsys):
        # 80 subjects in 12 test segments leave some segments one-class
        cfg_path = write_config(
            tmp_path, synthetic=dict(SMALL_SYNTHETIC, n_subjects=80),
            split={"test_segments": 12})
        assert cli.main(["run", "--config", str(cfg_path),
                         "--stage", "generate=on"]) == 0
        out = tmp_path / "out"
        assert (out / "manifest.json").exists()
        segments = json.loads((out / "segment_metrics.json").read_text())
        undefined = [s for s in segments if s["auroc"] is None]
        assert undefined and len(undefined) < len(segments)
        for s in undefined:
            assert s["auroc_undefined"].startswith("every subject")
        # compare averages the segments that have an AUROC
        assert cli.main(["compare", str(out / "manifest.json"),
                         "--out-dir", str(tmp_path / "cmp")]) == 0
        defined = [s["auroc"] for s in segments if s["auroc"] is not None]
        row = (tmp_path / "cmp" / "comparison.csv").read_text().split("\n")[1]
        assert float(row.split(",")[1]) == pytest.approx(np.mean(defined),
                                                         rel=1e-5)


class TestStageSubcommands:
    def test_generate(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert cli.main(["generate", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "data" / "labels.csv").exists()
        assert "generated" in capsys.readouterr().out

    def test_only_generate_run_and_compare(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        assert "{generate,run,compare}" in capsys.readouterr().out

    def test_run_through_train_skips_evaluation(self, tmp_path):
        cfg_path = write_config(tmp_path)
        cli.main(["generate", "--config", str(cfg_path)])
        assert cli.main(["run", "--config", str(cfg_path),
                         "--stage", "evaluate=off", "--stage", "dca=off"]) == 0
        out = tmp_path / "out"
        for name in ("filter_report.json", "feature_importance.csv",
                     "test_scores.csv", "run_manifest.json"):
            assert (out / name).exists(), name
        for name in ("eval_report.json", "segment_metrics.json",
                     "dca_curve.csv"):
            assert not (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert [s["name"] for s in manifest["stages"]] == [
            "load", "preprocess", "filtering", "select_features", "train"]


class TestCompare:
    def _run(self, tmp_path, name, strategy, modalities):
        cfg_path = write_config(
            tmp_path, out_dir=str(tmp_path / name),
            fusion={"strategy": strategy, "modalities": modalities})
        assert cli.main(["run", "--config", str(cfg_path),
                         "--stage", "generate=on", "--stage", "dca=off"]) == 0
        return tmp_path / name / "manifest.json"

    def test_compare_self_zero_delta(self, tmp_path, capsys):
        m = self._run(tmp_path, "uni", "early", ["short_axis"])
        out_dir = tmp_path / "cmp"
        assert cli.main(["compare", str(m), str(m),
                         "--out-dir", str(out_dir)]) == 0
        rows = (out_dir / "comparison.csv").read_text().strip().split("\n")
        assert len(rows) == 3  # header + 2 identical entries
        assert rows[1] == rows[2]

    def test_compare_orders_by_auroc_and_emits_svg(self, tmp_path):
        m1 = self._run(tmp_path, "uni", "early", ["short_axis"])
        m2 = self._run(tmp_path, "tri", "hybrid_intermediate",
                       ["short_axis", "four_chamber", "ehr"])
        out_dir = tmp_path / "cmp"
        assert cli.main(["compare", str(m1), str(m2),
                         "--out-dir", str(out_dir)]) == 0
        rows = (out_dir / "comparison.csv").read_text().strip().split("\n")
        aurocs = [float(r.split(",")[1]) for r in rows[1:]]
        assert aurocs == sorted(aurocs, reverse=True)
        svg = (out_dir / "comparison.svg").read_text()
        assert svg.startswith("<svg") and "auroc" in svg
        # std columns populated because the runs used >= 2 segments
        assert all(len(r.split(",")) == 7 for r in rows[1:])

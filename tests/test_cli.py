"""CLI and pipeline-orchestration tests on a miniature synthetic study."""

import json
from pathlib import Path

import numpy as np
import pytest

from cardiofuse import cli, pipeline

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


class TestStageSubcommands:
    def test_generate(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert cli.main(["generate", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "data" / "labels.csv").exists()
        assert "generated" in capsys.readouterr().out

    def test_preprocess_runs_prefix_stages(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        cli.main(["generate", "--config", str(cfg_path)])
        assert cli.main(["preprocess", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        assert (out / "filter_report.json").exists()
        assert not (out / "eval_report.json").exists()

    def test_evaluate_runs_through_metrics(self, tmp_path):
        cfg_path = write_config(tmp_path)
        cli.main(["generate", "--config", str(cfg_path)])
        assert cli.main(["evaluate", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "out" / "eval_report.json").read_text())
        assert 0.0 <= report["auroc"] <= 1.0


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

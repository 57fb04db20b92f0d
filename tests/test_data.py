"""On-disk format, study assembly, cleaning, and splitting tests."""

import csv
import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest

from cardiofuse import data, synthetic
from cardiofuse.data import (StudyFormatError, StudyTable, Subject,
                             chronological_split, carve_validation,
                             clean_tabular, load_study, read_tensor,
                             write_tensor)


class TestTensorFile:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(5, 4, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "t.hft"
        write_tensor(path, t)
        np.testing.assert_array_equal(read_tensor(path), t)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "t.hft"
        write_tensor(path, np.zeros((2, 3, 4)))
        raw = path.read_bytes()
        assert raw[:4] == b"HFT1"
        version, i1, i2, i3 = struct.unpack("<4I", raw[4:20])
        assert (version, i1, i2, i3) == (1, 2, 3, 4)
        assert len(raw) == 20 + 4 * 24

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.hft"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(StudyFormatError):
            read_tensor(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "trunc.hft"
        write_tensor(path, np.zeros((2, 2, 2)))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(StudyFormatError):
            read_tensor(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        path = tmp_path / "nonfinite.hft"
        write_tensor(path, np.zeros((2, 2, 2)))
        raw = bytearray(path.read_bytes())
        raw[-4:] = struct.pack("<f", bad)  # last entry, written past the check
        path.write_bytes(bytes(raw))
        with pytest.raises(StudyFormatError, match="non-finite"):
            read_tensor(path)

    def test_non_finite_or_wrong_rank_not_written(self, tmp_path):
        t = np.zeros((2, 2, 2))
        t[1, 1, 1] = np.nan
        for bad in (t, np.zeros((2, 3))):
            with pytest.raises(ValueError):
                write_tensor(tmp_path / "t.hft", bad)


def write_fixture_study(root: Path, n=3, missing_tensor_for=None,
                        missing_label_for=None):
    """Minimal hand-built study directory with n complete subjects."""
    (root / "tensors").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(42)
    sids = [f"p{i}" for i in range(n)]
    tensors = {}
    with open(root / "ehr.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["subject_id", "age", "bmi"])
        for i, sid in enumerate(sids):
            w.writerow([sid, 40 + i, 22.5 + i])
    with open(root / "labels.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["subject_id", "label", "screen_time"])
        for i, sid in enumerate(sids):
            if sid == missing_label_for:
                continue
            w.writerow([sid, i % 2, float(i)])
    with open(root / "landmarks.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["subject_id", "modality", "landmark_id", "x", "y",
                    "uncertainty"])
        for sid in sids:
            for modality in ("short_axis", "four_chamber"):
                for j in range(3):
                    w.writerow([sid, modality, j, 5.0 + j, 3.0 + 2 * j, 0.2])
    for sid in sids:
        for modality in ("short_axis", "four_chamber"):
            if sid == missing_tensor_for and modality == "four_chamber":
                continue
            t = rng.normal(size=(4, 4, 2))
            tensors[(sid, modality)] = t
            write_tensor(root / "tensors" / f"{sid}_{modality}.hft", t)
    return sids, tensors


class TestLoadStudy:
    def test_empty_directory_warns(self, tmp_path):
        with pytest.warns(UserWarning):
            table = load_study(tmp_path)
        assert table.subjects == []

    def test_complete_fixture_field_by_field(self, tmp_path):
        sids, tensors = write_fixture_study(tmp_path)
        table = load_study(tmp_path)
        assert table.ids() == sids
        assert table.feature_names == ["age", "bmi"]
        for i, sid in enumerate(sids):
            s = table.get(sid)
            assert s.label == i % 2
            assert s.order_key == float(i)
            np.testing.assert_allclose(s.tabular, [40 + i, 22.5 + i])
            for modality in ("short_axis", "four_chamber"):
                stored = tensors[(sid, modality)].astype(np.float32)
                np.testing.assert_array_equal(s.tensors[modality],
                                              stored.astype(np.float64))
                lm = s.landmarks[modality]
                np.testing.assert_allclose(lm.points[:, 0], [5.0, 6.0, 7.0])
                np.testing.assert_allclose(lm.uncertainties, 0.2)

    def test_missing_tensor_goes_to_exclusions(self, tmp_path):
        write_fixture_study(tmp_path, missing_tensor_for="p1")
        table = load_study(tmp_path)
        assert table.ids() == ["p0", "p2"]
        assert any(sid == "p1" and "tensor" in why
                   for sid, why in table.exclusions)

    def test_missing_label_goes_to_exclusions(self, tmp_path):
        write_fixture_study(tmp_path, missing_label_for="p2")
        table = load_study(tmp_path)
        assert table.ids() == ["p0", "p1"]
        assert ("p2", "missing label") in table.exclusions

    def test_duplicate_subject_rejected(self, tmp_path):
        write_fixture_study(tmp_path)
        with open(tmp_path / "ehr.csv", "a", newline="") as f:
            csv.writer(f).writerow(["p0", 1, 2])
        with pytest.raises(StudyFormatError):
            load_study(tmp_path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        write_fixture_study(tmp_path)
        with open(tmp_path / "ehr.csv", "a", newline="") as f:
            csv.writer(f).writerow(["p9", "young", 2])
        with pytest.raises(StudyFormatError):
            load_study(tmp_path)

    @pytest.mark.parametrize("name, row", [
        ("labels.csv", ["p1"]),
        ("landmarks.csv", ["p1", "short_axis", 0, 5.0]),
        ("ehr.csv", ["p1", 41]),
        ("labels.csv", ["p1", 2, 1.0]),
    ], ids=["short-label-row", "short-landmark-row", "short-ehr-row",
            "label-not-binary"])
    def test_malformed_row_names_file_and_subject(self, tmp_path, name, row):
        write_fixture_study(tmp_path)
        path = tmp_path / name
        with open(path, newline="") as f:
            rows = [r for r in csv.reader(f) if r[0] != "p1"]
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows(rows + [row])
        with pytest.raises(StudyFormatError, match=f"{name}: subject 'p1'"):
            load_study(tmp_path)

    def test_narrow_landmark_header_rejected(self, tmp_path):
        write_fixture_study(tmp_path)
        path = tmp_path / "landmarks.csv"
        with open(path, newline="") as f:
            rows = [r[:4] for r in csv.reader(f)]
        with open(path, "w", newline="") as f:
            csv.writer(f).writerows(rows)
        with pytest.raises(StudyFormatError, match="header needs 6 columns"):
            load_study(tmp_path)

    def test_malformed_header_rejected(self, tmp_path):
        write_fixture_study(tmp_path)
        text = (tmp_path / "ehr.csv").read_text()
        (tmp_path / "ehr.csv").write_text(text.replace("subject_id", "id", 1))
        with pytest.raises(StudyFormatError):
            load_study(tmp_path)


def make_table(values, splits=None, names=None):
    n, d = values.shape
    splits = splits or ["train"] * n
    subjects = [
        Subject(id=f"s{i}", tabular=values[i].copy(), label=i % 2,
                split=splits[i], order_key=float(i))
        for i in range(n)
    ]
    return StudyTable(subjects=subjects,
                      feature_names=names or [f"f{j}" for j in range(d)])


class TestCleanTabular:
    def test_no_missing_is_identity(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(10, 4))
        table = make_table(x)
        report = clean_tabular(table)
        assert report.dropped_columns == []
        assert report.imputed_counts == {}
        np.testing.assert_array_equal(table.tabular_matrix(), x)

    def test_six_percent_missing_column_dropped(self):
        x = np.ones((100, 3))
        x[:6, 1] = np.nan  # 6% > 5% threshold
        table = make_table(x)
        report = clean_tabular(table, max_missing_fraction=0.05)
        assert report.dropped_columns == ["f1"]
        assert table.feature_names == ["f0", "f2"]
        assert table.tabular_matrix().shape == (100, 2)

    def test_two_percent_missing_imputed_with_train_mean(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 2))
        missing_rows = [3, 17]
        for i in missing_rows:
            x[i, 0] = np.nan
        splits = ["train"] * 70 + ["test"] * 30
        table = make_table(x.copy(), splits)
        report = clean_tabular(table)
        assert report.imputed_counts == {"f0": 2}
        # oracle: recompute the training mean externally
        train_vals = [x[i, 0] for i in range(70) if i not in missing_rows]
        expected = np.mean(train_vals)
        for i in missing_rows:
            got = table.get(f"s{i}").tabular[0]
            assert got == pytest.approx(expected, abs=1e-12)

    def test_subject_count_unchanged(self):
        x = np.ones((20, 3))
        x[:3, 2] = np.nan
        table = make_table(x)
        clean_tabular(table)
        assert len(table.subjects) == 20

    def test_fully_missing_train_column_raises(self):
        x = np.ones((10, 2))
        x[:7, 1] = np.nan  # all train rows missing, but under 100% overall
        splits = ["train"] * 7 + ["test"] * 3
        table = make_table(x, splits)
        with pytest.raises(ValueError):
            clean_tabular(table, max_missing_fraction=0.9)


class TestChronologicalSplit:
    def test_all_train(self):
        table = make_table(np.zeros((8, 2)))
        chronological_split(table, train_fraction=1.0)
        assert all(s.split == "train" for s in table.subjects)

    def test_ten_subjects_documented_remainder_rule(self):
        table = make_table(np.zeros((10, 2)))
        chronological_split(table, train_fraction=0.7, test_segments=3)
        train = table.by_split("train")
        test = table.by_split("test")
        assert len(train) == 7 and len(test) == 3
        assert [s.segment for s in test] == [0, 1, 2]

    def test_uneven_segments_front_loaded(self):
        table = make_table(np.zeros((12, 2)))
        chronological_split(table, train_fraction=0.5, test_segments=4)
        sizes = [sum(1 for s in table.by_split("test") if s.segment == k)
                 for k in range(4)]
        assert sizes == [2, 2, 1, 1]

    def test_earliest_subjects_are_train(self):
        table = make_table(np.zeros((10, 2)))
        # reverse the screening order so ids and times disagree
        for i, s in enumerate(table.subjects):
            s.order_key = float(9 - i)
        chronological_split(table, train_fraction=0.5, test_segments=2)
        for s in table.subjects:
            assert (s.split == "train") == (s.order_key < 5)

    def test_missing_order_key_raises(self):
        table = make_table(np.zeros((4, 2)))
        table.subjects[2].order_key = None
        with pytest.raises(ValueError):
            chronological_split(table, 0.5)

    def test_partition(self):
        table = make_table(np.zeros((23, 2)))
        chronological_split(table, train_fraction=0.6, test_segments=5)
        tags = {s.split for s in table.subjects}
        assert tags == {"train", "test"}
        assert len(table.by_split("train")) + len(table.by_split("test")) == 23


class TestCarveValidation:
    def test_stratified_and_seeded(self):
        table = make_table(np.zeros((40, 2)))
        carve_validation(table, fraction=0.25, seed=3)
        val = table.by_split("validation")
        assert len(val) == 10
        labels = [s.label for s in val]
        assert labels.count(0) == 5 and labels.count(1) == 5

        table2 = make_table(np.zeros((40, 2)))
        carve_validation(table2, fraction=0.25, seed=3)
        assert sorted(s.id for s in val) == sorted(
            s.id for s in table2.by_split("validation"))


class TestSyntheticGenerator:
    def test_same_seed_byte_identical(self, tmp_path):
        spec = synthetic.SyntheticSpec(seed=5, n_subjects=12, dims=(8, 8, 2))
        synthetic.generate_synthetic(spec, tmp_path / "a")
        synthetic.generate_synthetic(spec, tmp_path / "b")
        files_a = sorted(p.relative_to(tmp_path / "a")
                         for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b")
                         for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes()

    def test_tensor_bytes_pinned(self, tmp_path):
        # sha256 over (file name, bytes) of every tensor, as the generator
        # wrote them before the blob images were computed once per class;
        # it also depends on numpy's random streams and its exp and sin
        spec = synthetic.SyntheticSpec(seed=3, n_subjects=12, dims=(16, 16, 4))
        synthetic.generate_synthetic(spec, tmp_path)
        digest = hashlib.sha256()
        paths = sorted((tmp_path / "tensors").iterdir())
        for path in paths:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert len(paths) == 24
        assert digest.hexdigest() == ("1f693b262cdf67111c761eadb0621d6f"
                                      "b98f2d3d6e9dd2172e2b7e2c014f8fd7")

    def test_generated_study_loads_cleanly(self, tmp_path):
        spec = synthetic.SyntheticSpec(seed=6, n_subjects=10, dims=(8, 8, 2),
                                       missing_cell_fraction=0.0,
                                       heavy_missing_columns=0)
        truth = synthetic.generate_synthetic(spec, tmp_path)
        table = load_study(tmp_path)
        assert len(table.subjects) == 10
        assert table.exclusions == []
        assert len(table.feature_names) == 49
        assert set(truth["corrupted_ids"]) <= set(table.ids())

    def test_noiseless_informative_feature_is_separable(self, tmp_path):
        spec = synthetic.SyntheticSpec(
            seed=7, n_subjects=40, dims=(8, 8, 2),
            n_informative_tabular=1, n_noise_tabular=3,
            tabular_effect=5.0, tabular_noise=0.0,
            informative_fraction={"short_axis": 1.0, "four_chamber": 1.0,
                                  "ehr": 1.0},
            missing_cell_fraction=0.0, heavy_missing_columns=0,
            corrupted_fraction=0.0,
        )
        synthetic.generate_synthetic(spec, tmp_path)
        table = load_study(tmp_path)
        x = table.tabular_matrix()
        y = table.labels()
        from cardiofuse.metrics import auroc
        assert auroc(x[:, 0], y) == 1.0

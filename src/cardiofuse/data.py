"""On-disk dataset formats, assembly, cleaning and splitting.

A study directory holds:

- ``tensors/<subject>_<modality>.hft`` -- binary tensor files (magic
  ``HFT1``, u32 version=1, three u32 dims, float32 little-endian payload
  in canonical last-index-fastest layout);
- ``ehr.csv`` -- header row, ``subject_id`` first, numeric feature columns
  (empty cell = missing);
- ``labels.csv`` -- ``subject_id,label,screen_time`` with label in {0,1}
  and a numeric ordering key for the chronological split;
- ``landmarks.csv`` -- ``subject_id,modality,landmark_id,x,y,uncertainty``.

Values are stored in float32 but all in-memory arithmetic is float64.
"""

from __future__ import annotations

import csv
import math
import struct
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .registration import MODALITIES, N_LANDMARKS, LandmarkSet, collinear

TENSOR_MAGIC = b"HFT1"
TENSOR_VERSION = 1


class StudyFormatError(ValueError):
    """Malformed study file (bad header, duplicate rows, bad cells)."""


# --- tensor files ----------------------------------------------------------

def write_tensor(path, t: np.ndarray) -> None:
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError("tensor files hold third-order tensors")
    if not np.all(np.isfinite(t)):
        raise ValueError("refusing to write non-finite tensor values")
    with open(path, "wb") as f:
        f.write(TENSOR_MAGIC)
        f.write(struct.pack("<IIII", TENSOR_VERSION, *t.shape))
        f.write(np.ascontiguousarray(t, dtype="<f4").tobytes())


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 20:
        raise StudyFormatError(f"{path}: {len(raw)} bytes, shorter than the"
                               f" 20-byte header")
    if raw[:4] != TENSOR_MAGIC:
        raise StudyFormatError(f"{path}: bad magic, not a tensor file")
    version, i1, i2, i3 = struct.unpack_from("<IIII", raw, 4)
    if version != TENSOR_VERSION:
        raise StudyFormatError(f"{path}: unsupported version {version}")
    if len(raw) - 20 != 4 * i1 * i2 * i3:
        raise StudyFormatError(f"{path}: payload of {len(raw) - 20} bytes,"
                               f" dims {(i1, i2, i3)} need {4 * i1 * i2 * i3}")
    t = np.frombuffer(raw, dtype="<f4", offset=20).astype(np.float64)
    t = t.reshape(i1, i2, i3)
    if not np.all(np.isfinite(t)):
        raise StudyFormatError(f"{path}: non-finite tensor values")
    return t


# --- study table -----------------------------------------------------------

@dataclass
class Subject:
    id: str
    tensors: dict[str, np.ndarray] = field(default_factory=dict)
    tabular: np.ndarray | None = None
    label: int | None = None
    landmarks: dict[str, LandmarkSet] = field(default_factory=dict)
    split: str = "train"
    segment: int | None = None
    order_key: float | None = None


@dataclass
class StudyTable:
    subjects: list[Subject]
    feature_names: list[str] = field(default_factory=list)
    exclusions: list[tuple[str, str]] = field(default_factory=list)
    cleaning: CleaningReport | None = None  # set by clean_tabular

    def by_split(self, *tags: str) -> list[Subject]:
        return [s for s in self.subjects if s.split in tags]

    def tabular_matrix(self, subjects: list[Subject] | None = None) -> np.ndarray:
        subjects = self.subjects if subjects is None else subjects
        return np.stack([s.tabular for s in subjects])

    def labels(self, subjects: list[Subject] | None = None) -> np.ndarray:
        subjects = self.subjects if subjects is None else subjects
        return np.asarray([s.label for s in subjects], dtype=np.int64)


def _read_csv(path: Path, required_first: str,
              columns: int) -> tuple[list[str], list[list[str]]]:
    """Header (``columns`` wide at least) and rows, one cell per column."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            rows = [row for row in reader if row]
    except FileNotFoundError:
        raise StudyFormatError(f"{path}: required study file is missing"
                               ) from None
    except (UnicodeDecodeError, csv.Error) as exc:
        raise StudyFormatError(f"{path}: unreadable CSV: {exc}") from None
    if header is None:
        raise StudyFormatError(f"{path}: empty file, header row required")
    if not header or header[0] != required_first:
        raise StudyFormatError(
            f"{path}: first header column must be '{required_first}'"
        )
    if len(header) < columns:
        raise StudyFormatError(f"{path}: header needs {columns} columns")
    for row in rows:
        if len(row) != len(header):
            raise StudyFormatError(f"{path}: subject {row[0]!r}: row has"
                                   f" {len(row)} cells, header {len(header)}")
    return header, rows


def _numeric(path, sid: str, cell: str, what: str) -> float:
    """``cell`` as a finite float; anything else raises StudyFormatError
    naming the file and the subject."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise StudyFormatError(f"{path}: subject {sid!r}: {what} {cell!r}"
                               f" is not a finite number")
    return value


def load_study(directory) -> StudyTable:
    """Assemble a StudyTable from a study directory, joining on subject_id.

    ``ehr.csv``, ``labels.csv`` and ``landmarks.csv`` are all required,
    and every value in them must be well-formed: a bad file or value
    raises StudyFormatError naming the file (and the subject, for a bad
    row; a landmark row's modality must be one of ``MODALITIES``).
    Subjects missing an EHR row, a required tensor, labels or landmarks,
    with a collinear landmark triple (it determines no registration), or
    with a stack whose dims differ from the study's (the modality's most
    common dims), are excluded and reported, so every subject id in any
    of the three files is either loaded or in ``exclusions``.
    """
    directory = Path(directory)
    ehr_path = directory / "ehr.csv"
    labels_path = directory / "labels.csv"
    landmarks_path = directory / "landmarks.csv"

    header, rows = _read_csv(ehr_path, "subject_id", 1)
    feature_names = header[1:]
    tabular: dict[str, np.ndarray] = {}
    for row in rows:
        sid = row[0]
        if sid in tabular:
            raise StudyFormatError(f"{ehr_path}: duplicate subject row {sid!r}")
        values = [np.nan if cell == ""
                  else _numeric(ehr_path, sid, cell, "EHR cell")
                  for cell in row[1:]]
        tabular[sid] = np.asarray(values, dtype=np.float64)

    _, label_rows = _read_csv(labels_path, "subject_id", 2)
    labels: dict[str, tuple[int, float]] = {}
    for row in label_rows:
        sid = row[0]
        if sid in labels:
            raise StudyFormatError(f"{labels_path}: duplicate subject row {sid!r}")
        label = _numeric(labels_path, sid, row[1], "label")
        if label not in (0.0, 1.0):
            raise StudyFormatError(f"{labels_path}: subject {sid!r}: label"
                                   f" {row[1]!r} is not 0 or 1")
        order_key = (_numeric(labels_path, sid, row[2], "screen_time")
                     if len(row) > 2 else 0.0)
        labels[sid] = (int(label), order_key)

    landmark_rows: dict[str, dict[str, dict[int, tuple]]] = {}
    _, lm_rows = _read_csv(landmarks_path, "subject_id", 6)
    for row in lm_rows:
        sid, modality = row[0], row[1]
        if modality not in MODALITIES:
            raise StudyFormatError(f"{landmarks_path}: subject {sid!r}: unknown"
                                   f" modality {modality!r}, not one of"
                                   f" {', '.join(MODALITIES)}")
        j, x, y, u = (_numeric(landmarks_path, sid, cell, what) for cell, what
                      in zip(row[2:6], ("landmark_id", "x", "y", "uncertainty")))
        entry = landmark_rows.setdefault(sid, {}).setdefault(modality, {})
        if j not in range(N_LANDMARKS) or j in entry:
            raise StudyFormatError(
                f"{landmarks_path}: subject {sid!r}: {modality} landmark_id"
                f" {row[2]!r} must be one of 0..{N_LANDMARKS - 1}, once each")
        if u < 0:
            raise StudyFormatError(f"{landmarks_path}: subject {sid!r}:"
                                   f" negative uncertainty {row[5]!r}")
        entry[int(j)] = (x, y, u)

    subjects, exclusions = [], []
    for sid in sorted({*tabular, *labels, *landmark_rows}):
        if sid not in tabular:
            exclusions.append((sid, "no ehr.csv row"))
            continue
        if sid not in labels:
            exclusions.append((sid, "missing label"))
            continue
        tensors = {}
        missing = None
        for modality in MODALITIES:
            path = directory / "tensors" / f"{sid}_{modality}.hft"
            if not path.exists():
                missing = f"missing tensor {path.name}"
                break
            tensors[modality] = read_tensor(path)
        if missing:
            exclusions.append((sid, missing))
            continue
        lms = {}
        bad = None
        for modality in MODALITIES:
            entries = landmark_rows.get(sid, {}).get(modality, {})
            if len(entries) != N_LANDMARKS:
                bad = f"expected {N_LANDMARKS} {modality} landmarks, got {len(entries)}"
                break
            ordered = [entries[j] for j in range(N_LANDMARKS)]
            if collinear([(x, y) for x, y, _ in ordered]):
                bad = f"collinear {modality} landmarks"  # no affine map
                break
            lms[modality] = LandmarkSet(
                subject_id=sid,
                modality=modality,
                points=np.asarray([(x, y) for x, y, _ in ordered]),
                uncertainties=np.asarray([u for _, _, u in ordered]),
            )
        if bad:
            exclusions.append((sid, bad))
            continue
        label, order_key = labels[sid]
        subjects.append(Subject(id=sid, tensors=tensors, tabular=tabular[sid],
                                label=label, landmarks=lms, order_key=order_key))

    # a stack must have its modality's most common dims; a tie goes to the
    # earliest subject's
    for modality in MODALITIES:
        shapes = [s.tensors[modality].shape for s in subjects]
        common = Counter(shapes).most_common(1)[0][0] if shapes else None
        for s, shape in zip(subjects, shapes):
            if shape != common:
                exclusions.append((s.id, f"{modality} tensor dims {shape}"
                                         f" differ from the study's {common}"))
        subjects = [s for s, shape in zip(subjects, shapes) if shape == common]
    exclusions.sort()
    return StudyTable(subjects=subjects, feature_names=feature_names,
                      exclusions=exclusions)


# --- cleaning --------------------------------------------------------------

@dataclass
class CleaningReport:
    dropped_columns: list[str]
    imputed_counts: dict[str, int]


def clean_tabular(table: StudyTable,
                  max_missing_fraction: float) -> CleaningReport:
    """Drop features with too many missing values; mean-impute the rest.

    Imputation means come from the training split only.  Modifies the
    table in place, and returns the report it also keeps as
    ``table.cleaning``.
    """
    if not 0.0 <= max_missing_fraction <= 1.0:
        raise ValueError("max_missing_fraction must be in [0, 1]")
    if not table.subjects:
        table.cleaning = CleaningReport(dropped_columns=[], imputed_counts={})
        return table.cleaning
    x = table.tabular_matrix()
    train_subjects = table.by_split("train", "validation") or table.subjects
    x_train = table.tabular_matrix(train_subjects)

    missing_fraction = np.mean(np.isnan(x), axis=0)
    keep = missing_fraction <= max_missing_fraction
    dropped = [name for name, k in zip(table.feature_names, keep) if not k]

    imputed_counts = {}
    with warnings.catch_warnings():
        # all-NaN training columns produce a NaN mean here; they are either
        # dropped by the threshold or rejected explicitly below
        warnings.simplefilter("ignore", RuntimeWarning)
        means = np.nanmean(x_train, axis=0)
    for j, name in enumerate(table.feature_names):
        if not keep[j]:
            continue
        n_missing = int(np.sum(np.isnan(x[:, j])))
        if n_missing:
            if np.all(np.isnan(x_train[:, j])):
                raise ValueError(f"feature {name!r} is 100% missing in training split")
            imputed_counts[name] = n_missing

    kept_names = [n for n, k in zip(table.feature_names, keep) if k]
    for s, row in zip(table.subjects, x):
        cleaned = row[keep].copy()
        nan_mask = np.isnan(cleaned)
        cleaned[nan_mask] = means[keep][nan_mask]
        s.tabular = cleaned
    table.feature_names = kept_names
    table.cleaning = CleaningReport(dropped_columns=dropped,
                                    imputed_counts=imputed_counts)
    return table.cleaning


# --- splitting -------------------------------------------------------------

def chronological_split(table: StudyTable, train_fraction: float,
                        test_segments: int) -> StudyTable:
    """Tag earliest subjects as train; split the rest into time segments.

    Segments are contiguous in screening order; when sizes do not divide
    evenly the earlier segments take the extra subject.
    """
    if test_segments < 1:
        raise ValueError("need at least one test segment")
    for s in table.subjects:
        if s.order_key is None:
            raise ValueError(f"subject {s.id}: missing ordering key")
    ordered = sorted(table.subjects, key=lambda s: (s.order_key, s.id))
    n_train = int(round(train_fraction * len(ordered)))
    for s in ordered[:n_train]:
        s.split = "train"
        s.segment = None
    rest = ordered[n_train:]
    if rest:
        sizes = [len(rest) // test_segments] * test_segments
        for i in range(len(rest) % test_segments):
            sizes[i] += 1
        pos = 0
        for seg, size in enumerate(sizes):
            for s in rest[pos:pos + size]:
                s.split = "test"
                s.segment = seg
            pos += size
    return table


def carve_validation(table: StudyTable, fraction: float, seed: int = 0) -> StudyTable:
    """Re-tag a stratified random share of the train split as validation."""
    train = table.by_split("train")
    labels = table.labels(train)
    rng = np.random.default_rng(seed)
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        n_val = max(1, int(round(fraction * len(idx))))
        for i in idx[:n_val]:
            train[i].split = "validation"
    return table

"""Seeded synthetic dataset generator.

Stands in for the private clinical registry: two imaging modalities with
class-dependent spatial blobs, tabular features with informative and noise
columns, and landmark sets with a configurable fraction of corrupted
subjects (large landmark error plus large uncertainty scores).

Each modality's class signal is only carried by an independent random
subset of subjects, so modalities are complementary and fusion provably
adds information.  Corrupted subjects additionally have their imaging
signal drawn from a random class, mimicking the damage a badly registered
scan does to training.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .data import write_tensor
from .registration import AffineTransform, warp_stack

SHORT_AXIS = "short_axis"
FOUR_CHAMBER = "four_chamber"


@dataclass
class SyntheticSpec:
    seed: int = 0
    n_subjects: int = 400
    dims: tuple[int, int, int] = (32, 32, 8)
    prevalence: float = 0.4
    train_fraction: float = 0.7
    # imaging signal
    blob_amplitude: float = 1.0
    signal_strength: float = 0.8
    image_noise: float = 0.45
    informative_fraction: dict = field(default_factory=lambda: {
        SHORT_AXIS: 0.7, FOUR_CHAMBER: 0.7, "ehr": 0.75,
    })
    # tabular signal
    n_informative_tabular: int = 5
    n_noise_tabular: int = 44
    tabular_effect: float = 1.2
    tabular_noise: float = 1.0
    heavy_missing_columns: int = 1     # columns pushed over the 5% threshold
    missing_cell_fraction: float = 0.01
    # landmark corruption
    corrupted_fraction: float = 0.2
    landmark_jitter: float = 0.3
    corrupt_jitter: float = 5.0
    clean_uncertainty: tuple[float, float] = (0.1, 0.8)
    corrupt_uncertainty: tuple[float, float] = (3.0, 8.0)


def _template_points(modality: str, dims) -> np.ndarray:
    h, w, _ = dims
    scale = np.array([w / 32.0, h / 32.0])
    if modality == SHORT_AXIS:
        base = np.array([[10.0, 8.0], [22.0, 9.0], [16.0, 22.0]])
    else:
        base = np.array([[8.0, 16.0], [24.0, 12.0], [14.0, 26.0]])
    return base * scale


def _blob_centers(modality: str, dims) -> list[np.ndarray]:
    """Blob centers in template space: two class-signal sites + anatomy."""
    h, w, _ = dims
    scale = np.array([w / 32.0, h / 32.0])
    if modality == SHORT_AXIS:
        base = [[14.0, 13.0], [24.0, 10.0], [22.0, 22.0]]
    else:
        base = [[18.0, 18.0], [10.0, 10.0], [8.0, 24.0]]
    return [np.array(c) * scale for c in base]


def _blob_image(dims, modality, signal_label, amplitude,
                strength) -> np.ndarray:
    """Template-space (H, W) image of one modality's class signal.

    The class changes several independent aspects at once, so the signal
    spans many latent directions instead of a single contrast: amplitude
    of site 1 (up), amplitude of site 2 (down) and anatomy blob radius
    here, and the depth of the temporal pulsation in
    :func:`_render_canonical`.  The image depends only on the modality,
    the signal label and the spec, so a study needs four of them.
    """
    h, w, _ = dims
    cols, rows = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    c1, c2, c_fix = _blob_centers(modality, dims)
    y = float(signal_label)
    radius = 3.5 * w / 32.0
    fix_radius = radius * (1.0 + 0.15 * strength * y)
    d1 = ((cols - c1[0]) ** 2 + (rows - c1[1]) ** 2) / (2 * radius ** 2)
    d2 = ((cols - c2[0]) ** 2 + (rows - c2[1]) ** 2) / (2 * radius ** 2)
    d_fix = (((cols - c_fix[0]) ** 2 + (rows - c_fix[1]) ** 2)
             / (2 * fix_radius ** 2))
    amp1 = amplitude * (1.0 + strength * y)
    amp2 = amplitude * (1.0 - 0.5 * strength * y)
    return amp1 * np.exp(-d1) + amp2 * np.exp(-d2) + amplitude * np.exp(-d_fix)


def _render_canonical(image, n_frames, signal_label, strength,
                      rng) -> np.ndarray:
    """Template-space (H, W, T) stack: each frame is the blob ``image``
    times a pulse of random phase, deeper for signal label 1."""
    depth = 0.15 + 0.15 * strength * float(signal_label)
    phase = rng.uniform(0, 2 * np.pi)
    stack = np.empty(image.shape + (n_frames,))
    for t in range(n_frames):
        pulse = 1.0 - depth + depth * np.sin(2 * np.pi * t / n_frames + phase)
        stack[:, :, t] = pulse * image
    return stack


def _subject_affine(rng) -> AffineTransform:
    angle = rng.normal(0.0, 0.04)
    scale = 1.0 + rng.normal(0.0, 0.03)
    c, s = np.cos(angle), np.sin(angle)
    matrix = scale * np.array([[c, -s], [s, c]])
    offset = rng.normal(0.0, 1.5, size=2)
    return AffineTransform(matrix=matrix, offset=offset)


def generate_synthetic(spec: SyntheticSpec, out_dir) -> dict:
    """Write a complete study directory; returns ground-truth metadata."""
    out = Path(out_dir)
    (out / "tensors").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    n = spec.n_subjects
    n_train = int(round(spec.train_fraction * n))

    ids = [f"s{idx:04d}" for idx in range(n)]
    # landmark quality is a per-subject property; landmarks share a base score
    base_uncertainty = rng.uniform(0.0, 1.0, size=n)
    labels = (rng.random(n) < spec.prevalence).astype(np.int64)
    # corruption is a training-data quality problem; confine it there
    n_corrupt = int(round(spec.corrupted_fraction * n_train))
    corrupted = np.zeros(n, dtype=bool)
    corrupted[rng.choice(n_train, size=n_corrupt, replace=False)] = True

    informative = {}
    for key, frac in spec.informative_fraction.items():
        informative[key] = rng.random(n) < frac

    modalities = (SHORT_AXIS, FOUR_CHAMBER)
    images = {(modality, label): _blob_image(
        spec.dims, modality, label, spec.blob_amplitude, spec.signal_strength)
        for modality in modalities for label in (0, 1)}
    landmark_rows = []
    for idx, sid in enumerate(ids):
        affine = _subject_affine(rng)
        for modality in modalities:
            if corrupted[idx]:
                signal_label = int(rng.integers(0, 2))
            elif informative[modality][idx]:
                signal_label = int(labels[idx])
            else:
                signal_label = int(rng.integers(0, 2))
            canonical = _render_canonical(
                images[modality, signal_label], spec.dims[2], signal_label,
                spec.signal_strength, rng,
            )
            stack = warp_stack(canonical, affine.inverse())
            if spec.image_noise > 0:
                stack = stack + rng.normal(0.0, spec.image_noise, size=spec.dims)
            write_tensor(out / "tensors" / f"{sid}_{modality}.hft", stack)

            template = _template_points(modality, spec.dims)
            true_points = affine.apply(template)
            if corrupted[idx]:
                points = true_points + rng.normal(0, spec.corrupt_jitter, (3, 2))
                lo, hi = spec.corrupt_uncertainty
            else:
                points = true_points + rng.normal(0, spec.landmark_jitter, (3, 2))
                lo, hi = spec.clean_uncertainty
            base = lo + base_uncertainty[idx] * (hi - lo)
            unc = np.clip(base + rng.normal(0, 0.05 * (hi - lo), size=3), 0, None)
            for j in range(3):
                landmark_rows.append(
                    (sid, modality, j, points[j, 0], points[j, 1], unc[j])
                )

    n_info, n_noise = spec.n_informative_tabular, spec.n_noise_tabular
    feature_names = ([f"informative_{j}" for j in range(n_info)]
                     + [f"noise_{j}" for j in range(n_noise)])
    tab = np.empty((n, n_info + n_noise))
    ehr_info = informative.get("ehr", np.ones(n, dtype=bool))
    effective = np.where(ehr_info, labels, rng.integers(0, 2, size=n))
    for j in range(n_info):
        tab[:, j] = (spec.tabular_effect * effective
                     + rng.normal(0.0, spec.tabular_noise, size=n))
    tab[:, n_info:] = rng.normal(0.0, 1.0, size=(n, n_noise))

    missing = np.zeros_like(tab, dtype=bool)
    for j in range(min(spec.heavy_missing_columns, n_noise)):
        col = n_info + j
        missing[:, col] = rng.random(n) < 0.08
    if spec.missing_cell_fraction > 0:
        light = rng.random(tab.shape) < spec.missing_cell_fraction
        light[:, : n_info] = False  # keep informative columns complete
        missing |= light

    with open(out / "ehr.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["subject_id"] + feature_names)
        for idx, sid in enumerate(ids):
            row = [sid] + [
                "" if missing[idx, j] else f"{tab[idx, j]:.8g}"
                for j in range(tab.shape[1])
            ]
            writer.writerow(row)

    with open(out / "labels.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["subject_id", "label", "screen_time"])
        for idx, sid in enumerate(ids):
            writer.writerow([sid, int(labels[idx]), float(idx)])

    with open(out / "landmarks.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["subject_id", "modality", "landmark_id", "x", "y",
                         "uncertainty"])
        for sid, modality, j, x, y, u in landmark_rows:
            writer.writerow([sid, modality, j, f"{x:.8g}", f"{y:.8g}",
                             f"{u:.8g}"])

    truth = {
        "spec": {**asdict(spec), "dims": list(spec.dims),
                 "clean_uncertainty": list(spec.clean_uncertainty),
                 "corrupt_uncertainty": list(spec.corrupt_uncertainty)},
        "corrupted_ids": [sid for sid, c in zip(ids, corrupted) if c],
        "informative_counts": {k: int(v.sum()) for k, v in informative.items()},
    }
    with open(out / "truth.json", "w", encoding="utf-8") as f:
        json.dump(truth, f, sort_keys=True, indent=2)
    return truth

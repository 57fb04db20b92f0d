"""Landmark-driven affine registration of cine stacks to a common space.

Landmark points are (x, y) pixel coordinates with x along image columns
(axis 1) and y along rows (axis 0).  Each modality carries exactly three
landmarks per subject, which uniquely determine the 6-DOF 2-D affine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import map_coordinates

MODALITIES = ("short_axis", "four_chamber")

N_LANDMARKS = 3


class DegenerateLandmarksError(ValueError):
    """Raised when a landmark triple is (numerically) collinear."""


@dataclass(frozen=True)
class LandmarkSet:
    """Three annotated points for one subject and modality."""

    subject_id: str
    modality: str
    points: np.ndarray  # (3, 2) of (x, y)
    uncertainties: np.ndarray  # (3,) nonnegative epistemic scores

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        unc = np.asarray(self.uncertainties, dtype=np.float64)
        if pts.shape != (N_LANDMARKS, 2):
            raise ValueError(f"expected {N_LANDMARKS} (x, y) points, got {pts.shape}")
        if unc.shape != (N_LANDMARKS,) or np.any(unc < 0):
            raise ValueError("expected 3 nonnegative uncertainty scores")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "uncertainties", unc)


@dataclass(frozen=True)
class AffineTransform:
    """2-D affine map p -> matrix @ p + offset on (x, y) coordinates."""

    matrix: np.ndarray  # (2, 2)
    offset: np.ndarray  # (2,)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return pts @ self.matrix.T + self.offset

    def inverse(self) -> "AffineTransform":
        inv = np.linalg.inv(self.matrix)
        return AffineTransform(matrix=inv, offset=-inv @ self.offset)

    @staticmethod
    def identity() -> "AffineTransform":
        return AffineTransform(np.eye(2), np.zeros(2))


def _triangle_det(points: np.ndarray) -> float:
    a, b, c = points
    return float((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def affine_from_landmarks(src_points, template_points, *,
                          names: tuple[str, str] = ("source", "template")
                          ) -> AffineTransform:
    """Affine transform mapping the three source points onto the template.

    Three non-collinear correspondences determine the transform uniquely;
    collinear triples raise :class:`DegenerateLandmarksError`, naming the
    side by ``names`` (source, template).
    """
    src = np.asarray(src_points, dtype=np.float64).reshape(N_LANDMARKS, 2)
    dst = np.asarray(template_points, dtype=np.float64).reshape(N_LANDMARKS, 2)
    for pts, name in zip((src, dst), names):
        scale = max(float(np.ptp(pts)), 1.0)
        if abs(_triangle_det(pts)) < 1e-9 * scale * scale:
            raise DegenerateLandmarksError(f"{name} landmarks are collinear")
    # [x y 1] @ P = [x' y'] for each correspondence; P is (3, 2)
    design = np.hstack([src, np.ones((N_LANDMARKS, 1))])
    params = np.linalg.solve(design, dst)
    return AffineTransform(matrix=params[:2].T.copy(), offset=params[2].copy())


def warp_stack(t: np.ndarray, a: AffineTransform) -> np.ndarray:
    """Resample every frame of a (H, W, T) stack under an affine map.

    ``a`` maps output (template) coordinates to input (source) coordinates,
    i.e. inverse warping.  Bilinear interpolation, zero fill outside.
    """
    t = np.asarray(t, dtype=np.float64)
    h, w, n_frames = t.shape
    cols, rows = np.meshgrid(np.arange(w), np.arange(h))  # (H, W) each
    src = a.apply(np.stack([cols.ravel(), rows.ravel()], axis=1))
    coords = np.stack([src[:, 1], src[:, 0]])  # map_coordinates wants (row, col)
    out = np.empty_like(t)
    for k in range(n_frames):
        out[:, :, k] = map_coordinates(
            t[:, :, k], coords, order=1, mode="constant", cval=0.0
        ).reshape(h, w)
    return out


def build_template(landmark_sets: list[LandmarkSet]) -> np.ndarray:
    """Per-landmark coordinate-wise mean configuration over subjects."""
    if not landmark_sets:
        raise ValueError("cannot build a template from an empty landmark list")
    modalities = {ls.modality for ls in landmark_sets}
    if len(modalities) > 1:
        raise ValueError(f"mixed modalities in template input: {sorted(modalities)}")
    return np.mean([ls.points for ls in landmark_sets], axis=0)


def register_stack(t: np.ndarray, subject: LandmarkSet,
                   template_points: np.ndarray) -> np.ndarray:
    """Warp a subject's stack into template space using its landmarks."""
    # the inverse warp maps template coordinates onto the subject's points
    inverse = affine_from_landmarks(
        template_points, subject.points,
        names=("template", f"subject {subject.subject_id} {subject.modality}"))
    return warp_stack(t, inverse)

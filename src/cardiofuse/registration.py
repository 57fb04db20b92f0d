"""Landmark-driven affine registration of cine stacks to a common space.

Landmark points are (x, y) pixel coordinates with x along image columns
(axis 1) and y along rows (axis 0).  Each modality carries exactly three
landmarks per subject, which uniquely determine the 6-DOF 2-D affine.

:func:`warp_stack` is a bilinear gather written in numpy that gives the
same bytes as ``scipy.ndimage.map_coordinates(order=1, mode="constant",
cval=0.0)`` applied frame by frame, without importing ``scipy.ndimage``.
It follows ndimage's arithmetic step by step: a sample point with either
coordinate outside ``[0, n - 1]`` reads 0; inside, the fractional part
``f`` gives the weights ``w0 = 1 - f`` and ``w1 = 1 - w0`` (not ``f``: the
two differ in the last bit when ``f < 0.5``); and the four taps are added
to 0.0 in the order (r0, c0), (r0, c1), (r1, c0), (r1, c1), each as
``(value * w_row) * w_col``.  As in ndimage, the arithmetic is float64
and the output has the input's dtype: a float32 stack comes back float32,
each sample rounded once from its float64 value; a stack of any other
dtype is read as float64 and comes back float64.  The taps are gathered
from a frame-major float64 copy of the stack and the pixel grid is kept
per frame shape; neither changes a value or the order of the arithmetic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

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


def collinear(points) -> bool:
    """Whether a landmark triple is (numerically) collinear: its triangle's
    doubled area is below 1e-9 of its squared coordinate span (at least
    1), so no affine map is determined by it."""
    (ax, ay), (bx, by), (cx, cy) = points
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    coords = (ax, ay, bx, by, cx, cy)
    scale = max(float(max(coords) - min(coords)), 1.0)
    return abs(float(det)) < 1e-9 * scale * scale


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
        if collinear(pts):
            raise DegenerateLandmarksError(f"{name} landmarks are collinear")
    # [x y 1] @ P = [x' y'] for each correspondence; P is (3, 2)
    design = np.hstack([src, np.ones((N_LANDMARKS, 1))])
    params = np.linalg.solve(design, dst)
    return AffineTransform(matrix=params[:2].T.copy(), offset=params[2].copy())


@functools.lru_cache(maxsize=16)
def _pixel_grid(h: int, w: int) -> np.ndarray:
    """The (H * W, 2) float64 (x, y) coordinates of every pixel of an
    (H, W) frame, row-major; read-only, as it is kept per shape."""
    cols, rows = np.meshgrid(np.arange(w), np.arange(h))  # (H, W) each
    grid = np.stack([cols.ravel(), rows.ravel()], axis=1).astype(np.float64)
    grid.flags.writeable = False
    return grid


def _bilinear_taps(coords: np.ndarray, n: int):
    """Lower and upper tap indices and their weights along one axis.

    Only meaningful for coordinates inside ``[0, n - 1]``.  At exactly
    ``n - 1`` the upper tap is clamped to ``n - 1`` and weighs 0.
    """
    lower = np.floor(coords).astype(np.intp)
    w0 = 1.0 - (coords - lower)
    w1 = 1.0 - w0
    return lower, np.minimum(lower + 1, n - 1), w0, w1


def warp_stack(t: np.ndarray, a: AffineTransform) -> np.ndarray:
    """Resample every frame of a (H, W, T) stack under an affine map.

    ``a`` maps output (template) coordinates to input (source) coordinates,
    i.e. inverse warping.  Bilinear interpolation, zero fill outside; all
    frames share one gather (see the module docstring for the arithmetic).
    The taps are gathered from a frame-major float64 copy of the stack, so
    each tap of each frame is one contiguous row of the sample points, and
    each weighting multiplies whole rows by a vector of per-point weights.
    The output is float32 for a float32 ``t``, else float64; the
    arithmetic is float64 either way.
    """
    t = np.asarray(t)
    dtype = np.float32 if t.dtype == np.float32 else np.float64
    h, w, n_frames = t.shape
    src = a.apply(_pixel_grid(h, w))
    r, c = src[:, 1], src[:, 0]
    inside = np.flatnonzero((r >= 0) & (r <= h - 1) & (c >= 0) & (c <= w - 1))
    r0, r1, wr0, wr1 = _bilinear_taps(r[inside], h)
    c0, c1, wc0, wc1 = _bilinear_taps(c[inside], w)
    # (T, H * W): frame k's pixels are one contiguous row
    frames = np.ascontiguousarray(t.transpose(2, 0, 1),
                                  dtype=np.float64).reshape(n_frames, h * w)
    # the taps (r0, c0), (r0, c1), (r1, c0), (r1, c1), each (T, n)
    taps = np.empty((4, n_frames, len(inside)))
    for tap, index in zip(taps, (r0 * w + c0, r0 * w + c1,
                                 r1 * w + c0, r1 * w + c1)):
        frames.take(index, axis=1, out=tap)
    taps[:2] *= wr0
    taps[2:] *= wr1
    taps[0::2] *= wc0
    taps[1::2] *= wc1
    # adding 0.0 first is ndimage's accumulator: it turns a -0.0 sum into
    # +0.0; in place, it is the same addition as 0.0 + taps[0]
    acc = taps[0]
    acc += 0.0
    acc += taps[1]
    acc += taps[2]
    acc += taps[3]
    out = np.zeros((h * w, n_frames), dtype=dtype)
    out[inside] = acc.T  # float32 output: one rounding per sample
    return out.reshape(h, w, n_frames)


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

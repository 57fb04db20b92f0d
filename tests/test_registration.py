"""Affine registration tests.

Oracle for the affine solve: build the full 6x6 linear system over the
parameters (a11, a12, a21, a22, t1, t2) and solve it with numpy, then
compare the recovered mapping pointwise.
"""

import numpy as np
import pytest

from cardiofuse.registration import (AffineTransform, DegenerateLandmarksError,
                                     LandmarkSet, affine_from_landmarks,
                                     build_template, register_stack,
                                     warp_stack)


def solve_affine_6x6(src, dst):
    """Independent oracle: stack the 6 scalar equations directly."""
    a = np.zeros((6, 6))
    b = np.zeros(6)
    for i in range(3):
        x, y = src[i]
        a[2 * i] = [x, y, 0, 0, 1, 0]
        a[2 * i + 1] = [0, 0, x, y, 0, 1]
        b[2 * i] = dst[i, 0]
        b[2 * i + 1] = dst[i, 1]
    p = np.linalg.solve(a, b)
    return np.array([[p[0], p[1]], [p[2], p[3]]]), p[4:6]


TRIANGLE = np.array([[10.0, 8.0], [22.0, 9.0], [16.0, 22.0]])


class TestLandmarkSet:
    def test_requires_three_points(self):
        with pytest.raises(ValueError):
            LandmarkSet("s0", "short_axis", TRIANGLE[:2], np.zeros(2))

    def test_rejects_negative_uncertainty(self):
        with pytest.raises(ValueError):
            LandmarkSet("s0", "short_axis", TRIANGLE, np.array([0.1, -0.2, 0.3]))

    def test_valid(self):
        ls = LandmarkSet("s0", "short_axis", TRIANGLE, np.full(3, 0.5))
        assert ls.points.shape == (3, 2)


class TestAffineFromLandmarks:
    def test_identity_when_src_equals_template(self):
        t = affine_from_landmarks(TRIANGLE, TRIANGLE)
        np.testing.assert_allclose(t.matrix, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(t.offset, 0.0, atol=1e-12)

    def test_pure_translation(self):
        t = affine_from_landmarks(TRIANGLE, TRIANGLE + [5.0, -3.0])
        np.testing.assert_allclose(t.matrix, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(t.offset, [5.0, -3.0], atol=1e-12)

    def test_random_triples_match_6x6_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            src = rng.uniform(0, 30, (3, 2))
            dst = rng.uniform(0, 30, (3, 2))
            u, v = src[1] - src[0], src[2] - src[0]
            if abs(u[0] * v[1] - u[1] * v[0]) < 1.0:
                continue  # skip near-degenerate draws
            t = affine_from_landmarks(src, dst)
            m_ref, o_ref = solve_affine_6x6(src, dst)
            np.testing.assert_allclose(t.matrix, m_ref, atol=1e-9)
            np.testing.assert_allclose(t.offset, o_ref, atol=1e-9)
            np.testing.assert_allclose(t.apply(src), dst, atol=1e-9)

    def test_collinear_raises(self):
        src = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(DegenerateLandmarksError):
            affine_from_landmarks(src, TRIANGLE)

    def test_residual_below_tolerance(self):
        rng = np.random.default_rng(1)
        src = rng.uniform(0, 32, (3, 2))
        dst = rng.uniform(0, 32, (3, 2))
        t = affine_from_landmarks(src, dst)
        assert np.max(np.abs(t.apply(src) - dst)) < 1e-9

    def test_inverse_composes_to_identity(self):
        rng = np.random.default_rng(2)
        t = affine_from_landmarks(rng.uniform(0, 32, (3, 2)),
                                  rng.uniform(0, 32, (3, 2)))
        pts = rng.uniform(0, 32, (5, 2))
        np.testing.assert_allclose(t.inverse().apply(t.apply(pts)), pts,
                                   atol=1e-9)


class TestWarpStack:
    def test_identity_bit_exact(self):
        rng = np.random.default_rng(3)
        t = rng.normal(size=(8, 8, 3))
        np.testing.assert_array_equal(warp_stack(t, AffineTransform.identity()), t)

    def test_integer_translation_constant_field(self):
        t = np.full((6, 6, 2), 4.0)
        # transform maps template coords to source coords: shift by (1, 0)
        shift = AffineTransform(matrix=np.eye(2), offset=np.array([1.0, 0.0]))
        out = warp_stack(t, shift)
        # interior preserved, out-of-bounds column zero-filled
        assert np.all(out[:, :5, :] == 4.0)
        assert np.all(out[:, 5, :] == 0.0)

    def test_half_pixel_shift_on_linear_ramp(self):
        h, w = 6, 8
        ramp = np.tile(np.arange(w, dtype=np.float64), (h, 1))[:, :, None]
        shift = AffineTransform(matrix=np.eye(2), offset=np.array([0.5, 0.0]))
        out = warp_stack(ramp, shift)
        # bilinear interpolation of a linear field is exact: values shift by 0.5
        np.testing.assert_allclose(out[:, : w - 1, 0], ramp[:, : w - 1, 0] + 0.5,
                                   atol=1e-9)

    def test_all_frames_warped_identically(self):
        rng = np.random.default_rng(4)
        frame = rng.normal(size=(8, 8))
        t = np.stack([frame, frame], axis=2)
        a = AffineTransform(matrix=np.eye(2) * 1.1, offset=np.array([0.3, -0.2]))
        out = warp_stack(t, a)
        np.testing.assert_array_equal(out[:, :, 0], out[:, :, 1])


class TestTemplate:
    def _ls(self, sid, pts):
        return LandmarkSet(sid, "short_axis", pts, np.zeros(3))

    def test_single_subject(self):
        np.testing.assert_array_equal(build_template([self._ls("a", TRIANGLE)]),
                                      TRIANGLE)

    def test_two_subject_midpoint(self):
        tpl = build_template([self._ls("a", TRIANGLE),
                              self._ls("b", TRIANGLE + 2.0)])
        np.testing.assert_allclose(tpl, TRIANGLE + 1.0, atol=1e-12)

    def test_matches_naive_mean(self):
        rng = np.random.default_rng(5)
        sets = [self._ls(f"s{i}", rng.uniform(0, 32, (3, 2))) for i in range(9)]
        naive = sum(ls.points for ls in sets) / 9
        np.testing.assert_allclose(build_template(sets), naive, atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            build_template([])

    def test_mixed_modalities_raise(self):
        a = LandmarkSet("a", "short_axis", TRIANGLE, np.zeros(3))
        b = LandmarkSet("b", "four_chamber", TRIANGLE, np.zeros(3))
        with pytest.raises(ValueError):
            build_template([a, b])


class TestRegisterStack:
    def test_registration_undoes_known_affine(self):
        """Warp a blob image with a known affine, register back, compare."""
        h, w = 32, 32
        cols, rows = np.meshgrid(np.arange(w, dtype=float),
                                 np.arange(h, dtype=float))
        canonical = np.exp(-(((cols - 16) ** 2 + (rows - 14) ** 2) / 18.0))
        stack = canonical[:, :, None]

        angle = 0.15
        affine = AffineTransform(
            matrix=1.05 * np.array([[np.cos(angle), -np.sin(angle)],
                                    [np.sin(angle), np.cos(angle)]]),
            offset=np.array([3.0, -2.5]),
        )
        moved = warp_stack(stack, affine.inverse())
        subject_points = affine.apply(TRIANGLE)
        subject = LandmarkSet("s0", "short_axis", subject_points, np.zeros(3))
        registered = register_stack(moved, subject, TRIANGLE)
        # compare away from the zero-filled border; the 0.06 budget covers
        # two rounds of bilinear resampling of a smooth blob
        err = np.abs(registered[4:-4, 4:-4, 0] - stack[4:-4, 4:-4, 0])
        assert err.max() < 0.06
        # and registration must beat the unregistered misalignment
        raw_err = np.abs(moved[4:-4, 4:-4, 0] - stack[4:-4, 4:-4, 0])
        assert err.max() < 0.25 * raw_err.max()

    def test_collinear_subject_named_in_error(self):
        subject = LandmarkSet("s7", "four_chamber",
                              np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
                              np.zeros(3))
        with pytest.raises(DegenerateLandmarksError,
                           match="^subject s7 four_chamber landmarks are "
                                 "collinear$"):
            register_stack(np.zeros((8, 8, 1)), subject, TRIANGLE)

"""Affine registration tests.

Oracle for the affine solve: build the full 6x6 linear system over the
parameters (a11, a12, a21, a22, t1, t2) and solve it with numpy, then
compare the recovered mapping pointwise.  Oracle for the warp:
``scipy.ndimage.map_coordinates`` (order 1, constant 0 fill) frame by
frame, compared byte for byte.
"""

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from cardiofuse import registration, synthetic
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
        identity = AffineTransform(np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(warp_stack(t, identity), t)

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


def ndimage_warp(t, a: AffineTransform) -> np.ndarray:
    """Oracle: one ``map_coordinates`` call per frame, in the dtype
    ``map_coordinates`` returns (the frames')."""
    h, w, n_frames = t.shape
    cols, rows = np.meshgrid(np.arange(w), np.arange(h))
    src = a.apply(np.stack([cols.ravel(), rows.ravel()], axis=1))
    coords = np.stack([src[:, 1], src[:, 0]])  # (row, col)
    return np.stack([map_coordinates(t[:, :, k], coords, order=1,
                                     mode="constant", cval=0.0).reshape(h, w)
                     for k in range(n_frames)], axis=2)


def assert_same_bytes_as_ndimage(t, a: AffineTransform):
    out = warp_stack(t, a)
    expected = ndimage_warp(t, a)
    assert out.shape == t.shape and out.dtype == t.dtype == expected.dtype
    assert out.tobytes() == expected.tobytes()


def shift(dx: float, dy: float) -> AffineTransform:
    return AffineTransform(np.eye(2), np.array([dx, dy]))


class TestWarpMatchesNdimage:
    """Byte-for-byte equality with the per-frame ndimage resampling."""

    def test_random_affines(self):
        rng = np.random.default_rng(10)
        for shape in [(32, 32, 8), (48, 48, 8), (7, 13, 3), (1, 5, 2)]:
            for _ in range(40):
                t = rng.normal(size=shape)
                angle, scale = rng.normal(0.0, 0.3), 1.0 + rng.normal(0.0, 0.2)
                c, s = np.cos(angle), np.sin(angle)
                a = AffineTransform(scale * np.array([[c, -s], [s, c]])
                                    + rng.normal(0.0, 0.05, (2, 2)),
                                    rng.normal(0.0, 3.0, 2))
                assert_same_bytes_as_ndimage(t, a)

    def test_fractions_below_half(self):
        # w1 = 1 - w0 differs from f in the last bit when f < 0.5
        rng = np.random.default_rng(11)
        t = rng.normal(size=(9, 9, 2))
        for f in [1e-17, 1e-9, 0.1, 0.2, 0.3, 1 / 3, 0.45, 0.49999999999]:
            assert_same_bytes_as_ndimage(t, shift(f, f))
            assert_same_bytes_as_ndimage(t, shift(rng.uniform(0, 0.5), 0.0))
        # every sample point inside [0, 0.5) of the first pixel
        scale = AffineTransform(np.eye(2) * 0.05, np.zeros(2))
        assert_same_bytes_as_ndimage(t, scale)

    def test_coordinates_exactly_at_upper_edge(self):
        rng = np.random.default_rng(12)
        h, w = 6, 9
        t = rng.normal(size=(h, w, 3))
        # sample points exactly on column w - 1 or row h - 1 ...
        for a in (shift(w - 1, 0.0), shift(0.0, h - 1),
                  AffineTransform(np.zeros((2, 2)), np.array([w - 1.0, h - 1.0]))):
            out = warp_stack(t, a)
            assert out.tobytes() == ndimage_warp(t, a).tobytes()
        # ... where the upper tap weighs 0 and the sample is the edge value
        np.testing.assert_array_equal(out, np.broadcast_to(t[-1, -1], t.shape))

    def test_points_just_outside_are_zero(self):
        rng = np.random.default_rng(13)
        h, w = 7, 8
        t = rng.normal(size=(h, w, 2)) + 5.0
        eps = 1e-12
        for dx, dy in [(-eps, 0.0), (0.0, -eps), (eps, 0.0), (0.0, eps),
                       (-eps, -eps), (w + 0.5, 0.0), (0.0, -h)]:
            assert_same_bytes_as_ndimage(t, shift(dx, dy))
        # x = w - 1 + eps and x = -eps lie outside [0, w - 1]: zero fill
        assert np.all(warp_stack(t, shift(eps, 0.0))[:, -1, :] == 0.0)
        assert np.all(warp_stack(t, shift(-eps, 0.0))[:, 0, :] == 0.0)
        assert np.all(warp_stack(t, shift(0.0, eps))[-1, :, :] == 0.0)
        assert np.all(warp_stack(t, shift(-eps, 0.0))[:, 1:, :] != 0.0)

    def test_identity_and_integer_shifts(self):
        rng = np.random.default_rng(14)
        t = rng.normal(size=(8, 10, 4))
        assert_same_bytes_as_ndimage(t, AffineTransform(np.eye(2), np.zeros(2)))
        for dx, dy in [(1, 0), (0, 1), (-2, 3), (4, -1), (10, 0), (-9, -8)]:
            assert_same_bytes_as_ndimage(t, shift(dx, dy))
        # the taps add to +0.0, so a -0.0 sample comes out as +0.0
        zeros = np.full((4, 5, 2), -0.0)
        assert_same_bytes_as_ndimage(zeros, AffineTransform(np.eye(2), np.zeros(2)))
        assert not np.signbit(warp_stack(zeros, shift(1, 0))).any()

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(15)
        base = rng.normal(size=(20, 24, 10))
        a = AffineTransform(np.array([[1.03, 0.04], [-0.02, 0.97]]),
                            np.array([0.6, -1.3]))
        for t in (base[::2, 1::2, ::3], np.asfortranarray(base),
                  base.transpose(1, 0, 2)):
            assert not t.flags.c_contiguous
            assert_same_bytes_as_ndimage(t, a)
        # an integer stack is read as float64
        ints = rng.integers(-5, 5, size=(6, 6, 2))
        assert warp_stack(ints, a).tobytes() == ndimage_warp(
            ints.astype(np.float64), a).tobytes()


class TestPixelGrid:
    """The warp's pixel coordinates are kept per frame shape, read-only."""

    def test_kept_per_shape_and_read_only(self):
        grid = registration._pixel_grid(5, 7)
        assert registration._pixel_grid(5, 7) is grid
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 1.0
        cols, rows = np.meshgrid(np.arange(7), np.arange(5))
        expected = np.stack([cols.ravel(), rows.ravel()], axis=1)
        assert grid.dtype == np.float64 and grid.flags.c_contiguous
        assert grid.tobytes() == expected.astype(np.float64).tobytes()
        other = registration._pixel_grid(7, 5)
        assert other is not grid and other.shape == (35, 2)


class TestGeneratorWarp:
    """A generated study is byte-identical to the one the per-frame ndimage
    warp makes, file for file."""

    @pytest.mark.parametrize("dims", [(32, 32, 8), (48, 48, 8)])
    def test_study_matches_ndimage_generator(self, dims, tmp_path,
                                             monkeypatch):
        spec = synthetic.SyntheticSpec(seed=5, n_subjects=12, dims=dims)
        synthetic.generate_synthetic(spec, tmp_path / "numpy")
        monkeypatch.setattr(synthetic, "warp_stack", ndimage_warp)
        synthetic.generate_synthetic(spec, tmp_path / "ndimage")

        def files(root):
            return {p.relative_to(root): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        ours, reference = files(tmp_path / "numpy"), files(tmp_path / "ndimage")
        assert sum(name.suffix == ".hft" for name in ours) == 2 * 12
        assert list(ours) == list(reference)
        for name in ours:
            assert ours[name] == reference[name], name


class TestWarpFloat32:
    """A float32 stack is warped in float64 and comes back float32, as
    ``map_coordinates`` returns it: each sample rounded once."""

    @staticmethod
    def affines(rng, count):
        for _ in range(count):
            angle, scale = rng.normal(0.0, 0.3), 1.0 + rng.normal(0.0, 0.2)
            c, s = np.cos(angle), np.sin(angle)
            yield AffineTransform(scale * np.array([[c, -s], [s, c]])
                                  + rng.normal(0.0, 0.05, (2, 2)),
                                  rng.normal(0.0, 3.0, 2))

    def test_random_affines_match_ndimage_on_float32_frames(self):
        rng = np.random.default_rng(16)
        for shape in [(32, 32, 8), (48, 48, 8), (7, 13, 3), (1, 5, 2)]:
            for a in self.affines(rng, 20):
                t = (rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
                     ).astype(np.float32)
                assert_same_bytes_as_ndimage(t, a)

    def test_edges_and_fractions_match_ndimage(self):
        rng = np.random.default_rng(17)
        t = rng.normal(size=(9, 8, 3)).astype(np.float32)
        for dx, dy in [(1e-9, 0.3), (0.49999999999, 0.1), (7.0, 0.0),
                       (0.0, 8.0), (-1e-12, 0.0), (2.5, -3.25)]:
            assert_same_bytes_as_ndimage(t, shift(dx, dy))
        assert_same_bytes_as_ndimage(np.full((4, 5, 2), -0.0, np.float32),
                                     shift(0.0, 0.0))
        assert_same_bytes_as_ndimage(np.asfortranarray(t), shift(0.6, -1.3))

    def test_float32_output_is_the_float64_output_rounded(self):
        rng = np.random.default_rng(18)
        for a in self.affines(rng, 10):
            t = rng.normal(size=(20, 24, 4)).astype(np.float32)
            wide = warp_stack(t.astype(np.float64), a)
            assert wide.dtype == np.float64
            assert warp_stack(t, a).tobytes() == wide.astype(
                np.float32).tobytes()


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

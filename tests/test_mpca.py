"""MPCA tests: optimality against random projections, losslessness,
Fisher-score oracle, bit-identity of the fit against a reference that
copies every unfolding, of the blocked Fisher ranking and the
preallocated projection, their memory peaks, and independence of the BLAS
thread count.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cardiofuse import mpca
from cardiofuse.fusion import early_concat
from cardiofuse.tensor3 import (frobenius_sq, mode_n_fold, mode_n_product,
                                mode_n_unfold, multi_mode_product)


def random_samples(n, dims, seed):
    rng = np.random.default_rng(seed)
    # correlated structure so projections have something to find
    basis = rng.normal(size=dims)
    return [basis * rng.normal() + 0.3 * rng.normal(size=dims)
            for _ in range(n)]


def random_orthonormal_cols(rows, cols, rng):
    q, _ = np.linalg.qr(rng.normal(size=(rows, rows)))
    return q[:, :cols]


def captured_scatter_oracle(samples, projections):
    """Independent oracle: project explicitly and sum Frobenius norms."""
    mean = np.mean(samples, axis=0)
    mats = {n + 1: projections[n].T for n in range(3)}
    return sum(frobenius_sq(multi_mode_product(s - mean, mats))
               for s in samples)


def reference_scatter(samples, mode, projections):
    """The mode-``mode`` scatter as a loop over samples that projects each
    one by unfold -> gemm -> fold along the other modes, unfolds the result
    (a copy), and adds ``A @ A.T`` to the sum."""
    scatter = None
    for s in samples:
        partial = s
        for other in (1, 2, 3):
            u = projections[other - 1]
            if other != mode and u is not None:
                dims = list(partial.shape)
                dims[other - 1] = u.shape[1]
                partial = mode_n_fold(u.T @ mode_n_unfold(partial, other),
                                      other, dims)
        unfolded = mode_n_unfold(partial, mode)
        contrib = unfolded @ unfolded.T
        scatter = contrib if scatter is None else scatter + contrib
    return scatter


def reference_fit(samples, variance_fraction=mpca.DEFAULT_VARIANCE_FRACTION,
                  max_iters=1, target_dims=None):
    """``mpca.fit`` with its scatters from :func:`reference_scatter` and
    every trace entry computed by projecting all samples through the three
    modes: the reference (projections, trace)."""
    def captured_scatter(samples, projections):
        total = 0.0
        for s in samples:
            y = s
            for n, u in enumerate(projections, start=1):
                y = mode_n_product(y, u.T, n)
            total += frobenius_sq(y)
        return total

    dims = samples[0].shape
    mean_tensor = np.mean(samples, axis=0)
    centered = [np.asarray(s, dtype=np.float64) - mean_tensor for s in samples]

    projections = [None, None, None]
    for n in (1, 2, 3):
        scatter = reference_scatter(centered, n, [None, None, None])
        vals, _ = mpca._top_eigvecs(scatter, dims[n - 1])
        if target_dims is not None:
            j_n = int(target_dims[n - 1])
        else:
            mass = np.cumsum(np.maximum(vals, 0.0))
            total = mass[-1]
            if total <= 0:
                j_n = 1
            else:
                j_n = int(np.searchsorted(mass, variance_fraction * total) + 1)
                j_n = min(j_n, dims[n - 1])
        _, vecs = mpca._top_eigvecs(scatter, j_n)
        projections[n - 1] = vecs

    trace = [captured_scatter(centered, projections)]

    for _ in range(max_iters):
        for n in (1, 2, 3):
            scatter = reference_scatter(centered, n, projections)
            _, vecs = mpca._top_eigvecs(scatter, projections[n - 1].shape[1])
            projections[n - 1] = vecs
        trace.append(captured_scatter(centered, projections))
    return projections, trace


class TestReferenceFit:
    """Projections bit-identical to the reference; the trace, now read off
    the refinement's own scatters, equal to 1e-12 relative.  On some shapes
    the products may differ from the unfold form in the last bits (see
    ``tests/test_tensor3.py``); on these they do not."""

    @pytest.mark.parametrize("max_iters", [0, 1, 3])
    @pytest.mark.parametrize("target_dims", [None, (3, 2, 4)])
    def test_matches_reference(self, max_iters, target_dims):
        samples = random_samples(16, (6, 5, 7), seed=20)
        model = mpca.fit(samples, variance_fraction=0.9, max_iters=max_iters,
                         target_dims=target_dims)
        projections, trace = reference_fit(samples, variance_fraction=0.9,
                                           max_iters=max_iters,
                                           target_dims=target_dims)
        for u, ref in zip(model.projections, projections):
            assert np.array_equal(u, ref)
        assert len(model.scatter_trace) == len(trace) == max_iters + 1
        np.testing.assert_allclose(model.scatter_trace, trace, rtol=1e-12,
                                   atol=0.0)

    @pytest.mark.parametrize("max_iters", [0, 1])
    def test_matches_reference_on_pipeline_shape(self, max_iters):
        samples = random_samples(24, (32, 32, 8), seed=21)
        model = mpca.fit(samples, max_iters=max_iters)
        projections, _ = reference_fit(samples, max_iters=max_iters)
        for u, ref in zip(model.projections, projections):
            assert u.shape == ref.shape and np.array_equal(u, ref)


class TestFit:
    def test_requires_two_samples(self):
        with pytest.raises(ValueError):
            mpca.fit([np.zeros((2, 2, 2))])

    def test_inconsistent_dims(self):
        with pytest.raises(ValueError):
            mpca.fit([np.zeros((2, 2, 2)), np.zeros((3, 2, 2))])

    def test_full_variance_is_lossless(self):
        samples = random_samples(12, (4, 3, 5), seed=0)
        model = mpca.fit(samples, variance_fraction=1.0)
        assert model.target_dims == (4, 3, 5)
        mean = np.mean(samples, axis=0)
        total = sum(frobenius_sq(s - mean) for s in samples)
        assert abs(model.scatter_trace[-1] - total) / total < 1e-8
        # transform is an isometry at full dimension
        for s in samples[:3]:
            y = mpca.transform(model, s)
            rel = abs(frobenius_sq(y) - frobenius_sq(s - mean))
            assert rel / max(frobenius_sq(s - mean), 1e-12) < 1e-8

    def test_projection_columns_orthonormal(self):
        model = mpca.fit(random_samples(10, (5, 4, 3), seed=1),
                         variance_fraction=0.9)
        for u in model.projections:
            gram = u.T @ u
            np.testing.assert_allclose(gram, np.eye(u.shape[1]), atol=1e-8)

    def test_beats_random_projections(self):
        samples = random_samples(20, (4, 4, 4), seed=2)
        model = mpca.fit(samples, target_dims=(2, 2, 2), max_iters=2)
        learned = captured_scatter_oracle(samples, model.projections)
        rng = np.random.default_rng(3)
        for _ in range(200):
            triple = [random_orthonormal_cols(4, 2, rng) for _ in range(3)]
            assert learned >= captured_scatter_oracle(samples, triple) - 1e-9

    def test_scatter_trace_monotone(self):
        samples = random_samples(15, (5, 5, 5), seed=4)
        model = mpca.fit(samples, target_dims=(3, 3, 3), max_iters=4)
        trace = model.scatter_trace
        assert all(trace[i + 1] >= trace[i] - 1e-9 for i in range(len(trace) - 1))

    def test_captured_matches_oracle(self):
        samples = random_samples(10, (4, 3, 3), seed=5)
        model = mpca.fit(samples, target_dims=(2, 2, 2))
        oracle = captured_scatter_oracle(samples, model.projections)
        assert abs(model.scatter_trace[-1] - oracle) / oracle < 1e-10

    def test_duplicated_samples_same_model(self):
        samples = random_samples(8, (3, 3, 3), seed=6)
        m1 = mpca.fit(samples, variance_fraction=0.95)
        m2 = mpca.fit(samples + samples, variance_fraction=0.95)
        assert m1.target_dims == m2.target_dims
        for u1, u2 in zip(m1.projections, m2.projections):
            np.testing.assert_allclose(u1, u2, atol=1e-8)

    def test_deterministic(self):
        samples = random_samples(10, (4, 4, 4), seed=7)
        m1 = mpca.fit(samples)
        m2 = mpca.fit(samples)
        for u1, u2 in zip(m1.projections, m2.projections):
            np.testing.assert_array_equal(u1, u2)


class TestTransform:
    def setup_method(self):
        self.samples = random_samples(12, (4, 4, 4), seed=8)
        self.model = mpca.fit(self.samples, target_dims=(2, 3, 2))

    def test_mean_maps_to_zero(self):
        y = mpca.transform(self.model, self.model.mean_tensor)
        np.testing.assert_allclose(y, 0.0, atol=1e-12)

    def test_transformed_train_mean_zero(self):
        ys = [mpca.transform(self.model, s) for s in self.samples]
        np.testing.assert_allclose(np.mean(ys, axis=0), 0.0, atol=1e-8)

    def test_linearity(self):
        a, b = 0.3, 0.5
        t1, t2 = self.samples[0], self.samples[1]
        mean = self.model.mean_tensor
        combo = a * t1 + b * t2 + (1 - a - b) * mean
        lhs = mpca.transform(self.model, combo)
        rhs = (a * mpca.transform(self.model, t1)
               + b * mpca.transform(self.model, t2))
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_full_dim_reconstruction(self):
        model = mpca.fit(self.samples, variance_fraction=1.0)
        s = self.samples[0]
        y = mpca.transform(model, s)
        mats = {n + 1: model.projections[n] for n in range(3)}
        back = multi_mode_product(y, mats) + model.mean_tensor
        rel = frobenius_sq(back - s) / frobenius_sq(s)
        assert rel < 1e-8

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            mpca.transform(self.model, np.zeros((5, 4, 4)))


class TestFisher:
    def test_label_copy_ranked_first(self):
        rng = np.random.default_rng(9)
        labels = np.array([0, 1] * 10)
        x = rng.normal(size=(20, 4))
        x[:, 2] = labels  # perfect separator
        order, scores = mpca.fisher_rank(x, labels)
        assert order[0] == 2
        assert scores[2] > scores[order[1]]

    def test_constant_feature_last(self):
        rng = np.random.default_rng(10)
        labels = np.array([0, 1] * 10)
        x = rng.normal(size=(20, 3))
        x[:, 0] += labels  # informative
        x[:, 1] = 7.0      # constant: zero within-class AND zero between-class
        order, scores = mpca.fisher_rank(x, labels)
        assert scores[1] == 0.0
        assert order[-1] == 1

    def test_matches_formula_oracle(self):
        # 10 samples, 3 features, hand-checkable means/variances
        x = np.array([
            [1.0, 5.0, 0.0], [2.0, 5.5, 1.0], [1.5, 4.5, 0.0],
            [0.5, 5.0, 1.0], [1.0, 6.0, 0.0],
            [4.0, 5.2, 1.0], [5.0, 4.8, 0.0], [4.5, 5.0, 1.0],
            [3.5, 5.5, 0.0], [4.0, 4.5, 1.0],
        ])
        labels = np.array([0] * 5 + [1] * 5)
        _, scores = mpca.fisher_rank(x, labels)
        mu = x.mean(axis=0)
        expected = []
        for j in range(3):
            num = den = 0.0
            for c in (0, 1):
                xc = x[labels == c, j]
                num += len(xc) * (xc.mean() - mu[j]) ** 2
                den += len(xc) * xc.var()
            expected.append(num / max(den, 1e-12))
        np.testing.assert_allclose(scores, expected, atol=1e-10)

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            mpca.fisher_rank(np.zeros((4, 2)), np.zeros(4))

    def test_invariant_to_positive_affine_rescale(self):
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 2, 40)
        x = rng.normal(size=(40, 6)) + labels[:, None] * rng.normal(size=6)
        order1, _ = mpca.fisher_rank(x, labels)
        scale = rng.uniform(0.5, 3.0, size=6)
        shift = rng.normal(size=6)
        order2, _ = mpca.fisher_rank(x * scale + shift, labels)
        np.testing.assert_array_equal(order1, order2)


def unblocked_fisher_rank(features, labels):
    """``mpca.fisher_rank`` as it was before column blocking, verbatim."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("Fisher ranking needs both classes present")
    mu = x.mean(axis=0)
    between = np.zeros(x.shape[1])
    within = np.zeros(x.shape[1])
    for c in classes:
        xc = x[y == c]
        n_c = len(xc)
        mu_c = xc.mean(axis=0)
        between += n_c * (mu_c - mu) ** 2
        within += n_c * xc.var(axis=0)
    scores = np.where(
        between == 0.0, 0.0, between / np.maximum(within, mpca._FISHER_VAR_FLOOR)
    )
    order = np.lexsort((np.arange(len(scores)), -scores))
    return order, scores


# a multiple of mpca.FISHER_BLOCK, so B - 1, B, B + 1 and 2B + 1 columns
# end at, just short of or one column past a block edge
B = 2048


class TestFisherBlocked:
    """The column-blocked ranking equals one pass over all columns, byte
    for byte, at every width around the block edges."""

    @staticmethod
    def assert_bit_identical(x, labels):
        order, scores = mpca.fisher_rank(x, labels)
        ref_order, ref_scores = unblocked_fisher_rank(x, labels)
        assert scores.tobytes() == ref_scores.tobytes()
        assert order.tobytes() == ref_order.tobytes()

    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("width", [1, 2, B - 1, B, B + 1, 2 * B + 1])
    def test_matches_unblocked(self, width, layout):
        # 150 rows: numpy sums a lone column pairwise, in blocks of 8, which
        # differs from the row-by-row sum of a wider block; on these seeds
        # a one-column tail block changes the B + 1 and 2B + 1 scores
        assert B % mpca.FISHER_BLOCK == 0
        rng = np.random.default_rng(width + 1)
        x = rng.normal(size=(150, width)) * rng.uniform(0.5, 50.0, size=width)
        labels = rng.integers(0, 2, 150)
        self.assert_bit_identical(np.asarray(x, order=layout), labels)

    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_ties_and_constant_column(self, layout):
        rng = np.random.default_rng(30)
        x = np.round(rng.normal(size=(90, B + 3)), 1)
        x[:, 5] = 7.0
        labels = np.arange(90) % 2
        self.assert_bit_identical(np.asarray(x, order=layout), labels)
        assert mpca.fisher_rank(x, labels)[1][5] == 0.0

    def test_single_member_class(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(40, B + 1))
        labels = np.zeros(40, dtype=np.int64)
        labels[17] = 1
        self.assert_bit_identical(x, labels)

    @pytest.mark.parametrize("n, blocks", [
        (1, [(0, 1)]), (2, [(0, 2)]), (B, [(0, B)]), (B + 1, [(0, B + 1)]),
        (B + 2, [(0, B), (B, B + 2)]),
        (2 * B + 1, [(0, B), (B, 2 * B + 1)]),
    ])
    def test_no_one_column_block_unless_one_column(self, n, blocks):
        assert mpca._column_blocks(n, B) == blocks


def traced_peak(fn, *args):
    """Peak bytes numpy and Python allocate while ``fn(*args)`` runs, less
    what was allocated when it started; and its result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, result


class TestMemory:
    def test_fisher_rank_peak_is_block_sized(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=(224, 20_000))
        labels = np.arange(224) % 2
        peak, _ = traced_peak(mpca.fisher_rank, x, labels)
        # the whole-matrix version peaks at about 1.08 x the input
        assert peak < x.nbytes / 4

    def test_transform_flat_peak_is_its_output(self):
        samples = random_samples(120, (12, 12, 6), seed=33)
        model = mpca.fit(samples, target_dims=(11, 11, 6))
        peak, out = traced_peak(mpca.transform_flat, model, samples)
        # a list of latents stacked afterwards would hold the output twice
        assert peak < out.nbytes + 4 * samples[0].nbytes


class TestTransformFlat:
    def test_equals_stacked_latents(self):
        samples = random_samples(9, (5, 4, 3), seed=34)
        model = mpca.fit(samples, target_dims=(3, 2, 3))
        expected = np.stack([mpca.transform(model, s).ravel()
                             for s in samples])
        out = mpca.transform_flat(model, samples)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()



def early_pairs(n, dims, seed):
    """``n`` 2 x ``dims[2]``-frame stacks, as early fusion composes them."""
    first = random_samples(n, dims, seed)
    second = random_samples(n, dims, seed + 1)
    return [early_concat(a, b) for a, b in zip(first, second)]


class TestFitLatents:
    """``fit(..., latents=True)`` returns the plain fit's model and, from
    its last pass's own products, ``transform_flat``'s bytes."""

    @pytest.mark.parametrize("samples, target_dims, max_iters", [
        (random_samples(9, (5, 4, 3), seed=35), None, 1),
        (random_samples(16, (6, 5, 7), seed=36), (3, 2, 4), 0),
        (random_samples(16, (6, 5, 7), seed=36), (3, 2, 4), 1),
        (random_samples(16, (6, 5, 7), seed=36), (3, 2, 4), 2),
        (random_samples(12, (4, 3, 5), seed=37), (4, 3, 5), 1),
        (early_pairs(20, (10, 10, 8), seed=38), None, 1),
        (random_samples(30, (48, 48, 8), seed=39), None, 1),
    ], ids=["5x4x3", "J<I-iters0", "J<I-iters1", "J<I-iters2", "J=I",
            "early-16-frames", "30x48x48x8"])
    def test_latents_are_transform_flat(self, samples, target_dims,
                                        max_iters):
        plain = mpca.fit(samples, max_iters=max_iters,
                         target_dims=target_dims)
        model, latents = mpca.fit(samples, max_iters=max_iters,
                                  target_dims=target_dims, latents=True)
        assert model.target_dims == plain.target_dims
        assert model.scatter_trace == plain.scatter_trace
        for u, ref in zip(model.projections, plain.projections):
            assert u.shape == ref.shape and u.tobytes() == ref.tobytes()
        expected = mpca.transform_flat(model, samples)
        assert latents.dtype == expected.dtype
        assert latents.shape == expected.shape
        assert latents.flags.c_contiguous
        assert latents.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dims, target_dims, max_iters", [
        ((5, 4, 3), None, 1), ((6, 5, 7), (3, 2, 4), 0),
        ((6, 5, 7), (3, 2, 4), 2), ((48, 48, 8), None, 1),
    ], ids=["5x4x3", "J<I-iters0", "J<I-iters2", "48x48x8"])
    def test_float32_samples_fit_as_their_float64_values(self, dims,
                                                         target_dims,
                                                         max_iters):
        """A study holds float32 stacks; the fit and the projection widen
        them, so models and latents are those of the same values held as
        float64, byte for byte."""
        narrow = [s.astype(np.float32)
                  for s in random_samples(20, dims, seed=41)]
        wide = [s.astype(np.float64) for s in narrow]
        fits = [mpca.fit(samples, max_iters=max_iters,
                         target_dims=target_dims, latents=True)
                for samples in (narrow, wide)]
        (m32, x32), (m64, x64) = fits
        assert m32.scatter_trace == m64.scatter_trace
        for a, b in zip(m32.projections + [m32.mean_tensor],
                        m64.projections + [m64.mean_tensor]):
            assert a.dtype == b.dtype == np.float64
            assert a.tobytes() == b.tobytes()
        assert x32.dtype == np.float64 and x32.tobytes() == x64.tobytes()
        for s32, s64 in zip(narrow, wide):
            y = mpca.transform(m32, s32)
            assert y.dtype == np.float64
            assert y.tobytes() == mpca.transform(m32, s64).tobytes()

    def test_no_second_projection(self, monkeypatch):
        def transform(*args):
            raise AssertionError("a train sample was projected again")
        monkeypatch.setattr(mpca, "transform", transform)
        model, latents = mpca.fit(random_samples(9, (5, 4, 3), seed=35),
                                  target_dims=(3, 2, 2), latents=True)
        assert latents.shape == (9, model.n_features)

    def test_samples_untouched(self):
        samples = random_samples(9, (5, 4, 3), seed=35)
        copies = [s.copy() for s in samples]
        mpca.fit(samples, target_dims=(3, 2, 2), latents=True)
        for s, c in zip(samples, copies):
            assert s.tobytes() == c.tobytes()

    def test_peak_is_the_plain_fit_peak(self):
        samples = random_samples(60, (24, 24, 8), seed=40)
        plain, _ = traced_peak(
            lambda: mpca.fit(samples, target_dims=(22, 22, 6)))
        peak, (_, latents) = traced_peak(
            lambda: mpca.fit(samples, target_dims=(22, 22, 6), latents=True))
        # the latents live in the fit's centred stack: no second M x F
        # matrix (here 0.76 of the stack) is built
        assert peak < plain + samples[0].nbytes
        assert latents.nbytes > 0.5 * len(samples) * samples[0].nbytes


class TestSelectTop:
    def setup_method(self):
        rng = np.random.default_rng(12)
        self.x = rng.normal(size=(30, 12))
        self.labels = rng.integers(0, 2, 30)
        while len(np.unique(self.labels)) < 2:
            self.labels = rng.integers(0, 2, 30)
        self.order, _ = mpca.fisher_rank(self.x, self.labels)

    def test_kappa_full_is_permutation(self):
        out = mpca.select_top(self.x, self.order, 12)
        np.testing.assert_array_equal(out, self.x[:, self.order])

    def test_kappa_one(self):
        out = mpca.select_top(self.x, self.order, 1)
        np.testing.assert_array_equal(out[:, 0], self.x[:, self.order[0]])

    def test_kappa_210_on_wide_matrix(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(40, 1000))
        labels = np.array([0, 1] * 20)
        order, _ = mpca.fisher_rank(x, labels)
        out = mpca.select_top(x, order, 210)
        assert out.shape == (40, 210)
        np.testing.assert_array_equal(out, x[:, order[:210]])

    def test_kappa_out_of_range(self):
        with pytest.raises(ValueError):
            mpca.select_top(self.x, self.order, 13)


FIT_IN_CHILD = """
import hashlib
import numpy as np
from cardiofuse import mpca
from cardiofuse.fusion import early_concat

rng = np.random.default_rng(40)
basis = rng.normal(size=(48, 48, 8))
stacks = [basis * rng.normal() + 0.3 * rng.normal(size=(48, 48, 8))
          for _ in range(40)]
model, latents = mpca.fit(stacks, max_iters=1, latents=True)
for array in (*model.projections, np.array(model.scatter_trace),
              mpca.transform_flat(model, stacks), latents):
    print(array.shape, hashlib.sha256(array.tobytes()).hexdigest())
"""


class TestBlasThreadCount:
    """The fit, its train latents and the projection do not depend on how
    many threads BLAS uses, on the 48x48x8 stacks of the benchmark's
    imaging workload."""

    @staticmethod
    def fit_in_child(threads: int) -> str:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
                   OMP_NUM_THREADS=str(threads))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", FIT_IN_CHILD], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_fit_and_transform_equal_at_one_and_two_threads(self):
        one = self.fit_in_child(1)
        assert len(one.splitlines()) == 6
        assert one == self.fit_in_child(2)

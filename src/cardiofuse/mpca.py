"""Multilinear PCA on third-order tensors, with Fisher feature ranking.

One orthonormal projection matrix is learned per mode by maximizing the
total scatter of the projected, mean-centered samples.  Projected tensors
are flattened in canonical layout and ranked with per-feature Fisher
scores; only the top ``kappa`` features feed the classifier.  The scatter
the projections capture is read off the scatter matrices the fit computes
anyway, as ``trace(U_n^T S_n U_n)``.  The samples are centred once, in
one stacked array, and each one's scatter contribution is added in place;
no projected scatter copies a transposed unfolding
(``tensor3.projected_unfolding``).  The last refinement pass projects each
sample along modes 1 and 2 once, keeping the products in the stack, and a
fit asked for its training latents finishes them there with one mode-3
product per sample: they are ``transform_flat``'s bytes, with no second
projection of the training samples and no second latent matrix.

A ``max_iters=0`` fit keeps its initialization in its model: each mode's
spectrum of the unprojected scatter and the first projected mode-1
scatter.  ``fit(samples, ..., start=model)`` continues such a fit of the
same samples: it takes its initial projections from those spectra at its
own target dims, reuses the mode-1 scatter when those dims are the
start's, and so computes only its own centred stack, its refinement
passes and its latents, with the bytes of a plain fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .tensor3 import _product, mode_n_product, projected_unfolding

DEFAULT_VARIANCE_FRACTION = 0.97

_FISHER_VAR_FLOOR = 1e-12
# columns per block in fisher_rank: its class copy is M x this, not M x F
FISHER_BLOCK = 256


@dataclass(frozen=True)
class MpcaInit:
    """What a fit computes before its first pass: per mode the descending
    eigenvalues and (unsigned) eigenvectors of the unprojected scatter,
    and the mode-1 scatter after projecting modes 2 and 3."""

    spectra: tuple[tuple[np.ndarray, np.ndarray], ...]
    mode1_scatter: np.ndarray


@dataclass
class MpcaModel:
    """Learned mode-wise projections."""

    projections: list[np.ndarray]  # U^(n), shape (I_n, J_n), orthonormal columns
    mean_tensor: np.ndarray  # (I1, I2, I3)
    target_dims: tuple[int, int, int]
    variance_fraction: float
    scatter_trace: list[float] = field(default_factory=list)
    # kept by a max_iters=0 fit only, to start a refined fit of its samples
    init: MpcaInit | None = field(default=None, repr=False, compare=False)

    @property
    def input_dims(self) -> tuple[int, int, int]:
        return self.mean_tensor.shape

    @property
    def n_features(self) -> int:
        return int(np.prod(self.target_dims))


def _fix_sign(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def _eigh_descending(scatter: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and their eigenvectors, unsigned."""
    vals, vecs = np.linalg.eigh(scatter)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


def _top_eigvecs(scatter: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and sign-fixed top-``count`` eigenvectors."""
    vals, vecs = _eigh_descending(scatter)
    return vals, _fix_sign(vecs[:, :count])


def _add_scatter(scatter: np.ndarray | None,
                 unfolded: np.ndarray) -> np.ndarray:
    """``scatter + A @ A.T`` for the unfolding ``A``, added in place once
    ``scatter`` exists."""
    if scatter is None:
        return unfolded @ unfolded.T
    scatter += unfolded @ unfolded.T
    return scatter


def _mode_scatter(samples: np.ndarray, mode: int,
                  projections: list[np.ndarray | None]) -> np.ndarray:
    """Mode-``mode`` scatter matrix after projecting along the other modes."""
    scatter = None
    for s in samples:
        scatter = _add_scatter(scatter,
                               projected_unfolding(s, projections, mode))
    return scatter


def _kept_mode1_scatter(stack: np.ndarray, projections) -> np.ndarray:
    """The mode-2 scatter; each sample of ``stack`` is overwritten, from
    its start, with its ``q = s x1 U1^T``."""
    u1, _, u3 = projections
    scatter = None
    for s in stack:
        q = _product(s, u1.T, 1)
        scatter = _add_scatter(scatter,
                               projected_unfolding(q, [None, None, u3], 2))
        s.reshape(-1)[:q.size] = q.ravel()
    return scatter


def _kept_mode2_scatter(stack: np.ndarray, projections) -> np.ndarray:
    """The mode-3 scatter from the kept ``q``; each sample of ``stack`` is
    overwritten, from its start, with its ``q x2 U2^T``."""
    j1, u2 = projections[0].shape[1], projections[1]
    scatter = None
    for s in stack:
        row = s.reshape(-1)
        q = row[:j1 * s[0].size].reshape(j1, *s.shape[1:])
        # the transposed view of the product, whose rows are (J1 J2, I3)
        unfolded = projected_unfolding(q, [None, u2, None], 3)
        scatter = _add_scatter(scatter, unfolded)
        row[:unfolded.size] = unfolded.T.ravel()
    return scatter


def _kept_latents(stack: np.ndarray, projections) -> np.ndarray:
    """The (M, J1 J2 J3) latents from the kept ``q x2 U2^T``, one mode-3
    product each, as a view of ``stack``'s first M J1 J2 J3 entries.
    Sample r's latent goes to the r-th J1 J2 J3 entries, which end before
    sample r + 1 starts."""
    j1, j2, j3 = (u.shape[1] for u in projections)
    width, flat = j1 * j2 * j3, stack.reshape(-1)
    for r, s in enumerate(stack):
        p = s.reshape(-1)[:j1 * j2 * s.shape[2]].reshape(j1, j2, -1)
        flat[r * width:(r + 1) * width] = _product(
            p, projections[2].T, 3).ravel()
    return flat[:len(stack) * width].reshape(len(stack), width)


def _captured(scatter: np.ndarray, u: np.ndarray) -> float:
    """``trace(U^T S U)``: the scatter kept by all three projections when
    ``scatter`` is the mode-n scatter after projecting the other modes."""
    return float(np.sum(u * (scatter @ u)))


def _initial_dim(vals: np.ndarray, variance_fraction: float) -> int:
    """The smallest count of leading eigenvalues whose mass reaches
    ``variance_fraction`` of the total."""
    mass = np.cumsum(np.maximum(vals, 0.0))
    total = mass[-1]
    if total <= 0:
        return 1
    return min(int(np.searchsorted(mass, variance_fraction * total) + 1),
               len(vals))


def fit(samples: list[np.ndarray],
        variance_fraction: float = DEFAULT_VARIANCE_FRACTION,
        max_iters: int = 1,
        target_dims: tuple[int, int, int] | None = None,
        latents: bool = False,
        start: MpcaModel | None = None):
    """Learn mode-wise projections maximizing the total projected scatter.

    Each projection is initialized from the top eigenvectors of the full
    mode-n scatter of the centered samples, then refined by ``max_iters``
    alternating passes.  ``J_n`` is the smallest count whose eigenvalue
    mass reaches ``variance_fraction`` of the mode-n total, unless
    ``target_dims`` forces the output shape.

    ``scatter_trace`` holds the captured scatter before the first pass and
    after each pass.  No extra projection of the samples is made for it:
    the first pass's mode-1 scatter gives the entry before it, and each
    pass's mode-3 scatter the entry after it (with ``max_iters=0`` that
    one mode-1 scatter is still computed, for the single entry).

    A ``max_iters=0`` model keeps that initialization (``MpcaInit``: the
    three spectra and the mode-1 scatter) in its ``init``.  Given such a
    model as ``start``, the fit continues it: the samples must be the
    start's (its ``mean_tensor`` must equal theirs bit for bit, else
    ``ValueError``, as for a start of other input dims or one that kept no
    initialization).  The initial projections are taken from the start's
    spectra at this fit's own ``J_n``; when those dims are the start's,
    its mode-1 scatter and ``scatter_trace[0]`` are reused too.  The
    result is byte for byte the fit without ``start``.

    Returns the model, or with ``latents`` the pair ``(model, latents)``,
    where ``latents`` is byte for byte ``transform_flat(model, samples)``:
    the last pass's mode-1 and mode-2 products, finished by one mode-3
    product each, in the memory of the fit's centred stack (with
    ``max_iters=0`` there is no such pass, and ``transform_flat`` is
    called).
    """
    if len(samples) < 2:
        raise ValueError("MPCA needs at least 2 samples")
    if not 0.0 < variance_fraction <= 1.0:
        raise ValueError("variance_fraction must be in (0, 1]")
    dims = samples[0].shape
    for s in samples:
        if s.shape != dims:
            raise ValueError(f"inconsistent sample dims: {s.shape} vs {dims}")
    if target_dims is not None:
        for n, j_n in enumerate(target_dims, start=1):
            if not 1 <= int(j_n) <= dims[n - 1]:
                raise ValueError(f"target dim {j_n} invalid for mode {n}")
    if start is not None:
        if start.init is None:
            raise ValueError("start keeps no initialization: it must be a"
                             " max_iters=0 fit")
        if start.input_dims != dims:
            raise ValueError(f"start was fit on dims {start.input_dims},"
                             f" not {dims}")

    centered = np.array(samples, dtype=np.float64)
    mean_tensor = centered.mean(axis=0)
    centered -= mean_tensor
    if start is not None and (start.mean_tensor.tobytes()
                              != mean_tensor.tobytes()):
        raise ValueError("start was fit on other samples: its mean differs")

    # Full-projection initialization from each mode's spectrum, the
    # start's when there is one.
    spectra = start.init.spectra if start is not None else tuple(
        _eigh_descending(_mode_scatter(centered, n, [None, None, None]))
        for n in (1, 2, 3))
    projections = []
    for (vals, vecs), j_n in zip(spectra, (None,) * 3 if target_dims is None
                                 else target_dims):
        if j_n is None:
            j_n = _initial_dim(vals, variance_fraction)
        projections.append(_fix_sign(vecs[:, :int(j_n)]))

    if (start is not None
            and tuple(u.shape[1] for u in projections) == start.target_dims):
        scatter = start.init.mode1_scatter
        trace = [start.scatter_trace[0]]
    else:
        scatter = _mode_scatter(centered, 1, projections)
        trace = [_captured(scatter, projections[0])]
    init = MpcaInit(spectra, scatter) if max_iters == 0 else None
    for it in range(max_iters):
        last = it == max_iters - 1
        for n in (1, 2, 3):
            # the first pass starts from the scatter above; the last one
            # keeps each sample's products in its row of the stack, which
            # no later pass reads whole
            if last and n == 2:
                scatter = _kept_mode1_scatter(centered, projections)
            elif last and n == 3:
                scatter = _kept_mode2_scatter(centered, projections)
            elif it or n > 1:
                scatter = _mode_scatter(centered, n, projections)
            _, vecs = _top_eigvecs(scatter, projections[n - 1].shape[1])
            projections[n - 1] = vecs
        trace.append(_captured(scatter, projections[2]))

    model = MpcaModel(
        projections=projections,
        mean_tensor=mean_tensor,
        target_dims=tuple(u.shape[1] for u in projections),
        variance_fraction=variance_fraction,
        scatter_trace=trace,
        init=init,
    )
    if not latents:
        return model
    if max_iters == 0:
        return model, transform_flat(model, samples)
    return model, _kept_latents(centered, projections)


def transform(model: MpcaModel, t: np.ndarray) -> np.ndarray:
    """Project a tensor: center, then apply U^(n)T along each mode."""
    t = np.asarray(t, dtype=np.float64)
    if t.shape != model.input_dims:
        raise ValueError(f"dims {t.shape} do not match model {model.input_dims}")
    y = t - model.mean_tensor
    for n, u in enumerate(model.projections, start=1):
        y = mode_n_product(y, u.T, n)
    return y


def transform_flat(model: MpcaModel, samples: list[np.ndarray]) -> np.ndarray:
    """Project and flatten samples to an (M, J1*J2*J3) feature matrix.

    Each projection is written into one preallocated matrix, so the
    samples' latents are never held twice.
    """
    out = np.empty((len(samples), model.n_features))
    for row, s in zip(out, samples):
        row[:] = transform(model, s).ravel()
    return out


def _column_blocks(n: int, width: int) -> list[tuple[int, int]]:
    """``[start, stop)`` column ranges of ``width``; a one-column tail is
    merged into the block before it."""
    edges = list(range(0, n, width)) + [n]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def fisher_rank(features: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature Fisher scores and the descending ranking.

    Score_j = sum_c n_c (mu_cj - mu_j)^2 / sum_c n_c var_cj, with the
    denominator floored so perfectly separating features rank first.
    Returns (order, scores); ``order`` is an argsort by descending score
    with index as the deterministic tie-break.

    The means and variances are computed over blocks of ``FISHER_BLOCK``
    columns, so the one class subset alive at a time, in which the
    variance is taken in place, is a block-sized copy rather than a copy
    of the whole matrix.  The scores are bit-identical to one pass over
    all columns with ``var``: numpy reduces every column of a block the
    same way as every column of the full matrix, row by row for C order
    and pairwise for F order.  A block of one column would be reduced
    pairwise whatever the order, so no block is one column wide unless the
    matrix is: a one-column tail joins the block before it.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    classes = np.unique(y)
    if len(classes) < 2:
        raise ValueError("Fisher ranking needs both classes present")
    members = [np.flatnonzero(y == c) for c in classes]
    between = np.zeros(x.shape[1])
    within = np.zeros(x.shape[1])
    for start, stop in _column_blocks(x.shape[1], FISHER_BLOCK):
        block = x[:, start:stop]
        mu = block.mean(axis=0)
        for rows in members:
            xc = block[rows]
            n_c = len(xc)
            mu_c = xc.mean(axis=0)
            between[start:stop] += n_c * (mu_c - mu) ** 2
            # xc.var(axis=0)'s arithmetic, in place in the class copy
            xc -= mu_c
            np.square(xc, out=xc)
            within[start:stop] += n_c * (xc.sum(axis=0) / n_c)
            del xc  # one class copy alive at a time
    # the score arithmetic in place in ``within``
    np.maximum(within, _FISHER_VAR_FLOOR, out=within)
    scores = np.divide(between, within, out=within)
    scores[between == 0.0] = 0.0
    del between
    # a stable sort keeps equal scores in column order
    order = np.argsort(-scores, kind="stable")
    return order, scores


def select_top(features: np.ndarray, order: np.ndarray, kappa: int) -> np.ndarray:
    """Reorder columns by ranking and keep the first ``kappa``."""
    features = np.asarray(features)
    if not 1 <= kappa <= features.shape[1]:
        raise ValueError(f"kappa={kappa} out of range for {features.shape[1]} features")
    return features[:, np.asarray(order)[:kappa]]

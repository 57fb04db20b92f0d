"""Third-order tensor algebra.

A tensor is a ``numpy`` array of shape (I1, I2, I3).  The unfoldings,
mode products and ``frobenius_sq`` read their arrays as float64, widening
a float32 stack as a study holds it, so their results are float64;
``projected_unfolding`` computes in its input's dtype, and MPCA hands it
the float64 centred samples.  The canonical flat layout is
last-index-fastest, ``index(i1, i2, i3) = i1*I2*I3 + i2*I3 + i3``.  Mode
indices are 1-based (1, 2, 3) throughout, matching the usual
multilinear-algebra convention.

Unfolding convention: ``mode_n_unfold(t, n)`` has ``I_n`` rows; the columns
run over the remaining modes in increasing mode order with the *last*
remaining mode varying fastest (i.e. the canonical layout restricted to the
remaining modes).  ``mode_n_fold`` inverts it exactly.  Both are one fixed
axis permutation plus a reshape (pure data movement, no arithmetic).

No mode product copies a transposed unfolding: each is computed on the
tensor's own layout, mode 1 as ``U @ t.reshape(I1, -1)``, mode 2 as
``np.matmul(U, t)`` (one product per I1 slice) and mode 3 as
``t.reshape(-1, I3) @ U.T``.  Each output entry is the same dot product as
in ``U @ unfold(t)``; on the pipeline's shapes (``tests/test_tensor3.py``
pins them) the results are bit-identical to that form.
:func:`projected_unfolding` likewise builds the unfolding an MPCA scatter
needs from the layout its last product leaves, as a reshape or a
transposed view, with no copy once the other modes are projected.
"""

from __future__ import annotations

import numpy as np

_MODES = (1, 2, 3)
# axis order that brings mode n to the front, and the order that undoes it
_UNFOLD_AXES = {1: (0, 1, 2), 2: (1, 0, 2), 3: (2, 0, 1)}
_FOLD_AXES = {1: (0, 1, 2), 2: (1, 0, 2), 3: (1, 2, 0)}


def _check_mode(n: int) -> None:
    if n not in _MODES:
        raise ValueError(f"mode index must be 1, 2 or 3, got {n}")


def mode_n_unfold(t: np.ndarray, n: int) -> np.ndarray:
    """Mode-n unfolding: (I_n, prod of remaining dims) matrix."""
    _check_mode(n)
    t = np.asarray(t, dtype=np.float64)
    return np.ascontiguousarray(t.transpose(_UNFOLD_AXES[n])).reshape(
        t.shape[n - 1], -1)


def mode_n_fold(m: np.ndarray, n: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`mode_n_unfold` for a tensor of shape ``dims``."""
    _check_mode(n)
    moved = [dims[k] for k in _UNFOLD_AXES[n]]
    return np.ascontiguousarray(np.asarray(m, dtype=np.float64).reshape(
        moved).transpose(_FOLD_AXES[n]))


def _product(t: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """``t x_n m`` on ``t``'s own layout: no transposed copy of ``t``."""
    i1, i2, i3 = t.shape
    if n == 1:
        return (m @ t.reshape(i1, -1)).reshape(-1, i2, i3)
    if n == 2:
        return np.matmul(m, t)
    return (t.reshape(-1, i3) @ m.T).reshape(i1, i2, -1)


def mode_n_product(t: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """Mode-n product ``t x_n m``: dim n of ``t`` replaced by ``m.shape[0]``."""
    _check_mode(n)
    t = np.asarray(t, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != t.shape[n - 1]:
        raise ValueError(
            f"matrix shape {m.shape} incompatible with mode-{n} dim {t.shape[n - 1]}"
        )
    return _product(t, m, n)


def projected_unfolding(t: np.ndarray, projections, n: int) -> np.ndarray:
    """Mode-n unfolding of ``t`` after ``x_k projections[k-1].T`` along
    every mode ``k != n`` whose projection is not None, in increasing mode
    order; equal to ``mode_n_unfold`` of those mode products.

    Mode 1's unfolding is a reshape and mode 3's the transposed view
    ``p.reshape(-1, I3).T``; for mode 2 the mode-3 product is written in
    (I2, J1, J3) order, so that only an unprojected mode 3 needs a copy.
    """
    _check_mode(n)
    u1, u2, u3 = projections
    p = t
    if n != 1 and u1 is not None:
        p = _product(p, u1.T, 1)
    if n == 1:
        if u2 is not None:
            p = _product(p, u2.T, 2)
        if u3 is not None:
            p = _product(p, u3.T, 3)
        return p.reshape(p.shape[0], -1)
    if n == 3:
        if u2 is not None:
            p = _product(p, u2.T, 2)
        return p.reshape(-1, p.shape[2]).T
    moved = p.transpose(1, 0, 2)
    if u3 is not None:
        moved = np.matmul(moved, u3)
    return moved.reshape(p.shape[1], -1)


def multi_mode_product(t: np.ndarray, mats: dict[int, np.ndarray]) -> np.ndarray:
    """Apply mode products for each (mode, matrix) pair in ``mats``."""
    out = t
    for n in sorted(mats):
        out = mode_n_product(out, mats[n], n)
    return out


def frobenius_sq(t: np.ndarray) -> float:
    """Sum of squared entries (squared Frobenius norm)."""
    t = np.asarray(t, dtype=np.float64)
    return float(np.sum(t * t))

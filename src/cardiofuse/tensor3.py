"""Third-order tensor algebra.

A tensor is a C-contiguous float64 ``numpy`` array of shape (I1, I2, I3);
the canonical flat layout is last-index-fastest,
``index(i1, i2, i3) = i1*I2*I3 + i2*I3 + i3``.  Mode indices are 1-based
(1, 2, 3) throughout, matching the usual multilinear-algebra convention.

Unfolding convention: ``mode_n_unfold(t, n)`` has ``I_n`` rows; the columns
run over the remaining modes in increasing mode order with the *last*
remaining mode varying fastest (i.e. the canonical layout restricted to the
remaining modes).  ``mode_n_fold`` inverts it exactly.  Both are one fixed
axis permutation plus a reshape (pure data movement, no arithmetic).
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


def _unfold(t: np.ndarray, n: int) -> np.ndarray:
    return np.ascontiguousarray(t.transpose(_UNFOLD_AXES[n])).reshape(
        t.shape[n - 1], -1)


def _fold(m: np.ndarray, n: int, dims) -> np.ndarray:
    moved = [dims[k] for k in _UNFOLD_AXES[n]]
    return np.ascontiguousarray(m.reshape(moved).transpose(_FOLD_AXES[n]))


def mode_n_unfold(t: np.ndarray, n: int) -> np.ndarray:
    """Mode-n unfolding: (I_n, prod of remaining dims) matrix."""
    _check_mode(n)
    return _unfold(np.asarray(t, dtype=np.float64), n)


def mode_n_fold(m: np.ndarray, n: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`mode_n_unfold` for a tensor of shape ``dims``."""
    _check_mode(n)
    return _fold(np.asarray(m, dtype=np.float64), n, dims)


def mode_n_product(t: np.ndarray, m: np.ndarray, n: int) -> np.ndarray:
    """Mode-n product ``t x_n m``: dim n of ``t`` replaced by ``m.shape[0]``."""
    _check_mode(n)
    t = np.asarray(t, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != t.shape[n - 1]:
        raise ValueError(
            f"matrix shape {m.shape} incompatible with mode-{n} dim {t.shape[n - 1]}"
        )
    dims = list(t.shape)
    dims[n - 1] = m.shape[0]
    return _fold(m @ _unfold(t, n), n, dims)


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

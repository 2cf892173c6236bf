"""Dense SPD primitives: second-moment aggregation, iterative matrix square
root, and Frobenius-faithful vectorization.

All functions are pure and operate on float64 numpy arrays.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

#: Default number of coupled Newton-Schulz iterations. At 5 iterations the
#: relative residual ||X X - A|| / ||A|| (A the shifted input) stays <= 1e-2
#: on random SPD inputs with condition number <= 100 (eigendecomposition
#: oracle). On the 1,728 shifted C=16 frame moments of the default seed-0
#: synthetic set, 44% of which have condition number above 100 (up to 707),
#: it reaches 0.0146 (p90 0.0109).
DEFAULT_SQRT_ITERATIONS = 5

#: Default diagonal regularizer scale: eps = 1e-5 * trace / dim, which keeps
#: rank-deficient second moments positive definite for the iteration.
DEFAULT_EPS_SCALE = 1e-5


def _check_square_symmetric(a: np.ndarray, what: str) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what}: expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        raise ValueError(f"{what}: empty matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what}: non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > 1e-8 * scale:
        raise ValueError(f"{what}: matrix is not symmetric within tolerance")
    return a


def _shift(a: np.ndarray) -> np.ndarray:
    """``a + eps * I`` with ``eps = DEFAULT_EPS_SCALE * trace / dim``."""
    return a + DEFAULT_EPS_SCALE * float(np.trace(a)) / len(a) * np.eye(len(a))


def _shifted(a: np.ndarray) -> tuple[np.ndarray, float]:
    """The validated input shifted by ``eps * I``, and its Frobenius norm."""
    shifted = _shift(_check_square_symmetric(a, "spectral_norm_estimates"))
    fro = float(np.linalg.norm(shifted))
    if fro <= 0.0 or float(np.trace(shifted)) <= 0.0:
        raise ValueError("spectral_norm_estimates: non-positive input after eps shift")
    return shifted, fro


def _shift_valid(stack: np.ndarray, diag: np.ndarray) -> np.ndarray | None:
    """Check a non-empty stack of square moments with whole-stack
    reductions, each the exact counterpart of a ``_shifted`` check, and
    shift it in place by adding each moment's eps to ``diag``, its
    diagonals. Returns the shifted moments' Frobenius norms, or None for a
    stack ``_shifted`` rejects; a rejected stack may be left shifted."""
    n_moments, n = diag.shape
    # A NaN or an infinity makes a moment's bound non-finite.
    bound = np.maximum(stack.max(axis=(1, 2)), -stack.min(axis=(1, 2)))
    if not np.all(np.isfinite(bound)):
        return None
    asym = stack - stack.transpose(0, 2, 1)
    np.abs(asym, out=asym)
    if np.any(asym.max(axis=(1, 2)) > 1e-8 * np.maximum(1.0, bound)):
        return None
    del asym
    diag += DEFAULT_EPS_SCALE * diag.sum(axis=1, keepdims=True) / n
    flat = stack.reshape(n_moments, n * n, 1)
    fro = np.sqrt(np.swapaxes(flat, 1, 2) @ flat).reshape(-1)
    if np.any(fro <= 0.0) or np.any(diag.sum(axis=1) <= 0.0):
        return None
    return fro


def spectral_norm_estimates(moments) -> np.ndarray:
    """Largest-eigenvalue estimates of equal-size second moments, one per
    moment, as ``newton_schulz_sqrt`` normalizes them; an (N,) array.

    ``moments`` is an (N, C, C) array or a sequence of C x C matrices. Each
    moment is validated here for ``newton_schulz_sqrt``, which trusts it:
    an empty, non-finite or asymmetric moment, or one whose shifted trace
    or norm is not positive (a zero matrix), raises a
    ``spectral_norm_estimates:`` ``ValueError``, the first bad moment's. The
    stack is checked with whole-stack reductions, shifted by ``eps * I`` in
    place, and one deterministic power iteration (fixed all-ones start, 50
    steps) runs on it; each diagonal is restored before this returns or
    raises, so the caller's bytes end as they began and no shifted copy is
    made. Each estimate is bitwise the one a power iteration on that moment
    alone gives, the reference the tests keep; a moment whose ``A v``
    underflows to zero keeps its ``v`` from then on. Each Rayleigh quotient
    is clamped to [fro / sqrt(n), fro], the interval that always contains
    the true largest eigenvalue, which guards against a start vector nearly
    orthogonal to the dominant eigenvector.
    """
    # A contiguous, writable float64 array is shifted in place; anything
    # else is first copied into one.
    try:
        stack = np.require(moments, np.float64, ["C", "W"])
    except ValueError:
        # Matrices of different shapes: name the first bad one, if any.
        for a in moments:
            _shifted(a)
        raise ValueError("spectral_norm_estimates: moments differ in size") from None
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.size == 0:
        for a in stack:
            _shifted(a)
        return np.empty(0)
    n_moments, n = stack.shape[0], stack.shape[-1]
    diag = stack.reshape(n_moments, n * n)[:, :: n + 1]
    saved = diag.copy()
    try:
        fro = _shift_valid(stack, diag)
        if fro is None:
            # Name the first bad moment, as a per-moment check would.
            diag[...] = saved
            for a in stack:
                _shifted(a)
        v = np.full((n_moments, n, 1), 1.0 / np.sqrt(n))
        for _ in range(50):
            w = stack @ v
            nw = np.sqrt(np.swapaxes(w, 1, 2) @ w)
            np.divide(w, nw, out=v, where=nw != 0.0)
        rayleigh = ((np.swapaxes(v, 1, 2) @ stack) @ v).reshape(-1)
    finally:
        diag[...] = saved
    return np.minimum(np.maximum(rayleigh, fro / np.sqrt(n)), fro)


def newton_schulz_sqrt(a: np.ndarray, norm: float) -> np.ndarray:
    """Approximate square root of an SPD matrix by coupled Newton-Schulz.

    The input is shifted by ``eps * I`` with ``eps = DEFAULT_EPS_SCALE *
    trace / dim``, pre-normalized by ``norm`` (its estimated largest
    eigenvalue), iterated ``DEFAULT_SQRT_ITERATIONS`` times with the scheme

        T_k = (3 I - Z_k Y_k) / 2,   Y_{k+1} = Y_k T_k,   Z_{k+1} = T_k Z_k,

    starting at ``Y_0``, the normalized input, and ``Z_0 = I``, and
    post-compensated by the square root of the normalizer. The spectral
    norm is used rather than the trace because it maps the spectrum onto
    (0, 1] instead of over-shrinking it, which is what keeps the relative
    residual of five iterations within 1e-2 up to condition number 100 and
    within 0.0146 on the default synthetic set's moments (see
    ``DEFAULT_SQRT_ITERATIONS``). ``norm`` is the entry that
    ``spectral_norm_estimates`` returns for ``a``, which that function has
    validated; only a ``norm`` that is not positive and finite raises
    ``ValueError``. The result is symmetrized before return.
    """
    if not 0.0 < norm < math.inf:
        raise ValueError(f"newton_schulz_sqrt: norm must be positive and finite, got {norm}")
    shifted = _shift(np.asarray(a, dtype=np.float64))
    ident = np.eye(shifted.shape[0])
    y = shifted / norm
    # Z_0 = I makes Z_0 Y_0 = Y_0 and Z_1 = T_0 Z_0 = T_0 exact, and the last
    # Z is never read: 3 * DEFAULT_SQRT_ITERATIONS - 3 products in all.
    t = 0.5 * (3.0 * ident - y)
    y, z = y @ t, t
    for _ in range(DEFAULT_SQRT_ITERATIONS - 2):
        t = 0.5 * (3.0 * ident - z @ y)
        y, z = y @ t, t @ z
    y = y @ (0.5 * (3.0 * ident - z @ y))
    out = y * np.sqrt(norm)
    return 0.5 * (out + out.T)


def second_moment(features: np.ndarray) -> np.ndarray:
    """Uncentered second-order moment (1/M) sum_m t_m t_m^T.

    ``features`` is a C x M matrix whose columns are the M spatial feature
    vectors. The output is exactly symmetric by construction and PSD up to
    rounding; ``spectral_norm_estimates`` rejects it if it is not finite.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim != 2:
        raise ValueError(f"second_moment: expected a 2-D matrix, got shape {f.shape}")
    if f.shape[1] < 1:
        raise ValueError("second_moment: empty feature set (M = 0)")
    q = (f @ f.T) / f.shape[1]
    return 0.5 * (q + q.T)


@lru_cache(maxsize=16)
def _triu_layout(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat row-major indices of the n x n upper triangle and its scale
    vector (1 on the diagonal, sqrt(2) off it); internal, never mutated."""
    iu, ju = np.triu_indices(n)
    return iu * n + ju, np.where(iu == ju, 1.0, np.sqrt(2.0))


def vectorize_spd(a: np.ndarray) -> np.ndarray:
    """Upper-triangular vectorization with sqrt(2)-scaled off-diagonals.

    The scaling makes the plain dot product of two vectorized matrices equal
    their Frobenius inner product, so cosine over vectors equals cosine over
    matrices.
    """
    a = _check_square_symmetric(a, "vectorize_spd")
    flat, scale = _triu_layout(a.shape[0])
    return a.take(flat) * scale


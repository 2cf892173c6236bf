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


#: The moment checks' messages, in the order a matrix is checked.
_FAULTS = (
    "non-finite entries",
    "matrix is not symmetric within tolerance",
    "non-positive input after eps shift",
)


def spectral_norm_estimates(stack: np.ndarray) -> np.ndarray:
    """Largest-eigenvalue estimates of an (N, C, C) stack of second moments,
    one per moment, as ``newton_schulz_sqrt`` normalizes them; an (N,) array.

    The moments are validated here for ``newton_schulz_sqrt``, which trusts
    them: the first empty, non-finite or asymmetric moment, or one whose
    shifted trace or norm is not positive (a zero matrix), raises a
    ``spectral_norm_estimates:`` ``ValueError``. A deterministic power
    iteration (all-ones start, 50 steps) runs once on a copy of the stack
    shifted by each moment's ``eps * I``; the caller's stack is only read.
    Each estimate is bitwise that of a power iteration on its moment alone,
    the reference the tests keep; a moment whose ``A v`` underflows to zero
    keeps its ``v`` from then on. Each Rayleigh quotient is clamped to
    [fro / sqrt(n), fro], the interval that always contains the true largest
    eigenvalue, which guards against a start vector nearly orthogonal to the
    dominant eigenvector.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        shape = stack.shape[1:]
        raise ValueError(f"spectral_norm_estimates: expected a square matrix, got shape {shape}")
    n_moments, n = stack.shape[:2]
    if n == 0:
        raise ValueError("spectral_norm_estimates: empty matrix")
    # |A|, then |A - A^T| (skipping non-finite moments, zeroed after), use
    # `shifted`'s buffer before the stack fills it: no second temporary.
    shifted = np.abs(stack)
    bound = shifted.max(axis=(1, 2))
    finite = np.isfinite(bound)
    np.subtract(stack, stack.transpose(0, 2, 1), out=shifted, where=finite[:, None, None])
    np.abs(shifted, out=shifted)
    asymmetric = shifted.max(axis=(1, 2)) > 1e-8 * np.maximum(1.0, bound)
    np.copyto(shifted, stack)
    shifted[~finite] = 0.0
    diag = shifted.reshape(n_moments, n * n)[:, :: n + 1]
    diag += DEFAULT_EPS_SCALE * diag.sum(axis=1, keepdims=True) / n
    flat = shifted.reshape(n_moments, n * n, 1)
    fro = np.sqrt(np.swapaxes(flat, 1, 2) @ flat).reshape(-1)
    bad = np.array([~finite, asymmetric, (fro <= 0.0) | (diag.sum(axis=1) <= 0.0)])
    if bad.any():
        # The first bad moment, then the first check it fails.
        fault = _FAULTS[bad[:, bad.any(axis=0).argmax()].argmax()]
        raise ValueError(f"spectral_norm_estimates: {fault}")
    v = np.full((n_moments, n, 1), 1.0 / np.sqrt(n))
    for _ in range(50):
        w = shifted @ v
        nw = np.sqrt(np.swapaxes(w, 1, 2) @ w)
        np.divide(w, nw, out=v, where=nw != 0.0)
    rayleigh = ((np.swapaxes(v, 1, 2) @ shifted) @ v).reshape(-1)
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
    a = np.asarray(a, dtype=np.float64)
    ident = np.eye(len(a))
    y = (a + DEFAULT_EPS_SCALE * float(np.trace(a)) / len(a) * ident) / norm
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
    """Uncentered second-order moment (1/M) sum_m t_m t_m^T of a C x M
    matrix whose columns are the M spatial feature vectors, or of each matrix
    of an (N, C, M) stack, with the bits of a call on that matrix alone.
    Exactly symmetric by construction and PSD up to rounding;
    ``spectral_norm_estimates`` rejects it if it is not finite.
    """
    f = np.asarray(features, dtype=np.float64)
    if f.ndim not in (2, 3):
        raise ValueError(f"second_moment: expected a 2-D matrix or 3-D stack, got shape {f.shape}")
    if f.shape[-1] < 1:
        raise ValueError("second_moment: empty feature set (M = 0)")
    q = f @ f.swapaxes(-1, -2)
    # In place where it can be: a stack's moments allocate two arrays, not four.
    q /= f.shape[-1]
    s = q + q.swapaxes(-1, -2)
    s *= 0.5
    return s


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
    matrices. ``a`` is a root from ``newton_schulz_sqrt``, trusted as it is:
    exactly symmetric by construction and finite because its moment was
    validated, so only its upper triangle is read.
    """
    flat, scale = _triu_layout(len(a))
    return a.take(flat) * scale


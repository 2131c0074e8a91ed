"""Small dense kernels: guarded SPD solves and exact spectral norms.

The coefficient systems in this package are tiny (history depth <= 10),
so plain normal equations with a diagonal-jitter ladder are enough;
conditioning problems are caught by an explicit residual check rather
than by an orthogonal factorization.
"""

from __future__ import annotations

import math

import numpy as np

SOLVE_RTOL = 1e-8
SYMMETRY_TOL = 1e-10
BASE_JITTER = 1e-10
JITTER_STEPS = 4  # escalations of x10 beyond the base level


class SingularSystemError(RuntimeError):
    """SPD solve failed even after the full jitter ladder."""

    def __init__(self, message: str, jitter: float):
        super().__init__(message)
        self.jitter = jitter


def jitter_ladder(a: np.ndarray) -> list[float]:
    """Levels tried after the zero-jitter attempt: base..base*10^4, scaled by trace/n."""
    n = a.shape[0]
    lam0 = BASE_JITTER * max(1.0, float(np.trace(a)) / n)
    return [lam0 * 10.0**i for i in range(JITTER_STEPS + 1)]


def squared_norms(x: np.ndarray) -> np.ndarray:
    """``x.dot(x)`` of every vector along the last axis, bit for bit."""
    return np.vecdot(x, x)


def _accepted(m: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float):
    """The solution of ``m x = b``, or None.

    None unless ``m`` is positive definite and ``x`` solves ``a x = b``
    within ``tol``.
    """
    try:
        np.linalg.cholesky(m)  # positive-definiteness gate
        x = np.linalg.solve(m, b)
    except np.linalg.LinAlgError:
        return None
    if not np.isfinite(x).all() or frobenius_norm(a @ x - b) > tol:
        return None
    return x


def _solve_spd_impl(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``a @ x = b`` for symmetric PSD-ish ``a``; returns (x, jitter used).

    ``a`` itself is tried first, then ``a + lam I`` for each level of
    :func:`jitter_ladder`.  Each attempt is accepted only if the solution
    reproduces ``b`` against the ORIGINAL matrix within
    ``SOLVE_RTOL * (1 + ||b||)``.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if b.shape != (a.shape[0],):
        raise ValueError(f"rhs shape {b.shape} does not match matrix {a.shape}")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    if np.abs(a - a.T).max(initial=0.0) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric within 1e-10")
    tol = SOLVE_RTOL * (1.0 + frobenius_norm(b))
    x = _accepted(a, a, b, tol)
    if x is not None:
        return x, 0.0
    eye = np.eye(a.shape[0])
    for lam in jitter_ladder(a):
        x = _accepted(a + lam * eye, a, b, tol)
        if x is not None:
            return x, lam
    raise SingularSystemError(
        f"system remained singular/indefinite after jitter {lam:g}", jitter=lam
    )


def spd_attempt(a: np.ndarray, b: np.ndarray):
    """The zero-jitter attempt of :func:`_solve_spd_impl` for a stack of systems.

    ``a`` is ``(B, p, p)`` and ``b`` is ``(B, p)``.  Returns the solutions
    and which of them :func:`_solve_spd_impl` would accept at zero jitter
    (symmetric within 1e-10, positive definite, finite, and solving
    ``a x = b`` within ``SOLVE_RTOL * (1 + ||b||)``), or None when numpy's
    Cholesky gate fails, which it does for the whole stack at once.  The
    one-run :func:`_accepted` stays scalar: this form of it measured 5 µs
    slower per solve on one system.
    """
    try:
        np.linalg.cholesky(a)  # positive-definiteness gate
        x = np.linalg.solve(a, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return None
    scale = np.fmax(1.0, np.abs(a).max(axis=(1, 2), initial=0.0))
    symmetric = ~(np.abs(a - a.mT).max(axis=(1, 2), initial=0.0) > SYMMETRY_TOL * scale)
    tol = SOLVE_RTOL * (1.0 + np.sqrt(squared_norms(b)))
    err = np.sqrt(squared_norms(np.matvec(a, x) - b))
    return x, symmetric & np.isfinite(x).all(axis=1) & ~(err > tol)


def solve_spd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a symmetric positive-(semi)definite system with jitter retries."""
    x, _ = _solve_spd_impl(a, b)
    return x


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value, from an exact SVD rather than an iterative estimate."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"need a 2-D matrix, got shape {a.shape}")
    if a.size == 0 or not np.abs(a).max(initial=0.0) > 0.0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def frobenius_norm(m: np.ndarray) -> float:
    """Square root of the sum of squared entries (the 2-norm of a vector).

    The value of ``np.linalg.norm(m)``, computed the same way (one dot
    product over the entries in memory order) without its dispatch
    overhead, which dominates at the sizes of one Anderson iteration.
    """
    x = np.asarray(m, dtype=np.float64).ravel(order="K")
    return math.sqrt(x.dot(x))

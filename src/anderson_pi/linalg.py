"""Small dense kernels: guarded SPD solves and exact spectral norms.

The coefficient systems in this package are tiny (history depth <= 10),
so plain normal equations with a diagonal-jitter ladder are enough;
conditioning problems are caught by an explicit residual check rather
than by an orthogonal factorization.
"""

from __future__ import annotations

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
    """Jitter levels to try: 0, then base..base*10^4 scaled by trace/n."""
    n = a.shape[0]
    lam0 = BASE_JITTER * max(1.0, float(np.trace(a)) / n)
    return [0.0] + [lam0 * 10.0**i for i in range(JITTER_STEPS + 1)]


def _solve_spd_impl(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve ``a @ x = b`` for symmetric PSD-ish ``a``; returns (x, jitter used).

    Each ladder level is accepted only if the solution reproduces ``b``
    against the ORIGINAL matrix within ``SOLVE_RTOL * (1 + ||b||)``.
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
    b_norm = float(np.linalg.norm(b))
    tol = SOLVE_RTOL * (1.0 + b_norm)
    eye = np.eye(a.shape[0])
    lam = 0.0
    for lam in jitter_ladder(a):
        m = a + lam * eye if lam else a
        try:
            np.linalg.cholesky(m)  # positive-definiteness gate
            x = np.linalg.solve(m, b)
        except np.linalg.LinAlgError:
            continue
        if not np.isfinite(x).all():
            continue
        if float(np.linalg.norm(a @ x - b)) <= tol:
            return x, lam
    raise SingularSystemError(
        f"system remained singular/indefinite after jitter {lam:g}", jitter=lam
    )


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
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(np.asarray(m, dtype=np.float64)))

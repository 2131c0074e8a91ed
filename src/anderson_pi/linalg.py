"""Small dense kernels: guarded SPD solves and exact spectral norms.

The coefficient systems in this package are tiny (history depth <= 10),
so plain normal equations with a diagonal-jitter ladder are enough;
conditioning problems are caught by an explicit residual check rather
than by an orthogonal factorization.  :func:`spd_solve` holds the one
acceptance rule, for a stack of systems, and returns ``(x, jitter,
accepted)``, as its one-system case ``_solve_spd_impl`` does: a system
not accepted is a flag, never an exception.  The solvers pass Gram
matrices, symmetric by construction.
"""

from __future__ import annotations

import math

import numpy as np

SOLVE_RTOL = 1e-8
BASE_JITTER = 1e-10
JITTER_STEPS = 4  # escalations of x10 beyond the base level


# No solve raises this any more.  It stays, with its export, only because
# perfbench/tracing.py's _count_spd_failure names it; both go together.
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


def _attempt(m: np.ndarray, a: np.ndarray, b: np.ndarray, tol: np.ndarray):
    """Solutions of the stack ``m x = b``, and which solve the ORIGINAL ``a x = b``.

    A solution is accepted if it is finite and within ``tol``.  None if
    numpy's Cholesky gate finds any ``m[r]`` not positive definite.
    """
    try:
        np.linalg.cholesky(m)  # positive-definiteness gate
        x = np.linalg.solve(m, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return None
    # a non-finite x makes its err nan or inf, which this also rejects
    err = np.sqrt(squared_norms(np.matvec(a, x) - b))
    return x, err <= tol


def spd_solve(a: np.ndarray, b: np.ndarray):
    """Solve ``a[r] x = b[r]`` for a ``(B, p, p)`` stack of symmetric PSD-ish matrices.

    Returns (x, jitter, accepted).  One zero-jitter attempt covers the
    stack; each system it rejects retries alone with ``a[r] + lam I`` up
    :func:`jitter_ladder` (first at zero jitter, if the Cholesky gate
    failed the stack), each attempt accepted only if the solution solves
    the original system within ``SOLVE_RTOL * (1 + ||b[r]||)``.
    ``jitter[r]`` is the level used, or the last one tried.
    """
    tol = SOLVE_RTOL * (1.0 + np.sqrt(squared_norms(b)))
    jitter = np.zeros(len(a))
    first = _attempt(a, a, b, tol)
    if first is None:
        x, accepted = np.zeros(b.shape), np.zeros(len(a), bool)
        alone = [0.0] if len(a) > 1 else []
    else:
        (x, accepted), alone = first, []
    for r in (~accepted).nonzero()[0].tolist():
        ar, br, tr = a[r : r + 1], b[r : r + 1], tol[r : r + 1]
        eye = np.eye(a.shape[-1])
        for lam in alone + jitter_ladder(a[r]):
            jitter[r] = lam
            found = _attempt(ar + lam * eye, ar, br, tr)
            if found is not None and found[1][0]:
                x[r], accepted[r] = found[0][0], True
                break
    return x, jitter, accepted


def _solve_spd_impl(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """:func:`spd_solve` of one system: (x, jitter, accepted) as Python scalars."""
    x, jitter, accepted = spd_solve(a[None], b[None])
    return x[0], float(jitter[0]), bool(accepted[0])


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

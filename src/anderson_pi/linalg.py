"""Small dense kernels: guarded SPD solves and exact spectral norms.

The coefficient systems in this package are tiny (history depth <= 10),
so plain normal equations with a diagonal-jitter ladder are enough;
conditioning problems are caught by an explicit residual check rather
than by an orthogonal factorization.  :func:`spd_solve` holds the one
acceptance rule, for a stack of systems, and returns ``(x, jitter,
accepted)``, as its one-system case ``_solve_spd_impl`` does: a system
not accepted is a flag, never an exception.  The solvers pass Gram
matrices, symmetric by construction.

Each attempt calls LAPACK through numpy's own gufuncs, the Cholesky
``potrf`` as a positive-definiteness gate and the LU ``gesv`` for the
solution: the calls ``np.linalg.cholesky`` and ``np.linalg.solve`` make,
with the same bits, without their Python wrappers.  The gufuncs settle
each system of a stack alone: a system whose factorization fails gets an
all-nan result, and the others are untouched.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import _umath_linalg

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

    A solution is accepted if the Cholesky gate passes for its ``m[r]``,
    and if ``||a x - b||`` is finite (so is x) and within ``tol``.  Called
    under :func:`spd_solve`'s errstate, which keeps a failed system's nan
    results from warning.
    """
    gate = ~np.isnan(_umath_linalg.cholesky_lo(m)[..., 0, 0])
    x = _umath_linalg.solve1(m, b)
    err = np.sqrt(squared_norms(np.matvec(a, x) - b))
    return x, gate & np.isfinite(err) & (err <= tol)


def spd_solve(a: np.ndarray, b: np.ndarray):
    """Solve ``a[r] x = b[r]`` for a ``(B, p, p)`` stack of symmetric PSD-ish matrices.

    Returns (x, jitter, accepted).  One zero-jitter attempt covers the
    stack; each system it rejects retries alone with ``a[r] + lam I`` up
    :func:`jitter_ladder`, each attempt accepted only if the solution
    solves the original system within ``SOLVE_RTOL * (1 + ||b[r]||)``.
    ``jitter[r]`` is the level used, or the last one tried; a system never
    accepted keeps the zero-jitter attempt's x.
    """
    tol = SOLVE_RTOL * (1.0 + np.sqrt(squared_norms(b)))
    jitter = np.zeros(len(a))
    with np.errstate(all="ignore"):
        x, accepted = _attempt(a, a, b, tol)
        for r in (~accepted).nonzero()[0].tolist():
            ar, br, tr = a[r : r + 1], b[r : r + 1], tol[r : r + 1]
            eye = np.eye(a.shape[-1])
            for lam in jitter_ladder(a[r]):
                jitter[r] = lam
                xr, ok = _attempt(ar + lam * eye, ar, br, tr)
                if ok[0]:
                    x[r], accepted[r] = xr[0], True
                    break
    return x, jitter, accepted


def _solve_spd_impl(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float, bool]:
    """:func:`spd_solve` of one system: (x, jitter, accepted) as Python scalars."""
    x, jitter, accepted = spd_solve(a[None], b[None])
    return x[0], float(jitter[0]), bool(accepted[0])


def spectral_norm(m: np.ndarray) -> float | list[float]:
    """Largest singular value, from an exact SVD rather than an iterative estimate.

    0.0 for an empty or zero matrix (or one holding nan).  For a stack of
    matrices, a list with the norm of each, from one stacked SVD.
    """
    a = np.asarray(m, dtype=np.float64)
    if a.ndim == 2:
        return spectral_norm(a[None])[0]
    if a.ndim != 3:
        raise ValueError(f"need a matrix or a stack of matrices, got shape {a.shape}")
    norms = np.zeros(len(a))
    live = np.abs(a).max(axis=(1, 2), initial=0.0) > 0.0
    if live.any():
        norms[live] = np.linalg.svd(a[live], compute_uv=False)[:, 0]
    return norms.tolist()


def frobenius_norm(m: np.ndarray) -> float:
    """Square root of the sum of squared entries (the 2-norm of a vector).

    The value of ``np.linalg.norm(m)``, computed the same way (one dot
    product over the entries in memory order) without its dispatch
    overhead, which dominates at the sizes of one Anderson iteration.
    """
    x = np.asarray(m, dtype=np.float64).ravel(order="K")
    return math.sqrt(x.dot(x))

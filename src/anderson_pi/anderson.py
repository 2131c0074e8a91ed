"""Anderson mixing core: history window, coefficient solvers, updates.

The window keeps the last ``m + 1`` iterates Q and their images TQ.
With residuals ``e_j = TQ_j - Q_j`` the bookkeeping matrices are

* ``E``  (n x (p+1)) -- residual columns, oldest first,
* ``D``  (n x p)     -- iterate differences, newest first
                        (column i is ``Q_{k-i} - Q_{k-i-1}``),
* ``H``  (n x p)     -- residual differences, newest first.

Three coefficient solvers are provided and are equivalent on
well-conditioned histories:

* the simplex-constrained least-squares problem solved in closed form
  through its KKT system ``(E^T E) y = 1``, ``alpha = y / sum(y)``,
* the unconstrained reformulation ``tau = argmin ||e_k - H tau||``,
* the ridge-stabilized variant, which adds
  ``eta * (||D||_F^2 + ||H||_F^2) * ||tau||^2`` to the objective so the
  penalty scale vanishes automatically as the iteration converges.

``tau`` and ``alpha`` are linked by a fixed linear map: ``alpha = A @
(1, tau)`` where ``A`` is the anti-diagonal +-1 transform built by
:func:`transformation_matrix`; the inverse is the reversed partial-sum
formula ``tau_i = sum_{j<=p-i-1} alpha_j``.

The next iterate can be formed in two algebraically identical ways:
the damped linear mixing ``(1-beta) X alpha + beta F alpha`` (computed
as ``F alpha - (1-beta) E alpha``) or the quasi-Newton step
``Q - G e_k`` with ``G = (D + beta H)(H^T H + reg I)^{-1} H^T - beta I``.

Solvers guard themselves: each candidate coefficient vector must
certify ``||E alpha||_2 <= ||e_k||_2`` (which the exact minimizer
satisfies, since the unit vector on the newest residual is feasible).
Candidates that fail the jitter ladder or the certificate fall back to
that unit vector -- a plain damped step -- and the solution is flagged.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    SingularSystemError,
    _solve_spd_impl,
    frobenius_norm,
    spectral_norm,
)

GAIN_ZERO_TOL = 1e-14
CERT_RTOL = 1e-10
ALPHA_SUM_TOL = 1e-8

KIND_KKT = "KKT"
KIND_UNCONSTRAINED = "Unconstrained"
KIND_REGULARIZED = "Regularized"
KIND_VANILLA = "Vanilla"


class AndersonHistory:
    """Window of the most recent iterates and their operator images.

    Preallocated buffers hold the iterates X, the images F and the
    residuals E = F - X, oldest first (n x (depth + 1) each), and the
    iterate and residual differences D and H, newest first (n x depth
    each).  :meth:`push` writes the new columns and one new difference
    column of each kind in place; once the window is full it evicts the
    oldest pair by shifting every column one place.

    The matrices handed out by :meth:`newest_iterate` and
    :func:`build_history_matrices` are views of these buffers, each
    column contiguous in memory.  They stay valid until the next
    :meth:`push` or :meth:`clear_keep_newest`, which overwrite the
    buffers in place: copy what must outlive that.  One solver run owns
    one history -- not thread safe.
    """

    def __init__(self, depth: int):
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        self.depth = depth
        self._len = 0
        self._n: int | None = None
        # row j of _xfe[0], _xfe[1], _xfe[2] is column j of X, F, E;
        # row i of _dh[0], _dh[1] is column i of D, H
        self._xfe = np.empty((3, depth + 1, 0))
        self._dh = np.empty((2, depth, 0))

    def __len__(self) -> int:
        return self._len

    @property
    def n(self) -> int:
        if self._n is None:
            raise ValueError("history is empty")
        return self._n

    def push(self, q: np.ndarray, tq: np.ndarray) -> None:
        """Copy ``q`` and ``tq`` into the window, evicting the oldest pair if full."""
        q = np.asarray(q, dtype=np.float64).ravel()
        tq = np.asarray(tq, dtype=np.float64).ravel()
        if q.shape != tq.shape:
            raise ValueError("iterate and image must have the same length")
        if self._n is None:
            self._n = q.size
            self._xfe = np.empty((3, self.depth + 1, q.size))
            self._dh = np.empty((2, self.depth, q.size))
        elif q.size != self._n:
            raise ValueError(f"vector length {q.size} != history dimension {self._n}")
        k, n = self._len, self._n
        xfe, dh = self._xfe, self._dh
        # shift each buffer as one flat run: numpy moves an overlapping 1-D
        # slice in place, where a 2-D one goes through a temporary copy
        if k == self.depth + 1:
            for flat in xfe.reshape(3, -1):
                flat[:-n] = flat[n:]
            k -= 1
        if k > 1:
            for flat in dh.reshape(2, -1):
                flat[n : k * n] = flat[: (k - 1) * n]
        xfe[0, k] = q
        xfe[1, k] = tq
        np.subtract(tq, q, out=xfe[2, k])
        if k:
            np.subtract(xfe[::2, k], xfe[::2, k - 1], out=dh[:, 0])
        self._len = k + 1

    def clear_keep_newest(self) -> None:
        if self._len:
            self._xfe[:, 0] = self._xfe[:, self._len - 1]
            self._len = 1

    def newest_iterate(self) -> np.ndarray:
        if not self._len:
            raise ValueError("history is empty")
        return self._xfe[0, self._len - 1]


@dataclass
class HistoryMatrices:
    """Residual matrix E plus the difference matrices D and H."""

    residuals: np.ndarray  # E, n x (p+1), oldest first
    delta_q: np.ndarray    # D, n x p, newest first
    delta_e: np.ndarray    # H, n x p, newest first

    @property
    def n_columns(self) -> int:
        return self.residuals.shape[1]

    @property
    def e_newest(self) -> np.ndarray:
        return self.residuals[:, -1]


def build_history_matrices(history: AndersonHistory) -> HistoryMatrices:
    """E, D and H of the window; with one entry D and H are empty.

    The matrices are views of the history's buffers, valid until its next
    ``push`` or ``clear_keep_newest``.
    """
    k = len(history)
    if k == 0:
        raise ValueError("cannot build matrices from an empty history")
    dh = history._dh[:, : k - 1]
    return HistoryMatrices(
        residuals=history._xfe[2, :k].T, delta_q=dh[0].T, delta_e=dh[1].T
    )


@dataclass
class MixingSolution:
    """Coefficients produced by one of the solvers, plus diagnostics.

    ``alpha`` always sums to one; ``tau`` is its unconstrained
    counterpart and ``mixed_residual`` is ``E alpha``.  ``jitter`` is the
    diagonal level the Gram solve needed (0.0 for a clean solve) and
    ``fallback`` marks the unit-vector safety path.  A regularized solve
    with ``eta > 0`` and ``p > 0`` also records its ridge scale
    ``eta (||D||_F^2 + ||H||_F^2)`` and ``trace(H^T H)``; ``gram_trace``
    is None otherwise.
    """

    alpha: np.ndarray
    tau: np.ndarray
    mixed_residual: np.ndarray
    gain_theta: float
    solver_kind: str
    eta: float = 0.0
    jitter: float = 0.0
    fallback: bool = False
    ridge_scale: float = 0.0
    gram_trace: float | None = None


def transformation_matrix(p: int) -> np.ndarray:
    """The (p+1) x (p+1) map A with alpha = A @ (1, tau).

    Anti-diagonal of ones with -1 immediately to the right of each
    (except the first row); row r reads
    ``alpha_0 = tau_{p-1}``, ``alpha_r = tau_{p-r-1} - tau_{p-r}`` and
    ``alpha_p = 1 - tau_0``, which forces sum(alpha) = 1 identically.
    """
    if p < 0:
        raise ValueError(f"p must be >= 0, got {p}")
    a = np.zeros((p + 1, p + 1))
    a[0, p] = 1.0
    for r in range(1, p + 1):
        a[r, p - r] = 1.0
        a[r, p - r + 1] = -1.0
    return a


@functools.lru_cache(maxsize=None)
def transform_cond2(p: int) -> float:
    """2-norm condition number of :func:`transformation_matrix`, cached per p."""
    return float(np.linalg.cond(transformation_matrix(p)))


def tau_to_alpha(tau) -> np.ndarray:
    """``transformation_matrix(p) @ (1, tau)`` in closed form.

    The rows of the map are the adjacent differences of
    ``(0, tau_{p-1}, ..., tau_0, 1)``.
    """
    tau = np.asarray(tau, dtype=np.float64).ravel()
    if not np.isfinite(tau).all():
        raise ValueError("tau contains non-finite entries")
    s = np.concatenate(([0.0], tau[::-1], [1.0]))
    return s[1:] - s[:-1]


def alpha_to_tau(alpha) -> np.ndarray:
    """Inverse transform: tau_i = sum of the p - i oldest alpha weights."""
    alpha = np.asarray(alpha, dtype=np.float64).ravel()
    if alpha.size == 0:
        raise ValueError("alpha must be nonempty")
    total = float(alpha.sum())
    if not np.isfinite(total) or abs(total - 1.0) > ALPHA_SUM_TOL:
        raise ValueError(f"alpha must sum to 1 within {ALPHA_SUM_TOL}, got {total!r}")
    p = alpha.size - 1
    if p == 0:
        return np.zeros(0)
    partial = np.cumsum(alpha)[:p]
    return partial[::-1].copy()


def gain_theta(mixed: np.ndarray, e_newest: np.ndarray) -> float:
    """Gain of the mixed residual ``E alpha``: ||E alpha||_inf / ||e_k||_inf.

    Defined as 0 once the newest residual is at numerical zero
    (below 1e-14): the iteration has converged.
    """
    denom = float(np.abs(e_newest).max(initial=0.0))
    if denom < GAIN_ZERO_TOL:
        return 0.0
    return float(np.abs(mixed).max(initial=0.0) / denom)


def coefficient_bounds(
    alpha_reg: np.ndarray,
    alpha_non: np.ndarray | None,
    e_norm: float,
    eta: float,
    p: int,
) -> tuple[float, float, float | None, float | None]:
    """Left and right sides of the coefficient bounds of a regularized solve.

    Prop2_1: ``||alpha_reg||^2 <= 4 (1 + ||e_k||_2^2 / eta^2)``.  Prop2_2,
    against the unregularized coefficients ``alpha_non`` (its sides are
    None without them): ``||alpha_reg - alpha_non||^2 <= cond2(A)^2
    ||alpha_non||^2 - (2p + 1) / (p + 1)`` with ``A =
    transformation_matrix(p)``.
    """
    norm_lhs = frobenius_norm(alpha_reg) ** 2
    norm_rhs = 4.0 * (1.0 + e_norm**2 / eta**2)
    if alpha_non is None:
        return norm_lhs, norm_rhs, None, None
    gap_lhs = frobenius_norm(alpha_reg - alpha_non) ** 2
    gap_rhs = transform_cond2(p) ** 2 * frobenius_norm(alpha_non) ** 2 - (
        2.0 * p + 1.0
    ) / (p + 1.0)
    return norm_lhs, norm_rhs, gap_lhs, gap_rhs


def _solution(
    matrices, alpha, tau, mixed, kind, eta, jitter, fallback
) -> MixingSolution:
    gain = gain_theta(mixed, matrices.e_newest)
    return MixingSolution(alpha, tau, mixed, gain, kind, eta, jitter, fallback)


def _plain_step(
    matrices: HistoryMatrices,
    kind: str,
    eta: float = 0.0,
    jitter: float = 0.0,
    fallback: bool = False,
) -> MixingSolution:
    """Unit weight on the newest column, whose mixed residual is e_k itself."""
    cols = matrices.n_columns
    alpha = np.zeros(cols)
    alpha[-1] = 1.0
    tau, mixed = np.zeros(cols - 1), matrices.e_newest.copy()
    return _solution(matrices, alpha, tau, mixed, kind, eta, jitter, fallback)


def _certified(alpha: np.ndarray, mixed: np.ndarray, e_newest: np.ndarray) -> bool:
    """Accept alpha only if it does at least as well as the plain step."""
    if not np.isfinite(alpha).all():
        return False
    mixed_norm = frobenius_norm(mixed)
    return mixed_norm <= frobenius_norm(e_newest) * (1.0 + CERT_RTOL) + 1e-300


def solve_alpha_kkt(matrices: HistoryMatrices) -> MixingSolution:
    """Simplex-constrained coefficients through the KKT closed form.

    Solves ``(E^T E + jitter) y = 1`` and normalizes ``alpha = y /
    sum(y)``.  Degenerate Gram systems (or solutions that fail the
    optimality certificate) fall back to the unit vector on the newest
    column, flagged via ``fallback``.
    """
    e = matrices.residuals
    cols = e.shape[1]
    if cols == 1:
        return _plain_step(matrices, KIND_KKT)
    try:
        y, lam = _solve_spd_impl(e.T @ e, np.ones(cols))
    except SingularSystemError as exc:
        return _plain_step(matrices, KIND_KKT, jitter=exc.jitter, fallback=True)
    total = float(y.sum())
    if total != 0.0:
        alpha = y / total
        mixed = e @ alpha
        if _certified(alpha, mixed, matrices.e_newest):
            return _solution(
                matrices, alpha, alpha_to_tau(alpha), mixed, KIND_KKT, 0.0, lam, False
            )
    return _plain_step(matrices, KIND_KKT, jitter=lam, fallback=True)


def _ridge_scale(matrices: HistoryMatrices, eta: float) -> tuple[float, float]:
    """The ridge penalty ``eta * (||D||_F^2 + ||H||_F^2)`` and ``||H||_F^2``.

    ``||H||_F^2`` is ``trace(H^T H)``.  Both are 0 for eta = 0.
    """
    if not eta > 0.0:
        return 0.0, 0.0
    h_sq = frobenius_norm(matrices.delta_e) ** 2
    return eta * (frobenius_norm(matrices.delta_q) ** 2 + h_sq), h_sq


def _solve_tau(matrices: HistoryMatrices, eta: float, kind: str) -> MixingSolution:
    h = matrices.delta_e
    p = h.shape[1]
    if p == 0:
        return _plain_step(matrices, kind, eta)
    e_new = matrices.e_newest
    scale, h_sq = _ridge_scale(matrices, eta)
    gram = h.T @ h
    if scale > 0.0:
        gram.flat[:: p + 1] += scale
    try:
        tau, lam = _solve_spd_impl(gram, h.T @ e_new)
    except SingularSystemError as exc:
        sol = _plain_step(matrices, kind, eta, exc.jitter, True)
    else:
        alpha = tau_to_alpha(tau)
        mixed = matrices.residuals @ alpha
        if _certified(alpha, mixed, e_new):
            sol = _solution(matrices, alpha, tau, mixed, kind, eta, lam, False)
        else:
            sol = _plain_step(matrices, kind, eta, lam, True)
    if eta > 0.0:
        sol.ridge_scale, sol.gram_trace = scale, h_sq
    return sol


def solve_tau_unconstrained(matrices: HistoryMatrices) -> MixingSolution:
    """Unconstrained coefficients: tau = argmin ||e_k - H tau||_2.

    Equivalent to :func:`solve_alpha_kkt` after the tau -> alpha
    transform whenever the Gram matrix needs no jitter.
    """
    return _solve_tau(matrices, 0.0, KIND_UNCONSTRAINED)


def solve_tau_regularized(matrices: HistoryMatrices, eta: float) -> MixingSolution:
    """Ridge-stabilized coefficients.

    tau solves ``(H^T H + eta*(||D||_F^2 + ||H||_F^2) I) tau = H^T e_k``;
    with ``eta = 0`` this is exactly the unconstrained solve.  The
    penalty shrinks ||tau|| monotonically in eta on fixed matrices.
    """
    if eta < 0.0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    return _solve_tau(matrices, eta, KIND_REGULARIZED)


def vanilla_solution(matrices: HistoryMatrices) -> MixingSolution:
    """Unit weight on the newest column: the plain (damped) step."""
    return _plain_step(matrices, KIND_VANILLA)


def mixed_update(
    history: AndersonHistory, solution: MixingSolution, beta: float
) -> np.ndarray:
    """Damped linear mixing: (1-beta) * X alpha + beta * F alpha.

    Formed with one product as ``F alpha - (1-beta) * E alpha`` from the
    solution's ``mixed_residual``, which must be ``E alpha`` of this window.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    k = len(history)
    if k != solution.alpha.size:
        raise ValueError(
            f"alpha length {solution.alpha.size} does not match history "
            f"length {k}"
        )
    f_alpha = solution.alpha @ history._xfe[1, :k]
    return f_alpha - (1.0 - beta) * solution.mixed_residual


def materialize_update_matrix(
    matrices: HistoryMatrices,
    beta: float,
    eta: float,
    jitter: float = 0.0,
    fallback: bool = False,
) -> np.ndarray:
    """Form the dense n x n update matrix G with next = Q - G e_k.

    ``G = (D + beta H)(H^T H + reg I)^{-1} H^T - beta I`` where reg
    combines the ridge scale and any jitter the coefficient solve used.
    The dense reference the tests check :func:`update_matrix_norms` and
    :func:`quasi_newton_update` against; the package never forms it, and
    it stays only as that reference and because ``perfbench/tracing.py``
    wraps it by name.
    """
    n = matrices.residuals.shape[0]
    h = matrices.delta_e
    p = h.shape[1]
    if fallback or p == 0:
        return -beta * np.eye(n)
    k = h.T @ h + (_ridge_scale(matrices, eta)[0] + jitter) * np.eye(p)
    w = np.linalg.solve(k, h.T)
    return (matrices.delta_q + beta * h) @ w - beta * np.eye(n)


def update_matrix_norms(
    matrices: HistoryMatrices,
    beta: float,
    eta: float,
    jitter: float = 0.0,
    fallback: bool = False,
) -> float:
    """Exact ``||G~||_2`` without any n x n matrix.

    ``G~`` is what :func:`materialize_update_matrix` forms from the same
    arguments.  It equals ``-beta I`` off the span of ``[D + beta H, H] =
    Q [R_U, R_H]`` and ``M~ = R_U K^{-1} R_H^T - beta I`` on it, so the
    norm is the largest singular value of the at most 2p x 2p matrix
    ``M~``, raised to ``beta`` if Q has a complement.
    """
    h = matrices.delta_e
    n, p = h.shape
    if p == 0:
        return beta
    r = np.linalg.qr(np.hstack([matrices.delta_q + beta * h, h]), mode="r")
    rank = r.shape[0]
    eye = np.eye(rank)
    if fallback:
        m_tilde = -beta * eye
    else:
        reg = _ridge_scale(matrices, eta)[0] + jitter
        k = h.T @ h + reg * np.eye(p)
        m_tilde = r[:, :p] @ np.linalg.solve(k, r[:, p:].T) - beta * eye
    return max(spectral_norm(m_tilde), beta if n > rank else 0.0)


def quasi_newton_update(
    history: AndersonHistory,
    beta: float,
    eta: float,
) -> np.ndarray:
    """Quasi-Newton form of the mixed step: ``Q + beta e_k - (D + beta H) tau``.

    Applies the update matrix-free through the same tau solve as
    :func:`solve_tau_regularized` (``eta = 0`` gives the unregularized
    form), so the result matches :func:`mixed_update` under matched
    coefficients up to floating-point reordering.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if len(history) < 2:
        raise ValueError("quasi-Newton update needs at least 2 history entries")
    matrices = build_history_matrices(history)
    sol = _solve_tau(matrices, eta, KIND_REGULARIZED if eta > 0 else KIND_UNCONSTRAINED)
    step = (matrices.delta_q + beta * matrices.delta_e) @ sol.tau
    return history.newest_iterate() + beta * matrices.e_newest - step

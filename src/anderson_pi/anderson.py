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
the damped linear mixing ``(1-beta) X alpha + beta F alpha`` or the
quasi-Newton step ``Q - G e_k`` with
``G = (D + beta H)(H^T H + reg I)^{-1} H^T - beta I``.

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

from .linalg import SingularSystemError, _solve_spd_impl, spectral_norm

GAIN_ZERO_TOL = 1e-14
CERT_RTOL = 1e-10
ALPHA_SUM_TOL = 1e-8

KIND_KKT = "KKT"
KIND_UNCONSTRAINED = "Unconstrained"
KIND_REGULARIZED = "Regularized"
KIND_VANILLA = "Vanilla"


class AndersonHistory:
    """Ring buffer of the most recent iterates and their operator images.

    Oldest-first; appending beyond ``depth + 1`` entries evicts the
    oldest pair.  One solver run owns one history -- not thread safe.
    """

    def __init__(self, depth: int):
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        self.depth = depth
        self._iterates: list[np.ndarray] = []
        self._images: list[np.ndarray] = []
        self._n: int | None = None

    def __len__(self) -> int:
        return len(self._iterates)

    @property
    def n(self) -> int:
        if self._n is None:
            raise ValueError("history is empty")
        return self._n

    def push(self, q: np.ndarray, tq: np.ndarray) -> None:
        q = np.asarray(q, dtype=np.float64).ravel()
        tq = np.asarray(tq, dtype=np.float64).ravel()
        if q.shape != tq.shape:
            raise ValueError("iterate and image must have the same length")
        if self._n is None:
            self._n = q.size
        elif q.size != self._n:
            raise ValueError(f"vector length {q.size} != history dimension {self._n}")
        self._iterates.append(q)
        self._images.append(tq)
        while len(self._iterates) > self.depth + 1:
            self._iterates.pop(0)
            self._images.pop(0)

    def clear_keep_newest(self) -> None:
        if self._iterates:
            self._iterates = self._iterates[-1:]
            self._images = self._images[-1:]

    def iterate_matrix(self) -> np.ndarray:
        return np.column_stack(self._iterates)

    def image_matrix(self) -> np.ndarray:
        return np.column_stack(self._images)

    def newest_iterate(self) -> np.ndarray:
        if not self._iterates:
            raise ValueError("history is empty")
        return self._iterates[-1]


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
    """Assemble E, D, H from the window; with one entry D and H are empty."""
    if len(history) == 0:
        raise ValueError("cannot build matrices from an empty history")
    x = history.iterate_matrix()
    f = history.image_matrix()
    e = f - x
    # adjacent differences, then reverse so the newest difference is column 0
    dq = (x[:, 1:] - x[:, :-1])[:, ::-1]
    de = (e[:, 1:] - e[:, :-1])[:, ::-1]
    return HistoryMatrices(residuals=e, delta_q=dq, delta_e=de)


@dataclass
class MixingSolution:
    """Coefficients produced by one of the solvers, plus diagnostics.

    ``alpha`` always sums to one; ``tau`` is its unconstrained
    counterpart.  ``jitter`` is the diagonal level the Gram solve needed
    (0.0 for a clean solve) and ``fallback`` marks the unit-vector
    safety path.
    """

    alpha: np.ndarray
    tau: np.ndarray
    gain_theta: float
    solver_kind: str
    eta: float = 0.0
    jitter: float = 0.0
    fallback: bool = False


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
    tau = np.asarray(tau, dtype=np.float64).ravel()
    if not np.isfinite(tau).all():
        raise ValueError("tau contains non-finite entries")
    p = tau.size
    tau_tilde = np.concatenate(([1.0], tau))
    return transformation_matrix(p) @ tau_tilde


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


def gain_theta(alpha, residuals: np.ndarray) -> float:
    """Gain of the mixed residual: ||E alpha||_inf / ||e_k||_inf.

    Defined as 0 once the newest residual is at numerical zero
    (below 1e-14): the iteration has converged.
    """
    alpha = np.asarray(alpha, dtype=np.float64).ravel()
    e_new = residuals[:, -1]
    denom = float(np.abs(e_new).max(initial=0.0))
    if denom < GAIN_ZERO_TOL:
        return 0.0
    mixed = residuals @ alpha
    return float(np.abs(mixed).max(initial=0.0) / denom)


def _unit_alpha(n_cols: int) -> np.ndarray:
    alpha = np.zeros(n_cols)
    alpha[-1] = 1.0
    return alpha


def _certified(alpha: np.ndarray, residuals: np.ndarray) -> bool:
    """Accept alpha only if it does at least as well as the plain step."""
    if not np.isfinite(alpha).all():
        return False
    mixed_norm = float(np.linalg.norm(residuals @ alpha))
    newest_norm = float(np.linalg.norm(residuals[:, -1]))
    return mixed_norm <= newest_norm * (1.0 + CERT_RTOL) + 1e-300


def _finish(alpha, tau, kind, eta, jitter, fallback, matrices) -> MixingSolution:
    return MixingSolution(
        alpha=np.asarray(alpha, dtype=np.float64),
        tau=np.asarray(tau, dtype=np.float64),
        gain_theta=gain_theta(alpha, matrices.residuals),
        solver_kind=kind,
        eta=eta,
        jitter=jitter,
        fallback=fallback,
    )


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
        return _finish([1.0], [], KIND_KKT, 0.0, 0.0, False, matrices)
    gram = e.T @ e
    ones = np.ones(cols)
    try:
        y, lam = _solve_spd_impl(gram, ones)
    except SingularSystemError as exc:
        return _finish(
            _unit_alpha(cols),
            alpha_to_tau(_unit_alpha(cols)),
            KIND_KKT,
            0.0,
            exc.jitter,
            True,
            matrices,
        )
    total = float(y.sum())
    alpha = y / total if total != 0.0 else _unit_alpha(cols)
    if total == 0.0 or not _certified(alpha, e):
        alpha = _unit_alpha(cols)
        return _finish(alpha, alpha_to_tau(alpha), KIND_KKT, 0.0, lam, True, matrices)
    return _finish(alpha, alpha_to_tau(alpha), KIND_KKT, 0.0, lam, False, matrices)


def _ridge_scale(matrices: HistoryMatrices, eta: float) -> float:
    """The ridge penalty ``eta * (||D||_F^2 + ||H||_F^2)``; 0 for eta = 0."""
    if not eta > 0.0:
        return 0.0
    return eta * (
        float(np.linalg.norm(matrices.delta_q)) ** 2
        + float(np.linalg.norm(matrices.delta_e)) ** 2
    )


def _solve_tau(matrices: HistoryMatrices, eta: float, kind: str) -> MixingSolution:
    h = matrices.delta_e
    p = h.shape[1]
    if p == 0:
        return _finish([1.0], [], kind, eta, 0.0, False, matrices)
    e_new = matrices.e_newest
    scale = _ridge_scale(matrices, eta)
    gram = h.T @ h
    if scale > 0.0:
        gram = gram + scale * np.eye(p)
    rhs = h.T @ e_new
    try:
        tau, lam = _solve_spd_impl(gram, rhs)
    except SingularSystemError as exc:
        tau = np.zeros(p)
        return _finish(
            tau_to_alpha(tau), tau, kind, eta, exc.jitter, True, matrices
        )
    alpha = tau_to_alpha(tau)
    if not _certified(alpha, matrices.residuals):
        tau = np.zeros(p)
        return _finish(tau_to_alpha(tau), tau, kind, eta, lam, True, matrices)
    return _finish(alpha, tau, kind, eta, lam, False, matrices)


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
    alpha = _unit_alpha(matrices.n_columns)
    return _finish(alpha, alpha_to_tau(alpha), KIND_VANILLA, 0.0, 0.0, False, matrices)


def mixed_update(
    history: AndersonHistory, solution: MixingSolution, beta: float
) -> np.ndarray:
    """Damped linear mixing: (1-beta) * X alpha + beta * F alpha."""
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if len(history) != solution.alpha.size:
        raise ValueError(
            f"alpha length {solution.alpha.size} does not match history "
            f"length {len(history)}"
        )
    x = history.iterate_matrix()
    f = history.image_matrix()
    return (1.0 - beta) * (x @ solution.alpha) + beta * (f @ solution.alpha)


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
    For tests and ``quasi_newton_update(materialize=True)`` only; the
    solvers never form it and :func:`update_matrix_norms` gives its norms.
    """
    n = matrices.residuals.shape[0]
    h = matrices.delta_e
    p = h.shape[1]
    if fallback or p == 0:
        return -beta * np.eye(n)
    k = h.T @ h + (_ridge_scale(matrices, eta) + jitter) * np.eye(p)
    w = np.linalg.solve(k, h.T)
    return (matrices.delta_q + beta * h) @ w - beta * np.eye(n)


def update_matrix_norms(
    matrices: HistoryMatrices,
    beta: float,
    eta: float,
    jitter: float = 0.0,
    fallback: bool = False,
    with_ratio: bool = False,
) -> tuple[float, float | None]:
    """Exact ``||G~||_2`` and ``||G~^{-1} G||_2`` without any n x n matrix.

    ``G~`` is what :func:`materialize_update_matrix` forms from the same
    arguments, ``G`` its unregularized, jitter-free counterpart.  Both
    equal ``-beta I`` off the span of ``[D + beta H, H] = Q [R_U, R_H]``
    and ``M = R_U K^{-1} R_H^T - beta I`` on it, so the norms come from
    an SVD of the at most 2p x 2p matrices ``M~`` and ``M~^{-1} M0``,
    raised to ``beta`` and 1 if Q has a complement.  The ratio is None
    unless asked for, and when ``G~`` or ``H^T H`` is singular.
    """
    h = matrices.delta_e
    n, p = h.shape
    if p == 0:
        return beta, (1.0 if with_ratio and beta > 0.0 else None)
    r = np.linalg.qr(np.hstack([matrices.delta_q + beta * h, h]), mode="r")
    rank = r.shape[0]
    complement = n > rank
    eye = np.eye(rank)
    gram = h.T @ h

    def restricted(k: np.ndarray) -> np.ndarray:
        return r[:, :p] @ np.linalg.solve(k, r[:, p:].T) - beta * eye

    if fallback:
        m_tilde = -beta * eye
    else:
        m_tilde = restricted(gram + (_ridge_scale(matrices, eta) + jitter) * np.eye(p))
    norm = max(spectral_norm(m_tilde), beta if complement else 0.0)
    if not with_ratio or (complement and beta == 0.0):
        return norm, None
    try:
        ratio = np.linalg.solve(m_tilde, restricted(gram))
    except np.linalg.LinAlgError:
        return norm, None
    return norm, max(spectral_norm(ratio), 1.0 if complement else 0.0)


def quasi_newton_update(
    history: AndersonHistory,
    beta: float,
    eta: float,
    materialize: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Quasi-Newton form of the mixed step: ``Q + beta e_k - (D + beta H) tau``.

    Applies the update matrix-free through the same tau solve as
    :func:`solve_tau_regularized` (``eta = 0`` gives the unregularized
    form), so the result matches :func:`mixed_update` under matched
    coefficients up to floating-point reordering.  The dense matrix is
    formed only when ``materialize`` is set.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if len(history) < 2:
        raise ValueError("quasi-Newton update needs at least 2 history entries")
    matrices = build_history_matrices(history)
    sol = _solve_tau(matrices, eta, KIND_REGULARIZED if eta > 0 else KIND_UNCONSTRAINED)
    e_new = matrices.e_newest
    q = history.newest_iterate()
    step = (matrices.delta_q + beta * matrices.delta_e) @ sol.tau
    nxt = q + beta * e_new - step
    g = None
    if materialize:
        g = materialize_update_matrix(
            matrices, beta, eta, jitter=sol.jitter, fallback=sol.fallback
        )
    return nxt, g

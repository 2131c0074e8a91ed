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

Every function that describes a step takes that step's
:class:`MixingSolution`, so nothing solves a window a second time.  The
next iterate can be formed in two algebraically identical ways: the
damped linear mixing ``(1-beta) X alpha + beta F alpha`` (computed as
``F alpha - (1-beta) E alpha``) or the quasi-Newton step ``Q - G e_k``
with ``G = (D + beta H)(H^T H + reg I)^{-1} H^T - beta I``.  ``reg`` is
the solution's ridge scale plus the jitter its solve used, and a
fallback solution's ``G`` is ``-beta I``; only the solvers form the
ridge.

Solvers guard themselves: each candidate coefficient vector must
certify ``||E alpha||_2 <= ||e_k||_2`` (which the exact minimizer
satisfies, since the unit vector on the newest residual is feasible).
Candidates that fail the jitter ladder or the certificate fall back to
that unit vector -- a plain damped step -- and the solution is flagged.

All three solvers and the plain step are one function,
:func:`solve_stacked`.  It solves a stack of windows (those of runs
advanced in lockstep: a history with a run axis) in one pass and settles
each window itself; its :class:`StackedSolution` holds one row per
window.  The one-window solvers solve their window as a stack of one and
return its row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    _solve_spd_impl,
    spd_solve,
    spectral_norm,
    squared_norms,
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
    :meth:`push`, which overwrites the buffers in place: copy what must
    outlive that.  One solver run owns one history -- not thread safe.

    With ``runs`` set, the history holds that many buffers side by side,
    for runs advanced in lockstep: every array gains a leading run axis,
    and each run's columns are laid out as a one-run history lays out its
    own.  Run ``r``'s window is the newest ``width[r]`` entries: :meth:`push`
    grows every width up to ``depth + 1``; setting one to 1 restarts that
    window and moves no data.
    """

    def __init__(self, depth: int, runs: int | None = None):
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        self.depth = depth
        self._len = 0
        self._n: int | None = None
        self._lead = () if runs is None else (runs,)
        self.width = [0] * (1 if runs is None else runs)
        self._rows = (*self._lead, -1)  # shape of q and tq in push
        # row j of _xfe[0], _xfe[1], _xfe[2] is column j of X, F, E;
        # row i of _dh[0], _dh[1] is column i of D, H (after the run axis)
        self._xfe = np.empty((3, *self._lead, depth + 1, 0))
        self._dh = np.empty((2, *self._lead, depth, 0))

    def __len__(self) -> int:
        return self._len

    def push(self, q: np.ndarray, tq: np.ndarray) -> None:
        """Copy ``q`` and ``tq`` into the window, evicting the oldest pair if full.

        With a run axis, row ``r`` of ``q`` and ``tq`` goes to run ``r``.
        """
        lead = self._lead
        q = np.asarray(q, dtype=np.float64).reshape(self._rows)
        tq = np.asarray(tq, dtype=np.float64).reshape(self._rows)
        if q.shape != tq.shape:
            raise ValueError("iterate and image must have the same length")
        n = q.shape[-1]
        if self._n is None:
            self._n = n
            self._xfe = np.empty((3, *lead, self.depth + 1, n))
            self._dh = np.empty((2, *lead, self.depth, n))
        elif n != self._n:
            raise ValueError(f"vector length {n} != history dimension {self._n}")
        k = self._len
        xfe, dh = self._xfe, self._dh
        # shift each whole buffer by one column as one flat move: numpy moves
        # an overlapping 1-D slice in place, where a 2-D one goes through a
        # temporary copy.  A column that crosses into the next window lands
        # only in the column this push writes next (column k of X, F and E,
        # column 0 of D and H), in every run's window.
        if k == self.depth + 1:
            flat = xfe.reshape(-1)
            flat[:-n] = flat[n:]
            k -= 1
        if k > 1:
            flat = dh.reshape(-1)
            flat[n:] = flat[:-n]
        column = xfe[..., k, :]  # column k of X, F and E
        column[0] = q
        column[1] = tq
        np.subtract(tq, q, out=column[2])
        if k:
            np.subtract(column[::2], xfe[::2, ..., k - 1, :], out=dh[..., 0, :])
        self._len = k + 1
        if min(self.width) <= k:  # some window has room for the new entry
            self.width = [w + 1 if w <= k else w for w in self.width]

    def take(self, rows) -> None:
        """Keep only the runs at ``rows`` of a history with a run axis, in that order."""
        self._lead = (len(rows),)
        self._rows = (len(rows), -1)
        self.width = [self.width[r] for r in rows]
        # take() keeps the buffers C-contiguous, as push's flat shifts need
        self._xfe = self._xfe.take(rows, axis=1)
        self._dh = self._dh.take(rows, axis=1)

    def newest_iterate(self) -> np.ndarray:
        if not self._len:
            raise ValueError("history is empty")
        return self._xfe[0, ..., self._len - 1, :]


@dataclass
class HistoryMatrices:
    """Residual matrix E plus the difference matrices D and H.

    Matrices of a history with a run axis carry it in front.
    """

    residuals: np.ndarray  # E, n x (p+1), oldest first
    delta_q: np.ndarray    # D, n x p, newest first
    delta_e: np.ndarray    # H, n x p, newest first

    @property
    def e_newest(self) -> np.ndarray:
        return self.residuals[..., -1]

    def run(self, r) -> HistoryMatrices:
        """The matrices of run ``r``; for a list ``r``, those runs', copied in this layout."""
        e, d, h = self.residuals, self.delta_q, self.delta_e
        return HistoryMatrices(e.mT[r].mT, d.mT[r].mT, h.mT[r].mT)


def build_history_matrices(history: AndersonHistory, width=None) -> HistoryMatrices:
    """E, D and H of the window of the newest ``width`` entries (default all).

    With one entry D and H are empty.  The matrices are views of the
    history's buffers, valid until its next ``push``.
    """
    k = history._len
    if k == 0:
        raise ValueError("cannot build matrices from an empty history")
    w = k if width is None else width
    if not 1 <= w <= k:
        raise ValueError(f"cannot build a window of width {w} from {k} entries")
    dh = history._dh[..., : w - 1, :]
    return HistoryMatrices(history._xfe[2, ..., k - w : k, :].mT, dh[0].mT, dh[1].mT)


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
    jitter: float = 0.0
    fallback: bool = False
    ridge_scale: float = 0.0
    gram_trace: float | None = None


@dataclass
class StackedSolution:
    """The solutions of a stack of windows, as arrays with one row per window.

    Row ``r`` of each field is the field of window ``r``'s
    :class:`MixingSolution` (:meth:`row`); ``mixed_l2`` adds ``||E
    alpha||_2`` and ``gain_l2`` its ratio to ``||e_k||_2``, by the rule of
    :func:`gain_ratios`.  ``gram_trace`` is None where the solution's is.
    """

    alpha: np.ndarray
    tau: np.ndarray
    mixed_residual: np.ndarray
    mixed_l2: np.ndarray
    gain_theta: np.ndarray
    gain_l2: np.ndarray
    solver_kind: str
    jitter: np.ndarray
    fallback: np.ndarray
    ridge_scale: np.ndarray
    gram_trace: np.ndarray | None = None

    def row(self, r: int) -> MixingSolution:
        """Window ``r``'s solution; its arrays are views of the stack's rows."""
        gram = None if self.gram_trace is None else float(self.gram_trace[r])
        return MixingSolution(
            self.alpha[r], self.tau[r], self.mixed_residual[r], float(self.gain_theta[r]),
            self.solver_kind, float(self.jitter[r]), bool(self.fallback[r]),
            float(self.ridge_scale[r]), gram,
        )


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
    ``(0, tau_{p-1}, ..., tau_0, 1)``.  Any input is read as one flat tau.
    """
    tau = np.asarray(tau, dtype=np.float64).ravel()
    if not np.isfinite(tau).all():
        raise ValueError("tau contains non-finite entries")
    return _tau_rows_to_alpha(tau)


def _tau_rows_to_alpha(tau: np.ndarray) -> np.ndarray:
    """:func:`tau_to_alpha` of each tau along the last axis, unchecked.

    The coefficient solve passes every solved tau; a row its SPD solve did
    not accept, which need not be finite, is replaced by the plain step.
    """
    s = np.zeros((*tau.shape[:-1], tau.shape[-1] + 2))
    s[..., 1:-1] = tau[..., ::-1]
    s[..., -1] = 1.0
    return s[..., 1:] - s[..., :-1]


def alpha_to_tau(alpha) -> np.ndarray:
    """Inverse transform: tau_i = sum of the p - i oldest alpha weights."""
    alpha = np.asarray(alpha, dtype=np.float64).ravel()
    if alpha.size == 0:
        raise ValueError("alpha must be nonempty")
    total = float(alpha.sum())
    if not _sums_to_one(total):
        raise ValueError(f"alpha must sum to 1 within {ALPHA_SUM_TOL}, got {total!r}")
    return _partial_sums(alpha)


def _sums_to_one(total):
    """Whether sums ``total`` (float or array) are 1 within ALPHA_SUM_TOL; not if nan."""
    return np.abs(total - 1.0) <= ALPHA_SUM_TOL


def _partial_sums(alpha: np.ndarray) -> np.ndarray:
    """``tau`` of each row of ``alpha``, without :func:`alpha_to_tau`'s check."""
    return np.cumsum(alpha, axis=-1)[..., -2::-1].copy()


def gain_theta(mixed: np.ndarray, e_newest: np.ndarray) -> float:
    """Gain of the mixed residual ``E alpha``: ||E alpha||_inf / ||e_k||_inf.

    Defined as 0 once the newest residual is at numerical zero
    (below 1e-14): the iteration has converged.
    """
    denom = float(np.abs(e_newest).max(initial=0.0))
    if denom < GAIN_ZERO_TOL:
        return 0.0
    return float(np.abs(mixed).max(initial=0.0) / denom)


def gain_ratios(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """``num / denom`` of each entry, 0 where ``denom`` is below GAIN_ZERO_TOL.

    The rule of :func:`gain_theta`, for norms of a stack of residuals.
    """
    return np.divide(num, denom, out=np.zeros(len(denom)), where=~(denom < GAIN_ZERO_TOL))


def _plain_gains(norms: np.ndarray) -> np.ndarray:
    """``gain_ratios(norms, norms)``, the plain step's gains, without dividing.

    0 below GAIN_ZERO_TOL and 1 up to inf; only inf and nan are divided.
    """
    return np.array([
        0.0 if x < GAIN_ZERO_TOL else 1.0 if x < math.inf else x / x
        for x in norms.tolist()
    ])


def residual_norms(e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``||e_r||_inf`` and ``||e_r||_2`` of each row of ``e``."""
    return np.abs(e).max(axis=-1, initial=0.0), np.sqrt(squared_norms(e))


def _squares(norms: np.ndarray) -> np.ndarray:
    """Python's ``float ** 2`` of each entry.

    numpy's square differs from it in the last bit on some values.
    """
    return np.array([x**2 for x in norms.tolist()])


def _squared_norm(alpha: np.ndarray) -> np.ndarray:
    """``||alpha_r||_2^2`` of each row of a stack of alphas."""
    return _squares(np.sqrt(squared_norms(alpha)))


def coefficient_norm_bound(alpha: np.ndarray, e_norm: np.ndarray, eta: float):
    """Prop2_1 of regularized solves: ``||alpha||^2 <= 4 (1 + ||e_k||_2^2 / eta^2)``.

    For a stack of alphas, one per row, and an array of their ``||e_k||_2``:
    an array of each side.
    """
    return _squared_norm(alpha), 4.0 * (1.0 + _squares(e_norm) / eta**2)


def coefficient_gap_bound(alpha_reg: np.ndarray, alpha_non: np.ndarray, p: int):
    """Prop2_2, against the unregularized coefficients ``alpha_non`` of the windows.

    ``||alpha_reg - alpha_non||^2 <= cond2(A)^2 ||alpha_non||^2 - (2p + 1) /
    (p + 1)`` with ``A = transformation_matrix(p)``.  For stacks of alphas,
    one per row: an array of each side.
    """
    gap_rhs = transform_cond2(p) ** 2 * _squared_norm(alpha_non) - (2.0 * p + 1.0) / (
        p + 1.0
    )
    return _squared_norm(alpha_reg - alpha_non), gap_rhs


def _gram(rows: np.ndarray, ridge=None) -> np.ndarray:
    """``rows @ rows^T`` over any leading axes, plus ``ridge`` on each diagonal.

    ``ridge`` is a float, or for a stack an array of shape ``(B, 1)``.
    """
    gram = rows @ rows.mT
    if ridge is not None:
        p = gram.shape[-1]
        gram.reshape(-1, p * p)[:, :: p + 1] += ridge
    return gram


def _squared_frobenius(m: np.ndarray) -> np.ndarray:
    """``||m_r||_F^2`` of each matrix of a stack, one per matrix.

    Each matrix's entries are summed in memory order, as
    :func:`~anderson_pi.linalg.frobenius_norm` sums them, and the square is
    Python's ``float ** 2`` of the norm (:func:`_squares`).
    """
    rows = m.mT if m.strides[-2] < m.strides[-1] else m  # memory order, row by row
    return _squares(np.sqrt(squared_norms(rows.reshape(len(m), -1))))


def _ridge_scale(matrices: HistoryMatrices, eta: float):
    """The ridge penalty ``eta * (||D||_F^2 + ||H||_F^2)`` and ``||H||_F^2``, for ``eta > 0``.

    ``||H||_F^2`` is ``trace(H^T H)``.  An array of each, one entry per window.
    """
    h_sq = _squared_frobenius(matrices.delta_e)
    return eta * (_squared_frobenius(matrices.delta_q) + h_sq), h_sq


def _spd_one(a: np.ndarray, b: np.ndarray):
    """:func:`spd_solve` of a stack of one system, as one ``_solve_spd_impl`` call."""
    x, jitter, accepted = _solve_spd_impl(a[0], b[0])
    return x[None], np.array([jitter]), np.array([accepted])


def _solve_one(matrices: HistoryMatrices, kind: str, eta: float = 0.0) -> MixingSolution:
    """The solver of ``kind`` on one window: the one-row case of :func:`solve_stacked`.

    The window is solved as a stack of one.  Its SPD step is one call of
    ``_solve_spd_impl``, looked up on this module when it runs, so a
    wrapper installed there (``perfbench/tracing.py``) sees every
    one-window SPD solve.
    """
    e, d, h = matrices.residuals, matrices.delta_q, matrices.delta_e
    one = HistoryMatrices(e[None], d[None], h[None])
    norms = residual_norms(one.e_newest)
    return solve_stacked(one, kind, eta, *norms, spd=_spd_one).row(0)


def solve_alpha_kkt(matrices: HistoryMatrices) -> MixingSolution:
    """Simplex-constrained coefficients through the KKT closed form.

    Solves ``(E^T E + jitter) y = 1`` and normalizes ``alpha = y /
    sum(y)``.  Degenerate Gram systems (or weights that miss sum 1 by
    more than ``ALPHA_SUM_TOL``, or fail the optimality certificate) fall
    back to the unit vector on the newest column, flagged via
    ``fallback``.
    """
    return _solve_one(matrices, KIND_KKT)


def solve_tau_unconstrained(matrices: HistoryMatrices) -> MixingSolution:
    """Unconstrained coefficients: tau = argmin ||e_k - H tau||_2.

    Equivalent to :func:`solve_alpha_kkt` after the tau -> alpha
    transform whenever the Gram matrix needs no jitter.
    """
    return _solve_one(matrices, KIND_UNCONSTRAINED)


def solve_tau_regularized(matrices: HistoryMatrices, eta: float) -> MixingSolution:
    """Ridge-stabilized coefficients.

    tau solves ``(H^T H + eta*(||D||_F^2 + ||H||_F^2) I) tau = H^T e_k``;
    with ``eta = 0`` this is exactly the unconstrained solve.  The
    penalty shrinks ||tau|| monotonically in eta on fixed matrices.  An
    eta that is negative, infinite or nan raises ValueError.
    """
    if not 0.0 <= eta < math.inf:  # nan fails both
        raise ValueError(f"eta must be finite and >= 0, got {eta}")
    return _solve_one(matrices, KIND_REGULARIZED, eta)


def vanilla_solution(matrices: HistoryMatrices) -> MixingSolution:
    """Unit weight on the newest column: the plain (damped) step."""
    return _solve_one(matrices, KIND_VANILLA)


def solve_stacked(
    matrices: HistoryMatrices,
    kind: str,
    eta: float,
    e_inf: np.ndarray,
    e_l2: np.ndarray,
    *,
    spd=spd_solve,
) -> StackedSolution:
    """The solver of ``kind`` on every window of a stack: the package's one coefficient solve.

    ``matrices`` carry a run axis in front, one window per run, and
    ``e_inf`` and ``e_l2`` are :func:`residual_norms` of the newest
    residuals.  A window of one column, and every window of the vanilla
    kind, gets the unflagged plain step.  Otherwise the Gram matrices, the
    SPD solves (``spd``, :func:`spd_solve` of the stack), the certificates
    ``||E alpha||_2 <= ||e_k||_2`` and ``E alpha`` take one stacked call for
    all windows.  A window whose system is not accepted, whose weights fail
    the certificate or (for KKT) miss sum 1 gets the plain step flagged as
    ``fallback``, with the jitter its SPD solve reports.  Row ``r`` of the
    result depends on window ``r`` alone.
    """
    e = matrices.residuals
    e_new = matrices.e_newest
    runs, _, cols = e.shape
    scale, h_sq = np.zeros(runs), None
    if cols == 1 or kind == KIND_VANILLA:  # the plain step, whose E alpha is e_k
        alpha, tau = np.zeros((runs, cols)), np.zeros((runs, cols - 1))
        alpha[:, -1] = 1.0
        return StackedSolution(
            alpha, tau, e_new.copy(), e_l2, _plain_gains(e_inf), _plain_gains(e_l2),
            kind, np.zeros(runs), np.zeros(runs, bool), scale,
        )
    eta = eta if kind == KIND_REGULARIZED else 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind == KIND_KKT:
            y, jitter, accepted = spd(_gram(e.mT), np.ones((runs, cols)))
            alpha = y / y.sum(axis=-1, keepdims=True)
            accepted &= _sums_to_one(alpha.sum(axis=-1))
            tau = _partial_sums(alpha)
        else:
            h, ridge = matrices.delta_e, None
            if eta > 0.0:
                scale, h_sq = _ridge_scale(matrices, eta)
                ridge = scale[:, None]
            tau, jitter, accepted = spd(_gram(h.mT, ridge), np.matvec(h.mT, e_new))
            alpha = _tau_rows_to_alpha(tau)  # rows not accepted take the plain step below
        mixed = np.matvec(e, alpha)
        mixed_l2 = np.sqrt(squared_norms(mixed))
        # the certificate: a finite alpha that does at least as well as the plain step
        accepted &= np.isfinite(alpha).all(axis=1)
        accepted &= mixed_l2 <= e_l2 * (1.0 + CERT_RTOL) + 1e-300
        if not accepted.all():  # masked writes cost time even with no row rejected
            plain = ~accepted
            alpha[plain], tau[plain], mixed[plain] = 0.0, 0.0, e_new[plain]
            alpha[plain, -1] = 1.0
            mixed_l2[plain] = e_l2[plain]
    gains = gain_ratios(np.abs(mixed).max(axis=1, initial=0.0), e_inf)
    return StackedSolution(
        alpha, tau, mixed, mixed_l2, gains, gain_ratios(mixed_l2, e_l2), kind, jitter,
        ~accepted, scale, h_sq,
    )


def _check_step(history: AndersonHistory, solution: MixingSolution, beta: float) -> None:
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    k = len(history)
    if k != solution.alpha.size:
        raise ValueError(
            f"alpha length {solution.alpha.size} does not match history "
            f"length {k}"
        )


def mixed_update(
    history: AndersonHistory, solution: MixingSolution, beta: float
) -> np.ndarray:
    """Damped linear mixing: (1-beta) * X alpha + beta * F alpha.

    Formed with one product as ``F alpha - (1-beta) * E alpha`` from the
    solution's ``mixed_residual``, which must be ``E alpha`` of this window.
    """
    _check_step(history, solution, beta)
    return next_iterates(history, solution.alpha, solution.mixed_residual, beta)


def next_iterates(
    history: AndersonHistory, alpha: np.ndarray, mixed: np.ndarray, beta: float, rows=...
) -> np.ndarray:
    """``F alpha - (1-beta) * mixed`` of the runs at ``rows``; F is as wide as alpha."""
    k = history._len
    images = history._xfe[1, ..., k - alpha.shape[-1] : k, :][rows]
    return np.vecmat(alpha, images) - (1.0 - beta) * mixed


def quasi_newton_update(
    history: AndersonHistory, solution: MixingSolution, beta: float
) -> np.ndarray:
    """Quasi-Newton form of the mixed step: ``Q + beta e_k - (D + beta H) tau``.

    Applies the update matrix-free with the solution's ``tau``, so the
    result matches :func:`mixed_update` of the same solution up to
    floating-point reordering.  With one entry it is the plain step.
    """
    _check_step(history, solution, beta)
    matrices = build_history_matrices(history)
    step = (matrices.delta_q + beta * matrices.delta_e) @ solution.tau
    return history.newest_iterate() + beta * matrices.e_newest - step


def materialize_update_matrix(
    matrices: HistoryMatrices, beta: float, solution: MixingSolution
) -> np.ndarray:
    """Form the dense n x n update matrix G with next = Q - G e_k.

    ``G = (D + beta H)(H^T H + reg I)^{-1} H^T - beta I`` with ``reg`` the
    solution's ridge scale plus the jitter its solve used; a fallback
    solution gives ``-beta I``.  The dense reference the tests check
    :func:`update_matrix_norms` and :func:`quasi_newton_update` against;
    the package never forms it, and it stays only as that reference and
    because ``perfbench/tracing.py`` wraps it by name.
    """
    n = matrices.residuals.shape[0]
    h = matrices.delta_e
    p = h.shape[1]
    if solution.fallback or p == 0:
        return -beta * np.eye(n)
    k = h.T @ h + (solution.ridge_scale + solution.jitter) * np.eye(p)
    w = np.linalg.solve(k, h.T)
    return (matrices.delta_q + beta * h) @ w - beta * np.eye(n)


def update_matrix_norms(
    matrices: HistoryMatrices, beta: float, solutions: StackedSolution
) -> list[float]:
    """Exact ``||G~||_2`` of each window of a stack, without any n x n matrix.

    ``G~`` is what :func:`materialize_update_matrix` forms from a window
    and its solution, row ``r`` of ``solutions``.  It equals ``-beta I``
    off the span of ``[D + beta H, H] = Q [R_U, R_H]`` and ``M~ = R_U
    K^{-1} R_H^T - beta I`` on it, so the norm is the largest singular
    value of the at most 2p x 2p matrix ``M~``, raised to ``beta`` if Q has
    a complement.  The QR, solve and SVD take one stacked call each, and
    each norm is the one its window gives as a stack of one.
    """
    reg = solutions.ridge_scale + solutions.jitter
    return _update_norms(matrices, beta, reg, ~solutions.fallback)


def _update_norms(
    matrices: HistoryMatrices, beta: float, reg: np.ndarray, solved: np.ndarray
) -> list[float]:
    """:func:`update_matrix_norms` of stacked windows.

    ``reg`` is each solution's ``ridge_scale + jitter``, and ``solved``
    whether it is not a fallback.
    """
    h = matrices.delta_e
    runs, n, p = h.shape
    if p == 0:
        return [beta] * runs
    r = np.linalg.qr(np.concatenate([matrices.delta_q + beta * h, h], axis=-1), mode="r")
    rank = r.shape[-2]
    eye = np.eye(rank)
    m_tilde = np.empty((runs, rank, rank))
    m_tilde[:] = -beta * eye  # the fallback's, whose update matrix is -beta I
    if solved.any():
        k = (h.mT @ h + reg[:, None, None] * np.eye(p))[solved]
        r_s = r[solved]
        m_tilde[solved] = r_s[..., :p] @ np.linalg.solve(k, r_s[..., p:].mT) - beta * eye
    floor = beta if n > rank else 0.0
    return [max(x, floor) for x in spectral_norm(m_tilde)]

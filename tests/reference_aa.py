"""Textbook Anderson-accelerated value iteration, which ``run`` must match.

The quasi-Newton form of Walker & Ni (SIAM J. Numer. Anal. 49(4), 2011):
``q + beta e_k - (D + beta H) tau``, where ``D`` and ``H`` hold the
differences of the last ``m + 1`` iterates and residuals ``e = T(q) - q``
and ``tau`` minimizes ``||e_k - H tau||``. kkt's constrained weights give
the same step. Dense and plain on purpose: it imports nothing from
``anderson_pi`` and has no safeguard, certificate or fallback.
"""

import numpy as np


def aggregate(q, op, omega):
    """Row max, or mellowmax: the log-mean-exp ``log(mean(exp(omega q))) / omega``."""
    top = q.max(axis=1)
    if op == "max":
        return top
    return top + np.log(np.mean(np.exp(omega * (q - top[:, None])), axis=1)) / omega


def reference_run(p, r, gamma, op, omega, m=0, beta=1.0, eta=0.0, tol=1e-10, max_iter=10000):
    """``(converged, iterations, final Q)`` from ``Q = 0``; ``P`` is dense ``(S, A, S)``."""
    q = np.zeros(r.shape)
    iterates, residuals = [], []
    for k in range(max_iter + 1):
        e = r + gamma * (p @ aggregate(q, op, omega)) - q
        if np.abs(e).max() <= tol or k == max_iter:
            return np.abs(e).max() <= tol, k, q
        iterates = (iterates + [q.ravel()])[-(m + 1):]
        residuals = (residuals + [e.ravel()])[-(m + 1):]
        d = np.diff(np.array(iterates), axis=0).T
        h = np.diff(np.array(residuals), axis=0).T
        if eta > 0.0:  # stable-aa: the ridge scaled by the window
            ridge = eta * (np.sum(d * d) + np.sum(h * h))
            tau = np.linalg.solve(h.T @ h + ridge * np.eye(h.shape[1]), h.T @ e.ravel())
        else:
            tau = np.linalg.lstsq(h, e.ravel())[0]
        q = q + beta * e - ((d + beta * h) @ tau).reshape(q.shape)

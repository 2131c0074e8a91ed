"""Action-aggregation operators and the tabular Bellman map.

A Q table is a plain ``(n_states, n_actions)`` float array.
``aggregate_rows`` reduces every row of a table at once with one of three
aggregators:

* the hard max       -- plain maximum,
* mellowmax          -- log-average-exp, interpolating between the mean
                        (omega -> 0) and the max (omega -> inf);
                        non-expansive and differentiable,
* Boltzmann softmax  -- exp-weighted average; NOT non-expansive in
                        general, kept for comparison runs.

Its exponentials are max-shifted, so rows with ``|omega * q|`` up to 1e6
do not overflow.  ``mellowmax`` and ``mellowmax_grad`` are the one-row
forms of mellowmax and its gradient.  ``apply_bellman`` lifts the chosen
aggregator to the full table over the MDP's successor lists:
``(TQ)[s, a] = R[s, a] + gamma * sum_i probs[s, a, i] * agg(Q[successors[s, a, i], :])``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .mdp import MdpStack, TabularMdp


class OperatorKind(enum.Enum):
    HARD_MAX = "max"
    MELLOW_MAX = "mellowmax"
    BOLTZMANN_SOFTMAX = "softmax"


CONTRACTIVE_KINDS = (OperatorKind.HARD_MAX, OperatorKind.MELLOW_MAX)


@dataclass(frozen=True)
class OperatorSpec:
    """Aggregator choice plus its inverse-temperature omega.

    omega is a fixed per-run constant (never solved per state) and is
    ignored by the hard max.
    """

    kind: OperatorKind
    omega: float = 1.0

    def __post_init__(self):
        if self.kind is not OperatorKind.HARD_MAX and not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")

    def label(self) -> str:
        if self.kind is OperatorKind.HARD_MAX:
            return self.kind.value
        return f"{self.kind.value}(omega={self.omega:g})"


def aggregate_rows(q: np.ndarray, kind: OperatorKind, omega: float) -> np.ndarray:
    """Per-row aggregate of a ``(rows, actions)`` table: max, mellowmax or softmax."""
    # the max over a contiguous transposed copy reduces whole rows of it at
    # once, which is faster; max is exact, so it equals q.max(axis=1).  The
    # sums below stay row sums: numpy sums a transposed table in another order.
    shift = np.ascontiguousarray(q.T).max(axis=0)
    if kind is OperatorKind.HARD_MAX:
        return shift
    w = np.exp(omega * (q - shift[:, None]))
    if kind is OperatorKind.MELLOW_MAX:
        return shift + np.log(w.sum(axis=1) / q.shape[1]) / omega
    return (q * w).sum(axis=1) / w.sum(axis=1)


def _check_row(row, omega: float | None = None) -> np.ndarray:
    arr = np.asarray(row, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("row must be a nonempty 1-D vector")
    if omega is not None and not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    return arr


def mellowmax(row, omega: float) -> float:
    """(1/omega) * log(mean(exp(omega * row))), max-shifted for stability.

    Always lies between min(row) and max(row).
    """
    arr = _check_row(row, omega)
    return float(aggregate_rows(arr[None, :], OperatorKind.MELLOW_MAX, omega)[0])


def mellowmax_grad(row, omega: float) -> np.ndarray:
    """Analytic gradient of mellowmax: the softmax weights exp(omega*x_i)/sum.

    A probability vector: nonnegative entries summing to one.
    """
    arr = _check_row(row, omega)
    w = np.exp(omega * (arr - arr.max()))
    return w / w.sum()


def _check_q(mdp: TabularMdp | MdpStack, q) -> np.ndarray:
    arr = np.asarray(q, dtype=np.float64)
    if arr.shape != mdp.rewards.shape:
        raise ValueError(f"Q shape {arr.shape} does not match MDP {mdp.rewards.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("Q contains non-finite entries")
    return arr


def apply_bellman(mdp: TabularMdp | MdpStack, q, op: OperatorSpec) -> np.ndarray:
    """One Bellman sweep over the successor lists; the input Q is never modified.

    On an :class:`MdpStack` ``q`` and the result are ``(B, S, A)``, and row
    ``b`` of the result equals the sweep of ``mdps[b]`` on ``q[b]`` bitwise.
    """
    q = _check_q(mdp, q)
    rows = q if q.ndim == 2 else q.reshape(-1, q.shape[-1])
    v = aggregate_rows(rows, op.kind, op.omega)
    out = mdp.expectation(v)
    out *= mdp.gamma
    out += mdp.rewards
    return out


def greedy_policy(q) -> np.ndarray:
    """Argmax action per state; ties break toward the lowest index."""
    arr = np.asarray(q, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError("Q contains non-finite entries")
    return np.argmax(arr, axis=1)

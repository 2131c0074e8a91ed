"""The iteration driver, reference fixed points, ensembles, trace output.

One loop, ``_run_lockstep``, iterates a configured scheme on a group of
same-shape MDPs together, recording per-iteration diagnostics: each
iterate advances by damped linear mixing of its history window with
coefficients chosen by the configured solver.  ``run`` is its one-MDP
case, from ``Q = 0`` or a caller-supplied start, and ``run_ensemble``
hands it every (config, shape group) and gathers comparable summaries.
``fixed_point_oracle`` produces the high-precision reference against
which every accelerated scheme is compared: value iteration that, while
the residual has one sign, moves each sweep to the nearer of its
MacQueen-Porteus bounds on the fixed point.
"""

from __future__ import annotations

import csv
import enum
import hashlib
import json
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from . import anderson
from .mdp import MdpStack, TabularMdp
from .operators import CONTRACTIVE_KINDS, OperatorSpec, apply_bellman

DIVERGENCE_LIMIT = 1e12
ORACLE_TOL = 1e-13
ORACLE_MAX_ITER = 10**6

# json.dumps(obj, sort_keys=True, separators=(",", ":")) builds an encoder per call
COMPACT_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

TRACE_COLUMNS = (
    "iter",
    "residual_inf",
    "residual_l2",
    "theta",
    "beta",
    "jitter",
    "alpha_json",
    "wall_nanos",
)


class Scheme(enum.Enum):
    VANILLA_VI = "vanilla"
    ANDERSON_KKT = "kkt"
    ANDERSON_UNCONSTRAINED = "unconstrained"
    STABLE_AA = "stable-aa"


class BetaConvention(enum.Enum):
    """Which term the damping weight multiplies.

    ``eq2``: beta weights the operator images (beta = 1 is the undamped
    scheme; the convention all rate statements use).  ``eq13``: beta
    weights the raw iterates instead, i.e. the mirrored convention some
    target-mixing formulations use; it maps onto the first one as
    ``beta_eq2 = 1 - beta``.
    """

    EQ2 = "eq2"
    EQ13 = "eq13"


class DivergenceError(RuntimeError):
    """Iterates left the finite/bounded region; carries the partial trace."""

    def __init__(self, message: str, trace: "SolverTrace"):
        super().__init__(message)
        self.trace = trace


class OraclePrecisionError(RuntimeError):
    """The reference iteration hit its cap before reaching oracle precision."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class SolverConfig:
    """One solver setup; see class invariants in ``__post_init__``."""

    scheme: Scheme
    operator: OperatorSpec
    m: int = 0
    beta: float = 1.0
    beta_convention: BetaConvention = BetaConvention.EQ2
    eta: float = 0.0
    tol: float = 1e-10
    max_iter: int = 10000
    safeguard: bool = False
    diagnostics_level: str = "basic"

    def __post_init__(self):
        if self.scheme is Scheme.VANILLA_VI and self.m != 0:
            raise ValueError("vanilla iteration requires m = 0")
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        # Prop2_1's right side divides by eta**2, so the square must be finite too
        if not math.isfinite(self.eta * self.eta):
            raise ValueError(f"eta must be finite, with a finite square, got {self.eta}")
        if self.scheme is Scheme.STABLE_AA:
            if not self.eta > 0.0:
                raise ValueError("stable-aa requires eta > 0")
        elif self.eta != 0.0:
            raise ValueError(f"{self.scheme.value} requires eta = 0")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.diagnostics_level not in ("basic", "full"):
            raise ValueError(
                f"diagnostics_level must be 'basic' or 'full', got "
                f"{self.diagnostics_level!r}"
            )

    def effective_beta(self) -> float:
        if self.beta_convention is BetaConvention.EQ13:
            return 1.0 - self.beta
        return self.beta

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme.value,
            "operator": self.operator.kind.value,
            "omega": self.operator.omega,
            "m": self.m,
            "beta": self.beta,
            "beta_convention": self.beta_convention.value,
            "eta": self.eta,
            "tol": self.tol,
            "max_iter": self.max_iter,
            "safeguard": self.safeguard,
            "diagnostics_level": self.diagnostics_level,
        }

    def config_hash(self) -> str:
        blob = COMPACT_JSON.encode(self.to_dict())
        return hashlib.sha256(blob.encode()).hexdigest()[:12]

    def label(self) -> str:
        parts = [self.scheme.value]
        if self.scheme is not Scheme.VANILLA_VI:
            parts.append(f"m={self.m}")
        if self.scheme is Scheme.STABLE_AA:
            parts.append(f"eta={self.eta:g}")
        return " ".join(parts)


@dataclass
class TraceRecord:
    """One iteration of a trace, built from the trace's columns when it is read.

    A snapshot: writing to it leaves the trace as it is.  Fields a run did
    not record are None.
    """

    k: int
    residual_inf: float
    residual_l2: float
    theta: float
    theta_l2: float
    alpha: np.ndarray
    jitter_flag: bool
    jitter: float
    fallback: bool
    safeguard_triggered: bool
    wall_nanos: int
    coeff_norm_lhs: float | None = None
    coeff_norm_rhs: float | None = None
    coeff_gap_lhs: float | None = None
    coeff_gap_rhs: float | None = None
    update_norm_lhs: float | None = None
    # stable-aa with p > 0: ridge scale eta (||D||_F^2 + ||H||_F^2) over
    # trace(H^T H) (inf when H = 0); None otherwise, and not in trace.csv
    reg_share: float | None = None
    # always None: full diagnostics keep the norm above, not the n x n
    # matrices; kept only because perfbench/workloads.py reads them
    g_tilde: np.ndarray | None = None
    g_unreg: np.ndarray | None = None


# the per-iteration columns every trace has, and their dtypes; alpha is the
# one two-dimensional column
_COLUMNS = {
    "residual_inf": np.float64,
    "residual_l2": np.float64,
    "theta": np.float64,
    "theta_l2": np.float64,
    "jitter": np.float64,
    "fallback": np.bool_,
    "safeguard_triggered": np.bool_,
    "wall_nanos": np.int64,
    "width": np.int64,
    "alpha": np.float64,
}
# float64 columns of stable-aa runs, and those full diagnostics add
_STABLE_COLUMNS = ("coeff_norm_lhs", "coeff_norm_rhs", "reg_share")
_FULL_COLUMNS = ("coeff_gap_lhs", "coeff_gap_rhs", "update_norm_lhs")
# absent where the window has width 1 (p = 0)
_WIDE_ONLY = ("reg_share", *_FULL_COLUMNS)
# a TraceRecord's fields after k, read by SolverTrace.values; g_tilde and
# g_unreg stay None
_RECORD_FIELDS = tuple(f.name for f in fields(TraceRecord))[1:-2]


def _column_names(cfg: SolverConfig) -> list[str]:
    """The columns a run of ``cfg`` records: eta > 0 means stable-aa."""
    names = list(_COLUMNS)
    if cfg.eta > 0.0:
        names += _STABLE_COLUMNS
        if cfg.diagnostics_level == "full":
            names += _FULL_COLUMNS
    return names


@dataclass(eq=False)
class SolverTrace:
    """One run's outcome and its per-iteration fields, one numpy column each.

    Row ``k`` of every column is iteration ``k``.  ``alpha`` has ``m + 1``
    entries per row, of which the first ``width[k]`` are that iteration's
    mixing weights.  A column the config does not record is None: the
    Prop2_1 sides and ``reg_share`` outside stable-aa, the coefficient gap
    and the update norm outside full diagnostics.  ``reg_share`` and the
    full-diagnostics columns have no value in a row of width 1.
    :attr:`records` builds a :class:`TraceRecord` of a row when it is read.
    """

    converged: bool
    iterations: int
    final_q: np.ndarray
    config: SolverConfig
    n: int
    residual_inf: np.ndarray
    residual_l2: np.ndarray
    theta: np.ndarray
    theta_l2: np.ndarray
    jitter: np.ndarray
    fallback: np.ndarray
    safeguard_triggered: np.ndarray
    wall_nanos: np.ndarray
    width: np.ndarray
    alpha: np.ndarray
    coeff_norm_lhs: np.ndarray | None = None
    coeff_norm_rhs: np.ndarray | None = None
    reg_share: np.ndarray | None = None
    coeff_gap_lhs: np.ndarray | None = None
    coeff_gap_rhs: np.ndarray | None = None
    update_norm_lhs: np.ndarray | None = None

    @property
    def records(self) -> "TraceRecords":
        return TraceRecords(self)

    def residuals_inf(self) -> np.ndarray:
        return self.residual_inf.copy()

    def thetas(self) -> np.ndarray:
        return self.theta.copy()

    def jitter_flags(self) -> np.ndarray:
        """Per row: the coefficient solve needed jitter or fell back."""
        return (self.jitter > 0.0) | self.fallback

    def values(self, name: str, rows=slice(None)) -> list:
        """Field ``name`` of the records at ``rows``, None where the field is absent.

        Floats, ints and bools are Python scalars; ``alpha`` gives a copy of
        each row's weights.
        """
        widths = self.width[rows].tolist()
        if name == "alpha":
            return [a[:w].copy() for a, w in zip(self.alpha[rows], widths)]
        column = self.jitter_flags() if name == "jitter_flag" else getattr(self, name)
        if column is None:
            return [None] * len(widths)
        out = column[rows].tolist()
        if name in _WIDE_ONLY:
            out = [x if w > 1 else None for x, w in zip(out, widths)]
        return out


class TraceRecords(Sequence):
    """The read-only records of a trace; each item read is built from its columns.

    Indices and slices behave as on a list, and a slice gives a list.
    """

    __slots__ = ("_trace",)

    def __init__(self, trace: SolverTrace):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace.residual_inf)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._build(index)
        k = range(len(self))[index]  # an index out of range raises IndexError
        return self._build(slice(k, k + 1))[0]

    def __iter__(self):
        return iter(self._build(slice(None)))

    def _build(self, rows: slice) -> list[TraceRecord]:
        columns = [self._trace.values(name, rows) for name in _RECORD_FIELDS]
        return [TraceRecord(k, *row) for k, row in zip(range(len(self))[rows], zip(*columns))]


_KINDS = {
    Scheme.VANILLA_VI: anderson.KIND_VANILLA,
    Scheme.ANDERSON_KKT: anderson.KIND_KKT,
    Scheme.ANDERSON_UNCONSTRAINED: anderson.KIND_UNCONSTRAINED,
    Scheme.STABLE_AA: anderson.KIND_REGULARIZED,
}


# No package code calls this.  It stays only because perfbench/tracing.py
# wraps it by name; both go together.
def _solve_coefficients(
    scheme: Scheme, matrices: anderson.HistoryMatrices, eta: float
) -> anderson.MixingSolution:
    return anderson._solve_one(matrices, _KINDS[scheme], eta)


class _GroupColumns:
    """The trace columns of a lockstep group: row ``k`` for iteration ``k``.

    Column ``r`` is the group's live run ``r``; ``alpha`` has a third axis
    of ``m + 1`` weights.  The arrays start zeroed and grow by doubling.  A
    run that stops takes its trimmed columns (:meth:`run`), and
    :meth:`take` drops them from the group, as ``AndersonHistory.take``
    drops its runs.
    """

    def __init__(self, names: list[str], runs: int, depth: int):
        self.arrays = {
            name: np.zeros((64, runs, depth + 1) if name == "alpha" else (64, runs),
                           _COLUMNS.get(name, np.float64))
            for name in names
        }

    def reserve(self, k: int) -> None:
        """Make room for row ``k``."""
        rows = len(self.arrays["width"])
        if k < rows:
            return
        for name, a in self.arrays.items():
            grown = np.zeros((2 * rows, *a.shape[1:]), a.dtype)
            grown[:rows] = a
            self.arrays[name] = grown

    def take(self, keep) -> None:
        """Keep only the runs at ``keep``, in that order."""
        self.arrays = {name: a.take(keep, axis=1) for name, a in self.arrays.items()}

    def run(self, r: int, length: int) -> dict[str, np.ndarray]:
        """The first ``length`` rows of run ``r``'s columns, copied."""
        return {name: a[:length, r].copy() for name, a in self.arrays.items()}


def _record_solutions(cols, k, part, w, sols, e_l2, eta) -> None:
    """Write row ``k`` of the columns the solutions of one width class give.

    ``part`` indexes the class's runs in the group (``...`` for all of
    them); ``sols`` is their :class:`anderson.StackedSolution` and ``e_l2``
    their ``||e_k||_2``.  A stable-aa run (``eta > 0``) gets the Prop2_1
    sides and, for ``w > 1``, its ridge share; what full diagnostics add
    is left to :class:`_DiagnosticsChunk`.
    """
    cols["alpha"][k, part, :w] = sols.alpha
    cols["theta"][k, part] = sols.gain_theta
    cols["theta_l2"][k, part] = sols.gain_l2
    cols["jitter"][k, part] = sols.jitter
    cols["fallback"][k, part] = sols.fallback
    if eta > 0.0:
        cols["coeff_norm_lhs"][k, part], cols["coeff_norm_rhs"][k, part] = (
            anderson.coefficient_norm_bound(sols.alpha, e_l2, eta)
        )
        if w > 1:
            gram = sols.gram_trace
            cols["reg_share"][k, part] = np.divide(
                sols.ridge_scale, gram, out=np.full(len(gram), np.inf), where=gram > 0.0
            )


# the window copies one run keeps for full diagnostics: 16 windows at 30x4, m = 5
DIAGNOSTICS_CHUNK_BYTES = 250_000


class _DiagnosticsChunk:
    """One run's full-diagnostics solutions and window copies, awaiting extras.

    :meth:`add` queues an iteration's solution and window; :meth:`settle`
    writes, in the queued rows of the run's column of the group, the
    coefficient gap against the unregularized solution and ``||G~||_2``,
    from one stacked solve and one stacked norm computation.  The windows
    of one chunk have one width: a window of another width, or a full
    chunk, settles the chunk first.  Each window is copied in the history's
    layout, each column contiguous, so each result is bitwise the one its
    window gives alone.  Of each solution the chunk keeps what the extras
    read: ``alpha``, ``ridge_scale + jitter`` and whether it was solved.
    """

    def __init__(self, n: int, beta: float):
        self.n, self.beta = n, beta
        self.rows: list[int] = []  # the iteration of each queued window
        self.e = self.d = self.h = np.empty((0, 0, n))  # E, D and H columns, per window
        self.alpha = np.empty((0, 0))
        self.reg, self.solved = np.empty(0), np.empty(0, bool)

    def add(
        self,
        k: int,
        sols: anderson.StackedSolution,
        i: int,
        window: anderson.HistoryMatrices,
        group: _GroupColumns,
        r: int,
    ) -> None:
        """Queue iteration ``k``, solution row ``i``, of the run in column ``r`` of ``group``."""
        cols = window.residuals.shape[1]
        if cols != self.e.shape[1]:
            self.settle(group, r)
            n = self.n
            size = max(1, DIAGNOSTICS_CHUNK_BYTES // (8 * n * (3 * cols - 2)))
            self.e = np.empty((size, cols, n))
            self.d, self.h = np.empty((2, size, cols - 1, n))
            self.alpha = np.empty((size, cols))
            self.reg, self.solved = np.empty(size), np.empty(size, bool)
        c = len(self.rows)
        self.e[c], self.d[c], self.h[c] = window.residuals.T, window.delta_q.T, window.delta_e.T
        self.alpha[c] = sols.alpha[i]
        self.reg[c] = sols.ridge_scale[i] + sols.jitter[i]
        self.solved[c] = not sols.fallback[i]
        self.rows.append(k)
        if c + 1 == len(self.e):
            self.settle(group, r)

    def settle(self, group: _GroupColumns, r: int) -> None:
        """Write the queued rows' extras into column ``r`` of ``group``."""
        c = len(self.rows)
        if not c:
            return
        windows = anderson.HistoryMatrices(self.e[:c].mT, self.d[:c].mT, self.h[:c].mT)
        unregularized = anderson.solve_stacked(
            windows,
            anderson.KIND_UNCONSTRAINED,
            0.0,
            *anderson.residual_norms(windows.e_newest),
        )
        cols, rows = group.arrays, self.rows
        cols["coeff_gap_lhs"][rows, r], cols["coeff_gap_rhs"][rows, r] = (
            anderson.coefficient_gap_bound(
                self.alpha[:c], unregularized.alpha, self.d.shape[1]
            )
        )
        cols["update_norm_lhs"][rows, r] = anderson._update_norms(
            windows, self.beta, self.reg[:c], self.solved[:c]
        )
        self.rows = []


def run(mdp: TabularMdp, cfg: SolverConfig, q0: np.ndarray | None = None) -> SolverTrace:
    """Iterate the configured scheme until ``||e||_inf <= tol`` or ``max_iter``.

    Starts from ``Q = 0`` or from ``q0``.  The one-MDP case of
    :func:`_run_lockstep`.  Deterministic given (mdp, cfg, q0).  Raises
    :class:`DivergenceError` (carrying the partial trace) if the Bellman
    image or an iterate goes non-finite or an iterate's magnitude exceeds
    1e12.
    """
    if q0 is not None:
        shape = (mdp.n_states, mdp.n_actions)
        q0 = np.array(q0, dtype=np.float64)
        if q0.shape != shape:
            raise ValueError(f"q0 shape {q0.shape} does not match MDP {shape}")
        if not np.isfinite(q0).all():
            raise ValueError("q0 contains non-finite entries")
        q0 = q0[None]
    (outcome,) = _run_lockstep([mdp], cfg, q0)
    if isinstance(outcome, DivergenceError):
        raise outcome
    return outcome


def fixed_point_oracle(
    mdp: TabularMdp, op: OperatorSpec, max_iter: int = ORACLE_MAX_ITER
) -> np.ndarray:
    """High-precision reference fixed point by value iteration with bound extrapolation.

    Each sweep takes ``TQ`` and the residual ``r = TQ - Q``, ``g`` being
    gamma.  Where ``r`` has one sign everywhere, the fixed point lies
    between the MacQueen-Porteus bounds ``TQ + g/(1-g) min r`` and ``TQ +
    g/(1-g) max r`` (Porteus 1971; Puterman 1994, section 6.6.3), and the
    next iterate is the bound nearer ``Q``: the lower one if ``r > 0``, the
    upper one if ``r < 0``.  That removes the constant mode of the error,
    which is what makes plain iteration slow, and keeps ``r`` of one sign.
    Otherwise the next iterate is ``TQ``.  The bounds hold because both
    aggregators are monotone and commute with adding a constant.  Returns
    the first ``Q`` whose ``max|TQ - Q|`` is at most ``ORACLE_TOL``.  Only
    defined for the contractive aggregators (hard max, mellowmax).  The
    one-MDP case of :func:`fixed_point_oracles`.
    """
    return fixed_point_oracles(MdpStack([mdp]), op, max_iter)[0]


def fixed_point_oracles(
    stack: MdpStack, op: OperatorSpec, max_iter: int = ORACLE_MAX_ITER
) -> list[np.ndarray]:
    """:func:`fixed_point_oracle` of every MDP of ``stack``, in one sweep each step.

    Each MDP leaves the stack at the sweep where its own iteration stops,
    so every result equals its one-MDP oracle bitwise.  If some MDPs miss
    ``ORACLE_TOL`` within ``max_iter`` sweeps, the first of them raises
    :class:`OraclePrecisionError` with its own residual.
    """
    if op.kind not in CONTRACTIVE_KINDS:
        raise ValueError(f"oracle requires a contractive operator, got {op.kind}")
    out: list[np.ndarray | None] = [None] * len(stack)
    live = list(range(len(stack)))  # MDP index of each row of the stack
    q = np.zeros(stack.rewards.shape)
    res = [float("inf")]
    for _ in range(max_iter + 1):
        tq = apply_bellman(stack, q, op)
        diff = (tq - q).reshape(len(live), -1)
        hi, lo = diff.max(axis=1), diff.min(axis=1)
        res = np.maximum(hi, -lo).tolist()  # max |TQ - Q|
        if any(x <= ORACLE_TOL for x in res):
            keep = []
            for r, x in enumerate(res):
                if x <= ORACLE_TOL:
                    out[live[r]] = q[r]
                else:
                    keep.append(r)
            if not keep:
                return out
            live, stack, tq = [live[r] for r in keep], stack.take(keep), tq[keep]
            hi, lo, res = hi[keep], lo[keep], [res[r] for r in keep]
        # a residual of one sign bounds the fixed point by TQ + g/(1-g) min r
        # and TQ + g/(1-g) max r.  The row continues from the bound nearer Q
        # (the lower one where r > 0), after which r keeps its sign up to
        # rounding: the iterates move monotonically, and a monotone sequence
        # of floats cannot cycle.  From the midpoint of the bounds, sweeps can
        # circle a few ulps above ORACLE_TOL where |Q| > 512
        near = np.where(lo > 0.0, lo, np.where(hi < 0.0, hi, 0.0))
        one_sign = np.flatnonzero(near)
        if one_sign.size:
            g = stack.gamma[one_sign]
            tq[one_sign] += g / (1.0 - g) * near[one_sign, None, None]
        q = tq
    first = res[0]
    raise OraclePrecisionError(
        f"oracle did not reach {ORACLE_TOL:g} within {max_iter} iterations "
        f"(achieved {first:g})",
        residual=first,
    )


def _run_lockstep(
    mdps: list[TabularMdp], cfg: SolverConfig, q0: np.ndarray | None = None
) -> list[SolverTrace | DivergenceError]:
    """Iterate ``cfg`` on same-shape MDPs together: the package's one iteration loop.

    ``q0`` holds one start iterate per MDP, ``(B, S, A)``; None starts every
    run from zeros.  Returns, per MDP, its trace or the DivergenceError
    that stopped it.  Each run's trace is bitwise the one its MDP gives
    alone, but for ``wall_nanos``, which holds the whole group's iteration
    time.  Each iteration does one sweep of the stack and one coefficient
    solve per window width (the safeguard restarts a run's window at width
    1; without it all runs share one width): one stacked solve, which
    settles every run of the width, one run included.  Each field of
    the iteration is written for all runs of a width class at once, into
    the group's columns.  Full diagnostics are computed per run in chunks
    of iterations, and every row has them when the run's trace is taken.
    A run that stops leaves the group with its columns.
    """
    stack = MdpStack(mdps)
    beta = cfg.effective_beta()
    kind = _KINDS[cfg.scheme]
    n = mdps[0].n_entries
    # eta > 0 means stable-aa: the only scheme full diagnostics add to; each
    # MDP's chunk holds its windows until the chunk settles
    chunks = []
    if cfg.diagnostics_level == "full" and cfg.eta > 0.0:
        chunks = [_DiagnosticsChunk(n, beta) for _ in mdps]
    history = anderson.AndersonHistory(cfg.m, runs=len(mdps))
    group = _GroupColumns(_column_names(cfg), len(mdps), cfg.m)
    q = np.zeros(stack.rewards.shape) if q0 is None else q0
    live = list(range(len(mdps)))  # MDP index of each row of the group
    out: list[SolverTrace | DivergenceError | None] = [None] * len(mdps)
    prev_res = [np.inf] * len(mdps)  # the safeguard's reference, per row

    def finish(r, length, converged, iterations, final_q):
        """Run ``r``'s trace of ``length`` rows; its chunk settles first."""
        if chunks:
            chunks[live[r]].settle(group, r)
        return SolverTrace(
            converged, iterations, final_q.copy(), cfg, n, **group.run(r, length)
        )

    k = 0
    while live:
        t0 = time.perf_counter_ns()
        tq = apply_bellman(stack, q, cfg.operator)
        if not np.isfinite(tq).all():  # then find the runs at fault
            finite = np.isfinite(tq).reshape(len(live), -1).all(axis=1)
            for r in np.flatnonzero(~finite).tolist():
                out[live[r]] = DivergenceError(
                    f"Bellman image non-finite at iteration {k}",
                    finish(r, k, False, k, q[r]),
                )
            keep = np.flatnonzero(finite)
            live = [live[r] for r in keep]
            if not live:
                break
            stack, q, tq = stack.take(keep), q[keep], tq[keep]
            history.take(keep)
            group.take(keep)
            prev_res = [prev_res[r] for r in keep]
        history.push(q, tq)
        widest = anderson.build_history_matrices(history)
        e_inf, e_l2 = anderson.residual_norms(widest.e_newest)
        group.reserve(k)
        cols = group.arrays
        cols["residual_inf"][k] = e_inf
        cols["residual_l2"][k] = e_l2
        res_inf = e_inf.tolist()
        if cfg.safeguard:
            hits = [x > 2.0 * y for x, y in zip(res_inf, prev_res)]
            history.width = [1 if hit else w for hit, w in zip(hits, history.width)]
            cols["safeguard_triggered"][k] = hits
        widths = history.width
        cols["width"][k] = widths
        if widths.count(widths[0]) == len(widths):  # one width, as without restarts
            classes, nxt = {widths[0]: range(len(live))}, None
        else:  # the rows of each width; nxt is filled class by class
            classes, nxt = {}, np.empty((len(live), n))
            for r, w in enumerate(widths):
                classes.setdefault(w, []).append(r)
        for w, rows in classes.items():
            matrices = widest
            if w < len(history):
                matrices = anderson.build_history_matrices(history, w)
            part = rows if len(rows) < len(live) else ...  # ...: all runs, as views
            own_inf, own_l2 = e_inf, e_l2
            if part is rows:
                matrices = matrices.run(rows)
                own_inf, own_l2 = e_inf[rows], e_l2[rows]
            sols = anderson.solve_stacked(matrices, kind, cfg.eta, own_inf, own_l2)
            _record_solutions(cols, k, part, w, sols, own_l2, cfg.eta)
            if chunks and w > 1:
                for i, r in enumerate(rows):
                    chunks[live[r]].add(k, sols, i, matrices.run(i), group, r)
            step = anderson.next_iterates(
                history, sols.alpha, sols.mixed_residual, beta, part
            )
            if nxt is None:
                nxt = step
            else:
                nxt[rows] = step
        cols["wall_nanos"][k] = time.perf_counter_ns() - t0
        nxt = nxt.reshape(q.shape)
        # the whole group is checked at once, and run by run only if one stops;
        # "not <=" also holds for a non-finite iterate, whose max is nan or inf
        if (
            k >= cfg.max_iter
            or min(res_inf) <= cfg.tol
            or not np.abs(nxt).max() <= DIVERGENCE_LIMIT
        ):
            diverged = ~(np.abs(nxt).reshape(len(live), -1).max(axis=1) <= DIVERGENCE_LIMIT)
            keep = []
            for r, j in enumerate(live):
                converged = res_inf[r] <= cfg.tol
                if converged or k >= cfg.max_iter:
                    iterations = k if converged else cfg.max_iter
                    out[j] = finish(r, k + 1, converged, iterations, q[r])
                elif diverged[r]:
                    out[j] = DivergenceError(
                        f"iterate diverged at iteration {k + 1}",
                        finish(r, k + 1, False, k + 1, nxt[r]),
                    )
                else:
                    keep.append(r)
            live = [live[r] for r in keep]
            if not live:
                break
            stack, nxt = stack.take(keep), nxt[keep]
            history.take(keep)
            group.take(keep)
            res_inf = [res_inf[r] for r in keep]
        q, prev_res = nxt, res_inf
        k += 1
    return out


@dataclass
class RunSummary:
    scheme: str
    config_hash: str
    mdp_label: str
    mdp_seed: int | None
    converged: bool
    failed: bool
    iterations: int
    final_residual_inf: float | None
    final_error_vs_oracle: float | None
    theta_mean: float | None
    theta_max: float | None
    jitter_count: int
    safeguard_count: int
    message: str = ""

    def to_json(self) -> str:
        # not vars(self): that would give every record a materialized __dict__
        return COMPACT_JSON.encode({name: getattr(self, name) for name in _SUMMARY_FIELDS})


_SUMMARY_FIELDS = tuple(f.name for f in fields(RunSummary))


@dataclass
class EnsembleReport:
    """All (config, mdp) run summaries plus the traces that produced them."""

    summaries: list[RunSummary]
    traces: dict[tuple[int, int], SolverTrace] = field(default_factory=dict)
    config_labels: list[str] = field(default_factory=list)
    mdp_labels: list[str] = field(default_factory=list)

    def summary(self, config_idx: int, mdp_idx: int) -> RunSummary:
        return self.summaries[config_idx * len(self.mdp_labels) + mdp_idx]

    def win_rate(self, config_a: int, config_b: int) -> float:
        """Fraction of MDPs where config_a converged in strictly fewer
        iterations than config_b (a non-converged run always loses)."""
        wins = 0
        total = len(self.mdp_labels)
        for j in range(total):
            sa = self.summary(config_a, j)
            sb = self.summary(config_b, j)
            if sa.converged and (not sb.converged or sa.iterations < sb.iterations):
                wins += 1
        return wins / total if total else 0.0

    def to_jsonl(self) -> str:
        return "".join(s.to_json() + "\n" for s in self.summaries)


def _summarize(
    outcome: SolverTrace | DivergenceError,
    label: str,
    mdp_label: str,
    mdp_seed: int | None,
    oracle: np.ndarray | None,
) -> RunSummary:
    """The summary of one run's trace, or of the DivergenceError that stopped it.

    A failed run reports its iterations and last residual, but no thetas
    and no jitter or safeguard counts.
    """
    failed = isinstance(outcome, DivergenceError)
    trace = outcome.trace if failed else outcome
    rows = slice(0) if failed else slice(None)
    thetas = trace.theta[rows]
    err = None
    if oracle is not None and trace.converged:
        err = float(np.abs(trace.final_q - oracle).max())
    return RunSummary(
        scheme=label,
        config_hash=trace.config.config_hash(),
        mdp_label=mdp_label,
        mdp_seed=mdp_seed,
        converged=trace.converged,
        failed=failed,
        iterations=trace.iterations,
        final_residual_inf=float(trace.residual_inf[-1])
        if len(trace.residual_inf)
        else None,
        final_error_vs_oracle=err,
        theta_mean=float(thetas.mean()) if thetas.size else None,
        theta_max=float(thetas.max()) if thetas.size else None,
        jitter_count=int(trace.jitter_flags()[rows].sum()),
        safeguard_count=int(trace.safeguard_triggered[rows].sum()),
        message=str(outcome) if failed else "",
    )


def _shape_groups(mdps: list[TabularMdp]) -> list[list[int]]:
    """Indices of the MDPs of each ``(S, A)`` shape, in order of first appearance."""
    groups: dict[tuple[int, int], list[int]] = {}
    for j, mdp in enumerate(mdps):
        groups.setdefault(mdp.rewards.shape, []).append(j)
    return list(groups.values())


def run_ensemble(
    configs: list[SolverConfig],
    mdps: list[TabularMdp],
    mdp_seeds: list[int | None] | None = None,
    mdp_labels: list[str] | None = None,
    jobs: int = 1,
) -> EnsembleReport:
    """Run every (config, mdp) pair and summarize, in input product order.

    Every config runs on each group of same-shape MDPs through
    :func:`_run_lockstep`, which advances the group's runs together, a
    safeguard config's too.  Each run's trace is the one ``run`` gives.
    Oracles are computed per exact operator, one stack per shape.
    Divergence in one run is recorded as a failure, never aborts the
    ensemble.

    ``jobs`` is accepted and ignored; it stays only because
    ``perfbench/workloads.py`` passes ``jobs=1``.
    """
    if not configs or not mdps:
        raise ValueError("need at least one config and one MDP")
    if mdp_seeds is None:
        mdp_seeds = [None] * len(mdps)
    if mdp_labels is None:
        mdp_labels = [f"mdp{j}" for j in range(len(mdps))]
    labels = [c.label() for c in configs]
    # a label shared by configs that differ (say in beta) gets their hash
    config_labels = [
        f"{label}#{cfg.config_hash()}" if labels.count(label) > 1 else label
        for label, cfg in zip(labels, configs)
    ]
    groups = _shape_groups(mdps)

    # keyed by the exact operator: labels round omega
    oracles: dict[tuple[int, OperatorSpec], np.ndarray] = {}
    for op in dict.fromkeys(cfg.operator for cfg in configs):
        if op.kind in CONTRACTIVE_KINDS:
            for group in groups:
                found = fixed_point_oracles(MdpStack([mdps[j] for j in group]), op)
                oracles.update(((j, op), q) for j, q in zip(group, found))

    outcomes: dict[tuple[int, int], SolverTrace | DivergenceError] = {}
    for i, cfg in enumerate(configs):
        for group in groups:
            found = _run_lockstep([mdps[j] for j in group], cfg)
            outcomes.update(((i, j), o) for j, o in zip(group, found))

    tasks = [(i, j) for i in range(len(configs)) for j in range(len(mdps))]
    summaries = [
        _summarize(
            outcomes[(i, j)],
            config_labels[i],
            mdp_labels[j],
            mdp_seeds[j],
            oracles.get((j, configs[i].operator)),
        )
        for i, j in tasks
    ]

    traces = {
        task: o.trace if isinstance(o := outcomes[task], DivergenceError) else o
        for task in tasks
    }
    return EnsembleReport(summaries, traces, config_labels, list(mdp_labels))


def write_trace_csv(trace: SolverTrace, path, include_timing: bool = False) -> None:
    """Write the per-iteration trace in the fixed column schema.

    ``wall_nanos`` is written as 0 unless ``include_timing`` is set, so
    repeated runs with identical inputs produce byte-identical files.
    """
    beta = repr(trace.config.effective_beta())
    rows = zip(
        trace.residual_inf.tolist(),
        trace.residual_l2.tolist(),
        trace.theta.tolist(),
        trace.jitter_flags().tolist(),
        trace.width.tolist(),
        trace.wall_nanos.tolist() if include_timing else [0] * len(trace.width),
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for k, (res_inf, res_l2, theta, flag, w, nanos) in enumerate(rows):
            writer.writerow(
                [
                    k,
                    repr(res_inf),
                    repr(res_l2),
                    repr(theta),
                    beta,
                    int(flag),
                    COMPACT_JSON.encode(trace.alpha[k, :w].tolist()),
                    nanos,
                ]
            )

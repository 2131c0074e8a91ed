"""Iteration drivers, reference fixed points, ensembles, trace output.

``run`` drives one configured scheme on one MDP from ``Q = 0`` (or a
caller-supplied start), recording per-iteration diagnostics; the
iterate advances by damped linear mixing of the history window with
coefficients chosen by the configured solver.  ``fixed_point_oracle``
produces the high-precision reference against which every accelerated
scheme is compared, and ``run_ensemble`` fans (config, mdp) pairs out
into comparable summaries.
"""

from __future__ import annotations

import csv
import enum
import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import anderson
from .linalg import frobenius_norm
from .mdp import TabularMdp
from .operators import CONTRACTIVE_KINDS, OperatorSpec, apply_bellman

DIVERGENCE_LIMIT = 1e12
ORACLE_TOL = 1e-13
ORACLE_MAX_ITER = 10**6

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
        if self.scheme is Scheme.STABLE_AA and not self.eta > 0.0:
            raise ValueError("stable-aa requires eta > 0")
        if (
            self.scheme in (Scheme.ANDERSON_KKT, Scheme.ANDERSON_UNCONSTRAINED)
            and self.eta != 0.0
        ):
            raise ValueError(f"{self.scheme.value} requires eta = 0")
        if self.eta < 0.0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
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
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
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
    k: int
    residual_inf: float
    residual_l2: float
    theta: float
    theta_l2: float
    alpha: np.ndarray
    beta_used: float
    jitter_flag: bool
    jitter: float
    fallback: bool
    safeguard_triggered: bool
    solver_kind: str
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


@dataclass
class SolverTrace:
    records: list[TraceRecord]
    converged: bool
    iterations: int
    final_q: np.ndarray
    config: SolverConfig
    n: int

    def residuals_inf(self) -> np.ndarray:
        return np.array([r.residual_inf for r in self.records])

    def thetas(self) -> np.ndarray:
        return np.array([r.theta for r in self.records])


def _solve_coefficients(
    scheme: Scheme, matrices: anderson.HistoryMatrices, eta: float
) -> anderson.MixingSolution:
    if scheme is Scheme.VANILLA_VI:
        return anderson.vanilla_solution(matrices)
    if scheme is Scheme.ANDERSON_KKT:
        return anderson.solve_alpha_kkt(matrices)
    if scheme is Scheme.ANDERSON_UNCONSTRAINED:
        return anderson.solve_tau_unconstrained(matrices)
    return anderson.solve_tau_regularized(matrices, eta)


def run(mdp: TabularMdp, cfg: SolverConfig, q0: np.ndarray | None = None) -> SolverTrace:
    """Iterate the configured scheme until ``||e||_inf <= tol`` or ``max_iter``.

    Deterministic given (mdp, cfg, q0).  Raises :class:`DivergenceError`
    (carrying the partial trace) if an iterate goes non-finite or its
    magnitude exceeds 1e12.
    """
    shape = (mdp.n_states, mdp.n_actions)
    if q0 is None:
        q = np.zeros(shape)
    else:
        q = np.array(q0, dtype=np.float64)
        if q.shape != shape:
            raise ValueError(f"q0 shape {q.shape} does not match MDP {shape}")
        if not np.isfinite(q).all():
            raise ValueError("q0 contains non-finite entries")
    beta = cfg.effective_beta()
    full_diag = cfg.diagnostics_level == "full"
    history = anderson.AndersonHistory(cfg.m)
    records: list[TraceRecord] = []
    n = mdp.n_entries
    prev_res = None

    def partial_trace(k: int) -> SolverTrace:
        return SolverTrace(
            records=records,
            converged=False,
            iterations=k,
            final_q=q.copy(),
            config=cfg,
            n=n,
        )

    k = 0
    while True:
        t0 = time.perf_counter_ns()
        tq = apply_bellman(mdp, q, cfg.operator)
        if not np.isfinite(tq).all():
            raise DivergenceError(
                f"Bellman image non-finite at iteration {k}", partial_trace(k)
            )
        history.push(q, tq)
        matrices = anderson.build_history_matrices(history)
        e = matrices.e_newest
        res_inf = float(np.abs(e).max(initial=0.0))
        res_l2 = frobenius_norm(e)
        safeguard_hit = False
        if cfg.safeguard and prev_res is not None and res_inf > 2.0 * prev_res:
            history.clear_keep_newest()
            matrices = anderson.build_history_matrices(history)
            safeguard_hit = True
        sol = _solve_coefficients(cfg.scheme, matrices, cfg.eta)
        if res_l2 < anderson.GAIN_ZERO_TOL:
            theta_l2 = 0.0
        else:
            theta_l2 = frobenius_norm(sol.mixed_residual) / res_l2
        rec = TraceRecord(
            k=k,
            residual_inf=res_inf,
            residual_l2=res_l2,
            theta=sol.gain_theta,
            theta_l2=theta_l2,
            alpha=sol.alpha,
            beta_used=beta,
            jitter_flag=bool(sol.jitter > 0.0 or sol.fallback),
            jitter=sol.jitter,
            fallback=sol.fallback,
            safeguard_triggered=safeguard_hit,
            solver_kind=sol.solver_kind,
            wall_nanos=0,
        )
        p = matrices.delta_e.shape[1]
        if sol.gram_trace is not None:
            rec.reg_share = (
                sol.ridge_scale / sol.gram_trace if sol.gram_trace > 0.0 else np.inf
            )
        # eta > 0 with p > 0 means stable-aa: the only full-diagnostics case
        sol_non = None
        if full_diag and cfg.eta > 0.0 and p > 0:
            sol_non = anderson.solve_tau_unconstrained(matrices)
        if sol.solver_kind == anderson.KIND_REGULARIZED and cfg.eta > 0.0:
            (
                rec.coeff_norm_lhs,
                rec.coeff_norm_rhs,
                rec.coeff_gap_lhs,
                rec.coeff_gap_rhs,
            ) = anderson.coefficient_bounds(
                sol.alpha,
                None if sol_non is None else sol_non.alpha,
                res_l2,
                cfg.eta,
                p,
            )
        if sol_non is not None:
            rec.update_norm_lhs = anderson.update_matrix_norms(
                matrices, beta, cfg.eta, jitter=sol.jitter, fallback=sol.fallback
            )
        rec.wall_nanos = time.perf_counter_ns() - t0
        records.append(rec)
        if res_inf <= cfg.tol:
            return SolverTrace(records, True, k, q.copy(), cfg, n)
        if k >= cfg.max_iter:
            return SolverTrace(records, False, cfg.max_iter, q.copy(), cfg, n)
        nxt = anderson.mixed_update(history, sol, beta)
        q = nxt.reshape(shape)
        if not np.isfinite(q).all() or np.abs(q).max(initial=0.0) > DIVERGENCE_LIMIT:
            raise DivergenceError(
                f"iterate diverged at iteration {k + 1}", partial_trace(k + 1)
            )
        prev_res = res_inf
        k += 1


def fixed_point_oracle(
    mdp: TabularMdp,
    op: OperatorSpec,
    tol: float = ORACLE_TOL,
    max_iter: int = ORACLE_MAX_ITER,
) -> np.ndarray:
    """High-precision reference fixed point by plain undamped iteration.

    Only defined for the contractive aggregators (hard max, mellowmax).
    """
    if op.kind not in CONTRACTIVE_KINDS:
        raise ValueError(f"oracle requires a contractive operator, got {op.kind}")
    q = np.zeros((mdp.n_states, mdp.n_actions))
    res = float("inf")
    for _ in range(max_iter + 1):
        tq = apply_bellman(mdp, q, op)
        res = float(np.abs(tq - q).max(initial=0.0))
        if res <= tol:
            return q
        q = tq
    raise OraclePrecisionError(
        f"oracle did not reach {tol:g} within {max_iter} iterations "
        f"(achieved {res:g})",
        residual=res,
    )


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
        payload = {
            "config_hash": self.config_hash,
            "scheme": self.scheme,
            "mdp_label": self.mdp_label,
            "mdp_seed": self.mdp_seed,
            "converged": self.converged,
            "failed": self.failed,
            "iterations": self.iterations,
            "final_residual_inf": self.final_residual_inf,
            "final_error_vs_oracle": self.final_error_vs_oracle,
            "theta_mean": self.theta_mean,
            "theta_max": self.theta_max,
            "jitter_count": self.jitter_count,
            "safeguard_count": self.safeguard_count,
            "message": self.message,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


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
    trace: SolverTrace,
    label: str,
    mdp_label: str,
    mdp_seed: int | None,
    oracle: np.ndarray | None,
) -> RunSummary:
    thetas = trace.thetas()
    err = None
    if oracle is not None and trace.converged:
        err = float(np.abs(trace.final_q - oracle).max())
    return RunSummary(
        scheme=label,
        config_hash=trace.config.config_hash(),
        mdp_label=mdp_label,
        mdp_seed=mdp_seed,
        converged=trace.converged,
        failed=False,
        iterations=trace.iterations,
        final_residual_inf=float(trace.records[-1].residual_inf)
        if trace.records
        else None,
        final_error_vs_oracle=err,
        theta_mean=float(thetas.mean()) if thetas.size else None,
        theta_max=float(thetas.max()) if thetas.size else None,
        jitter_count=sum(1 for r in trace.records if r.jitter_flag),
        safeguard_count=sum(1 for r in trace.records if r.safeguard_triggered),
    )


def run_ensemble(
    configs: list[SolverConfig],
    mdps: list[TabularMdp],
    mdp_seeds: list[int | None] | None = None,
    mdp_labels: list[str] | None = None,
    jobs: int = 1,
    keep_traces: bool = True,
) -> EnsembleReport:
    """Run every (config, mdp) pair independently and summarize.

    Divergence in one run is recorded as a failure, never aborts the
    ensemble.  Output order is the input product order regardless of
    ``jobs``, so reports are deterministic.
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

    # keyed by the exact operator: labels round omega
    oracles: dict[tuple[int, OperatorSpec], np.ndarray | None] = {}
    for j, mdp in enumerate(mdps):
        for cfg in configs:
            key = (j, cfg.operator)
            if key in oracles:
                continue
            if cfg.operator.kind in CONTRACTIVE_KINDS:
                oracles[key] = fixed_point_oracle(mdp, cfg.operator)
            else:
                oracles[key] = None

    tasks = [(i, j) for i in range(len(configs)) for j in range(len(mdps))]

    def one(task: tuple[int, int]):
        i, j = task
        cfg, mdp = configs[i], mdps[j]
        oracle = oracles[(j, cfg.operator)]
        try:
            trace = run(mdp, cfg)
        except DivergenceError as exc:
            summary = RunSummary(
                scheme=config_labels[i],
                config_hash=cfg.config_hash(),
                mdp_label=mdp_labels[j],
                mdp_seed=mdp_seeds[j],
                converged=False,
                failed=True,
                iterations=exc.trace.iterations,
                final_residual_inf=float(exc.trace.records[-1].residual_inf)
                if exc.trace.records
                else None,
                final_error_vs_oracle=None,
                theta_mean=None,
                theta_max=None,
                jitter_count=0,
                safeguard_count=0,
                message=str(exc),
            )
            return summary, exc.trace
        summary = _summarize(
            trace, config_labels[i], mdp_labels[j], mdp_seeds[j], oracle
        )
        return summary, trace

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, tasks))
    else:
        results = [one(t) for t in tasks]

    report = EnsembleReport(
        summaries=[r[0] for r in results],
        config_labels=config_labels,
        mdp_labels=list(mdp_labels),
    )
    if keep_traces:
        report.traces = {task: results[idx][1] for idx, task in enumerate(tasks)}
    return report


def write_trace_csv(trace: SolverTrace, path, include_timing: bool = False) -> None:
    """Write the per-iteration trace in the fixed column schema.

    ``wall_nanos`` is written as 0 unless ``include_timing`` is set, so
    repeated runs with identical inputs produce byte-identical files.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for rec in trace.records:
            alpha_json = json.dumps(
                [float(a) for a in rec.alpha], separators=(",", ":")
            )
            writer.writerow(
                [
                    rec.k,
                    repr(rec.residual_inf),
                    repr(rec.residual_l2),
                    repr(rec.theta),
                    repr(rec.beta_used),
                    int(rec.jitter_flag),
                    alpha_json,
                    rec.wall_nanos if include_timing else 0,
                ]
            )

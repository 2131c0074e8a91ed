"""Bound checkers that turn the method's stability statements into data.

Each check emits :class:`BoundCheckRecord` rows with the convention
``satisfied <=> lhs <= rhs + slack``.  Checks split into an *asserted*
set (they are expected to hold and a failure is an error) and a
*report-only* set (known-loose bounds recorded as findings):

asserted:    Theta01 (gain certificates), Contraction (hard max /
             mellowmax), Prop2_1, FormEquiv, SolverEquiv, and Theorem3
             whenever its right side is at least beta.
report-only: Theorem3 with right side below beta (the bound degenerates
             near eta = 2/beta), Prop2_2 (unclear additive constant),
             and Boltzmann-softmax contraction.  That one is not
             guaranteed, since the softmax is not a non-expansion, but
             it held on every pair measured: 1000 of 1000 with
             ``check --seed 0`` and 200 of 200 with ``check --seed 1
             --pairs 200``.

Theorem3 bounds ``||G_tilde||_2`` only.  The Theta01, Prop2 and Theorem3
records come from the values a run stored in its trace, never from a
second computation: one reader, ``_trace_records``, turns each bound's
row of stored columns into records.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import anderson
from .mdp import TabularMdp, generate_random_mdp
from .operators import OperatorKind, OperatorSpec, apply_bellman
from .solver import COMPACT_JSON, Scheme, SolverConfig, SolverTrace, run

CONTRACTION_SLACK = 1e-12
THETA_SLACK = 1e-9
COEFF_BOUND_SLACK = 1e-9
UPDATE_NORM_SLACK = 1e-6
FORM_EQUIV_SLACK = 1e-8
SOLVER_EQUIV_SLACK = 1e-8
ROUNDTRIP_SLACK = 1e-14

CONTRACTION_CHUNK = 128  # Q pairs per stacked sweep

ASSERTED_IDS = ("Theta01", "Contraction", "Prop2_1", "FormEquiv", "SolverEquiv")
REPORT_ONLY_IDS = ("Theorem3(rhs<beta)", "Prop2_2", "Contraction(softmax)")


@dataclass
class BoundCheckRecord:
    bound_id: str
    lhs: float
    rhs: float
    satisfied: bool
    slack: float
    iter: int | None
    config_hash: str
    context: str = ""
    asserted: bool = True

    def to_json(self) -> str:
        # not vars(self): that would give every record a materialized __dict__
        return COMPACT_JSON.encode({name: getattr(self, name) for name in _RECORD_FIELDS})


_RECORD_FIELDS = tuple(f.name for f in fields(BoundCheckRecord))


def _record(
    bound_id: str,
    lhs: float,
    rhs: float,
    slack: float,
    iter_idx: int | None,
    config_hash: str,
    context: str = "",
    asserted: bool = True,
) -> BoundCheckRecord:
    lhs = float(lhs)
    rhs = float(rhs)
    return BoundCheckRecord(
        bound_id=bound_id,
        lhs=lhs,
        rhs=rhs,
        satisfied=bool(lhs <= rhs + slack),
        slack=slack,
        iter=iter_idx,
        config_hash=config_hash,
        context=context,
        asserted=asserted,
    )


def _trace_records(trace: SolverTrace, bounds: list[tuple]) -> list[BoundCheckRecord]:
    """Records of bounds whose sides a run stored in its trace columns.

    Each bound is a row ``(bound_id, lhs column, rhs column or constant,
    slack, context, asserted)``.  Every iteration gives one record per row,
    in row order, wherever the row's left side is stored.
    """
    chash = trace.config.config_hash()
    n = len(trace.width)
    rows = [
        (bound_id, trace.values(lhs),
         trace.values(rhs) if isinstance(rhs, str) else [rhs] * n,
         slack, context, asserted)
        for bound_id, lhs, rhs, slack, context, asserted in bounds
    ]
    records = []
    for k in range(n):
        for bound_id, lhs, rhs, slack, context, asserted in rows:
            if lhs[k] is not None:
                records.append(
                    _record(bound_id, lhs[k], rhs[k], slack, k, chash, context, asserted)
                )
    return records


def check_contraction(
    mdp: TabularMdp, op: OperatorSpec, n_pairs: int, seed: int
) -> list[BoundCheckRecord]:
    """Sample random Q pairs and compare ||TQ - TQ'||_inf to gamma ||Q - Q'||_inf.

    Asserted for the contractive aggregators; the Boltzmann softmax is
    recorded without assertion (violations are expected findings).
    """
    rng = np.random.default_rng(seed)
    asserted = op.kind is not OperatorKind.BOLTZMANN_SOFTMAX
    tag = f"{op.label()}|seed={seed}"
    # the pairs of a chunk are drawn at once, the same stream as Q, Q', Q, Q',
    # ..., and swept as one stack, whose rows are each the MDP's own sweep
    chunk = max(1, min(n_pairs, CONTRACTION_CHUNK))  # no pairs: no records
    stack = mdp.stack.take([0] * (2 * chunk))
    q = np.zeros((2 * chunk, mdp.n_states, mdp.n_actions))
    image_gaps, gaps = [], []  # ||TQ - TQ'||_inf and ||Q - Q'||_inf per pair
    for start in range(0, n_pairs, chunk):
        c = min(chunk, n_pairs - start)
        q[: 2 * c] = rng.uniform(-10.0, 10.0, size=(2 * c, *q.shape[1:]))
        tq = apply_bellman(stack, q, op)[: 2 * c]  # rows past 2c hold older draws
        for x, out in ((tq, image_gaps), (q[: 2 * c], gaps)):
            out += np.abs(x[0::2] - x[1::2]).reshape(c, -1).max(axis=1).tolist()
    records = []
    for i, (lhs, gap) in enumerate(zip(image_gaps, gaps)):
        records.append(
            _record(
                "Contraction" if asserted else "Contraction(softmax)",
                lhs,
                mdp.gamma * gap,
                CONTRACTION_SLACK,
                i,
                tag,
                context=op.label(),
                asserted=asserted,
            )
        )
    return records


def check_update_norm_bound(
    trace: SolverTrace, eta: float, beta: float
) -> tuple[list[BoundCheckRecord], list[str]]:
    """Spectral-norm bound on the update matrix, from the norms a run stored.

    Needs a full-diagnostics run with eta > 0.  The bound is asserted
    only where its right side |2/eta - beta| is at least beta; smaller
    right sides (eta near 2/beta) are recorded as report-only findings.
    Returns ``(records, skipped)``; every stored norm gives a record, so
    ``skipped`` is always empty.
    """
    rhs = abs(2.0 / eta - beta)
    asserted = rhs >= beta
    bound_id = "Theorem3" if asserted else "Theorem3(rhs<beta)"
    return _trace_records(trace, [
        (bound_id, "update_norm_lhs", rhs, UPDATE_NORM_SLACK,
         "spectral_norm(G_tilde)", asserted),
    ]), []


def check_form_equivalence(
    mdp: TabularMdp,
    op: OperatorSpec,
    m: int,
    beta: float,
    eta: float,
    n_iters: int,
    config_hash: str = "",
) -> list[BoundCheckRecord]:
    """Per-iteration agreement of the mixing and quasi-Newton update forms.

    Evolves one trajectory by the mixing form and, at every step with at
    least two history entries, compares it against the matrix-free
    quasi-Newton step of the same solution: one coefficient solve per step
    (``eta = 0`` is the unregularized solve).
    """
    history = anderson.AndersonHistory(m)
    q = np.zeros((mdp.n_states, mdp.n_actions))
    records = []
    for k in range(n_iters):
        tq = apply_bellman(mdp, q, op)
        history.push(q, tq)
        sol = anderson.solve_tau_regularized(anderson.build_history_matrices(history), eta)
        nxt = anderson.mixed_update(history, sol, beta)
        if len(history) >= 2:
            qn = anderson.quasi_newton_update(history, sol, beta)
            records.append(
                _record(
                    "FormEquiv",
                    float(np.abs(nxt - qn).max()),
                    0.0,
                    FORM_EQUIV_SLACK,
                    k,
                    config_hash,
                    context=f"eta={eta:g}",
                    asserted=True,
                )
            )
        q = nxt.reshape(mdp.n_states, mdp.n_actions)
    return records


def _random_history(rng: np.random.Generator, n: int, length: int):
    history = anderson.AndersonHistory(length - 1)
    for _ in range(length):
        history.push(rng.standard_normal(n), rng.standard_normal(n))
    return anderson.build_history_matrices(history)


def check_solver_equivalence(
    seed: int, n_histories: int, n: int = 40
) -> list[BoundCheckRecord]:
    """Cross-solver and transform identities on random histories.

    Emits, per history: KKT vs unconstrained alpha agreement, eta=0
    regularized vs unconstrained agreement, and the tau <-> alpha
    round-trip error.
    """
    rng = np.random.default_rng(seed)
    tag = f"seed={seed}"
    records = []
    for i in range(n_histories):
        length = 2 + i % 5
        matrices = _random_history(rng, n, length)
        kkt = anderson.solve_alpha_kkt(matrices)
        unc = anderson.solve_tau_unconstrained(matrices)
        reg0 = anderson.solve_tau_regularized(matrices, 0.0)
        records.append(
            _record(
                "SolverEquiv",
                float(np.abs(kkt.alpha - unc.alpha).max()),
                0.0,
                SOLVER_EQUIV_SLACK,
                i,
                tag,
                context="kkt_vs_unconstrained",
                asserted=not (
                    kkt.fallback or unc.fallback or kkt.jitter > 0 or unc.jitter > 0
                ),
            )
        )
        records.append(
            _record(
                "SolverEquiv",
                float(np.abs(reg0.alpha - unc.alpha).max()),
                0.0,
                1e-10,
                i,
                tag,
                context="eta0_equals_unconstrained",
                asserted=True,
            )
        )
        tau = rng.standard_normal(length - 1)
        back = anderson.alpha_to_tau(anderson.tau_to_alpha(tau))
        records.append(
            _record(
                "SolverEquiv",
                float(np.abs(back - tau).max(initial=0.0)),
                0.0,
                ROUNDTRIP_SLACK,
                i,
                tag,
                context="tau_alpha_roundtrip",
                asserted=True,
            )
        )
    return records


def theta_records(trace: SolverTrace) -> list[BoundCheckRecord]:
    """Gain certificates per iteration of a trace.

    The 2-norm certificate ||E alpha||_2 <= ||e_k||_2 must hold for every
    minimizing solver (the unit vector is always feasible); the inf-norm
    gain is capped by sqrt(n) through norm equivalence.
    """
    return _trace_records(trace, [
        ("Theta01", "theta_l2", 1.0, THETA_SLACK, "l2_certificate", True),
        ("Theta01", "theta", float(np.sqrt(trace.n)), THETA_SLACK, "inf_norm_cap", True),
    ])


def coefficient_bound_records(trace: SolverTrace) -> list[BoundCheckRecord]:
    """Coefficient-norm (asserted) and coefficient-gap (report-only) rows a run recorded."""
    return _trace_records(trace, [
        ("Prop2_1", "coeff_norm_lhs", "coeff_norm_rhs", COEFF_BOUND_SLACK,
         f"eta={trace.config.eta:g}", True),
        ("Prop2_2", "coeff_gap_lhs", "coeff_gap_rhs", 0.0, "coefficient_gap", False),
    ])


def run_check_suite(
    seed: int,
    n_pairs: int,
    eta: float,
    beta: float,
    omega: float = 5.0,
) -> list[BoundCheckRecord]:
    """The property suite behind the ``check`` command.

    Entirely seeded: identical arguments produce identical records.
    """
    records: list[BoundCheckRecord] = []

    small = generate_random_mdp(seed, 20, 3, 3, 1.0, 0.95)
    mid = generate_random_mdp(seed + 1, 30, 4, 3, 1.0, 0.9)

    contraction_ops = [OperatorSpec(OperatorKind.HARD_MAX)] + [
        OperatorSpec(OperatorKind.MELLOW_MAX, w) for w in (1.0, 5.0, 10.0)
    ]
    for i, op in enumerate(contraction_ops):
        records += check_contraction(small, op, n_pairs, seed + 10 + i)
    records += check_contraction(
        small, OperatorSpec(OperatorKind.BOLTZMANN_SOFTMAX, 10.0), n_pairs, seed + 20
    )

    mm = OperatorSpec(OperatorKind.MELLOW_MAX, omega)
    run_configs = [
        SolverConfig(scheme=Scheme.VANILLA_VI, operator=mm, tol=1e-10),
        SolverConfig(scheme=Scheme.ANDERSON_KKT, operator=mm, m=5, tol=1e-10),
        SolverConfig(
            scheme=Scheme.ANDERSON_UNCONSTRAINED, operator=mm, m=3, tol=1e-10
        ),
        SolverConfig(
            scheme=Scheme.STABLE_AA, operator=mm, m=5, eta=eta, tol=1e-10
        ),
    ]
    for cfg in run_configs:
        trace = run(mid, cfg)
        records += theta_records(trace)
        records += coefficient_bound_records(trace)

    records += check_form_equivalence(
        mid, mm, m=3, beta=beta, eta=0.0, n_iters=20, config_hash=f"seed={seed + 1}"
    )
    records += check_form_equivalence(
        mid,
        mm,
        m=3,
        beta=beta,
        eta=eta,
        n_iters=20,
        config_hash=f"seed={seed + 1}",
    )

    records += check_solver_equivalence(seed + 30, min(n_pairs, 200))

    t3_cfg = SolverConfig(
        scheme=Scheme.STABLE_AA,
        operator=mm,
        m=5,
        beta=beta,
        eta=eta,
        tol=1e-10,
        diagnostics_level="full",
    )
    t3_trace = run(small, t3_cfg)
    records += check_update_norm_bound(t3_trace, eta, beta)[0]
    records += coefficient_bound_records(t3_trace)
    records += theta_records(t3_trace)
    return records


def write_check_report(
    records: list[BoundCheckRecord],
    path,
    extra_header: dict | None = None,
) -> None:
    """JSON-lines report: one header object, then one object per record."""
    header = {
        "kind": "header",
        "asserted": list(ASSERTED_IDS) + ["Theorem3 (when rhs >= beta)"],
        "report_only": list(REPORT_ONLY_IDS),
    }
    if extra_header:
        header.update(extra_header)
    lines = [COMPACT_JSON.encode(header)]
    lines += [r.to_json() for r in records]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line at its stated tolerance.

The shared ensemble is 50 seeded random MDPs (30 states, 4 actions,
gamma 0.95) plus 5 gridworlds, solved by all four schemes under
mellowmax (omega 5) at tol 1e-10.

Known honest failure: the spectral-norm stability bound at eta = 1.0
(criterion 9) is violated on every measured run -- the update matrix is
-I plus a small correction whose misalignment pushes the norm to
~1.05-1.09 > |2/eta - beta| = 1.  The bound holds at eta = 0.1 and 0.5.
The test asserts the stated inequality anyway and fails red rather than
loosening it; see the project notes for the analysis.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

import anderson_pi as ap
from anderson_pi.anderson import (
    AndersonHistory,
    alpha_to_tau,
    build_history_matrices,
    mixed_update,
    quasi_newton_update,
    solve_alpha_kkt,
    solve_tau_regularized,
    solve_tau_unconstrained,
    tau_to_alpha,
)
from anderson_pi.diagnostics import check_contraction, check_update_norm_bound, write_check_report
from anderson_pi.operators import OperatorKind, OperatorSpec, apply_bellman
from anderson_pi.solver import Scheme, SolverConfig

MM5 = OperatorSpec(OperatorKind.MELLOW_MAX, 5.0)
CLI = [sys.executable, "-m", "anderson_pi.cli"]

VANILLA, KKT, UNCONSTRAINED, STABLE = 0, 1, 2, 3


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def ensemble():
    mdps = [ap.generate_random_mdp(s, 30, 4, 3, 1.0, 0.95) for s in range(50)]
    grids = [
        ap.generate_gridworld(w, h, 0.1, 1.0, 0.9)
        for (w, h) in [(3, 3), (4, 4), (5, 5), (4, 3), (6, 5)]
    ]
    configs = [
        SolverConfig(scheme=Scheme.VANILLA_VI, operator=MM5, tol=1e-10),
        SolverConfig(scheme=Scheme.ANDERSON_KKT, operator=MM5, m=5, beta=1.0, tol=1e-10),
        SolverConfig(
            scheme=Scheme.ANDERSON_UNCONSTRAINED, operator=MM5, m=5, tol=1e-10
        ),
        SolverConfig(scheme=Scheme.STABLE_AA, operator=MM5, m=5, eta=0.1, tol=1e-10),
    ]
    seeds = list(range(50)) + [None] * 5
    start = time.perf_counter()
    rep = ap.run_ensemble(configs, mdps + grids, mdp_seeds=seeds)
    elapsed = time.perf_counter() - start
    return rep, mdps + grids, elapsed


def test_criterion_1_fixed_point_correctness(ensemble):
    rep, mdps, elapsed = ensemble
    errors = []
    for s in rep.summaries:
        assert s.converged, f"run {s.scheme} on {s.mdp_label} did not converge"
        errors.append(s.final_error_vs_oracle)
    worst = max(errors)
    ok = worst <= 1e-8 and elapsed < 60.0
    report(
        "criterion-1 fixed-point correctness",
        ok,
        f"{len(rep.summaries)} runs, worst oracle error {worst:.3e} <= 1e-8, "
        f"ensemble wall time {elapsed:.1f}s < 60s",
    )


def test_criterion_2_vanilla_gamma_linear(ensemble):
    rep, mdps, _ = ensemble
    violations = 0
    checked = 0
    for j, mdp in enumerate(mdps):
        res = rep.traces[(VANILLA, j)].residuals_inf()
        for k in range(1, len(res)):
            checked += 1
            if res[k] > mdp.gamma * res[k - 1] + 1e-12:
                violations += 1
    report(
        "criterion-2 gamma-linear vanilla rate",
        violations == 0,
        f"{checked} residual steps checked, {violations} violations",
    )


def test_criterion_3_acceleration_win_rate(ensemble):
    rep, mdps, _ = ensemble
    wins = 0
    iters_v, iters_k = [], []
    for j in range(50):  # the random-MDP block
        sv, sk = rep.summary(VANILLA, j), rep.summary(KKT, j)
        iters_v.append(sv.iterations)
        iters_k.append(sk.iterations)
        if sk.converged and sk.iterations < sv.iterations:
            wins += 1
    rate = wins / 50
    dist = (
        f"vanilla iters min/mean/max = {min(iters_v)}/{np.mean(iters_v):.1f}/"
        f"{max(iters_v)}; kkt(m=5) = {min(iters_k)}/{np.mean(iters_k):.1f}/"
        f"{max(iters_k)}"
    )
    report(
        "criterion-3 acceleration win-rate",
        rate >= 0.70,
        f"win-rate {rate:.2f} >= 0.70; {dist}",
    )


def test_criterion_4_gain_bounds(ensemble):
    rep, mdps, _ = ensemble
    worst_l2 = 0.0
    most_negative = 0.0
    n_records = 0
    for trace in rep.traces.values():
        for rec in trace.records:
            n_records += 1
            worst_l2 = max(worst_l2, rec.theta_l2)
            most_negative = min(most_negative, rec.theta)
    ok = worst_l2 <= 1.0 + 1e-9 and most_negative >= -1e-9
    report(
        "criterion-4 gain bounds",
        ok,
        f"{n_records} iterations: max l2-certificate theta {worst_l2:.12f} <= 1+1e-9, "
        f"min theta {most_negative:.3e} >= -1e-9",
    )


def test_criterion_5_equivalence_suite():
    rng = np.random.default_rng(2024)

    def random_history(n, length):
        h = AndersonHistory(length - 1)
        for _ in range(length):
            h.push(rng.standard_normal(n), rng.standard_normal(n))
        return h

    # (a) KKT vs unconstrained on 1000 random well-conditioned histories
    worst_a = 0.0
    for i in range(1000):
        m = build_history_matrices(random_history(40, 2 + i % 5))
        kkt = solve_alpha_kkt(m)
        unc = solve_tau_unconstrained(m)
        assert not (kkt.fallback or unc.fallback)
        worst_a = max(worst_a, float(np.abs(kkt.alpha - unc.alpha).max()))

    # (b) mixing form vs quasi-Newton form over 20-iteration seeded runs
    worst_b = 0.0
    for eta in (0.0, 0.1):
        mdp = ap.generate_random_mdp(77, 30, 4, 3, 1.0, 0.95)
        h = AndersonHistory(3)
        q = np.zeros((30, 4))
        for _ in range(20):
            tq = apply_bellman(mdp, q, MM5)
            h.push(q.ravel().copy(), tq.ravel().copy())
            m = build_history_matrices(h)
            sol = (
                solve_tau_regularized(m, eta) if eta > 0 else solve_tau_unconstrained(m)
            )
            nxt = mixed_update(h, sol, 1.0)
            if len(h) >= 2:
                qn = quasi_newton_update(h, sol, 1.0)
                worst_b = max(worst_b, float(np.abs(nxt - qn).max()))
            q = nxt.reshape(30, 4)

    # (c) eta = 0 regularized equals unconstrained
    worst_c = 0.0
    for i in range(200):
        m = build_history_matrices(random_history(30, 2 + i % 5))
        worst_c = max(
            worst_c,
            float(
                np.abs(
                    solve_tau_regularized(m, 0.0).alpha
                    - solve_tau_unconstrained(m).alpha
                ).max()
            ),
        )

    # (d) tau <-> alpha round trip
    worst_d = 0.0
    for _ in range(500):
        tau = rng.standard_normal(int(rng.integers(0, 7)))
        back = alpha_to_tau(tau_to_alpha(tau))
        worst_d = max(worst_d, float(np.abs(back - tau).max(initial=0.0)))

    ok = worst_a <= 1e-8 and worst_b <= 1e-8 and worst_c <= 1e-10 and worst_d <= 1e-14
    report(
        "criterion-5 equivalence suite",
        ok,
        f"(a) kkt-vs-unconstrained {worst_a:.2e} <= 1e-8; "
        f"(b) mixing-vs-quasi-Newton {worst_b:.2e} <= 1e-8; "
        f"(c) eta0 {worst_c:.2e} <= 1e-10; (d) round-trip {worst_d:.2e} <= 1e-14",
    )


def test_criterion_6_contraction_suite():
    mdp = ap.generate_random_mdp(123, 20, 4, 3, 1.0, 0.95)
    contractive = [OperatorSpec(OperatorKind.HARD_MAX)] + [
        OperatorSpec(OperatorKind.MELLOW_MAX, w) for w in (1.0, 5.0, 10.0)
    ]
    bad = 0
    total = 0
    for i, op in enumerate(contractive):
        records = check_contraction(mdp, op, 1000, seed=1000 + i)
        total += len(records)
        bad += sum(1 for r in records if not r.satisfied)
    softmax_records = check_contraction(
        mdp, OperatorSpec(OperatorKind.BOLTZMANN_SOFTMAX, 10.0), 1000, seed=2000
    )
    softmax_viol = sum(1 for r in softmax_records if not r.satisfied)
    ok = bad == 0
    report(
        "criterion-6 contraction suite",
        ok,
        f"{total} contractive-operator pairs, {bad} violations; Boltzmann "
        f"report-only: {softmax_viol}/1000 violations under uniform sampling",
    )


def test_criterion_7_mellowmax_gradient():
    rng = np.random.default_rng(99)
    step = 1e-5
    worst_fd = 0.0
    worst_sum = 0.0
    for _ in range(100):
        row = rng.uniform(-5.0, 5.0, size=int(rng.integers(2, 9)))
        omega = 10 ** rng.uniform(-1.0, 1.0)
        grad = ap.mellowmax_grad(row, omega)
        assert (grad >= 0).all()
        worst_sum = max(worst_sum, abs(float(grad.sum()) - 1.0))
        fd = np.empty_like(row)
        for i in range(row.size):
            e = np.zeros_like(row)
            e[i] = step
            fd[i] = (ap.mellowmax(row + e, omega) - ap.mellowmax(row - e, omega)) / (
                2 * step
            )
        worst_fd = max(worst_fd, float(np.abs(grad - fd).max()))
    ok = worst_fd <= 1e-6 and worst_sum <= 1e-12
    report(
        "criterion-7 mellowmax gradient",
        ok,
        f"100 points: max |analytic - central difference| {worst_fd:.2e} <= 1e-6, "
        f"max |sum - 1| {worst_sum:.2e} <= 1e-12, all entries nonnegative",
    )


def test_criterion_8_coefficient_norm_bound(ensemble):
    rep, mdps, _ = ensemble
    n_solves = 0
    worst_gap = -np.inf
    for j in range(len(mdps)):
        for rec in rep.traces[(STABLE, j)].records:
            if rec.coeff_norm_lhs is not None:
                n_solves += 1
                worst_gap = max(worst_gap, rec.coeff_norm_lhs - rec.coeff_norm_rhs)
    ok = n_solves > 0 and worst_gap <= 1e-9
    report(
        "criterion-8 coefficient-norm bound",
        ok,
        f"{n_solves} regularized solves, worst lhs - rhs = {worst_gap:.3e} <= 1e-9",
    )


@pytest.mark.parametrize("eta", [0.1, 0.5, 1.0])
def test_criterion_9_stability_bound(eta):
    rhs = abs(2.0 / eta - 1.0)
    worst = 0.0
    for seed in range(3):
        mdp = ap.generate_random_mdp(seed, 20, 3, 3, 1.0, 0.95)
        cfg = SolverConfig(
            scheme=Scheme.STABLE_AA,
            operator=MM5,
            m=5,
            beta=1.0,
            eta=eta,
            tol=1e-10,
            diagnostics_level="full",
        )
        trace = ap.run(mdp, cfg)
        worst = max(
            worst,
            max(r.update_norm_lhs for r in trace.records if r.update_norm_lhs is not None),
        )
    report(
        f"criterion-9 stability bound (eta={eta})",
        worst <= rhs + 1e-6,
        f"max spectral_norm(G_tilde) {worst:.6f} vs |2/eta - beta| = {rhs:g} (+1e-6)",
    )


def test_criterion_9_degenerate_rhs_report_only(tmp_path):
    # eta = 2, beta = 1 drives the right side to zero: findings must be
    # report-only and the report must be written without error
    mdp = ap.generate_random_mdp(0, 15, 3, 3, 1.0, 0.95)
    cfg = SolverConfig(
        scheme=Scheme.STABLE_AA,
        operator=MM5,
        m=5,
        beta=1.0,
        eta=2.0,
        tol=1e-10,
        diagnostics_level="full",
    )
    trace = ap.run(mdp, cfg)
    records, _ = check_update_norm_bound(trace, 2.0, 1.0)
    findings = [r for r in records if not r.satisfied]
    assert findings
    assert all(not r.asserted for r in findings)
    path = tmp_path / "report.jsonl"
    write_check_report(records, path)
    lines = path.read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "header"
    report(
        "criterion-9 degenerate-rhs report",
        True,
        f"{len(findings)} report-only findings written without error",
    )


def test_criterion_10_cli_determinism(tmp_path):
    def run_cli(*args):
        proc = subprocess.run(
            CLI + [str(a) for a in args], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    # gen-mdp twice with identical generator flags
    run_cli(
        "gen-mdp", "--kind", "random", "--seed", 5, "--states", 15,
        "--actions", 3, "--branching", 2, "--gamma", 0.9, "-o", tmp_path / "m1.json",
    )
    run_cli(
        "gen-mdp", "--kind", "random", "--seed", 5, "--states", 15,
        "--actions", 3, "--branching", 2, "--gamma", 0.9, "-o", tmp_path / "m2.json",
    )
    mdp_path = tmp_path / "m1.json"

    # every other command twice with identical flags except the out dir,
    # which never appears inside the output files
    for d in ("a", "b"):
        base = tmp_path / d
        run_cli(
            "solve", "--mdp", mdp_path, "--scheme", "stable-aa", "-m", 3,
            "--eta", 0.1, "--op", "mellowmax", "--omega", 5, "--tol", "1e-9",
            "-o", base / "solve",
        )
        run_cli(
            "compare", "--scheme", "vanilla", "--scheme", "kkt:m=3",
            "--gen", "random", "--seeds", "0:3", "--op", "mellowmax", "--omega", 5,
            "-o", base / "cmp",
        )
        run_cli("check", "--seed", 3, "--pairs", 25, "-o", base / "chk")

    a, b = tmp_path / "a", tmp_path / "b"
    files = [
        "solve/trace.csv",
        "solve/summary.json",
        "cmp/report.jsonl",
        "cmp/curves.csv",
        "cmp/aggregate.json",
        "chk/check_report.jsonl",
    ]
    diffs = [f for f in files if (a / f).read_bytes() != (b / f).read_bytes()]
    if (tmp_path / "m1.json").read_bytes() != (tmp_path / "m2.json").read_bytes():
        diffs.append("m.json")
    files.append("m.json")
    report(
        "criterion-10 CLI determinism",
        not diffs,
        f"{len(files)} output files byte-compared across repeated runs"
        + (f"; differing: {diffs}" if diffs else ""),
    )

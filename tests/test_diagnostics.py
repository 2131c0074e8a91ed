import json

import numpy as np
import pytest

import anderson_pi as ap
from anderson_pi import anderson
from anderson_pi.anderson import (
    AndersonHistory,
    build_history_matrices,
    solve_tau_regularized,
    solve_tau_unconstrained,
)
from anderson_pi.diagnostics import (
    check_contraction,
    check_form_equivalence,
    check_solver_equivalence,
    check_update_norm_bound,
    run_check_suite,
    theta_records,
    write_check_report,
)
from anderson_pi.operators import OperatorKind, OperatorSpec
from anderson_pi.solver import Scheme, SolverConfig


def history_from_pairs(pairs):
    h = AndersonHistory(len(pairs) - 1)
    for q, tq in pairs:
        h.push(np.asarray(q, dtype=float), np.asarray(tq, dtype=float))
    return h


class TestContraction:
    def test_identical_pair_trivially_satisfied(self, mm5):
        mdp = ap.generate_random_mdp(0, 6, 2, 2, 1.0, 0.9)
        q = np.ones((6, 2))
        lhs = np.abs(
            ap.apply_bellman(mdp, q, mm5) - ap.apply_bellman(mdp, q, mm5)
        ).max()
        assert lhs == 0.0

    def test_mellowmax_all_satisfied(self, mm5):
        mdp = ap.generate_random_mdp(0, 15, 3, 3, 1.0, 0.9)
        records = check_contraction(mdp, mm5, 200, seed=5)
        assert len(records) == 200
        assert all(r.satisfied for r in records)
        assert all(r.asserted for r in records)

    def test_boltzmann_reported_not_asserted(self):
        mdp = ap.generate_random_mdp(0, 15, 3, 3, 1.0, 0.95)
        op = OperatorSpec(OperatorKind.BOLTZMANN_SOFTMAX, 10.0)
        records = check_contraction(mdp, op, 100, seed=5)
        assert all(not r.asserted for r in records)
        assert all(r.bound_id == "Contraction(softmax)" for r in records)

    @pytest.mark.parametrize(
        "op",
        [
            OperatorSpec(OperatorKind.HARD_MAX),
            OperatorSpec(OperatorKind.MELLOW_MAX, 5.0),
            OperatorSpec(OperatorKind.BOLTZMANN_SOFTMAX, 10.0),
        ],
        ids=lambda op: op.kind.value,
    )
    def test_matches_pair_by_pair_reference(self, op):
        # 300 pairs: two full chunks and a partial one
        mdp = ap.generate_random_mdp(0, 20, 3, 3, 1.0, 0.95)
        records = check_contraction(mdp, op, 300, seed=11)
        rng = np.random.default_rng(11)
        for rec in records:
            qa = rng.uniform(-10.0, 10.0, size=(20, 3))
            qb = rng.uniform(-10.0, 10.0, size=(20, 3))
            lhs = np.abs(ap.apply_bellman(mdp, qa, op) - ap.apply_bellman(mdp, qb, op)).max()
            rhs = mdp.gamma * float(np.abs(qa - qb).max())
            assert (rec.lhs, rec.rhs) == (float(lhs), rhs)
        assert [r.iter for r in records] == list(range(300))

    def test_no_pairs_no_records(self, mm5):
        mdp = ap.generate_random_mdp(0, 6, 2, 2, 1.0, 0.9)
        assert check_contraction(mdp, mm5, 0, seed=1) == []

    def test_reproducible_to_the_bit(self, mm5):
        mdp = ap.generate_random_mdp(0, 8, 2, 2, 1.0, 0.9)
        a = check_contraction(mdp, mm5, 50, seed=3)
        b = check_contraction(mdp, mm5, 50, seed=3)
        assert [(r.lhs, r.rhs) for r in a] == [(r.lhs, r.rhs) for r in b]


class TestUpdateNormBound:
    def make_trace(self, eta, beta=1.0):
        mdp = ap.generate_random_mdp(11, 15, 3, 3, 1.0, 0.95)
        cfg = SolverConfig(
            scheme=Scheme.STABLE_AA,
            operator=OperatorSpec(OperatorKind.MELLOW_MAX, 5.0),
            m=5,
            beta=beta,
            eta=eta,
            tol=1e-10,
            diagnostics_level="full",
        )
        return ap.run(mdp, cfg)

    def test_degenerate_rhs_is_report_only(self):
        # eta = 2, beta = 1: the right side is exactly zero, so any
        # nonzero update matrix is a finding, never an assertion failure
        trace = self.make_trace(2.0)
        records, _ = check_update_norm_bound(trace, 2.0, 1.0)
        gt = [r for r in records if r.context == "spectral_norm(G_tilde)"]
        assert gt
        assert all(r.rhs == 0.0 for r in gt)
        assert all(not r.asserted for r in gt)
        assert any(not r.satisfied for r in gt)

    def test_wide_rhs_satisfied(self):
        trace = self.make_trace(0.1)
        records, skipped = check_update_norm_bound(trace, 0.1, 1.0)
        assert records and skipped == []
        # one G_tilde record per iteration with a stored norm, nothing else
        assert len(records) == sum(
            r.update_norm_lhs is not None for r in trace.records
        )
        assert all(r.context == "spectral_norm(G_tilde)" for r in records)
        assert all(r.asserted for r in records)
        assert all(r.satisfied for r in records)

    def test_late_iterations_approach_beta(self):
        # as the history differences vanish the update matrix tends to
        # -beta I, whose spectral norm is beta
        trace = self.make_trace(0.5)
        last = [r for r in trace.records if r.update_norm_lhs is not None][-1]
        assert last.update_norm_lhs == pytest.approx(1.0, abs=0.2)


def bounds(reg, non, m, eta):
    """Prop2_1 and Prop2_2 sides of a regularized and an unregularized solve.

    Each solve's alpha goes in as a stack of one; each side comes out as a float.
    """
    e_l2 = np.array([np.linalg.norm(m.e_newest)])
    sides = (
        *anderson.coefficient_norm_bound(reg.alpha[None], e_l2, eta),
        *anderson.coefficient_gap_bound(reg.alpha[None], non.alpha[None], m.delta_e.shape[1]),
    )
    return tuple(float(side[0]) for side in sides)


class TestCoefficientBounds:
    def test_hand_case(self):
        h = history_from_pairs([([0, 0], [2, 0]), ([0, 0], [0, 1])])
        m = build_history_matrices(h)
        reg = solve_tau_regularized(m, 0.5)
        non = solve_tau_unconstrained(m)
        norm_lhs, norm_rhs, gap_lhs, gap_rhs = bounds(reg, non, m, 0.5)
        # tau_reg = H.e / (H.H + 0.5*(0 + 5)) = 1 / 7.5
        assert reg.tau[0] == pytest.approx(1.0 / 7.5, abs=1e-12)
        assert norm_lhs <= norm_rhs
        assert norm_rhs == pytest.approx(4.0 * (1.0 + 1.0 / 0.25), abs=1e-12)
        assert gap_lhs is not None and gap_rhs is not None

    def test_huge_eta_limit(self):
        rng = np.random.default_rng(0)
        h = AndersonHistory(3)
        for _ in range(4):
            h.push(rng.standard_normal(8), rng.standard_normal(8))
        m = build_history_matrices(h)
        reg = solve_tau_regularized(m, 1e12)
        non = solve_tau_unconstrained(m)
        norm_lhs, norm_rhs, _, _ = bounds(reg, non, m, 1e12)
        assert norm_lhs == pytest.approx(1.0, abs=1e-6)
        assert norm_rhs == pytest.approx(4.0, abs=1e-6)
        assert norm_lhs <= norm_rhs

    def test_zero_residual_floor(self):
        # e_k = 0: tau = 0, alpha is the unit vector, lhs = 1 <= 4
        h = history_from_pairs([([0, 0], [1, 1]), ([0, 0], [0, 0])])
        m = build_history_matrices(h)
        reg = solve_tau_regularized(m, 0.5)
        non = solve_tau_unconstrained(m)
        norm_lhs, norm_rhs, _, _ = bounds(reg, non, m, 0.5)
        assert norm_lhs == pytest.approx(1.0, abs=1e-12)
        assert norm_rhs == pytest.approx(4.0, abs=1e-12)

    def test_one_formula_for_run_records_and_check(self, mm5):
        # the values the solver's formula and a direct one give, bitwise
        eta = 0.1
        tr = ap.run(
            ap.generate_random_mdp(4, 12, 3, 2, 1.0, 0.95),
            SolverConfig(Scheme.STABLE_AA, mm5, m=3, eta=eta, diagnostics_level="full"),
        )
        for rec in tr.records:
            assert rec.coeff_norm_lhs == float(np.linalg.norm(rec.alpha) ** 2)
            assert rec.coeff_norm_rhs == 4.0 * (1.0 + rec.residual_l2**2 / eta**2)
        rng = np.random.default_rng(5)
        for p in (1, 2, 4):
            h = AndersonHistory(p)
            for _ in range(p + 1):
                h.push(rng.standard_normal(9), rng.standard_normal(9))
            m = build_history_matrices(h)
            reg, non = solve_tau_regularized(m, eta), solve_tau_unconstrained(m)
            e_l2 = float(np.linalg.norm(m.e_newest))
            cond = anderson.transform_cond2(p)
            assert bounds(reg, non, m, eta) == (
                float(np.linalg.norm(reg.alpha) ** 2),
                4.0 * (1.0 + e_l2**2 / eta**2),
                float(np.linalg.norm(reg.alpha - non.alpha) ** 2),
                float(cond**2 * np.linalg.norm(non.alpha) ** 2 - (2.0 * p + 1.0) / (p + 1.0)),
            )


class TestSuitePieces:
    def test_form_equivalence_records(self, mm5):
        mdp = ap.generate_random_mdp(1, 20, 3, 3, 1.0, 0.9)
        records = check_form_equivalence(mdp, mm5, m=3, beta=1.0, eta=0.1, n_iters=15)
        assert records
        assert all(r.satisfied for r in records)

    def test_form_equivalence_solves_once_per_step(self, mm5, monkeypatch):
        # both forms read the step's one solution: one coefficient solve per step
        calls = []
        solve_one = anderson._solve_one
        monkeypatch.setattr(
            anderson, "_solve_one", lambda *a, **kw: calls.append(a) or solve_one(*a, **kw)
        )
        mdp = ap.generate_random_mdp(1, 20, 3, 3, 1.0, 0.9)
        for eta in (0.0, 0.1):
            calls.clear()
            records = check_form_equivalence(mdp, mm5, m=3, beta=1.0, eta=eta, n_iters=20)
            assert (len(calls), len(records)) == (20, 19)

    def test_solver_equivalence_records(self):
        records = check_solver_equivalence(seed=2, n_histories=50)
        assert all(r.satisfied for r in records)
        contexts = {r.context for r in records}
        assert contexts == {
            "kkt_vs_unconstrained",
            "eta0_equals_unconstrained",
            "tau_alpha_roundtrip",
        }

    def test_theta_records_structure(self, mm5):
        mdp = ap.generate_random_mdp(1, 10, 3, 2, 1.0, 0.9)
        tr = ap.run(
            mdp, SolverConfig(scheme=Scheme.ANDERSON_KKT, operator=mm5, m=3, tol=1e-8)
        )
        records = theta_records(tr)
        assert len(records) == 2 * len(tr.records)
        assert all(r.satisfied for r in records)


class TestCheckSuite:
    def test_clean_at_default_settings(self):
        records = run_check_suite(seed=1, n_pairs=60, eta=0.1, beta=1.0)
        asserted = [r for r in records if r.asserted]
        assert asserted
        assert all(r.satisfied for r in asserted)
        # report-only findings are allowed and expected (known-loose bounds)
        ids = {r.bound_id for r in records}
        assert "Contraction(softmax)" in ids
        assert "Prop2_2" in ids

    def test_deterministic(self):
        a = run_check_suite(seed=4, n_pairs=30, eta=0.1, beta=1.0)
        b = run_check_suite(seed=4, n_pairs=30, eta=0.1, beta=1.0)
        assert [(r.bound_id, r.lhs, r.rhs) for r in a] == [
            (r.bound_id, r.lhs, r.rhs) for r in b
        ]

    def test_report_file_round_trips(self, tmp_path):
        records = run_check_suite(seed=1, n_pairs=20, eta=2.0, beta=1.0)
        path = tmp_path / "report.jsonl"
        write_check_report(records, path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert "report_only" in header
        body = [json.loads(line) for line in lines[1:]]
        assert [b["bound_id"] for b in body] == [r.bound_id for r in records]

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import anderson_pi as ap
from anderson_pi import anderson, solver
from anderson_pi.mdp import MdpStack
from anderson_pi.operators import OperatorKind, OperatorSpec
from anderson_pi.solver import (
    TRACE_COLUMNS,
    BetaConvention,
    DivergenceError,
    OraclePrecisionError,
    Scheme,
    SolverConfig,
    TraceRecord,
)


def cfg_for(scheme, op, **kw):
    return SolverConfig(scheme=scheme, operator=op, **kw)


class TestConfigValidation:
    def test_vanilla_forces_m_zero(self, mm5):
        with pytest.raises(ValueError, match="m = 0"):
            cfg_for(Scheme.VANILLA_VI, mm5, m=3)

    def test_stable_requires_eta(self, mm5):
        with pytest.raises(ValueError, match="eta"):
            cfg_for(Scheme.STABLE_AA, mm5, m=3, eta=0.0)

    def test_kkt_forces_eta_zero(self, mm5):
        with pytest.raises(ValueError, match="eta"):
            cfg_for(Scheme.ANDERSON_KKT, mm5, m=3, eta=0.5)

    @pytest.mark.parametrize(
        "scheme,kw,message",
        [
            (Scheme.STABLE_AA, {"m": 3, "eta": float("inf")}, "eta must be finite"),
            (Scheme.STABLE_AA, {"m": 3, "eta": float("nan")}, "eta must be finite"),
            (Scheme.STABLE_AA, {"m": 3, "eta": 1e308}, "finite square"),
            (Scheme.STABLE_AA, {"m": 3, "eta": -0.1}, "stable-aa requires eta > 0"),
            (Scheme.VANILLA_VI, {"eta": 0.5}, "vanilla requires eta = 0"),
            (Scheme.VANILLA_VI, {"eta": float("nan")}, "eta must be finite"),
            (Scheme.ANDERSON_KKT, {"m": 3, "tol": float("inf")}, "tol must be positive and finite"),
            (Scheme.VANILLA_VI, {"tol": float("nan")}, "tol must be positive and finite"),
        ],
        ids=["eta-inf", "eta-nan", "eta-square-overflows", "eta-negative",
             "vanilla-eta", "vanilla-eta-nan", "tol-inf", "tol-nan"],
    )
    def test_out_of_range_eta_or_tol_rejected(self, mm5, scheme, kw, message):
        with pytest.raises(ValueError, match=message):
            cfg_for(scheme, mm5, **kw)

    def test_largest_eta_with_a_finite_square_runs(self, mm5):
        # an eta this large is accepted: its square, and Prop2_1's right side, stay finite
        mdp = ap.generate_random_mdp(3, 8, 2, 2, 1.0, 0.9)
        tr = ap.run(mdp, cfg_for(Scheme.STABLE_AA, mm5, m=3, eta=1e154, max_iter=50))
        assert all(r.coeff_norm_lhs <= r.coeff_norm_rhs for r in tr.records)

    def test_hash_is_stable_and_sensitive(self, mm5):
        a = cfg_for(Scheme.ANDERSON_KKT, mm5, m=3)
        b = cfg_for(Scheme.ANDERSON_KKT, mm5, m=3)
        c = cfg_for(Scheme.ANDERSON_KKT, mm5, m=4)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_no_seed_field(self, mm5):
        # a seed changed nothing but the hash: configs that run identically
        # must hash identically
        a = cfg_for(Scheme.STABLE_AA, mm5, m=5, eta=0.1)
        assert "seed" not in a.to_dict()
        assert a.config_hash() == cfg_for(Scheme.STABLE_AA, mm5, m=5, eta=0.1).config_hash()
        with pytest.raises(TypeError):
            cfg_for(Scheme.STABLE_AA, mm5, m=5, eta=0.1, seed=1)


class TestRun:
    def test_self_loop_converges_to_geometric_series(self, self_loop_mdp, hardmax_op):
        cfg = cfg_for(Scheme.VANILLA_VI, hardmax_op, tol=1e-10)
        tr = ap.run(self_loop_mdp, cfg)
        assert tr.converged
        # distance to the fixed point is bounded by residual / (1 - gamma)
        assert abs(tr.final_q[0, 0] - 10.0) <= 1e-10 / (1 - 0.9)

    @pytest.mark.parametrize("op_name", ["max", "mellowmax"])
    def test_vanilla_gamma_linear_rate(self, op_name):
        op = OperatorSpec(OperatorKind(op_name), 5.0)
        mdp = ap.generate_random_mdp(4, 20, 3, 3, 1.0, 0.9)
        tr = ap.run(mdp, cfg_for(Scheme.VANILLA_VI, op, tol=1e-10))
        res = tr.residuals_inf()
        for k in range(1, len(res)):
            assert res[k] <= 0.9 * res[k - 1] + 1e-12

    def test_stable_aa_matches_vanilla_fixed_point_faster(self, mm5):
        mdp = ap.generate_random_mdp(12, 30, 4, 3, 1.0, 0.95)
        vanilla = ap.run(mdp, cfg_for(Scheme.VANILLA_VI, mm5, tol=1e-10))
        stable = ap.run(
            mdp, cfg_for(Scheme.STABLE_AA, mm5, m=3, beta=1.0, eta=0.1, tol=1e-10)
        )
        assert vanilla.converged and stable.converged
        assert np.abs(stable.final_q - vanilla.final_q).max() <= 1e-8
        assert stable.iterations < vanilla.iterations

    def test_m0_kkt_reduces_to_vanilla_bitwise(self, mm5):
        mdp = ap.generate_random_mdp(8, 15, 3, 2, 1.0, 0.9)
        a = ap.run(mdp, cfg_for(Scheme.VANILLA_VI, mm5, tol=1e-10))
        b = ap.run(mdp, cfg_for(Scheme.ANDERSON_KKT, mm5, m=0, tol=1e-10))
        assert a.iterations == b.iterations
        assert np.array_equal(a.final_q, b.final_q)
        assert np.array_equal(a.residuals_inf(), b.residuals_inf())
        assert np.array_equal(a.thetas(), b.thetas())

    def test_monotone_tolerance(self, mm5):
        mdp = ap.generate_random_mdp(5, 15, 3, 2, 1.0, 0.9)
        iters = []
        for tol in (1e-4, 1e-6, 1e-8, 1e-10):
            iters.append(ap.run(mdp, cfg_for(Scheme.ANDERSON_KKT, mm5, m=3, tol=tol)).iterations)
        assert iters == sorted(iters)

    def test_deterministic(self, mm5):
        mdp = ap.generate_random_mdp(5, 15, 3, 2, 1.0, 0.9)
        cfg = cfg_for(Scheme.STABLE_AA, mm5, m=3, eta=0.1, tol=1e-10)
        a = ap.run(mdp, cfg)
        b = ap.run(mdp, cfg)
        assert np.array_equal(a.final_q, b.final_q)
        assert np.array_equal(a.residuals_inf(), b.residuals_inf())
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.alpha, rb.alpha)
            assert ra.theta == rb.theta

    def test_beta_conventions_mirror(self, mm5):
        mdp = ap.generate_random_mdp(0, 10, 3, 2, 1.0, 0.9)
        a = ap.run(
            mdp,
            cfg_for(
                Scheme.ANDERSON_KKT, mm5, m=3, beta=0.1,
                beta_convention=BetaConvention.EQ13, tol=1e-9,
            ),
        )
        b = ap.run(mdp, cfg_for(Scheme.ANDERSON_KKT, mm5, m=3, beta=0.9, tol=1e-9))
        assert np.array_equal(a.residuals_inf(), b.residuals_inf())

    def test_divergence_carries_partial_trace(self, mm5):
        mdp = ap.generate_random_mdp(1, 5, 2, 2, 1.0, 0.9)
        q0 = np.full((5, 2), 1.3e13)
        with pytest.raises(DivergenceError) as exc:
            ap.run(mdp, cfg_for(Scheme.VANILLA_VI, mm5, tol=1e-10), q0=q0)
        assert not exc.value.trace.converged
        assert len(exc.value.trace.records) >= 1

    def test_q0_shape_checked(self, mm5):
        mdp = ap.generate_random_mdp(1, 5, 2, 2, 1.0, 0.9)
        with pytest.raises(ValueError, match="q0"):
            ap.run(mdp, cfg_for(Scheme.VANILLA_VI, mm5), q0=np.zeros((3, 2)))

    def test_safeguard_fires_at_rounding_floor(self, mm5):
        # tolerance at the edge of the attainable floor: residuals plateau
        # and fluctuate there, so across a handful of instances the
        # doubling guard must trip somewhere (exact floor behavior is
        # kernel-dependent, hence the scan)
        triggered = 0
        for seed in range(8):
            mdp = ap.generate_random_mdp(seed, 10, 3, 2, 1.0, 0.9)
            cfg = cfg_for(
                Scheme.ANDERSON_KKT, mm5, m=3, tol=1e-16, max_iter=400,
                safeguard=True,
            )
            tr = ap.run(mdp, cfg)
            triggered += any(r.safeguard_triggered for r in tr.records)
        assert triggered >= 1

    def test_safeguard_noop_when_quiet(self, mm5):
        mdp = ap.generate_random_mdp(3, 12, 3, 2, 1.0, 0.9)
        plain = ap.run(mdp, cfg_for(Scheme.ANDERSON_KKT, mm5, m=3, tol=1e-10))
        guarded = ap.run(
            mdp, cfg_for(Scheme.ANDERSON_KKT, mm5, m=3, tol=1e-10, safeguard=True)
        )
        assert not any(r.safeguard_triggered for r in guarded.records)
        assert np.array_equal(plain.residuals_inf(), guarded.residuals_inf())

    def test_full_diagnostics_materializes_bound_data(self, mm5):
        mdp = ap.generate_random_mdp(2, 8, 2, 2, 1.0, 0.9)
        cfg = cfg_for(
            Scheme.STABLE_AA, mm5, m=3, eta=0.5, tol=1e-8,
            diagnostics_level="full",
        )
        tr = ap.run(mdp, cfg)
        # the first iteration has one history entry; every later one has two
        assert tr.records[0].update_norm_lhs is None
        assert len(tr.records) > 2
        for rec in tr.records[1:]:
            assert rec.update_norm_lhs is not None
            assert rec.coeff_gap_lhs is not None
        assert all(r.g_tilde is None and r.g_unreg is None for r in tr.records)

    def test_full_diagnostics_memory_bounded(self, mm5):
        # two dense 120 x 120 matrices kept per iteration would need about 460 MB
        mdp = ap.generate_random_mdp(0, 30, 4, 3, 1.0, 0.99)
        cfg = cfg_for(
            Scheme.STABLE_AA, mm5, m=5, eta=0.1, tol=1e-10,
            diagnostics_level="full",
        )
        tracemalloc.start()
        try:
            tr = ap.run(mdp, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr.converged and tr.iterations > 1000
        assert peak < 8e6

    def test_theta_certificates_on_run(self, mm5):
        mdp = ap.generate_random_mdp(6, 20, 3, 3, 1.0, 0.95)
        for scheme, kw in [
            (Scheme.ANDERSON_KKT, dict(m=5)),
            (Scheme.ANDERSON_UNCONSTRAINED, dict(m=5)),
            (Scheme.STABLE_AA, dict(m=5, eta=0.1)),
        ]:
            tr = ap.run(mdp, cfg_for(scheme, mm5, tol=1e-10, **kw))
            for rec in tr.records:
                assert -1e-9 <= rec.theta <= np.sqrt(tr.n) + 1e-9
                assert rec.theta_l2 <= 1.0 + 1e-9


    def test_reg_share_against_independent_recomputation(self, mm5):
        # a list-based window advanced with the run's own coefficients
        mdp = ap.generate_random_mdp(0, 30, 4, 3, 1.0, 0.99)
        eta, m = 0.1, 3
        tr = ap.run(mdp, cfg_for(Scheme.STABLE_AA, mm5, m=m, eta=eta, max_iter=25))
        q, window = np.zeros((30, 4)), []
        for rec in tr.records:
            tq = ap.apply_bellman(mdp, q, mm5)
            window = (window + [(q.ravel(), tq.ravel())])[-(m + 1):]
            x = np.column_stack([w[0] for w in window])
            e = np.column_stack([w[1] for w in window]) - x
            d, h = np.diff(x, axis=1), np.diff(e, axis=1)
            if len(window) == 1:
                assert rec.reg_share is None
            else:
                ridge = eta * (np.sum(d * d) + np.sum(h * h))
                assert rec.reg_share == pytest.approx(ridge / np.trace(h.T @ h), rel=1e-9)
            f = np.column_stack([w[1] for w in window])
            q = (f @ rec.alpha).reshape(30, 4)
        assert len(tr.records) == 26

    def test_reg_share_only_for_stable_aa(self, mm5):
        mdp = ap.generate_random_mdp(1, 12, 3, 2, 1.0, 0.95)
        for scheme, kw in [
            (Scheme.VANILLA_VI, {}),
            (Scheme.ANDERSON_KKT, dict(m=3)),
            (Scheme.ANDERSON_UNCONSTRAINED, dict(m=3)),
        ]:
            tr = ap.run(mdp, cfg_for(scheme, mm5, **kw))
            assert all(r.reg_share is None for r in tr.records)


class TestIterationCounts:
    """Sweeps per run at the values the list-based window gave.

    A cheaper iteration that needs more sweeps is a regression.
    """

    @pytest.mark.parametrize(
        "seed,counts", [(0, (2217, 39, 39, 2019)), (1, (2232, 39, 39, 2032)),
                        (2, (2156, 35, 35, 1963))],
    )
    def test_ensemble_configs_30x4(self, mm5, seed, counts):
        mdp = ap.generate_random_mdp(seed, 30, 4, 3, 1.0, 0.99)
        configs = [
            cfg_for(Scheme.VANILLA_VI, mm5),
            cfg_for(Scheme.ANDERSON_KKT, mm5, m=5),
            cfg_for(Scheme.ANDERSON_UNCONSTRAINED, mm5, m=5),
            cfg_for(Scheme.STABLE_AA, mm5, m=5, eta=0.1),
        ]
        assert tuple(ap.run(mdp, c).iterations for c in configs) == counts

    def test_kkt_and_stable_aa_2000x8(self, hardmax_op):
        mdp = ap.generate_random_mdp(0, 2000, 8, 3, 1.0, 0.95)
        kkt = ap.run(mdp, cfg_for(Scheme.ANDERSON_KKT, hardmax_op, m=5))
        stable = ap.run(mdp, cfg_for(Scheme.STABLE_AA, hardmax_op, m=5, eta=0.1))
        assert (kkt.iterations, stable.iterations) == (64, 305)
        assert kkt.converged and stable.converged


class TestOracle:
    def test_self_loop_value(self, self_loop_mdp, hardmax_op):
        q = ap.fixed_point_oracle(self_loop_mdp, hardmax_op)
        assert abs(q[0, 0] - 10.0) <= 1e-12

    def test_output_residual_below_cap(self, mm5):
        mdp = ap.generate_random_mdp(7, 12, 3, 3, 1.0, 0.9)
        q = ap.fixed_point_oracle(mdp, mm5)
        assert np.abs(ap.apply_bellman(mdp, q, mm5) - q).max() <= 1e-13

    def test_cap_raises_with_achieved_residual(self, mm5):
        mdp = ap.generate_random_mdp(7, 12, 3, 3, 1.0, 0.9)
        with pytest.raises(OraclePrecisionError) as exc:
            ap.fixed_point_oracle(mdp, mm5, max_iter=3)
        assert exc.value.residual > 0

    def test_boltzmann_rejected(self):
        mdp = ap.generate_random_mdp(7, 5, 2, 2, 1.0, 0.9)
        with pytest.raises(ValueError, match="contractive"):
            ap.fixed_point_oracle(
                mdp, OperatorSpec(OperatorKind.BOLTZMANN_SOFTMAX, 5.0)
            )


def value_iteration(mdp, op, tol=solver.ORACLE_TOL, max_iter=solver.ORACLE_MAX_ITER):
    """Plain value iteration to the oracle's stop rule: (fixed point, sweeps) or (None, residual)."""
    return oracle_iteration(mdp, op, tol, max_iter, extrapolate=False)


def oracle_iteration(
    mdp, op, tol=solver.ORACLE_TOL, max_iter=solver.ORACLE_MAX_ITER, extrapolate=True
):
    """The one-MDP oracle loop, written out: (fixed point, sweeps) or (None, residual).

    A residual ``r = TQ - Q`` of one sign moves ``TQ`` by ``g/(1-g)`` times
    ``min r`` if ``r > 0`` and ``max r`` if ``r < 0``.
    """
    g = mdp.gamma
    q = np.zeros((mdp.n_states, mdp.n_actions))
    res = float("inf")
    for sweep in range(max_iter + 1):
        tq = ap.apply_bellman(mdp, q, op)
        r = tq - q
        res = float(np.abs(r).max(initial=0.0))
        if res <= tol:
            return q, sweep
        if extrapolate and r.min() > 0.0:
            tq = tq + g / (1.0 - g) * r.min()
        elif extrapolate and r.max() < 0.0:
            tq = tq + g / (1.0 - g) * r.max()
        q = tq
    return None, res


class TestStackedOracle:
    @pytest.mark.parametrize(
        "op", [OperatorSpec(OperatorKind.HARD_MAX), OperatorSpec(OperatorKind.MELLOW_MAX, 5.0)]
    )
    def test_equals_written_out_oracle_per_mdp(self, op):
        # the three stop at different sweeps, so the stack shrinks; the
        # gridworld pads the successor lists of the 9x4 random MDPs, and its
        # residual is never of one sign, so it iterates as value iteration
        mdps = [
            ap.generate_random_mdp(0, 9, 4, 3, 1.0, 0.95),
            ap.generate_gridworld(3, 3, 0.1, 1.0, 0.5),
            ap.generate_random_mdp(1, 9, 4, 2, 1.0, 0.8),
        ]
        got = solver.fixed_point_oracles(MdpStack(mdps), op)
        sweeps, vi_sweeps = [], []
        for q, mdp in zip(got, mdps):
            want, n_sweeps = oracle_iteration(mdp, op)
            vi, n_vi = value_iteration(mdp, op)
            sweeps.append(n_sweeps)
            vi_sweeps.append(n_vi)
            assert q.tobytes() == want.tobytes()
            assert ap.fixed_point_oracle(mdp, op).tobytes() == want.tobytes()
            # both are within ORACLE_TOL / (1 - gamma) of the fixed point
            assert np.abs(q - vi).max() <= 2 * solver.ORACLE_TOL / (1 - mdp.gamma)
        assert len(set(sweeps)) == 3
        assert sweeps[0] < vi_sweeps[0] and sweeps[2] < vi_sweeps[2]
        assert sweeps[1] == vi_sweeps[1]
        assert got[1].tobytes() == value_iteration(mdps[1], op)[0].tobytes()

    @pytest.mark.parametrize("seed", [1, 8])
    def test_reaches_tolerance_where_an_ulp_exceeds_it(self, hardmax_op, seed):
        # |Q| reaches 777 (seed 1) and 596 (seed 8), where one ulp is 1.1e-13,
        # so only an exact floating-point fixed point passes ORACLE_TOL.
        # Shifting every sweep circles above it on seed 1, and continuing
        # from the midpoint of the bounds does on seed 8.
        mdp = ap.generate_random_mdp(seed, 30, 4, 3, 10.0, 0.99)
        vi, n_vi = value_iteration(mdp, hardmax_op)
        q = ap.fixed_point_oracle(mdp, hardmax_op, max_iter=n_vi)
        assert np.abs(ap.apply_bellman(mdp, q, hardmax_op) - q).max() <= solver.ORACLE_TOL
        assert np.abs(q - vi).max() <= 2 * solver.ORACLE_TOL / (1 - mdp.gamma)

    def test_precision_error_names_the_first_unfinished_mdp(self, mm5):
        # the oracle takes 11 sweeps on the fast MDP and 42 and 41 on the slow ones
        fast = ap.generate_random_mdp(0, 8, 2, 2, 1.0, 0.1)
        slow = [ap.generate_random_mdp(s, 8, 2, 2, 1.0, 0.9) for s in (1, 2)]
        with pytest.raises(OraclePrecisionError) as stacked:
            solver.fixed_point_oracles(MdpStack([fast] + slow), mm5, max_iter=20)
        with pytest.raises(OraclePrecisionError) as alone:
            ap.fixed_point_oracle(slow[0], mm5, max_iter=20)
        assert oracle_iteration(fast, mm5, max_iter=20)[0] is not None
        assert str(stacked.value) == str(alone.value)
        assert stacked.value.residual == alone.value.residual == oracle_iteration(
            slow[0], mm5, max_iter=20
        )[1]

    def test_non_finite_rewards_fail_in_the_sweep(self, mm5, monkeypatch):
        good = ap.generate_random_mdp(0, 6, 2, 2, 1.0, 0.9)
        rewards = good.rewards.copy()
        rewards[0, 0] = np.inf
        bad = ap.TabularMdp.from_successors(6, 2, good.successors, good.probs, rewards, 0.9)
        sweeps = []
        sweep = solver.apply_bellman

        def counting(*args):
            sweeps.append(args)
            return sweep(*args)

        monkeypatch.setattr(solver, "apply_bellman", counting)
        for call in (
            lambda: ap.fixed_point_oracle(bad, mm5),
            lambda: solver.fixed_point_oracles(MdpStack([good, bad]), mm5),
        ):
            sweeps.clear()
            with pytest.raises(ValueError, match="Q contains non-finite entries"):
                call()
            assert len(sweeps) == 2


class TestEnsemble:
    def test_win_rate_and_determinism(self, mm5):
        mdps = [ap.generate_random_mdp(s, 15, 3, 2, 1.0, 0.9) for s in range(6)]
        configs = [
            cfg_for(Scheme.VANILLA_VI, mm5, tol=1e-10),
            cfg_for(Scheme.ANDERSON_KKT, mm5, m=5, tol=1e-10),
        ]
        rep1 = ap.run_ensemble(configs, mdps, mdp_seeds=list(range(6)))
        rep2 = ap.run_ensemble(configs, mdps, mdp_seeds=list(range(6)))
        assert rep1.to_jsonl() == rep2.to_jsonl()
        assert rep1.win_rate(1, 0) == 1.0
        assert rep1.win_rate(0, 1) == 0.0

    def test_failed_run_isolated(self):
        # enormous rewards push the Boltzmann iteration past the
        # divergence limit; the other instance must still complete
        bs = OperatorSpec(OperatorKind.BOLTZMANN_SOFTMAX, 1.0)
        bad = ap.generate_random_mdp(2, 8, 2, 2, 1e11, 0.99)
        good = ap.generate_random_mdp(3, 8, 2, 2, 1.0, 0.9)
        rep = ap.run_ensemble(
            [cfg_for(Scheme.VANILLA_VI, bs, tol=1e-8, max_iter=5000)],
            [bad, good],
        )
        assert rep.summaries[0].failed
        assert "diverged" in rep.summaries[0].message
        assert not rep.summaries[1].failed

    def test_oracle_error_reported(self, mm5):
        mdps = [ap.generate_random_mdp(1, 10, 3, 2, 1.0, 0.9)]
        rep = ap.run_ensemble([cfg_for(Scheme.ANDERSON_KKT, mm5, m=3, tol=1e-10)], mdps)
        err = rep.summaries[0].final_error_vs_oracle
        assert err is not None and err <= 1e-8

    def test_oracle_keyed_by_exact_omega(self, monkeypatch):
        # the two omegas print alike under %g but have different fixed points
        ops = [
            OperatorSpec(OperatorKind.MELLOW_MAX, 5.0),
            OperatorSpec(OperatorKind.MELLOW_MAX, 5.0000001),
        ]
        assert ops[0].label() == ops[1].label()
        oracle = ap.solver.fixed_point_oracle
        stacked = ap.solver.fixed_point_oracles
        calls = []

        def counting_oracles(stack, op, *args, **kwargs):
            calls.extend((id(mdp), op) for mdp in stack.mdps)
            return stacked(stack, op, *args, **kwargs)

        # run_ensemble computes its oracles one stack of same-shape MDPs at a time
        monkeypatch.setattr(ap.solver, "fixed_point_oracles", counting_oracles)
        configs = [cfg_for(Scheme.ANDERSON_KKT, op, m=5, tol=1e-12) for op in ops]
        configs.append(cfg_for(Scheme.VANILLA_VI, ops[0], tol=1e-12))
        mdps = [ap.generate_random_mdp(s, 12, 3, 3, 1.0, 0.9) for s in range(2)]
        rep = ap.run_ensemble(configs, mdps)
        assert len(calls) == len(set(calls)) == 4  # one per (mdp, exact operator)
        for i, cfg in enumerate(configs):
            for j, mdp in enumerate(mdps):
                own = oracle(mdp, cfg.operator)
                expected = float(np.abs(rep.traces[(i, j)].final_q - own).max())
                assert rep.summary(i, j).final_error_vs_oracle == expected

    def test_colliding_labels_get_config_hash(self, mm5):
        configs = [
            cfg_for(Scheme.ANDERSON_KKT, mm5, m=5),
            cfg_for(Scheme.ANDERSON_KKT, mm5, m=5, beta=0.5),
            cfg_for(Scheme.VANILLA_VI, mm5),
        ]
        rep = ap.run_ensemble(configs, [ap.generate_random_mdp(0, 8, 2, 2, 1.0, 0.9)])
        assert rep.config_labels == [
            f"kkt m=5#{configs[0].config_hash()}",
            f"kkt m=5#{configs[1].config_hash()}",
            "vanilla",
        ]
        assert [s.scheme for s in rep.summaries] == rep.config_labels


def one_run(mdp, cfg):
    """What ``run`` gives: its trace, or the DivergenceError it raises."""
    try:
        return ap.run(mdp, cfg)
    except DivergenceError as exc:
        return exc


def assert_same_trace(got, want):
    """Every field bitwise equal, but wall_nanos (a lockstep group's time)."""
    assert (got.iterations, got.converged, got.n, got.config) == (
        want.iterations, want.converged, want.n, want.config,
    )
    assert got.final_q.shape == want.final_q.shape
    assert got.final_q.tobytes() == want.final_q.tobytes()
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        for f in dataclasses.fields(TraceRecord):
            if f.name == "wall_nanos":
                continue
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(y, np.ndarray):
                assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
            else:
                # repr tells every float apart, -0.0 and nan included
                assert (type(x), repr(x)) == (type(y), repr(y)), (b.k, f.name)


def assert_same_outcome(got, want):
    if isinstance(want, DivergenceError):
        assert isinstance(got, DivergenceError) and str(got) == str(want)
        assert_same_trace(got.trace, want.trace)
    else:
        assert not isinstance(got, DivergenceError), str(got)
        assert_same_trace(got, want)


def assert_lockstep_matches_run(mdps, cfg):
    got = solver._run_lockstep(mdps, cfg)
    assert len(got) == len(mdps)
    outcomes = [one_run(mdp, cfg) for mdp in mdps]
    for g, want in zip(got, outcomes):
        assert_same_outcome(g, want)
    return outcomes


SCHEMES = [
    (Scheme.VANILLA_VI, {}),
    (Scheme.ANDERSON_KKT, dict(m=3)),
    (Scheme.ANDERSON_UNCONSTRAINED, dict(m=3)),
    (Scheme.STABLE_AA, dict(m=3, eta=0.1)),
]


class TestLockstep:
    """Runs advanced together equal runs advanced one at a time, bitwise."""

    @pytest.mark.parametrize("scheme,kw", SCHEMES, ids=[s.value for s, _ in SCHEMES])
    @pytest.mark.parametrize(
        "op",
        [
            OperatorSpec(OperatorKind.HARD_MAX),
            OperatorSpec(OperatorKind.MELLOW_MAX, 5.0),
            OperatorSpec(OperatorKind.BOLTZMANN_SOFTMAX, 2.0),
        ],
        ids=["max", "mellowmax5", "softmax2"],
    )
    @pytest.mark.parametrize(
        "beta",
        [dict(beta=1.0), dict(beta=0.7), dict(beta=0.3, beta_convention=BetaConvention.EQ13)],
        ids=["beta1", "beta0.7", "eq13"],
    )
    def test_schemes_operators_betas(self, scheme, kw, op, beta):
        mdps = [ap.generate_random_mdp(s, 10, 3, 2, 1.0, 0.85) for s in range(3)]
        cfg = cfg_for(scheme, op, tol=1e-10, max_iter=2000, **kw, **beta)
        outcomes = assert_lockstep_matches_run(mdps, cfg)
        assert all(o.converged for o in outcomes)

    def test_stable_aa_gamma_099_to_convergence(self, mm5):
        # squaring the ridge norms with numpy instead of Python's float ** 2
        # moves reg_share, then final_q, on these runs
        mdps = [ap.generate_random_mdp(s, 30, 4, 3, 1.0, 0.99) for s in range(3)]
        cfg = cfg_for(Scheme.STABLE_AA, mm5, m=5, eta=0.1)
        outcomes = assert_lockstep_matches_run(mdps, cfg)
        assert all(o.converged and o.iterations > 1900 for o in outcomes)

    def test_jitter_fallback_and_max_iter(self, mm5, monkeypatch):
        # at a tolerance below the rounding floor kkt needs the jitter ladder
        # and the fallback, and seed 0 stops at max_iter
        rows = []
        stacked = anderson.solve_stacked

        def counting(matrices, *args, **kwargs):
            rows.append(len(matrices.residuals))
            return stacked(matrices, *args, **kwargs)

        monkeypatch.setattr(anderson, "solve_stacked", counting)
        mdps = [ap.generate_random_mdp(s, 10, 3, 2, 1.0, 0.9) for s in range(4)]
        cfg = cfg_for(Scheme.ANDERSON_KKT, mm5, m=3, tol=1e-16, max_iter=200)
        got = solver._run_lockstep(mdps, cfg)
        monkeypatch.undo()
        outcomes = [one_run(mdp, cfg) for mdp in mdps]
        for g, want in zip(got, outcomes):
            assert_same_outcome(g, want)
        assert [o.converged for o in outcomes] == [False, True, True, True]
        records = [r for o in outcomes for r in o.records]
        assert any(r.fallback and r.jitter > 0.0 for r in records)
        # the stacked solve settles jittered and fallback runs itself: it
        # solves a stack of one only on the iterations with one run live
        live = [sum(len(o.records) > k for o in outcomes) for k in range(201)]
        assert rows.count(1) == live.count(1) > 0
        assert any(live[r.k] >= 2 for r in records if r.jitter_flag)

    @pytest.mark.parametrize("scheme,kw", SCHEMES, ids=[s.value for s, _ in SCHEMES])
    def test_divergence_max_iter_and_convergence_in_one_group(self, scheme, kw):
        bs = OperatorSpec(OperatorKind.BOLTZMANN_SOFTMAX, 1.0)
        mdps = [
            ap.generate_random_mdp(2, 8, 2, 2, 1e11, 0.99),  # diverges
            ap.generate_random_mdp(3, 8, 2, 2, 1.0, 0.99),  # slow: stops at max_iter
            ap.generate_random_mdp(4, 8, 2, 2, 1.0, 0.3),  # converges
        ]
        # kkt and unconstrained diverge at iteration 8 and take 39 on the slow one
        max_iter = 20 if kw and "eta" not in kw else 40
        cfg = cfg_for(scheme, bs, tol=1e-10, max_iter=max_iter, **kw)
        outcomes = assert_lockstep_matches_run(mdps, cfg)
        assert isinstance(outcomes[0], DivergenceError)
        assert "iterate diverged" in str(outcomes[0])
        assert not outcomes[1].converged and outcomes[1].iterations == max_iter
        assert outcomes[2].converged

    def test_non_finite_bellman_image_leaves_the_group(self, mm5):
        good = ap.generate_random_mdp(0, 6, 2, 2, 1.0, 0.9)
        rewards = good.rewards.copy()
        rewards[2, 1] = np.nan
        bad = ap.TabularMdp.from_successors(
            6, 2, good.successors, good.probs, rewards, 0.9
        )
        outcomes = assert_lockstep_matches_run(
            [good, bad, ap.generate_random_mdp(1, 6, 2, 2, 1.0, 0.9)],
            cfg_for(Scheme.STABLE_AA, mm5, m=3, eta=0.1),
        )
        assert "Bellman image non-finite at iteration 0" in str(outcomes[1])

    def test_full_diagnostics_in_a_group(self, mm5):
        # the update norm and the coefficient gaps come from each run's own
        # window; the gamma 0.9 run leaves the group first
        mdps = [ap.generate_random_mdp(s, 30, 4, 3, 1.0, 0.95) for s in range(2)]
        mdps.append(ap.generate_random_mdp(2, 30, 4, 3, 1.0, 0.9))
        cfg = cfg_for(Scheme.STABLE_AA, mm5, m=5, eta=0.1, diagnostics_level="full")
        outcomes = assert_lockstep_matches_run(mdps, cfg)
        assert all(o.converged for o in outcomes)
        for o in outcomes:
            assert all(r.update_norm_lhs is not None for r in o.records[1:])
            assert all(r.coeff_gap_lhs is not None for r in o.records[1:])
            assert all(r.coeff_gap_rhs is not None for r in o.records[1:])

    @pytest.mark.parametrize(
        "scheme,kw",
        [
            (Scheme.ANDERSON_KKT, dict(m=3)),
            (Scheme.STABLE_AA, dict(m=3, eta=1e-3, diagnostics_level="full")),
        ],
        ids=["kkt", "stable-aa-full"],
    )
    def test_safeguard_group_matches_runs(self, mm5, scheme, kw):
        # the instances of test_safeguard_fires_at_rounding_floor: the guard
        # restarts some runs' windows and not others, so windows of two
        # widths are live in one iteration of the group
        mdps = [ap.generate_random_mdp(s, 10, 3, 2, 1.0, 0.9) for s in range(8)]
        cfg = cfg_for(scheme, mm5, tol=1e-16, max_iter=400, safeguard=True, **kw)
        outcomes = assert_lockstep_matches_run(mdps, cfg)
        records = [o.records for o in outcomes]
        fired = [any(r.safeguard_triggered for r in recs) for recs in records]
        assert any(fired) and not all(fired)
        widths = [
            {len(recs[k].alpha) for recs in records if len(recs) > k}
            for k in range(max(map(len, records)))
        ]
        assert any(len(w) >= 2 for w in widths)

    def test_ensemble_of_mixed_shapes_matches_runs(self, mm5, monkeypatch):
        # every config reaches the engine once per shape, the safeguard
        # config too: the two 30x4 random MDPs and the two 3x3 grids as
        # groups of two, the 4x4 grid alone
        groups = []
        lockstep = solver._run_lockstep

        def recording(mdps, cfg):
            groups.append((len(mdps), cfg.safeguard))
            return lockstep(mdps, cfg)

        monkeypatch.setattr(solver, "_run_lockstep", recording)
        mdps = [ap.generate_random_mdp(s, 30, 4, 3, 1.0, 0.95) for s in range(2)]
        mdps += [
            ap.generate_gridworld(3, 3, 0.1, 1.0, 0.9),
            ap.generate_gridworld(4, 4, 0.1, 1.0, 0.9),
            ap.generate_gridworld(3, 3, 0.2, 2.0, 0.95),
        ]
        configs = [cfg_for(scheme, mm5, **kw) for scheme, kw in SCHEMES]
        configs.append(cfg_for(Scheme.ANDERSON_KKT, mm5, m=3, safeguard=True))
        seeds = [0, 1, None, None, None]
        rep = ap.run_ensemble(configs, mdps, mdp_seeds=seeds)
        monkeypatch.undo()  # run goes through the engine too
        assert groups == [(2, False), (2, False), (1, False)] * 4 + [
            (2, True), (2, True), (1, True)
        ]
        expected = []
        for i, cfg in enumerate(configs):
            for j, mdp in enumerate(mdps):
                trace = ap.run(mdp, cfg)
                assert_same_trace(rep.traces[(i, j)], trace)
                oracle = ap.fixed_point_oracle(mdp, cfg.operator)
                expected.append(
                    solver._summarize(
                        trace, rep.config_labels[i], f"mdp{j}", seeds[j], oracle
                    )
                )
        assert rep.to_jsonl() == "".join(s.to_json() + "\n" for s in expected)


class TestTraceCsv:
    def test_schema_and_determinism(self, tmp_path, mm5):
        mdp = ap.generate_random_mdp(5, 10, 3, 2, 1.0, 0.9)
        tr = ap.run(mdp, cfg_for(Scheme.ANDERSON_KKT, mm5, m=3, tol=1e-8))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ap.write_trace_csv(tr, p1)
        ap.write_trace_csv(tr, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == len(tr.records) + 1
        # wall_nanos column is zeroed by default
        assert all(line.rsplit(",", 1)[1] == "0" for line in lines[1:])

    def test_alpha_json_parses(self, tmp_path, mm5):
        mdp = ap.generate_random_mdp(5, 10, 3, 2, 1.0, 0.9)
        tr = ap.run(mdp, cfg_for(Scheme.ANDERSON_KKT, mm5, m=3, tol=1e-8))
        path = tmp_path / "t.csv"
        ap.write_trace_csv(tr, path)
        import csv as csv_mod

        with open(path) as fh:
            rows = list(csv_mod.DictReader(fh))
        for row, rec in zip(rows, tr.records):
            alpha = json.loads(row["alpha_json"])
            assert np.allclose(alpha, rec.alpha)

    def test_timing_flag_writes_real_nanos(self, tmp_path, mm5):
        mdp = ap.generate_random_mdp(5, 10, 3, 2, 1.0, 0.9)
        tr = ap.run(mdp, cfg_for(Scheme.VANILLA_VI, mm5, tol=1e-6))
        path = tmp_path / "t.csv"
        ap.write_trace_csv(tr, path, include_timing=True)
        lines = path.read_text().splitlines()[1:]
        assert any(int(line.rsplit(",", 1)[1]) > 0 for line in lines)


FULL_DIAGNOSTIC_FIELDS = (
    "coeff_norm_lhs", "coeff_norm_rhs", "coeff_gap_lhs", "coeff_gap_rhs",
    "update_norm_lhs", "reg_share",
)


def full_diagnostics_digest(records):
    """sha256 of the repr of every record's full-diagnostics fields, in order."""
    rows = [repr(tuple(getattr(r, f) for f in FULL_DIAGNOSTIC_FIELDS)) for r in records]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


class TestFullDiagnosticsGolden:
    """The coefficient bounds, update norms and ridge shares of full diagnostics, pinned.

    Recorded while every record still solved its window's unregularized
    coefficients and its update norm on its own.
    """

    # the diagnostics-full benchmark configs: stable-aa m=5 on a 30x4 MDP
    @pytest.mark.parametrize(
        "eta,iterations,digest",
        [
            (0.1, 297, "bdee62dcc618e0e46333d599ba119c95cfeb65e3b2cd2d4ac12327c9ad42d63e"),
            (0.5, 398, "ca1260ec77a73560500fe329a7bf7b00fcdb3e9215db1b81af220ef4e8928da6"),
            (1.0, 415, "28f273d339270a6219d4cf97a7ce0254470da0084b07425133354ba3d1bbfd44"),
        ],
    )
    def test_benchmark_configs(self, mm5, eta, iterations, digest):
        mdp = ap.generate_random_mdp(0, 30, 4, 3, 1.0, 0.95)
        cfg = cfg_for(
            Scheme.STABLE_AA, mm5, m=5, eta=eta, tol=1e-10, diagnostics_level="full"
        )
        tr = ap.run(mdp, cfg)
        assert (tr.iterations, full_diagnostics_digest(tr.records)) == (iterations, digest)

    def test_safeguard_group_with_restarts(self, mm5):
        # at tol 1e-16 the residuals plateau and the guard restarts windows:
        # at iterations 64 and 92 of the second run, 71 of the third and 221
        # and 346 of the last, which stops at max_iter
        mdps = [ap.generate_random_mdp(s, 10, 3, 2, 1.0, 0.9) for s in range(6, 10)]
        cfg = cfg_for(
            Scheme.STABLE_AA, mm5, m=3, eta=1e-3, tol=1e-16, max_iter=400,
            safeguard=True, diagnostics_level="full",
        )
        traces = solver._run_lockstep(mdps, cfg)
        restarts = [[r.k for r in t.records if r.safeguard_triggered] for t in traces]
        assert restarts == [[], [64, 92], [71], [221, 346]]
        assert [t.iterations for t in traces] == [67, 163, 86, 400]
        assert [full_diagnostics_digest(t.records) for t in traces] == [
            "da179b4697ee240528fcdf0601b29c419341825b472f08dfc77aae0917fdf24b",
            "e911f7a06ad7b911ccc62e9bc041df0b862f03d35598a48b4ea0929b90821e8f",
            "921687e89b036527fe0f3c9f38658f4b336bca779072521312607846aac43b25",
            "56cafb0b9da6da67f00231f012dae06d022e8e6184bd0a090731c3728d534547",
        ]

    def test_jittered_unregularized_solves(self, mm5):
        # 87 of the 273 unregularized window solves of this run need jitter
        mdp = ap.generate_random_mdp(0, 10, 3, 2, 1.0, 0.9)
        cfg = cfg_for(
            Scheme.STABLE_AA, mm5, m=5, eta=1.0, tol=1e-14, diagnostics_level="full"
        )
        tr = ap.run(mdp, cfg)
        assert (tr.iterations, full_diagnostics_digest(tr.records)) == (
            273, "2fd503da5bd6a1e26dccd90c6604f5507142851d4c7d93dcde28b6ca30547d09"
        )


def assert_full_diagnostics_complete(records):
    """Every record has the Prop2_1 sides; each with p > 0, the gap and the update norm."""
    for rec in records:
        assert rec.coeff_norm_lhs is not None and rec.coeff_norm_rhs is not None
        extras = (rec.coeff_gap_lhs, rec.coeff_gap_rhs, rec.update_norm_lhs)
        if rec.alpha.size > 1:
            assert None not in extras, rec.k
        else:
            assert extras == (None, None, None), rec.k


def full_diagnostics_of(records):
    return [tuple(repr(getattr(r, f)) for f in FULL_DIAGNOSTIC_FIELDS) for r in records]


class TestDiagnosticsChunks:
    """Full diagnostics are settled in chunks; every record has them when a run returns."""

    def chunk_size(self, n, m):
        return solver.DIAGNOSTICS_CHUNK_BYTES // (8 * n * (3 * (m + 1) - 2))

    def test_max_iter_stop_mid_chunk(self, mm5):
        mdp = ap.generate_random_mdp(0, 30, 4, 3, 1.0, 0.95)
        cfg = cfg_for(
            Scheme.STABLE_AA, mm5, m=5, eta=0.1, tol=1e-10, diagnostics_level="full"
        )
        full = ap.run(mdp, cfg)
        cut = ap.run(mdp, dataclasses.replace(cfg, max_iter=40))
        # 36 records of the full width m + 1 after the window fills
        widest = sum(r.alpha.size == 6 for r in cut.records)
        assert widest == 36 and widest % self.chunk_size(120, 5) != 0
        assert not cut.converged and len(cut.records) == 41
        assert_full_diagnostics_complete(cut.records)
        assert full_diagnostics_of(cut.records) == full_diagnostics_of(full.records[:41])

    def test_safeguard_restart_mid_chunk(self, mm5):
        # the restart at iteration 64 falls inside the chunk begun at iteration 3
        mdp = ap.generate_random_mdp(7, 10, 3, 2, 1.0, 0.9)
        cfg = cfg_for(
            Scheme.STABLE_AA, mm5, m=3, eta=1e-3, tol=1e-16, max_iter=400,
            safeguard=True, diagnostics_level="full",
        )
        tr = ap.run(mdp, cfg)
        assert [r.k for r in tr.records if r.safeguard_triggered] == [64, 92]
        assert 64 - 3 < self.chunk_size(30, 3)
        assert [r.alpha.size for r in tr.records[63:68]] == [4, 1, 2, 3, 4]
        assert_full_diagnostics_complete(tr.records)

    def test_divergence_partial_trace(self, mm5):
        # the fixed point exceeds the divergence limit: Q* is about 1e13
        mdp = ap.generate_random_mdp(0, 8, 2, 2, 1e11, 0.99)
        cfg = cfg_for(Scheme.STABLE_AA, mm5, m=3, eta=0.1, diagnostics_level="full")
        with pytest.raises(DivergenceError, match="iteration 24") as info:
            ap.run(mdp, cfg)
        records = info.value.trace.records
        assert len(records) == 24
        assert_full_diagnostics_complete(records)
        cut = ap.run(mdp, dataclasses.replace(cfg, max_iter=10))
        assert full_diagnostics_of(cut.records) == full_diagnostics_of(records[:11])


def trace_columns_digest(trace):
    """sha256 over every column of a trace but ``wall_nanos``, ``final_q`` and the outcome."""
    h = hashlib.sha256(repr((trace.converged, trace.iterations, trace.n)).encode())
    for f in dataclasses.fields(solver.SolverTrace):
        value = getattr(trace, f.name)
        if f.name == "wall_nanos" or not (value is None or isinstance(value, np.ndarray)):
            continue
        h.update(f.name.encode())
        if value is None:
            h.update(b"None")
        else:
            h.update(f"{value.dtype.str}{value.shape}".encode() + value.tobytes())
    return h.hexdigest()


class TestEnsembleGolden:
    """The lockstep engine's outputs on the benchmark's ensemble, pinned bit for bit.

    Recorded while the stacked solve still returned one MixingSolution per
    run and numpy's Cholesky gated each stack as a whole.  The digest of
    ``test_ensemble_30x4`` was recorded again when the oracle began to
    extrapolate by its residual bounds: that moved each summary's
    ``final_error_vs_oracle`` by at most 5.6e-12, and no other output.
    """

    MDPS = [ap.generate_random_mdp(j, 30, 4, 3, 1.0, 0.99) for j in range(3)]

    def test_ensemble_30x4(self, mm5):
        # the ensemble-30x4 configs on three 30x4 MDPs at gamma 0.99
        configs = [
            cfg_for(Scheme.VANILLA_VI, mm5, tol=1e-10),
            cfg_for(Scheme.ANDERSON_KKT, mm5, m=5, tol=1e-10),
            cfg_for(Scheme.ANDERSON_UNCONSTRAINED, mm5, m=5, tol=1e-10),
            cfg_for(Scheme.STABLE_AA, mm5, m=5, eta=0.1, tol=1e-10),
        ]
        report = ap.run_ensemble(configs, self.MDPS)
        digests = [trace_columns_digest(report.traces[task]) for task in sorted(report.traces)]
        digests.append(hashlib.sha256(report.to_jsonl().encode()).hexdigest())
        assert [s.iterations for s in report.summaries] == [
            2217, 2232, 2156, 39, 39, 35, 39, 39, 35, 2019, 2032, 1963
        ]
        assert hashlib.sha256("\n".join(digests).encode()).hexdigest() == (
            "d84243cd6045434830afb1246bdc7d08c18bcb737cfaaed69267a81177e44783"
        )

    def test_full_diagnostics_group_of_three(self, mm5):
        cfg = cfg_for(
            Scheme.STABLE_AA, mm5, m=5, eta=0.5, tol=1e-10, diagnostics_level="full"
        )
        traces = solver._run_lockstep(self.MDPS, cfg)
        assert [t.iterations for t in traces] == [2175, 2189, 2115]
        assert [trace_columns_digest(t) for t in traces] == [
            "6de82a9a119fd47a1a97d87a7803a7da923e5852da93392f7d834d7666cd5db3",
            "4410cd197013b44b7c819da0de78653887d218176677b1fb54373025cefc12a8",
            "ce1b61baa91b02e1b2a292f364ae5887ffc7e304ad012fdf4eb6b79c0918f04b",
        ]

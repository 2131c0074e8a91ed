import json
import tracemalloc

import numpy as np
import pytest

import anderson_pi as ap
from anderson_pi.operators import OperatorKind, OperatorSpec
from anderson_pi.solver import (
    TRACE_COLUMNS,
    BetaConvention,
    DivergenceError,
    OraclePrecisionError,
    Scheme,
    SolverConfig,
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
        assert np.abs(ap.residual(mdp, q, mm5)).max() <= 1e-13

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

    def test_parallel_jobs_identical(self, mm5):
        mdps = [ap.generate_random_mdp(s, 12, 3, 2, 1.0, 0.9) for s in range(4)]
        configs = [
            cfg_for(Scheme.VANILLA_VI, mm5, tol=1e-8),
            cfg_for(Scheme.ANDERSON_KKT, mm5, m=3, tol=1e-8),
        ]
        serial = ap.run_ensemble(configs, mdps)
        threaded = ap.run_ensemble(configs, mdps, jobs=4)
        assert serial.to_jsonl() == threaded.to_jsonl()

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
        calls = []

        def counting_oracle(mdp, op, *args, **kwargs):
            calls.append(op)
            return oracle(mdp, op, *args, **kwargs)

        monkeypatch.setattr(ap.solver, "fixed_point_oracle", counting_oracle)
        configs = [cfg_for(Scheme.ANDERSON_KKT, op, m=5, tol=1e-12) for op in ops]
        configs.append(cfg_for(Scheme.VANILLA_VI, ops[0], tol=1e-12))
        mdps = [ap.generate_random_mdp(s, 12, 3, 3, 1.0, 0.9) for s in range(2)]
        rep = ap.run_ensemble(configs, mdps)
        assert len(calls) == 4  # one per (mdp, exact operator)
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

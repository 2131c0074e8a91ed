import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, strategies as st

import anderson_pi as ap
from anderson_pi import anderson as anderson_module
from anderson_pi.anderson import (
    AndersonHistory,
    HistoryMatrices,
    MixingSolution,
    build_history_matrices,
    gain_theta,
    mixed_update,
    materialize_update_matrix,
    quasi_newton_update,
    solve_alpha_kkt,
    solve_tau_regularized,
    solve_tau_unconstrained,
    tau_to_alpha,
    alpha_to_tau,
    transform_cond2,
    transformation_matrix,
    update_matrix_norms,
    vanilla_solution,
)
from anderson_pi.linalg import frobenius_norm
from anderson_pi.operators import OperatorKind, OperatorSpec, apply_bellman


def history_from_pairs(pairs):
    h = AndersonHistory(len(pairs) - 1)
    for q, tq in pairs:
        h.push(np.asarray(q, dtype=float), np.asarray(tq, dtype=float))
    return h


def two_column_history():
    """Residual columns e0 = [2, 0], e1 = [0, 1]."""
    return history_from_pairs([([0, 0], [2, 0]), ([0, 0], [0, 1])])


def random_history(rng, n, length):
    h = AndersonHistory(length - 1)
    for _ in range(length):
        h.push(rng.standard_normal(n), rng.standard_normal(n))
    return h


def kkt_sum_window():
    """Four nearly equal residuals whose KKT weights miss sum 1 by 1.1e-8."""
    rng = np.random.default_rng(100)
    e = rng.standard_normal(5)[:, None] + 1e-8 * rng.standard_normal((5, 4))
    return [(np.zeros(5), e[:, j]) for j in range(4)]


class TestHistoryMatrices:
    def test_length_one_boundary(self):
        h = history_from_pairs([([1, 2], [3, 4])])
        m = build_history_matrices(h)
        assert m.residuals.shape == (2, 1)
        assert m.delta_q.shape == (2, 0)
        assert m.delta_e.shape == (2, 0)

    def test_columns_are_adjacent_differences(self):
        rng = np.random.default_rng(0)
        pairs = [(rng.standard_normal(4), rng.standard_normal(4)) for _ in range(3)]
        m = build_history_matrices(history_from_pairs(pairs))
        e = m.residuals
        # H column i is the difference of adjacent residuals, newest first
        assert np.array_equal(m.delta_e[:, 0], e[:, 2] - e[:, 1])
        assert np.array_equal(m.delta_e[:, 1], e[:, 1] - e[:, 0])
        x = np.column_stack([q for q, _ in pairs])
        assert np.array_equal(m.delta_q[:, 0], x[:, 2] - x[:, 1])
        assert np.array_equal(m.delta_q[:, 1], x[:, 1] - x[:, 0])

    def test_zero_residual_history_handled(self):
        # iterates equal to their images: E = 0 and the gain rule gives 0
        pairs = [([0, 0], [0, 0]), ([1, 0], [1, 0]), ([1, 1], [1, 1])]
        h = history_from_pairs(pairs)
        m = build_history_matrices(h)
        assert np.all(m.residuals == 0.0)
        sol = solve_alpha_kkt(m)
        assert sol.fallback
        assert sol.gain_theta == 0.0

    def test_empty_history_is_error(self):
        with pytest.raises(ValueError, match="empty"):
            build_history_matrices(AndersonHistory(2))

    def test_eviction_beyond_depth(self):
        h = AndersonHistory(1)
        for i in range(5):
            h.push(np.array([float(i)]), np.array([float(i + 1)]))
        assert len(h) == 2
        assert h.newest_iterate()[0] - build_history_matrices(h).delta_q[0, 0] == 3.0


def reference_window(pairs):
    """X, E, D, H of a window by column_stack, the list-based construction."""
    x = np.column_stack([q for q, _ in pairs])
    e = np.column_stack([tq for _, tq in pairs]) - x
    return x, e, (x[:, 1:] - x[:, :-1])[:, ::-1], (e[:, 1:] - e[:, :-1])[:, ::-1]


def assert_window(h, pairs):
    x, e, dq, de = reference_window(pairs)
    m = build_history_matrices(h)
    assert len(h) == len(pairs)
    for got, want in [
        (m.residuals, e),
        (m.delta_q, dq),
        (m.delta_e, de),
        (h.newest_iterate(), x[:, -1]),
    ]:
        assert got.shape == want.shape
        assert np.array_equal(got, want)


class TestHistoryBuffers:
    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_views_match_column_stack_past_the_window(self, depth):
        rng = np.random.default_rng(depth)
        h = AndersonHistory(depth)
        pairs = []
        for _ in range(depth + 6):
            pair = (rng.standard_normal(7), rng.standard_normal(7))
            pairs.append(pair)
            h.push(*pair)
            assert_window(h, pairs[-(depth + 1):])

    def test_window_of_width_is_the_newest_pairs(self):
        # build_history_matrices(h, width) is the window a history of the
        # newest width pairs gives, run by run under a run axis
        rng = np.random.default_rng(11)
        for runs in (None, 2):
            lead = () if runs is None else (runs,)
            h = AndersonHistory(3, runs=runs)
            pairs = []
            for j in range(9):
                pairs.append((rng.standard_normal((*lead, 5)), rng.standard_normal((*lead, 5))))
                h.push(*pairs[-1])
                assert h.width == [min(j + 1, 4)] * (runs or 1)
                for width in range(1, len(h) + 1):
                    m = build_history_matrices(h, width)
                    for r in range(runs or 1):
                        own = m if runs is None else m.run(r)
                        window = [(q, tq) if runs is None else (q[r], tq[r])
                                  for q, tq in pairs[-width:]]
                        _, e, dq, de = reference_window(window)
                        for got, want in [(own.residuals, e), (own.delta_q, dq), (own.delta_e, de)]:
                            assert got.shape == want.shape
                            assert np.array_equal(got, want)
            with pytest.raises(ValueError, match="width"):
                build_history_matrices(h, 5)

    def test_widths_grow_to_depth_and_follow_take(self):
        rng = np.random.default_rng(13)
        h = AndersonHistory(2, runs=3)
        for _ in range(4):
            h.push(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
        before = build_history_matrices(h).residuals.copy()
        h.width[1] = 1  # a restart moves no data
        assert np.array_equal(build_history_matrices(h).residuals, before)
        grown = []
        for _ in range(3):
            h.push(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
            grown.append(list(h.width))
        assert grown == [[3, 2, 3], [3, 3, 3], [3, 3, 3]]
        h.width[2] = 1
        h.take([2, 0])
        assert h.width == [1, 3]

    def test_views_alias_the_buffers_until_the_next_push(self):
        # the docstring's promise: views, valid until the next push, which
        # overwrites them in place; a copy taken before keeps the old window
        rng = np.random.default_rng(12)
        h = AndersonHistory(2)
        pairs = [(rng.standard_normal(4), rng.standard_normal(4)) for _ in range(4)]
        for pair in pairs[:3]:
            h.push(*pair)
        old = build_history_matrices(h)
        kept = [old.residuals.copy(), old.delta_q.copy(), old.delta_e.copy()]
        h.push(*pairs[3])
        new = build_history_matrices(h)
        assert np.shares_memory(old.residuals, new.residuals)
        assert np.shares_memory(old.delta_q, new.delta_q)
        assert np.shares_memory(old.delta_e, new.delta_e)
        assert not np.array_equal(old.residuals, kept[0])
        _, e, dq, de = reference_window(pairs[:3])
        assert all(np.array_equal(a, b) for a, b in zip(kept, [e, dq, de]))
        assert_window(h, pairs[1:])


class TestKktSolver:
    def test_single_column(self):
        h = history_from_pairs([([0, 0], [1, 2])])
        sol = solve_alpha_kkt(build_history_matrices(h))
        assert np.array_equal(sol.alpha, [1.0])
        assert sol.tau.size == 0

    def test_orthonormal_columns(self):
        h = history_from_pairs([([0, 0], [1, 0]), ([0, 0], [0, 1])])
        sol = solve_alpha_kkt(build_history_matrices(h))
        assert np.allclose(sol.alpha, [0.5, 0.5], atol=1e-12)

    def test_diagonal_gram(self):
        sol = solve_alpha_kkt(build_history_matrices(two_column_history()))
        assert np.allclose(sol.alpha, [0.2, 0.8], atol=1e-12)

    def test_optimality_against_simplex_search(self):
        rng = np.random.default_rng(3)
        h = random_history(rng, 12, 4)
        m = build_history_matrices(h)
        sol = solve_alpha_kkt(m)
        best = np.linalg.norm(m.residuals @ sol.alpha)
        for _ in range(1000):
            candidate = rng.dirichlet(np.ones(4))
            assert best <= np.linalg.norm(m.residuals @ candidate) + 1e-10

    def test_weights_off_sum_one_fall_back(self):
        # y / sum(y) misses sum 1 by more than 1e-8; the window must not raise
        one = build_history_matrices(history_from_pairs(kkt_sum_window()))
        stacked = stacked_matrices(["random", "kkt-sum"])
        sols = [
            solve_alpha_kkt(one),
            solve_stacked(stacked, anderson_module.KIND_KKT, 0.0).row(1),
        ]
        for sol in sols:
            assert sol.fallback
            assert np.array_equal(sol.alpha, [0.0, 0.0, 0.0, 1.0])

    @given(seed=st.integers(0, 10**6), length=st.integers(1, 6))
    def test_alpha_sums_to_one(self, seed, length):
        rng = np.random.default_rng(seed)
        sol = solve_alpha_kkt(build_history_matrices(random_history(rng, 10, length)))
        assert abs(sol.alpha.sum() - 1.0) <= 1e-10


class TestTauSolvers:
    def test_single_column_exact_fit(self):
        # H = [1, 1]^T, e_k = [1, 1]: tau = 1 fits exactly
        h = history_from_pairs([([0, 0], [0, 0]), ([0, 0], [1, 1])])
        m = build_history_matrices(h)
        sol = solve_tau_unconstrained(m)
        assert sol.tau == pytest.approx([1.0], abs=1e-12)
        assert np.linalg.norm(m.e_newest - m.delta_e @ sol.tau) <= 1e-12

    def test_agreement_with_kkt(self):
        m = build_history_matrices(two_column_history())
        sol = solve_tau_unconstrained(m)
        assert np.allclose(sol.alpha, [0.2, 0.8], atol=1e-10)

    def test_orthogonal_residual_gives_zero_tau(self):
        # e0 = [1, 1], e1 = [1, 0]: H = e1 - e0 = [0, -1] is orthogonal
        # to e1, so the normal equations give tau = 0
        h = history_from_pairs([([0, 0], [1, 1]), ([0, 0], [1, 0])])
        m = build_history_matrices(h)
        assert float(m.delta_e[:, 0] @ m.e_newest) == 0.0
        sol = solve_tau_unconstrained(m)
        assert np.allclose(sol.tau, [0.0], atol=1e-14)
        assert np.allclose(sol.alpha, [0.0, 1.0], atol=1e-14)

    def test_achieves_kkt_minimum(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = build_history_matrices(random_history(rng, 15, 4))
            kkt = solve_alpha_kkt(m)
            unc = solve_tau_unconstrained(m)
            lhs = np.linalg.norm(m.e_newest - m.delta_e @ unc.tau)
            rhs = np.linalg.norm(m.residuals @ kkt.alpha)
            assert abs(lhs - rhs) <= 1e-8

    def test_regularized_eta_zero_identical(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = build_history_matrices(random_history(rng, 10, 4))
            u = solve_tau_unconstrained(m)
            r = solve_tau_regularized(m, 0.0)
            assert np.abs(u.alpha - r.alpha).max() <= 1e-10

    def test_regularized_huge_eta_recovers_plain_step(self):
        rng = np.random.default_rng(13)
        m = build_history_matrices(random_history(rng, 10, 4))
        sol = solve_tau_regularized(m, 1e12)
        assert np.abs(sol.tau).max() <= 1e-9
        expected = np.zeros(4)
        expected[-1] = 1.0
        assert np.abs(sol.alpha - expected).max() <= 1e-9

    def test_hand_scalar_case(self):
        # H = [1,1]^T, e = [1,1], D = [1,0]^T, eta = 0.1:
        # penalty scale = 0.1 * (1 + 2) = 0.3, tau = 2 / 2.3
        h = history_from_pairs([([0, 0], [0, 0]), ([1, 0], [2, 1])])
        m = build_history_matrices(h)
        assert np.array_equal(m.delta_e[:, 0], [1.0, 1.0])
        assert np.array_equal(m.delta_q[:, 0], [1.0, 0.0])
        sol = solve_tau_regularized(m, 0.1)
        assert sol.tau[0] == pytest.approx(2.0 / 2.3, abs=1e-12)

    def test_shrinkage_monotone_in_eta(self):
        rng = np.random.default_rng(17)
        m = build_history_matrices(random_history(rng, 12, 5))
        etas = [0.0, 1e-3, 0.01, 0.1, 0.5, 1.0, 10.0, 1e3]
        norms = [np.linalg.norm(solve_tau_regularized(m, e).tau) for e in etas]
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-12

    def test_negative_eta_rejected(self):
        m = build_history_matrices(two_column_history())
        with pytest.raises(ValueError):
            solve_tau_regularized(m, -0.1)

    @pytest.mark.parametrize(
        "eta", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"]
    )
    def test_non_finite_eta_rejected(self, eta):
        # nan would pass an "eta < 0" check and solve unregularized, inf would
        # give a flagged fallback with infinite jitter
        m = build_history_matrices(two_column_history())
        with pytest.raises(ValueError, match="eta must be finite"):
            solve_tau_regularized(m, eta)

    @pytest.mark.parametrize(
        "eta,digest",
        [
            (0.0, "39424983c38dec382df534529d87a4008acaf5eb5e048b3934d9c0e2f5656e17"),
            (0.1, "8d4cd3b6fa48b08e91432d5fec55aa2a920d1441c2082a798f094c4bbb43638d"),
            (1e12, "e9a85e38687dbc679ae8d6cd4f8cb38c5c5356ebf8b6753738344a4fee948785"),
        ],
    )
    def test_zero_and_finite_eta_solve_as_before(self, eta, digest):
        # recorded while the solve checked only eta < 0
        m = build_history_matrices(random_history(np.random.default_rng(19), 12, 5))
        sol = solve_tau_regularized(m, eta)
        blob = b"".join(a.tobytes() for a in (sol.alpha, sol.tau, sol.mixed_residual))
        blob += repr(
            (sol.gain_theta, sol.jitter, sol.fallback, sol.ridge_scale, sol.gram_trace)
        ).encode()
        assert hashlib.sha256(blob).hexdigest() == digest
        if eta == 0.0:  # the unconstrained solve, bit for bit
            assert sol.alpha.tobytes() == solve_tau_unconstrained(m).alpha.tobytes()

    def test_degenerate_history_flagged(self):
        # identical residual columns: H = 0, the Gram solve needs the
        # jitter ladder and the result is the plain step, flagged
        h = history_from_pairs([([0, 0], [1, 1]), ([0, 0], [1, 1])])
        sol = solve_tau_unconstrained(build_history_matrices(h))
        assert sol.fallback or sol.jitter > 0.0
        assert np.allclose(sol.alpha, [0.0, 1.0], atol=1e-14)


class TestTransforms:
    def test_empty_tau(self):
        assert np.array_equal(tau_to_alpha([]), [1.0])
        assert alpha_to_tau([1.0]).size == 0

    def test_zero_tau_is_plain_step(self):
        assert np.array_equal(tau_to_alpha([0.0, 0.0, 0.0]), [0.0, 0.0, 0.0, 1.0])

    def test_tau_is_read_flat(self):
        # a column or row vector is one tau, not one tau per row
        tau = [0.5, -0.25, 0.125]
        expected = tau_to_alpha(tau)
        assert expected.shape == (4,)
        for shaped in (np.reshape(tau, (3, 1)), np.reshape(tau, (1, 3))):
            assert np.array_equal(tau_to_alpha(shaped), expected)

    def test_known_values(self):
        assert np.allclose(alpha_to_tau([0.2, 0.8]), [0.2], atol=1e-15)
        assert np.allclose(alpha_to_tau([0.1, 0.2, 0.7]), [0.3, 0.1], atol=1e-15)

    def test_matrix_layout(self):
        a = transformation_matrix(3)
        expected = np.array(
            [
                [0, 0, 0, 1],
                [0, 0, 1, -1],
                [0, 1, -1, 0],
                [1, -1, 0, 0],
            ],
            dtype=float,
        )
        assert np.array_equal(a, expected)

    @given(
        tau=st.lists(
            st.floats(-5, 5, allow_nan=False, allow_infinity=False),
            min_size=0,
            max_size=6,
        )
    )
    def test_round_trip_and_simplex_sum(self, tau):
        tau = np.array(tau)
        alpha = tau_to_alpha(tau)
        assert abs(alpha.sum() - 1.0) <= 1e-12
        assert np.abs(alpha_to_tau(alpha) - tau).max(initial=0.0) <= 1e-14

    def test_random_length_four_round_trip(self):
        rng = np.random.default_rng(23)
        tau = rng.standard_normal(4)
        back = alpha_to_tau(tau_to_alpha(tau))
        assert np.abs(back - tau).max() <= 1e-14

    def test_non_normalized_alpha_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            alpha_to_tau([0.5, 0.2])


class TestGainTheta:
    def test_unit_alpha_gives_exactly_one(self):
        rng = np.random.default_rng(2)
        e = rng.standard_normal((6, 3))
        assert gain_theta(e @ [0.0, 0.0, 1.0], e[:, -1]) == 1.0

    def test_zero_residual_convention(self):
        e = np.zeros((4, 2))
        assert gain_theta(e @ [0.5, 0.5], e[:, -1]) == 0.0

    def test_hand_case(self):
        m = build_history_matrices(two_column_history())
        # E alpha = [0.4, 0.8], ||e_k||_inf = 1
        mixed = m.residuals @ [0.2, 0.8]
        assert gain_theta(mixed, m.e_newest) == pytest.approx(0.8, abs=1e-14)

    def test_plain_gains_equal_a_norm_divided_by_itself(self):
        tol = anderson_module.GAIN_ZERO_TOL
        x = np.array([
            0.0, -0.0, 5e-324, 1e-15, np.nextafter(tol, 0.0), tol, 1.0, 1e300,
            np.inf, -np.inf, np.nan, -1.0,
        ])
        with np.errstate(invalid="ignore"):
            want = anderson_module.gain_ratios(x, x)
        assert anderson_module._plain_gains(x).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "kind", [anderson_module.KIND_VANILLA, anderson_module.KIND_KKT]
    )
    def test_stacked_plain_step_gains(self, kind):
        # vanilla at width 3 and any kind at width 1 take the plain step
        rng = np.random.default_rng(5)
        width = 3 if kind == anderson_module.KIND_VANILLA else 1
        h = AndersonHistory(width - 1, runs=3)
        for _ in range(width):
            h.push(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
        h.push(np.zeros((3, 4)), np.zeros((3, 4)) + [[1.0], [6e-15], [0.0]])
        matrices = build_history_matrices(h)
        norms = anderson_module.residual_norms(matrices.e_newest)
        sols = anderson_module.solve_stacked(matrices, kind, 0.0, *norms)
        assert sols.gain_theta.tolist() == [1.0, 0.0, 0.0]
        assert sols.gain_l2.tolist() == [1.0, 1.0, 0.0]  # ||e_k||_2 = 1.2e-14 at row 1


class TestMixedUpdate:
    def test_m0_beta1_is_plain_image(self):
        h = history_from_pairs([([1, 2], [3, 4])])
        sol = vanilla_solution(build_history_matrices(h))
        out = mixed_update(h, sol, 1.0)
        assert np.array_equal(out, [3.0, 4.0])

    def test_beta0_is_stationary(self):
        h = history_from_pairs([([1, 2], [3, 4])])
        sol = vanilla_solution(build_history_matrices(h))
        assert np.array_equal(mixed_update(h, sol, 0.0), [1.0, 2.0])

    def test_average_of_four_vectors(self):
        h = history_from_pairs([([0, 4], [2, 0]), ([4, 0], [2, 4])])
        m = build_history_matrices(h)
        sol = vanilla_solution(m)
        sol.alpha = np.array([0.5, 0.5])
        sol.mixed_residual = m.residuals @ sol.alpha
        out = mixed_update(h, sol, 0.5)
        assert np.array_equal(out, [2.0, 2.0])
        # a real window at beta < 1 against the two-product formula
        rng = np.random.default_rng(5)
        pairs = [(rng.standard_normal(12), rng.standard_normal(12)) for _ in range(4)]
        h = history_from_pairs(pairs)
        sol = solve_alpha_kkt(build_history_matrices(h))
        x = np.column_stack([q for q, _ in pairs])
        f = np.column_stack([tq for _, tq in pairs])
        beta = 0.7
        expected = (1.0 - beta) * (x @ sol.alpha) + beta * (f @ sol.alpha)
        assert np.allclose(mixed_update(h, sol, beta), expected, rtol=1e-12, atol=1e-12)

    def test_length_mismatch_rejected(self):
        h = AndersonHistory(2)
        h.push(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        sol = vanilla_solution(build_history_matrices(h))
        h.push(np.array([5.0, 6.0]), np.array([7.0, 8.0]))
        with pytest.raises(ValueError, match="length"):
            mixed_update(h, sol, 1.0)

    def test_beta_out_of_range(self):
        h = history_from_pairs([([1, 2], [3, 4])])
        sol = vanilla_solution(build_history_matrices(h))
        with pytest.raises(ValueError):
            mixed_update(h, sol, 1.5)


class TestQuasiNewtonUpdate:
    @pytest.mark.parametrize("eta", [0.0, 0.1])
    def test_trajectory_equivalence(self, eta):
        # side-by-side over a real iteration: both forms agree per step
        mdp = ap.generate_random_mdp(21, 30, 4, 3, 1.0, 0.95)
        op = OperatorSpec(OperatorKind.MELLOW_MAX, 5.0)
        h = AndersonHistory(3)
        q = np.zeros((30, 4))
        worst = 0.0
        for _ in range(20):
            tq = apply_bellman(mdp, q, op)
            h.push(q.ravel().copy(), tq.ravel().copy())
            m = build_history_matrices(h)
            sol = (
                solve_tau_regularized(m, eta)
                if eta > 0
                else solve_tau_unconstrained(m)
            )
            nxt = mixed_update(h, sol, 1.0)
            if len(h) >= 2:
                qn = quasi_newton_update(h, sol, 1.0)
                worst = max(worst, float(np.abs(nxt - qn).max()))
            q = nxt.reshape(30, 4)
        assert worst <= 1e-8

    def test_identical_iterates_degenerate(self):
        pair = (np.array([1.0, 2.0]), np.array([2.0, 4.0]))
        h = AndersonHistory(1)
        h.push(*pair)
        h.push(*pair)
        beta = 0.7
        sol = solve_tau_regularized(build_history_matrices(h), 0.0)
        nxt = quasi_newton_update(h, sol, beta)
        expected = pair[0] + beta * (pair[1] - pair[0])
        assert np.abs(nxt - expected).max() <= 1e-6

    def test_huge_eta_is_damped_plain_step(self):
        rng = np.random.default_rng(31)
        h = random_history(rng, 8, 3)
        m = build_history_matrices(h)
        beta = 0.6
        nxt = quasi_newton_update(h, solve_tau_regularized(m, 1e12), beta)
        expected = h.newest_iterate() + beta * m.e_newest
        assert np.abs(nxt - expected).max() <= 1e-6

    def test_materialized_matrix_generates_step(self):
        rng = np.random.default_rng(37)
        h = random_history(rng, 10, 4)
        m = build_history_matrices(h)
        sol = solve_tau_regularized(m, 0.5)
        nxt = quasi_newton_update(h, sol, 1.0)
        g = materialize_update_matrix(m, 1.0, sol)
        direct = h.newest_iterate() - g @ m.e_newest
        assert np.abs(nxt - direct).max() <= 1e-10

    def test_one_entry_is_plain_step(self):
        # D and H are empty, so the step of the plain-step solution is Q + beta e_k
        h = history_from_pairs([([1, 2], [3, 4])])
        m = build_history_matrices(h)
        sol = vanilla_solution(m)
        beta = 0.6
        nxt = quasi_newton_update(h, sol, beta)
        assert np.array_equal(nxt, h.newest_iterate() + beta * m.e_newest)
        assert np.allclose(nxt, mixed_update(h, sol, beta), rtol=0.0, atol=1e-15)

    def test_solution_of_another_window_rejected(self):
        h = AndersonHistory(2)
        h.push(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        sol = vanilla_solution(build_history_matrices(h))
        h.push(np.array([5.0, 6.0]), np.array([7.0, 8.0]))
        with pytest.raises(ValueError, match="length"):
            quasi_newton_update(h, sol, 1.0)


class TestCertificates:
    @given(seed=st.integers(0, 10**6))
    def test_mixed_residual_never_worse_than_plain(self, seed):
        rng = np.random.default_rng(seed)
        m = build_history_matrices(random_history(rng, 10, 4))
        e_norm = np.linalg.norm(m.e_newest)
        for sol in (
            solve_alpha_kkt(m),
            solve_tau_unconstrained(m),
            solve_tau_regularized(m, 0.1),
        ):
            assert np.linalg.norm(m.residuals @ sol.alpha) <= e_norm * (1 + 1e-9)

    @staticmethod
    def all_solutions(m):
        return [
            vanilla_solution(m),
            solve_alpha_kkt(m),
            solve_tau_unconstrained(m),
            solve_tau_regularized(m, 0.1),
        ]

    @pytest.mark.parametrize("length", [1, 2, 4, 6])
    def test_carried_mixed_residual_is_e_alpha(self, length):
        rng = np.random.default_rng(40 + length)
        m = build_history_matrices(random_history(rng, 9, length))
        for sol in self.all_solutions(m):
            mixed = m.residuals @ sol.alpha
            assert np.array_equal(sol.mixed_residual, mixed)
            assert sol.gain_theta == gain_theta(mixed, m.e_newest)

    def test_carried_mixed_residual_on_the_fallback_path(self, monkeypatch):
        def singular(a, b):  # a system the ladder could not accept
            return np.zeros(b.shape), 1.0, False

        rng = np.random.default_rng(47)
        m = build_history_matrices(random_history(rng, 9, 4))
        monkeypatch.setattr(anderson_module, "_solve_spd_impl", singular)
        cases = [(m, sol) for sol in self.all_solutions(m)[1:]]
        monkeypatch.undo()
        # and a natural one: E = 0 leaves the KKT system without a solution
        zero = build_history_matrices(
            history_from_pairs([(np.ones(3), np.ones(3))] * 4)
        )
        cases.append((zero, solve_alpha_kkt(zero)))
        for matrices, sol in cases:
            assert sol.fallback
            assert np.array_equal(sol.alpha, [0.0, 0.0, 0.0, 1.0])
            assert np.array_equal(sol.mixed_residual, matrices.residuals @ sol.alpha)


def near_collinear_window(seed):
    """Four entries of length 5 whose residuals agree up to a seeded 1e-16..1e-7."""
    rng = np.random.default_rng(seed)
    eps = 10.0 ** rng.integers(-16, -6)
    base_e, base_q = rng.standard_normal(5), rng.standard_normal(5)
    pairs = []
    for _ in range(4):
        q = base_q + rng.standard_normal(5) * 10.0 ** rng.integers(-12, 0)
        pairs.append((q, q + (base_e + eps * rng.standard_normal(5))))
    return pairs


# name -> the four (q, Tq) pairs of a window; each exercises one path of
# the coefficient solve on some kind, as TestSolveStacked.CASES records
WINDOWS = {
    "random": [tuple(pair) for pair in np.random.default_rng(11).standard_normal((4, 2, 5))],
    "zero": [(np.ones(5), np.ones(5))] * 4,
    "kkt-ladder": near_collinear_window(1),
    "kkt-certificate": near_collinear_window(1111),
    "kkt-sum": kkt_sum_window(),
    # its KKT system passes numpy's Cholesky gate, then fails the residual
    # check at every level
    "kkt-residual": near_collinear_window(489),
    "tau-ladder": near_collinear_window(291),
    "tau-certificate": near_collinear_window(34),
}
SOLVERS = {
    "kkt": (anderson_module.KIND_KKT, 0.0, solve_alpha_kkt),
    "unconstrained": (
        anderson_module.KIND_UNCONSTRAINED, 0.0, solve_tau_unconstrained
    ),
    "regularized": (
        anderson_module.KIND_REGULARIZED, 1e-12, lambda m: solve_tau_regularized(m, 1e-12)
    ),
}


def solve_stacked(matrices, kind, eta):
    """The stacked solve, given the newest residuals' norms as the engine gives them."""
    norms = anderson_module.residual_norms(matrices.e_newest)
    return anderson_module.solve_stacked(matrices, kind, eta, *norms)


def stacked_matrices(names):
    h = AndersonHistory(3, runs=len(names))
    for j in range(4):
        h.push(*(np.stack(col) for col in zip(*(WINDOWS[w][j] for w in names))))
    return build_history_matrices(h)


def assert_same_solution(got, want):
    for f in dataclasses.fields(MixingSolution):
        x, y = getattr(got, f.name), getattr(want, f.name)
        if isinstance(y, np.ndarray):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name
        else:
            assert (type(x), repr(x)) == (type(y), repr(y)), f.name


class TestSolveStacked:
    """The stacked solve against the one-run solvers, window by window."""

    # (solver, window) -> (jitter > 0, fallback) of the one-run solution;
    # the zero window fails the Cholesky gate of its own system only
    CASES = {
        ("kkt", "zero"): (True, True),
        ("kkt", "kkt-ladder"): (True, False),
        ("kkt", "kkt-certificate"): (False, True),
        ("kkt", "kkt-sum"): (False, True),
        ("kkt", "kkt-residual"): (True, True),
        ("unconstrained", "kkt-residual"): (False, False),
        ("unconstrained", "tau-ladder"): (True, False),
        ("unconstrained", "tau-certificate"): (False, True),
        ("unconstrained", "zero"): (True, False),
        ("regularized", "tau-certificate"): (False, True),
        ("regularized", "zero"): (True, False),
    }

    @pytest.mark.parametrize("kind", sorted(SOLVERS))
    def test_paths_are_covered(self, kind):
        one = SOLVERS[kind][2]
        for (k, name), (jittered, fallback) in self.CASES.items():
            if k == kind:
                sol = one(build_history_matrices(history_from_pairs(WINDOWS[name])))
                assert (sol.jitter > 0.0, sol.fallback) == (jittered, fallback), name
                if k == "kkt" and name == "zero":  # after the whole ladder
                    assert sol.jitter == pytest.approx(1e-6, rel=1e-12)

    @pytest.mark.parametrize("kind", sorted(SOLVERS))
    @pytest.mark.parametrize(
        "names",
        [list(WINDOWS), [w for w in WINDOWS if w != "zero"]]
        + [["random", w] for w in WINDOWS if w != "random"],
        ids=lambda names: "+".join(names),
    )
    def test_equals_one_run_solver(self, kind, names):
        solver_kind, eta, one = SOLVERS[kind]
        matrices = stacked_matrices(names)
        stacked = solve_stacked(matrices, solver_kind, eta)
        assert len(stacked.alpha) == len(names)
        for r in range(len(names)):
            want = one(matrices.run(r))
            assert_same_solution(stacked.row(r), want)
            # ||E alpha||_2, which the engine records as theta_l2's numerator
            l2 = frobenius_norm(want.mixed_residual)
            assert stacked.mixed_l2[r].tobytes() == np.float64(l2).tobytes()


def golden_windows():
    """History views of random windows and C- and Fortran-ordered copies of each.

    n in (3, 9, 40, 120) and p = 0..5, then the E = 0 window whose KKT
    system exhausts the jitter ladder: 73 windows.
    """
    rng = np.random.default_rng(1616)
    windows = []
    for n in (3, 9, 40, 120):
        for p in range(6):
            view = build_history_matrices(random_history(rng, n, p + 1))
            windows.append(view)
            for order in (np.ascontiguousarray, np.asfortranarray):
                windows.append(HistoryMatrices(
                    order(view.residuals), order(view.delta_q), order(view.delta_e)
                ))
    windows.append(build_history_matrices(history_from_pairs([(np.ones(3), np.ones(3))] * 4)))
    return windows


class TestPublicSolverGolden:
    """Every field of the public one-window solvers, pinned bitwise."""

    SOLVES = [
        solve_alpha_kkt,
        solve_tau_unconstrained,
        lambda m: solve_tau_regularized(m, 0.0),
        lambda m: solve_tau_regularized(m, 0.1),
        lambda m: solve_tau_regularized(m, 7.5),
        vanilla_solution,
    ]

    def test_digest(self):
        windows = golden_windows()
        assert len(windows) == 73
        h = hashlib.sha256()
        for m in windows:
            for solve in self.SOLVES:
                sol = solve(m)
                for f in dataclasses.fields(MixingSolution):
                    x = getattr(sol, f.name)
                    if isinstance(x, np.ndarray):
                        h.update(repr((f.name, x.dtype.str, x.shape)).encode() + x.tobytes())
                    else:
                        h.update(repr((f.name, type(x).__name__, x)).encode())
        assert h.hexdigest() == (
            "26ca06bc403e83fa421095a1dfecdb710611be1dfc6c1eaa3a16209dda65e8ce"
        )


@pytest.mark.parametrize("ridge", [None, 0.3])
def test_gram_is_exactly_symmetric(ridge):
    rng = np.random.default_rng(8)
    h = AndersonHistory(5, runs=3)
    for _ in range(6):
        h.push(rng.standard_normal((3, 40)), rng.standard_normal((3, 40)))
    m = build_history_matrices(h)
    for rows in (m.residuals.mT, m.delta_e.mT):
        stacked = anderson_module._gram(rows, None if ridge is None else np.full((3, 1), ridge))
        assert np.array_equal(stacked, stacked.mT)
        for r in range(3):
            one = anderson_module._gram(rows[r], ridge)
            assert np.array_equal(one, one.T)


def stack_of_one(m):
    """Window ``m`` with a run axis of one in front."""
    return HistoryMatrices(m.residuals[None], m.delta_q[None], m.delta_e[None])


def ridge_solution(m, eta, jitter=0.0, fallback=False):
    """The regularized solution of window ``m`` as a stack of one, with the given jitter and fallback."""
    sol = solve_stacked(stack_of_one(m), anderson_module.KIND_REGULARIZED, eta)
    return dataclasses.replace(sol, jitter=np.array([jitter]), fallback=np.array([fallback]))


def one_norm(m, beta, sol):
    """``||G~||_2`` of window ``m`` from :func:`update_matrix_norms` of its stack of one."""
    (norm,) = update_matrix_norms(stack_of_one(m), beta, sol)
    return norm


def dense_norm(m, beta, sol):
    """||G~||_2 from the dense n x n matrix of row 0 of ``sol``."""
    return np.linalg.norm(materialize_update_matrix(m, beta, sol.row(0)), 2)


class TestUpdateMatrixNorms:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
    def test_matches_dense(self, p):
        rng = np.random.default_rng(100 + p)
        for beta, eta in [(1.0, 0.1), (0.6, 0.5), (1.0, 1.0), (0.3, 2.0)]:
            m = build_history_matrices(random_history(rng, 24, p + 1))
            sol = ridge_solution(m, eta)
            norm = one_norm(m, beta, sol)
            assert norm == pytest.approx(dense_norm(m, beta, sol), rel=1e-12)

    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_no_complement_block(self, p):
        # n <= 2p leaves no complement to the QR basis; up to 3p, a small one
        rng = np.random.default_rng(200 + p)
        for n in range(p, 3 * p + 1):
            m = build_history_matrices(random_history(rng, n, p + 1))
            sol = ridge_solution(m, 0.2)
            norm = one_norm(m, 1.0, sol)
            assert norm == pytest.approx(dense_norm(m, 1.0, sol), rel=1e-12)

    def test_rank_deficient_h(self):
        rng = np.random.default_rng(7)
        n = 20
        dq = rng.standard_normal((n, 3))
        de = rng.standard_normal((n, 3))
        de[:, 2] = de[:, 0]  # two equal residual differences: H^T H singular
        m = HistoryMatrices(rng.standard_normal((n, 4)), dq, de)
        sol = ridge_solution(m, 0.1)
        norm = one_norm(m, 1.0, sol)
        assert norm == pytest.approx(dense_norm(m, 1.0, sol), rel=1e-12)
        # the zero-jitter unconstrained solve flags the same history
        assert solve_tau_unconstrained(m).jitter > 0.0

    def test_jitter_matches_dense(self):
        rng = np.random.default_rng(9)
        m = build_history_matrices(random_history(rng, 15, 4))
        sol = ridge_solution(m, 0.3, jitter=1e-3)
        norm = one_norm(m, 0.8, sol)
        assert norm == pytest.approx(dense_norm(m, 0.8, sol), rel=1e-12)

    def test_fallback_and_empty_history_give_beta(self):
        rng = np.random.default_rng(11)
        m = build_history_matrices(random_history(rng, 12, 4))
        assert one_norm(m, 0.7, ridge_solution(m, 0.1, fallback=True)) == 0.7
        single = build_history_matrices(random_history(rng, 12, 1))
        assert one_norm(single, 0.7, ridge_solution(single, 0.1)) == 0.7

    @pytest.mark.parametrize("beta", [1.0, 0.0])
    def test_stack_matches_each_window(self, beta):
        # one window takes the stacked path as a stack of one: the stacked QR,
        # solve and SVD must give each window's norm bit for bit
        rng = np.random.default_rng(13)
        h = AndersonHistory(3, runs=4)
        for _ in range(5):
            h.push(rng.standard_normal((4, 30)), rng.standard_normal((4, 30)))
        m = build_history_matrices(h)
        jitter, fallback = [0.0, 1e-3, 0.0, 0.0], [False, False, True, False]
        stacked = dataclasses.replace(
            solve_stacked(m, anderson_module.KIND_REGULARIZED, 0.1),
            jitter=np.array(jitter),
            fallback=np.array(fallback),
        )
        sols = [ridge_solution(m.run(r), 0.1, jitter[r], fallback[r]) for r in range(4)]
        norms = update_matrix_norms(m, beta, stacked)
        alone = [one_norm(m.run(r), beta, sols[r]) for r in range(4)]
        assert [repr(x) for x in norms] == [repr(x) for x in alone]
        assert norms[2] == beta
        for r in (0, 1, 3):
            dense = dense_norm(m.run(r), beta, sols[r])
            assert norms[r] == pytest.approx(dense, rel=1e-12)

    def test_singular_g_tilde_has_no_ratio(self):
        rng = np.random.default_rng(17)
        m = build_history_matrices(random_history(rng, 12, 3))
        # beta = 0 leaves G~ = U K^-1 H^T, of rank 2 < n
        sol = ridge_solution(m, 0.1)
        norm = one_norm(m, 0.0, sol)
        assert norm == pytest.approx(dense_norm(m, 0.0, sol), rel=1e-12)


class TestTransformCond2:
    @pytest.mark.parametrize("p", [0, 1, 3, 5])
    def test_matches_svd(self, p):
        s = np.linalg.svd(transformation_matrix(p), compute_uv=False)
        assert transform_cond2(p) == pytest.approx(s[0] / s[-1], rel=1e-12)

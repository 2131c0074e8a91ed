import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import anderson_pi as ap
from anderson_pi.mdp import MdpStack
from anderson_pi.operators import OperatorKind, OperatorSpec

from conftest import hand_value_iteration

finite_rows = st.lists(
    st.floats(-50, 50, allow_nan=False, allow_infinity=False), min_size=1, max_size=8
).map(np.array)


class TestMellowmax:
    def test_constant_row_fixed(self):
        for omega in (0.5, 1.0, 10.0):
            assert ap.mellowmax([3.5, 3.5, 3.5], omega) == pytest.approx(3.5, abs=1e-12)

    def test_reference_value(self):
        # direct high-precision evaluation of (log(1 + e^10) - log 2) / 10
        expected = (math.log1p(math.exp(10.0)) - math.log(2.0)) / 10.0
        assert expected == pytest.approx(0.9306898218339272, abs=1e-15)
        assert ap.mellowmax([0.0, 1.0], 10.0) == pytest.approx(expected, abs=1e-13)

    def test_small_omega_limit_is_mean(self):
        assert ap.mellowmax([0.0, 1.0], 1e-8) == pytest.approx(0.5, abs=1e-6)

    def test_large_omega_limit_is_max(self):
        assert ap.mellowmax([0.0, 1.0], 1e3) == pytest.approx(1.0, abs=1e-3)

    def test_no_overflow_at_extreme_scale(self):
        # |omega * row_i| up to 1e6 must stay finite
        val = ap.mellowmax([-1.0, 1.0], 1e6)
        assert np.isfinite(val)
        assert val == pytest.approx(1.0, abs=1e-5)

    @given(row=finite_rows, omega=st.floats(1e-3, 50))
    def test_bounded_by_min_max(self, row, omega):
        val = ap.mellowmax(row, omega)
        assert row.min() - 1e-9 <= val <= row.max() + 1e-9

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            ap.mellowmax([], 1.0)
        with pytest.raises(ValueError):
            ap.mellowmax([1.0], -1.0)


class TestMellowmaxGradient:
    @given(row=finite_rows, omega=st.floats(0.1, 10))
    def test_probability_vector(self, row, omega):
        g = ap.mellowmax_grad(row, omega)
        assert (g >= 0).all()
        assert g.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(7)
        step = 1e-5
        for _ in range(100):
            row = rng.uniform(-5, 5, size=6)
            omega = 10 ** rng.uniform(-1, 1)
            g = ap.mellowmax_grad(row, omega)
            fd = np.empty_like(row)
            for i in range(row.size):
                e = np.zeros_like(row)
                e[i] = step
                fd[i] = (
                    ap.mellowmax(row + e, omega) - ap.mellowmax(row - e, omega)
                ) / (2 * step)
            assert np.abs(g - fd).max() <= 1e-6


def aggregate_row(row, kind, omega=1.0):
    """``aggregate_rows`` of a one-row table, as a float."""
    table = np.array([row], dtype=np.float64).reshape(1, -1)
    return float(ap.operators.aggregate_rows(table, kind, omega)[0])


class TestBoltzmannSoftmax:
    SOFTMAX = OperatorKind.BOLTZMANN_SOFTMAX

    def test_constant_row(self):
        assert aggregate_row([2.0, 2.0], self.SOFTMAX, 3.0) == pytest.approx(2.0, abs=1e-12)

    def test_large_omega_limit(self):
        assert aggregate_row([0.0, 1.0], self.SOFTMAX, 100.0) == pytest.approx(1.0, abs=1e-10)

    def test_reference_value(self):
        # e / (1 + e)
        expected = math.e / (1.0 + math.e)
        assert expected == pytest.approx(0.7310585786300049, abs=1e-15)
        assert aggregate_row([0.0, 1.0], self.SOFTMAX, 1.0) == pytest.approx(
            expected, abs=1e-13
        )

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            aggregate_row([], self.SOFTMAX)


class TestHardMax:
    def test_basic(self):
        assert aggregate_row([1.0, 3.0, 2.0], OperatorKind.HARD_MAX) == 3.0
        assert aggregate_row([-5.0], OperatorKind.HARD_MAX) == -5.0
        assert aggregate_row([2.0, 2.0], OperatorKind.HARD_MAX) == 2.0

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            aggregate_row([], OperatorKind.HARD_MAX)


class TestOperatorSpec:
    def test_omega_must_be_positive(self):
        with pytest.raises(ValueError):
            OperatorSpec(OperatorKind.MELLOW_MAX, 0.0)
        with pytest.raises(ValueError):
            OperatorSpec(OperatorKind.BOLTZMANN_SOFTMAX, -1.0)
        OperatorSpec(OperatorKind.HARD_MAX)  # omega ignored

    @pytest.mark.parametrize("omega", [np.inf, np.nan])
    def test_omega_must_be_finite(self, omega):
        # an infinite omega would aggregate every row to nan
        for kind in (OperatorKind.MELLOW_MAX, OperatorKind.BOLTZMANN_SOFTMAX):
            with pytest.raises(ValueError, match="positive and finite"):
                OperatorSpec(kind, omega)
        with pytest.raises(ValueError, match="positive and finite"):
            ap.mellowmax([0.0, 1.0], omega)
        OperatorSpec(OperatorKind.HARD_MAX, omega)  # omega ignored


class TestApplyBellman:
    def test_zero_q_gives_rewards(self, mm5):
        mdp = ap.generate_random_mdp(2, 10, 3, 2, 1.0, 0.9)
        tq = ap.apply_bellman(mdp, np.zeros((10, 3)), mm5)
        assert np.array_equal(tq, mdp.rewards)

    def test_self_loop_fixed_point(self, self_loop_mdp, hardmax_op):
        tq = ap.apply_bellman(self_loop_mdp, np.full((1, 1), 10.0), hardmax_op)
        assert tq[0, 0] == pytest.approx(10.0, abs=1e-14)

    def test_mellowmax_constant_q(self, mm5):
        mdp = ap.generate_random_mdp(4, 8, 2, 3, 1.0, 0.9)
        c = 2.5
        tq = ap.apply_bellman(mdp, np.full((8, 2), c), mm5)
        assert np.abs(tq - (mdp.rewards + 0.9 * c)).max() <= 1e-12

    def test_matches_rowwise_scalar_path(self, mm5):
        mdp = ap.generate_random_mdp(6, 12, 3, 4, 1.0, 0.95)
        rng = np.random.default_rng(0)
        q = rng.uniform(-5, 5, size=(12, 3))
        expected = np.empty_like(q)
        v = np.array([ap.mellowmax(q[s], mm5.omega) for s in range(12)])
        for s in range(12):
            for a in range(3):
                expected[s, a] = mdp.rewards[s, a] + 0.95 * float(
                    mdp.transitions[s, a] @ v
                )
        assert np.abs(ap.apply_bellman(mdp, q, mm5) - expected).max() <= 1e-12

    def test_dimension_mismatch(self, mm5):
        mdp = ap.generate_random_mdp(2, 5, 2, 2, 1.0, 0.9)
        with pytest.raises(ValueError):
            ap.apply_bellman(mdp, np.zeros((4, 2)), mm5)

    def test_input_unmodified(self, mm5):
        mdp = ap.generate_random_mdp(2, 5, 2, 2, 1.0, 0.9)
        q = np.ones((5, 2))
        before = q.copy()
        ap.apply_bellman(mdp, q, mm5)
        assert np.array_equal(q, before)


class TestStackedSweep:
    """An MdpStack sweeps every MDP as its own apply_bellman does, bitwise."""

    @pytest.mark.parametrize("kind", list(OperatorKind))
    def test_rows_equal_one_mdp_sweeps(self, kind):
        # the gridworld (k = 4) and the random MDPs (k = 2, 3) differ in k
        mdps = [
            ap.generate_random_mdp(1, 9, 4, 2, 1.0, 0.9),
            ap.generate_gridworld(3, 3, 0.1, 1.0, 0.8),
            ap.generate_random_mdp(2, 9, 4, 3, 5.0, 0.95),
        ]
        op = OperatorSpec(kind, 2.0)
        stack = MdpStack(mdps)
        q = np.random.default_rng(0).uniform(-10.0, 10.0, size=(3, 9, 4))
        tq = ap.apply_bellman(stack, q, op)
        assert tq.shape == (3, 9, 4)
        for b, mdp in enumerate(mdps):
            assert tq[b].tobytes() == ap.apply_bellman(mdp, q[b], op).tobytes()

    def test_take_keeps_rows_in_order(self, mm5):
        mdps = [ap.generate_random_mdp(s, 6, 2, 2, 1.0, 0.9) for s in range(4)]
        q = np.random.default_rng(1).uniform(-1.0, 1.0, size=(2, 6, 2))
        sub = MdpStack(mdps).take([3, 1])
        assert sub.mdps == (mdps[3], mdps[1])
        assert np.array_equal(
            ap.apply_bellman(sub, q, mm5),
            np.stack([ap.apply_bellman(mdps[3], q[0], mm5), ap.apply_bellman(mdps[1], q[1], mm5)]),
        )

    @pytest.mark.parametrize("rows", [[2, 0], [0, 2], [1], [3, 1, 0], [0, 1, 2, 3]])
    def test_take_equals_a_stack_of_the_kept_mdps(self, rows):
        # only the gridworld has k = 4, the random MDPs k = 2 and 3: a take
        # without it trims the padding
        mdps = [
            ap.generate_random_mdp(1, 9, 4, 2, 1.0, 0.9),
            ap.generate_gridworld(3, 3, 0.1, 1.0, 0.8),
            ap.generate_random_mdp(2, 9, 4, 3, 5.0, 0.95),
            ap.generate_random_mdp(3, 9, 4, 2, 1.0, 0.5),
        ]
        stack = MdpStack(mdps)
        for sub in (stack.take(rows), stack.take([3, 2, 1, 0]).take([3 - r for r in rows])):
            want = MdpStack([mdps[r] for r in rows])
            assert sub.mdps == want.mdps
            for name in ("successors", "probs", "rewards", "gamma"):
                got = getattr(sub, name)
                assert got.shape == getattr(want, name).shape
                assert got.tobytes() == getattr(want, name).tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    got[(0,) * got.ndim] = 1

    def test_shapes_must_match(self, mm5):
        mdps = [ap.generate_random_mdp(0, 6, 2, 2, 1.0, 0.9), ap.generate_random_mdp(0, 6, 3, 2, 1.0, 0.9)]
        with pytest.raises(ValueError, match="shape"):
            MdpStack(mdps)
        stack = MdpStack(mdps[:1])
        with pytest.raises(ValueError, match="does not match"):
            ap.apply_bellman(stack, np.zeros((6, 2)), mm5)

    def test_row_max_equals_numpy_row_max(self):
        rng = np.random.default_rng(2)
        for actions in (1, 2, 4, 8, 16):
            q = rng.standard_normal((2000, actions))
            got = ap.operators.aggregate_rows(q, OperatorKind.HARD_MAX, 1.0)
            assert got.tobytes() == q.max(axis=1).tobytes()


def residual(mdp, q, op):
    """The fixed-point residual ``TQ - Q``."""
    return ap.apply_bellman(mdp, q, op) - q


class TestResidual:
    def test_zero_at_fixed_point(self, mm5):
        mdp = ap.generate_random_mdp(3, 10, 3, 3, 1.0, 0.9)
        q_star = ap.fixed_point_oracle(mdp, mm5)
        assert np.abs(residual(mdp, q_star, mm5)).max() <= 1e-10

    def test_zero_q(self, mm5):
        mdp = ap.generate_random_mdp(3, 6, 2, 2, 1.0, 0.9)
        assert np.array_equal(residual(mdp, np.zeros((6, 2)), mm5), mdp.rewards)

    def test_self_loop_arithmetic(self, self_loop_mdp, hardmax_op):
        res = residual(self_loop_mdp, np.full((1, 1), 9.0), hardmax_op)
        assert res[0, 0] == pytest.approx(0.1, abs=1e-14)


class TestGreedyPolicy:
    def test_basic_and_ties(self):
        assert ap.greedy_policy(np.array([[1.0, 3.0, 2.0]]))[0] == 1
        assert ap.greedy_policy(np.array([[2.0, 2.0]]))[0] == 0

    def test_gridworld_policy_matches_hand_oracle(self, grid3):
        q_star = hand_value_iteration(grid3)
        lib_q = ap.fixed_point_oracle(grid3, OperatorSpec(OperatorKind.HARD_MAX))
        assert np.abs(lib_q - q_star).max() <= 1e-11
        assert np.array_equal(ap.greedy_policy(lib_q), ap.greedy_policy(q_star))


class TestNonExpansion:
    @pytest.mark.parametrize("omega", [1.0, 5.0, 10.0])
    def test_mellowmax_contraction(self, omega):
        mdp = ap.generate_random_mdp(0, 15, 3, 3, 1.0, 0.9)
        op = OperatorSpec(OperatorKind.MELLOW_MAX, omega)
        rng = np.random.default_rng(1)
        for _ in range(200):
            qa = rng.uniform(-10, 10, size=(15, 3))
            qb = rng.uniform(-10, 10, size=(15, 3))
            lhs = np.abs(
                ap.apply_bellman(mdp, qa, op) - ap.apply_bellman(mdp, qb, op)
            ).max()
            assert lhs <= 0.9 * np.abs(qa - qb).max() + 1e-12

    def test_boltzmann_can_expand(self):
        # deterministic two-state chain, zero rewards: T difference equals
        # gamma times the aggregator difference at the successor, and the
        # exp-weighted average expands near-tied rows
        mdp = ap.generate_random_mdp(3, 2, 2, 1, 0.0, 0.95)
        op = OperatorSpec(OperatorKind.BOLTZMANN_SOFTMAX, 10.0)
        qa = np.array([[0.0, -0.3], [0.0, -0.3]])
        qb = np.array([[0.05, -0.35], [0.05, -0.35]])
        lhs = np.abs(ap.apply_bellman(mdp, qa, op) - ap.apply_bellman(mdp, qb, op)).max()
        rhs = 0.95 * np.abs(qa - qb).max()
        assert lhs > rhs + 1e-12

import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

import anderson_pi as ap
from anderson_pi.mdp import MdpFormatError, MdpStack

from conftest import hand_value_iteration


class TestRandomGenerator:
    def test_single_state_self_loop(self):
        mdp = ap.generate_random_mdp(7, 1, 1, 1, 1.0, 0.9)
        assert mdp.transitions[0, 0, 0] == 1.0

    def test_row_sums(self):
        mdp = ap.generate_random_mdp(7, 20, 4, 3, 1.0, 0.95)
        sums = mdp.transitions.sum(axis=2)
        assert np.abs(sums - 1.0).max() <= 1e-12

    def test_support_size_matches_branching(self):
        mdp = ap.generate_random_mdp(3, 12, 3, 4, 1.0, 0.9)
        nonzero = (mdp.transitions > 0).sum(axis=2)
        assert (nonzero == 4).all()

    def test_deterministic(self):
        a = ap.generate_random_mdp(11, 15, 3, 2, 2.0, 0.9)
        b = ap.generate_random_mdp(11, 15, 3, 2, 2.0, 0.9)
        assert np.array_equal(a.transitions, b.transitions)
        assert np.array_equal(a.rewards, b.rewards)

    @given(seed=st.integers(0, 10**6))
    def test_row_sums_property(self, seed):
        mdp = ap.generate_random_mdp(seed, 8, 2, 3, 1.0, 0.9)
        assert np.abs(mdp.transitions.sum(axis=2) - 1.0).max() <= 1e-12
        assert ap.validate(mdp) == []

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_states=0, n_actions=1, branching=1),
            dict(n_states=3, n_actions=0, branching=1),
            dict(n_states=3, n_actions=1, branching=0),
            dict(n_states=3, n_actions=1, branching=4),
        ],
    )
    def test_invalid_dimensions(self, kw):
        with pytest.raises(ValueError):
            ap.generate_random_mdp(0, **kw)

    def test_rewards_within_scale(self):
        mdp = ap.generate_random_mdp(5, 10, 3, 2, 0.25, 0.9)
        assert np.abs(mdp.rewards).max() <= 0.25

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
    def test_non_finite_reward_scale(self, scale):
        with pytest.raises(ValueError, match="reward_scale must be finite"):
            ap.generate_random_mdp(0, 5, 2, 2, scale, 0.9)

    @pytest.mark.parametrize("seed", [-1, np.int64(-7)], ids=["int", "numpy-int"])
    def test_negative_seed_is_named(self, seed):
        with pytest.raises(ValueError, match=f"seed must be >= 0, got {seed}"):
            ap.generate_random_mdp(seed, 5, 2, 2, 1.0, 0.9)


class TestFromSuccessors:
    def test_rejects_mismatched_shapes(self):
        succ = np.zeros((3, 2, 2), dtype=int)
        with pytest.raises(ValueError, match="successors"):
            ap.TabularMdp.from_successors(3, 2, succ, np.zeros((3, 2, 1)), np.zeros((3, 2)), 0.9)
        with pytest.raises(ValueError, match="successors"):
            ap.TabularMdp.from_successors(3, 2, succ[:, :, :0], np.zeros((3, 2, 0)), np.zeros((3, 2)), 0.9)
        with pytest.raises(ValueError, match="rewards"):
            ap.TabularMdp.from_successors(3, 2, succ, np.full((3, 2, 2), 0.5), np.zeros(3), 0.9)

    def test_rejects_out_of_range_successor(self):
        succ = np.zeros((3, 2, 1), dtype=int)
        succ[2, 1, 0] = 3
        with pytest.raises(ValueError, match="outside"):
            ap.TabularMdp.from_successors(3, 2, succ, np.ones((3, 2, 1)), np.zeros((3, 2)), 0.9)

    def test_arrays_immutable(self):
        mdp = ap.generate_random_mdp(0, 5, 2, 2, 1.0, 0.9)
        with pytest.raises(ValueError):
            mdp.successors[0, 0, 0] = 1
        with pytest.raises(ValueError):
            mdp.probs[0, 0, 0] = 0.5

    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "successors"])
    def test_caller_arrays_stay_the_callers(self, dense, mm5):
        # the MDP keeps copies: the caller's arrays stay writable, and writing
        # to them changes neither the MDP nor its sweep
        src = ap.generate_random_mdp(3, 5, 2, 2, 1.0, 0.9)
        given = [a.copy() for a in (src.rewards, src.transitions, src.successors, src.probs)]
        r, p, succ, probs = given
        if dense:
            mdp = ap.TabularMdp(5, 2, p, r, 0.9)
        else:
            mdp = ap.TabularMdp.from_successors(5, 2, succ, probs, r[:], 0.9)
        q = np.random.default_rng(0).uniform(-1.0, 1.0, size=(5, 2))
        tq = ap.apply_bellman(mdp, q, mm5)
        for arr in given:
            assert arr.flags.writeable
            arr[0, 0] = 4
        for name in ("rewards", "successors", "probs"):
            assert np.array_equal(getattr(mdp, name), getattr(src, name))
        assert ap.apply_bellman(mdp, q, mm5).tobytes() == tq.tobytes()

    def test_stack_is_kept_and_read_only(self):
        mdp = ap.generate_random_mdp(0, 5, 2, 2, 1.0, 0.9)
        assert mdp.stack is mdp.stack
        assert len(mdp.stack) == 1
        assert mdp.stack.rewards[0].tobytes() == mdp.rewards.tobytes()
        for stack in (mdp.stack, MdpStack([mdp, mdp])):
            for name in ("successors", "probs", "rewards", "gamma"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(stack, name)[0, 0, 0] = 1

    def test_swept_mdp_is_freed_without_the_cycle_collector(self, mm5):
        # the cached stack holds no reference back to its MDP, so reference
        # counting alone frees a swept MDP
        mdp = ap.generate_random_mdp(0, 5, 2, 2, 1.0, 0.9)
        ap.apply_bellman(mdp, np.zeros((5, 2)), mm5)
        assert "stack" in vars(mdp)
        ref = weakref.ref(mdp)
        gc.disable()
        try:
            del mdp
            assert ref() is None
        finally:
            gc.enable()


class TestGridworld:
    def test_degenerate_grid_is_absorbing(self):
        mdp = ap.generate_gridworld(1, 1, 0.0, 1.0, 0.9)
        assert mdp.n_states == 1
        assert (mdp.transitions[0, :, 0] == 1.0).all()
        assert (mdp.rewards == 0.0).all()

    def test_row_sums_with_slip(self):
        mdp = ap.generate_gridworld(2, 2, 0.1, 1.0, 0.9)
        assert np.abs(mdp.transitions.sum(axis=2) - 1.0).max() <= 1e-12

    def test_adjacent_state_value_is_goal_reward(self, grid3):
        # entering the absorbing goal pays 1.0 once, then nothing: any
        # state one step from the goal has optimal action value exactly 1
        q_star = hand_value_iteration(grid3)
        goal = 8
        v = q_star.max(axis=1)
        assert v[goal] == pytest.approx(0.0, abs=1e-12)
        for adjacent in (5, 7):  # right edge / top edge neighbours
            assert v[adjacent] == pytest.approx(1.0, abs=1e-10)

    def test_toward_goal_policy(self, grid3):
        q_star = hand_value_iteration(grid3)
        policy = ap.greedy_policy(q_star)
        # bottom-left corner: up or right both optimal; tie-break picks up (0)
        assert policy[0] in (0, 1)
        # state left of goal must move right; state below goal must move up
        assert policy[7] == 1
        assert policy[5] == 0

    def test_slip_out_of_range(self):
        with pytest.raises(ValueError):
            ap.generate_gridworld(2, 2, 1.0, 1.0, 0.9)
        with pytest.raises(ValueError):
            ap.generate_gridworld(2, 2, -0.1, 1.0, 0.9)

    @pytest.mark.parametrize("reward", [np.nan, np.inf, -np.inf])
    def test_non_finite_goal_reward(self, reward):
        # inf times the zero entering probability of a far state would be nan
        with pytest.raises(ValueError, match="goal_reward must be finite"):
            ap.generate_gridworld(3, 3, 0.1, reward, 0.9)


class TestValidate:
    def test_valid_mdp_empty_report(self):
        mdp = ap.generate_random_mdp(1, 6, 2, 2, 1.0, 0.9)
        assert ap.validate(mdp) == []

    def test_bad_row_sum_named(self):
        mdp = ap.generate_random_mdp(1, 3, 2, 2, 1.0, 0.9)
        p = mdp.transitions.copy()
        p[1, 0] *= 0.9
        broken = ap.TabularMdp(3, 2, p, mdp.rewards, 0.9)
        report = ap.validate(broken)
        assert any("s=1" in v and "a=0" in v for v in report)

    def test_gamma_out_of_range(self):
        mdp = ap.generate_random_mdp(1, 2, 2, 1, 1.0, 0.9)
        bad = ap.TabularMdp(2, 2, mdp.transitions, mdp.rewards, 1.0)
        report = ap.validate(bad)
        assert any("discount not in [0,1)" in v for v in report)

    def test_never_mutates(self):
        mdp = ap.generate_random_mdp(1, 4, 2, 2, 1.0, 0.9)
        before = mdp.transitions.copy()
        ap.validate(mdp)
        assert np.array_equal(mdp.transitions, before)


class TestPersistence:
    def test_round_trip_exact(self, tmp_path, grid3):
        path = tmp_path / "grid.json"
        ap.save_mdp(grid3, path)
        back = ap.load_mdp(path)
        assert back.n_states == grid3.n_states
        assert back.gamma == grid3.gamma
        assert np.array_equal(back.transitions, grid3.transitions)
        assert np.array_equal(back.rewards, grid3.rewards)

    def test_dense_transitions_are_not_kept(self, tmp_path):
        # the dense S x A x S tensor is S times the successor lists
        mdp = ap.generate_random_mdp(9, 13, 3, 5, 1.7, 0.93)
        path = tmp_path / "m.json"
        ap.save_mdp(mdp, path)
        back = ap.load_mdp(path)
        assert ap.validate(back) == []
        assert "transitions" not in mdp.__dict__
        assert "transitions" not in back.__dict__

    def test_round_trip_random(self, tmp_path):
        mdp = ap.generate_random_mdp(9, 13, 3, 5, 1.7, 0.93)
        path = tmp_path / "m.json"
        ap.save_mdp(mdp, path)
        back = ap.load_mdp(path)
        assert np.array_equal(back.transitions, mdp.transitions)
        assert np.array_equal(back.rewards, mdp.rewards)

    def test_missing_gamma(self, tmp_path, grid3):
        path = tmp_path / "m.json"
        ap.save_mdp(grid3, path)
        data = json.loads(path.read_text())
        del data["gamma"]
        path.write_text(json.dumps(data))
        with pytest.raises(MdpFormatError, match="gamma"):
            ap.load_mdp(path)

    def test_negative_probability(self, tmp_path, grid3):
        path = tmp_path / "m.json"
        ap.save_mdp(grid3, path)
        data = json.loads(path.read_text())
        data["transitions"][0][0][0] = -0.5
        data["transitions"][0][0][1] = 1.5
        path.write_text(json.dumps(data))
        with pytest.raises(MdpFormatError, match="outside"):
            ap.load_mdp(path)

    def test_extra_key_rejected(self, tmp_path, grid3):
        path = tmp_path / "m.json"
        ap.save_mdp(grid3, path)
        data = json.loads(path.read_text())
        data["comment"] = "hello"
        path.write_text(json.dumps(data))
        with pytest.raises(MdpFormatError, match="unexpected"):
            ap.load_mdp(path)

    def test_dimension_mismatch(self, tmp_path, grid3):
        path = tmp_path / "m.json"
        ap.save_mdp(grid3, path)
        data = json.loads(path.read_text())
        data["rewards"] = data["rewards"][:-1]
        path.write_text(json.dumps(data))
        with pytest.raises(MdpFormatError, match="rewards"):
            ap.load_mdp(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{\n  "n_states": 1,\n  broken\n}')
        with pytest.raises(MdpFormatError, match="line 3"):
            ap.load_mdp(path)

    def test_row_sum_violation_on_load(self, tmp_path, grid3):
        path = tmp_path / "m.json"
        ap.save_mdp(grid3, path)
        data = json.loads(path.read_text())
        data["transitions"][0][0][0] = 0.9
        data["transitions"][0][0][1] = 0.0
        for t in range(2, 9):
            data["transitions"][0][0][t] = 0.0
        path.write_text(json.dumps(data))
        with pytest.raises(MdpFormatError, match="sums to"):
            ap.load_mdp(path)

    def test_save_rejects_invalid(self, tmp_path):
        mdp = ap.generate_random_mdp(0, 2, 2, 1, 1.0, 0.9)
        bad = ap.TabularMdp(2, 2, mdp.transitions, mdp.rewards, 1.5)
        with pytest.raises(ValueError, match="invalid MDP"):
            ap.save_mdp(bad, tmp_path / "x.json")

    def test_save_names_the_first_five_violations(self, tmp_path):
        mdp = ap.generate_random_mdp(0, 30, 4, 3, 1.0, 0.9)
        bad = ap.TabularMdp(30, 4, mdp.transitions, np.full((30, 4), np.nan), 0.9)
        violations = ap.validate(bad)
        assert len(violations) == 120
        with pytest.raises(ValueError) as info:
            ap.save_mdp(bad, tmp_path / "x.json")
        assert str(info.value) == (
            "cannot save invalid MDP: 120 violations: "
            + "; ".join(violations[:5]) + "; and 115 more"
        )
        assert not (tmp_path / "x.json").exists()

    def test_arrays_immutable(self, grid3):
        with pytest.raises(ValueError):
            grid3.transitions[0, 0, 0] = 0.5

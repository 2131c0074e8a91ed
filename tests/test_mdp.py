import gc
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st

import anderson_pi as ap
from anderson_pi import mdp as mdp_module
from anderson_pi.mdp import MdpFormatError, MdpStack

from conftest import hand_value_iteration, write_dense_file


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

    def test_reads_the_successor_lists(self, tmp_path, monkeypatch):
        # neither validate nor load_mdp builds a dense P; a bad entry is
        # still named by its successor, in ascending order
        mdp = ap.generate_random_mdp(2, 6, 2, 3, 1.0, 0.9)
        path = tmp_path / "m.json"
        ap.save_mdp(mdp, path)

        def refuse(_):
            raise AssertionError("dense P built")

        monkeypatch.setattr(mdp_module, "_dense", refuse)
        assert ap.validate(mdp) == []
        back = ap.load_mdp(path)
        assert back.successors.tobytes() == mdp.successors.tobytes()
        assert back.probs.tobytes() == mdp.probs.tobytes()
        probs = mdp.probs.copy()
        probs[4, 1] = [np.nan, -0.5, 1.5]
        bad = ap.TabularMdp.from_successors(6, 2, mdp.successors, probs, mdp.rewards, 0.9)
        t = mdp.successors[4, 1].tolist()
        assert ap.validate(bad) == [
            f"transition (s=4, a=1, s'={t[0]}) = {np.float64(np.nan)!r} outside [0,1]",
            f"transition (s=4, a=1, s'={t[1]}) = {np.float64(-0.5)!r} outside [0,1]",
            f"transition (s=4, a=1, s'={t[2]}) = {np.float64(1.5)!r} outside [0,1]",
            f"transition row (s=4, a=1) sums to {np.float64(np.nan)!r}, expected 1 within 1e-12",
        ]

    def test_unordered_successors_named(self):
        # a row's nonzero entries must list their successors strictly
        # ascending; zero-probability entries are skipped
        succ = [[[0, 2, 1]], [[1, 0, 2]], [[2, 2, 0]]]
        probs = [[[0.25, 0.25, 0.5]], [[0.5, 0.0, 0.5]], [[0.5, 0.5, 0.0]]]
        mdp = ap.TabularMdp.from_successors(3, 1, succ, probs, np.zeros((3, 1)), 0.9)
        assert ap.validate(mdp) == [
            "successors of row (s=0, a=0) not ascending: s'=1 after 2",
            "successors of row (s=2, a=0) not ascending: s'=2 after 2",
        ]


def saved_row(mdp, form, path):
    """``mdp`` saved at ``path`` in ``form``, read back as a dict, and the dict's row (0, 0)."""
    if form == "lists":
        ap.save_mdp(mdp, path)
    else:
        write_dense_file(mdp, path)
    data = json.loads(path.read_text())
    return data, data["probs" if form == "lists" else "transitions"][0][0]


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

    @pytest.mark.parametrize("form", ["lists", "dense"])
    def test_negative_probability(self, tmp_path, form):
        # row (0, 0) of the slippery grid lists s' = 0, 1, 3 in both forms
        path = tmp_path / "m.json"
        data, row = saved_row(ap.generate_gridworld(3, 3, 0.1, 1.0, 0.9), form, path)
        row[0], row[1] = -0.5, 1.5
        path.write_text(json.dumps(data))
        with pytest.raises(MdpFormatError) as info:
            ap.load_mdp(path)
        assert str(info.value).startswith(
            f"transition (s=0, a=0, s'=0) = {np.float64(-0.5)!r} outside [0,1]; "
            f"transition (s=0, a=0, s'=1) = {np.float64(1.5)!r} outside [0,1]; "
            "transition row (s=0, a=0) sums to "
        )

    @pytest.mark.parametrize("field", ["rewards", "successors", "probs", "transitions"])
    def test_string_entry_is_refused(self, tmp_path, field):
        # JSON strings used to parse as numbers: "1" loaded as 1.0
        path = tmp_path / "m.json"
        grid = ap.generate_gridworld(3, 3, 0.1, 1.0, 0.9)
        if field == "transitions":
            write_dense_file(grid, path)
        else:
            ap.save_mdp(grid, path)
        data = json.loads(path.read_text())
        row = data[field][0] if field == "rewards" else data[field][0][0]
        row[0] = str(row[0])
        path.write_text(json.dumps(data))
        message = f"field '{field}': not a numeric array (holds a string)"
        with pytest.raises(MdpFormatError, match=re.escape(message)):
            ap.load_mdp(path)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda d: d["successors"][0][0].__setitem__(0, 1.0), "successors must be integers"),
            (lambda d: d["successors"][0][0].__setitem__(0, 9), "none outside [0, 9)"),
            (lambda d: d["probs"].pop(), "successors (9, 4, 4) and probs (8, 4, 4) must both"),
            (lambda d: d.update(successors=[[[]] * 4] * 9), "successors (9, 4, 0) and probs"),
        ],
        ids=["float-successor", "successor-out-of-range", "probs-shape", "empty-lists"],
    )
    def test_malformed_lists_are_named(self, tmp_path, edit, message):
        path = tmp_path / "m.json"
        ap.save_mdp(ap.generate_gridworld(3, 3, 0.1, 1.0, 0.9), path)
        data = json.loads(path.read_text())
        edit(data)
        path.write_text(json.dumps(data))
        with pytest.raises(MdpFormatError, match=re.escape(message)):
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

    @pytest.mark.parametrize("form", ["lists", "dense"])
    def test_row_sum_violation_on_load(self, tmp_path, grid3, form):
        path = tmp_path / "m.json"
        data, row = saved_row(grid3, form, path)
        row[:] = [0.9] + [0.0] * (len(row) - 1)
        path.write_text(json.dumps(data))
        with pytest.raises(MdpFormatError) as info:
            ap.load_mdp(path)
        assert str(info.value) == (
            f"transition row (s=0, a=0) sums to {np.float64(0.9)!r}, expected 1 within 1e-12"
        )

    def test_file_is_one_line_of_the_stored_lists(self, tmp_path):
        # json writes each real as its repr, so -0.0 rewards come back signed
        grid = ap.generate_gridworld(3, 2, 0.1, -1.0, 0.9)
        assert np.signbit(grid.rewards).any()
        path = tmp_path / "m.json"
        ap.save_mdp(grid, path)
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")
        assert list(json.loads(text)) == [
            "n_states", "n_actions", "gamma", "rewards", "successors", "probs"
        ]
        back = ap.load_mdp(path)
        for name in ("successors", "probs", "rewards"):
            assert getattr(back, name).tobytes() == getattr(grid, name).tobytes()

    def test_grid_round_trip_builds_no_dense_p(self, tmp_path):
        # the 1600-state grid's dense P alone would take 1600 * 4 * 1600 * 8 = 82 MB
        tracemalloc.start()
        try:
            grid = ap.generate_gridworld(40, 40, 0.1, 1.0, 0.95)
            ap.save_mdp(grid, tmp_path / "g.json")
            back = ap.load_mdp(tmp_path / "g.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.successors.tobytes() == grid.successors.tobytes()
        assert peak < 16 * 2**20

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

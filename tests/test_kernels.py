"""The Bellman sweep over padded successor lists, against dense references."""

import hashlib
import tracemalloc

import numpy as np
import pytest

import anderson_pi as ap
from anderson_pi.operators import OperatorKind, OperatorSpec

OPS = [
    OperatorSpec(OperatorKind.HARD_MAX),
    OperatorSpec(OperatorKind.MELLOW_MAX, 5.0),
    OperatorSpec(OperatorKind.BOLTZMANN_SOFTMAX, 5.0),
]

# sha256 of generate_random_mdp(seed, 30, 4, 3).transitions / .rewards as
# produced by the dense generator this storage replaced
DENSE_GENERATOR_SHA256 = {
    0: (
        "e3c60ce9ec98ab3db07e172f2ef4aa1931614715da60db6df8de64e2cdf5dfbf",
        "86edc5e82516592a341396584afd3476f6db670063c217399a813a1727fd8de3",
    ),
    1: (
        "066eb6ba3766f0c8c77174ff94e490b8fe6589e8474e2b468bafac7b7e91cd51",
        "54404373ee2847426ac916ff5021b406d672fae44d1b9ed6cf5a7b3e3db38932",
    ),
    2: (
        "28a029bd38845c7a46ce33d3e4fb826f9b4721bd9bd6815572f56109c3022fa4",
        "12e2152416e1c478dde49bfaf9fb3688426334465179b05c7a1cdaba61228ebf",
    ),
}


def reference_agg(q, op):
    """Row aggregates written out here, independently of the package."""
    if op.kind is OperatorKind.HARD_MAX:
        return q.max(axis=1)
    shift = q.max(axis=1)
    w = np.exp(op.omega * (q - shift[:, None]))
    if op.kind is OperatorKind.MELLOW_MAX:
        return shift + np.log(np.mean(w, axis=1)) / op.omega
    return (q * w).sum(axis=1) / w.sum(axis=1)


def dense_sweep(mdp, q, op):
    v = reference_agg(q, op)
    return mdp.rewards + mdp.gamma * np.tensordot(mdp.transitions, v, axes=([2], [0]))


def hand_built_mdp():
    """4 states x 2 actions mixing 1- and 3-successor rows; state 3 absorbs."""
    p = np.zeros((4, 2, 4))
    p[0, 0, 0] = 1.0
    p[0, 1, [1, 2, 3]] = (0.2, 0.3, 0.5)
    p[1, 0, 3] = 1.0
    p[1, 1, [0, 2, 3]] = (0.5, 0.25, 0.25)
    p[2, 0, 1] = 1.0
    p[2, 1, [0, 1, 3]] = (0.1, 0.6, 0.3)
    p[3, :, 3] = 1.0
    r = np.arange(8, dtype=float).reshape(4, 2) / 8.0 - 0.4
    return ap.TabularMdp(4, 2, p, r, 0.9)


def round_tripped(tmp_path):
    path = tmp_path / "m.json"
    ap.save_mdp(ap.generate_random_mdp(9, 13, 3, 5, 1.7, 0.93), path)
    return ap.load_mdp(path)


class TestSweepMatchesDense:
    def check(self, mdp, draws=5):
        rng = np.random.default_rng(0)
        shape = (mdp.n_states, mdp.n_actions)
        for op in OPS:
            for _ in range(draws):
                q = rng.uniform(-5.0, 5.0, size=shape)
                tq = ap.apply_bellman(mdp, q, op)
                assert tq.shape == shape
                assert np.abs(tq - dense_sweep(mdp, q, op)).max() <= 1e-14, op.label()

    @pytest.mark.parametrize("seed, size", [(0, (30, 4, 3)), (1, (17, 3, 5)), (2, (6, 2, 1))])
    def test_random(self, seed, size):
        self.check(ap.generate_random_mdp(seed, *size, 1.0, 0.95))

    def test_gridworld_with_merged_slips_and_absorbing_goal(self):
        grid = ap.generate_gridworld(4, 3, 0.2, 1.0, 0.9)
        # a corner's off-grid slips merge into its own self-loop, and the
        # goal is a 1-successor row: both exercise the padding
        assert grid.successors.shape[2] == 4
        assert (grid.probs[grid.n_states - 1, :, 1:] == 0.0).all()
        self.check(grid)

    def test_after_json_round_trip(self, tmp_path):
        self.check(round_tripped(tmp_path))

    def test_hand_built_short_rows(self):
        self.check(hand_built_mdp())


class TestHandBuiltLists:
    def test_padding_and_order(self):
        mdp = hand_built_mdp()
        assert mdp.successors.shape == (4, 2, 3)
        assert mdp.successors[0, 0].tolist() == [0, 0, 0]
        assert mdp.probs[0, 0].tolist() == [1.0, 0.0, 0.0]
        assert mdp.successors[1, 0].tolist() == [3, 0, 0]
        assert mdp.successors[1, 1].tolist() == [0, 2, 3]
        assert mdp.probs[1, 1].tolist() == [0.5, 0.25, 0.25]

    def test_from_successors_matches_dense_constructor(self):
        mdp = hand_built_mdp()
        again = ap.TabularMdp.from_successors(
            4, 2, mdp.successors, mdp.probs, mdp.rewards, mdp.gamma
        )
        assert np.array_equal(again.transitions, mdp.transitions)
        q = np.random.default_rng(3).uniform(-1.0, 1.0, size=(4, 2))
        for op in OPS:
            assert np.array_equal(ap.apply_bellman(again, q, op), ap.apply_bellman(mdp, q, op))


class TestGeneratorStorage:
    @pytest.mark.parametrize("seed", sorted(DENSE_GENERATOR_SHA256))
    def test_bitwise_equal_to_dense_generator(self, seed):
        mdp = ap.generate_random_mdp(seed, 30, 4, 3)
        p_sha, r_sha = DENSE_GENERATOR_SHA256[seed]
        assert hashlib.sha256(mdp.transitions.tobytes()).hexdigest() == p_sha
        assert hashlib.sha256(mdp.rewards.tobytes()).hexdigest() == r_sha

    def test_lists_sorted_without_padding(self):
        mdp = ap.generate_random_mdp(4, 40, 3, 3)
        assert mdp.successors.shape == (40, 3, 3)
        assert (np.diff(mdp.successors, axis=2) > 0).all()
        assert (mdp.probs > 0.0).all()

    def test_memory_stays_sparse(self):
        # a dense P at 3000 x 4 would take 3000 * 4 * 3000 * 8 B = 288 MB
        tracemalloc.start()
        try:
            mdp = ap.generate_random_mdp(0, 3000, 4, 3)
            q = np.zeros((3000, 4))
            for _ in range(5):
                q = ap.apply_bellman(mdp, q, OPS[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        assert "transitions" not in vars(mdp)

    def test_solver_and_oracle_never_build_dense(self):
        mdp = ap.generate_random_mdp(5, 20, 3, 3, 1.0, 0.9)
        cfg = ap.SolverConfig(ap.Scheme.STABLE_AA, OPS[1], m=3, eta=0.1)
        assert ap.run(mdp, cfg).converged
        ap.fixed_point_oracle(mdp, OPS[1])
        assert "transitions" not in vars(mdp)


class TestBackendParity:
    # the numpy sweep is now the only path; the large-omega overflow check stays
    def test_numpy_path_extreme_omega_finite(self):
        mdp = ap.generate_random_mdp(1, 6, 3, 2, 1.0, 0.9)
        q = np.array([[1.0, -1.0, 0.5]] * 6)
        out = ap.apply_bellman(mdp, q, OperatorSpec(OperatorKind.MELLOW_MAX, 1e6))
        assert np.isfinite(out).all()

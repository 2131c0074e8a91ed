import numpy as np
import pytest
from hypothesis import given, strategies as st

from anderson_pi.linalg import (
    _solve_spd_impl,
    frobenius_norm,
    jitter_ladder,
    spd_solve,
    spectral_norm,
)


def solve_accepted(a, b):
    """The one-system solve, which must be accepted."""
    x, _, accepted = _solve_spd_impl(a, b)
    assert accepted
    return x


class TestSolveSpd:
    def test_identity(self):
        x = solve_accepted(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-12)

    def test_diagonal(self):
        x = solve_accepted(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-12)

    def test_rank_one_jittered(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 1.0])
        x, jitter, accepted = _solve_spd_impl(a, b)
        assert accepted and jitter > 0.0
        assert np.linalg.norm(a @ x - b) <= 1e-6

    def test_inconsistent_singular_not_accepted(self):
        # no level of the ladder solves the original system: the flag is
        # down and the jitter is the last level tried
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([0.0, 1.0])
        _, jitter, accepted = _solve_spd_impl(a, b)
        assert not accepted
        assert jitter == jitter_ladder(a)[-1]

    def test_stack_settles_each_system(self):
        # a rejected system in a stack leaves the others' solutions as they
        # are alone
        systems = [
            (np.diag([2.0, 4.0]), np.array([2.0, 8.0])),
            (np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([0.0, 1.0])),
            (np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0])),
        ]
        x, jitter, accepted = spd_solve(
            np.stack([a for a, _ in systems]), np.stack([b for _, b in systems])
        )
        assert accepted.tolist() == [True, False, True]
        for r, (a, b) in enumerate(systems):
            xr, jr, ar = _solve_spd_impl(a, b)
            assert (jitter[r], accepted[r]) == (jr, ar)
            if ar:
                assert x[r].tobytes() == xr.tobytes()

    @given(
        n=st.integers(1, 20),
        seed=st.integers(0, 10**6),
    )
    def test_residual_contract_random_spd(self, n, seed):
        rng = np.random.default_rng(seed)
        b_mat = rng.standard_normal((n, n))
        a = b_mat.T @ b_mat + np.eye(n)
        b = rng.standard_normal(n)
        x = solve_accepted(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-8 * (1 + np.linalg.norm(b))


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-10)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((4, 4))) == 0.0

    def test_nilpotent_shift(self):
        assert spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(
            2.0, rel=1e-8
        )

    def test_empty_column_matrix(self):
        assert spectral_norm(np.zeros((5, 0))) == 0.0

    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        seed=st.integers(0, 10**6),
    )
    def test_bounded_by_frobenius(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((rows, cols))
        s = spectral_norm(m)
        f = frobenius_norm(m)
        assert s <= f + 1e-8
        assert s >= f / np.sqrt(min(rows, cols)) - 1e-8

    def test_matches_numpy_svd(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = rng.standard_normal((7, 4))
            assert spectral_norm(m) == pytest.approx(
                np.linalg.svd(m, compute_uv=False)[0], rel=1e-8
            )

    def test_exact_on_clustered_spectrum(self):
        # power iteration stalls when the two top singular values nearly
        # coincide and stops below the norm; the bound checks need the norm
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        s = np.array([1.0, 1.0 - 1e-6, 0.5, 0.2, 0.1, 0.0])
        m = (u * s) @ v.T
        exact = np.linalg.svd(m, compute_uv=False)[0]
        assert spectral_norm(m) == pytest.approx(exact, rel=1e-14)


class TestFrobeniusNorm:
    def test_identity(self):
        assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 2))) == 0.0

    def test_three_four_five(self):
        assert frobenius_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0, abs=1e-14)

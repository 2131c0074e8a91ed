import numpy as np
import pytest
from hypothesis import given, strategies as st

from anderson_pi.linalg import (
    SingularSystemError,
    frobenius_norm,
    solve_spd,
    spectral_norm,
)


class TestSolveSpd:
    def test_identity(self):
        x = solve_spd(np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(x, [1.0, 2.0, 3.0], atol=1e-12)

    def test_diagonal(self):
        x = solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-12)

    def test_rank_one_jittered(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 1.0])
        x = solve_spd(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-6

    def test_inconsistent_singular_raises(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([0.0, 1.0])
        with pytest.raises(SingularSystemError) as exc:
            solve_spd(a, b)
        assert exc.value.jitter > 0.0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            solve_spd(np.array([[1.0, 0.5], [0.0, 1.0]]), np.array([1.0, 1.0]))

    @given(
        n=st.integers(1, 20),
        seed=st.integers(0, 10**6),
    )
    def test_residual_contract_random_spd(self, n, seed):
        rng = np.random.default_rng(seed)
        b_mat = rng.standard_normal((n, n))
        a = b_mat.T @ b_mat + np.eye(n)
        b = rng.standard_normal(n)
        x = solve_spd(a, b)
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

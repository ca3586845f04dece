import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_unitary
from hookup import (
    DimensionMismatch,
    NonHermitian,
    hermitian_eig,
    kron,
    kron_all,
    partial_trace,
    qubit_unitary,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestHermitianEig:
    def test_identity(self):
        w, v = hermitian_eig(np.eye(2))
        assert np.allclose(w, [1, 1])

    def test_diagonal_already_sorted(self):
        w, v = hermitian_eig(np.diag([3.0, 1.0]))
        assert np.allclose(w, [3, 1])
        assert np.allclose(np.abs(v), np.eye(2))

    def test_pauli_x(self):
        # Characteristic polynomial lambda^2 - 1 by hand.
        w, v = hermitian_eig(PAULI_X)
        assert np.allclose(w, [1, -1], atol=1e-12)
        recon = v @ np.diag(w) @ v.conj().T
        assert np.max(np.abs(recon - PAULI_X)) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitian):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_finite(self):
        # A NaN compares False with any bound; the gate must still refuse it.
        for i, j in ((0, 0), (0, 1)):
            m = np.eye(2, dtype=complex)
            m[i, j] = np.nan
            with pytest.raises(NonHermitian):
                hermitian_eig(m)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            hermitian_eig(np.zeros((2, 3)))

    def test_reconstruction_1000_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            dim = int(rng.integers(2, 17))
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = (g + g.conj().T) / 2
            w, v = hermitian_eig(m)
            assert np.all(np.diff(w) <= 1e-12)
            assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - m)) <= 1e-9
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) <= 1e-9


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_projector_product(self):
        out = kron(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert np.array_equal(out, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_block_placement(self):
        # |0><0| (x) X puts the x block in the upper-left 2x2 corner.
        out = kron(np.diag([1.0, 0.0]), PAULI_X)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 1] = expected[1, 0] = 1
        assert np.array_equal(out, expected)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_associativity(self, seed):
        rng = np.random.default_rng(seed)
        mats = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3)]
        left = kron(kron(mats[0], mats[1]), mats[2])
        right = kron(mats[0], kron(mats[1], mats[2]))
        assert np.max(np.abs(left - right)) <= 1e-12
        assert np.max(np.abs(kron_all(mats) - left)) <= 1e-12


class TestPartialTrace:
    def test_bell_marginals(self):
        bell = np.zeros((4, 4), dtype=complex)
        for i in (0, 3):
            for j in (0, 3):
                bell[i, j] = 0.5
        for keep in (0, 1):
            assert np.allclose(partial_trace(bell, (2, 2), keep), np.eye(2) / 2)

    def test_product_state_factors(self):
        rng = np.random.default_rng(3)
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        assert np.allclose(partial_trace(kron(a, b), (2, 3), 0), a)
        assert np.allclose(partial_trace(kron(a, b), (2, 3), 1), b)

    def test_bell_mixture_marginal(self):
        # Direct 4x4 index sum: both marginals of the worked example are I/2.
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[1, 1] = m[2, 2] = m[3, 3] = 0.25
        m[0, 3] = m[3, 0] = 0.25
        assert np.allclose(partial_trace(m, (2, 2), 0), np.eye(2) / 2)

    def test_dimension_errors(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4), (2, 3), 0)
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4), (2, 2), 2)
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(4), (2**62 + 1, 4), 0)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_trace_preserved(self, seed):
        rng = np.random.default_rng(seed)
        dims = rng.choice([2, 3], size=rng.integers(2, 4))
        m = random_density(rng, int(np.prod(dims)))
        for keep in range(len(dims)):
            reduced = partial_trace(m, dims, keep)
            assert abs(np.trace(reduced) - np.trace(m)) <= 1e-12


class TestConjugate:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_eigenvalues_preserved(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        m = random_density(rng, dim)
        u = random_unitary(rng, dim)
        before = hermitian_eig(m).eigenvalues
        after = hermitian_eig(u @ m @ u.conj().T).eigenvalues
        assert np.max(np.abs(before - after)) <= 1e-9


class TestQubitUnitary:
    def test_theta_zero_is_identity(self):
        assert np.allclose(qubit_unitary(0.0, 1.3), np.eye(2))

    @given(
        st.floats(0, np.pi / 2, allow_nan=False),
        st.floats(0, 2 * np.pi, exclude_max=True, allow_nan=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_always_unitary(self, theta, phi):
        u = qubit_unitary(theta, phi)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-12

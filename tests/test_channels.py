import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_column_axis, random_product_basis, random_state
from hookup import (
    BadParams,
    DensityMatrix,
    DimensionMismatch,
    NotAllQubits,
    NotUnitary,
    ProductBasis,
    QubitBasisAngles,
    basis_from_angles,
    commutation_check,
    computational_basis,
    dephase,
    dephased_probs,
    full_report,
    marginal_product,
    preset,
    qubit_unitary,
    validate,
)
from hookup.channels import axis_angles


class TestBasisFromAngles:
    def test_zero_angles_is_computational(self):
        basis = basis_from_angles([(0.0, 0.0), (0.0, 0.0)])
        assert basis.is_identity()

    def test_x_basis_factor(self):
        basis = basis_from_angles([(math.pi / 4, 0.0)])
        u = basis.factors[0]
        plus = np.array([1, 1]) / math.sqrt(2)
        minus = np.array([1, -1]) / math.sqrt(2)
        projectors = [np.outer(c, c.conj()) for c in u.T]
        expected = [np.outer(v, v) for v in (plus, minus)]
        # Unordered set comparison.
        err = min(
            max(np.max(np.abs(projectors[i] - expected[j])) for i, j in pairing)
            for pairing in ([(0, 0), (1, 1)], [(0, 1), (1, 0)])
        )
        assert err < 1e-12

    def test_factors_unitary(self):
        basis = basis_from_angles([(0.3, 1.2), (1.1, 4.0), (0.7, 2.2)])
        for f in basis.factors:
            assert np.max(np.abs(f @ f.conj().T - np.eye(2))) <= 1e-12

    def test_equivalent_angles_give_same_basis(self):
        # (theta, phi) and (pi - theta, phi + pi) are equivalent angles: one projector pair.
        folded = basis_from_angles([(math.pi / 2 + 0.3, 1.0)])
        direct = basis_from_angles([(math.pi / 2 - 0.3, 1.0 + math.pi)])
        state = preset("paper-example").marginal(0)
        probs_a = dephased_probs(state, ProductBasis((folded.factors[0],)))
        probs_b = dephased_probs(state, ProductBasis((direct.factors[0],)))
        assert np.allclose(sorted(probs_a), sorted(probs_b))

    def test_caller_angles_kept(self):
        assert astuple(QubitBasisAngles(2.0, -1.0)) == (2.0, -1.0)
        state = preset("paper-example")
        given = full_report(state, basis_from_angles([(2.0, -1.0), (3.5, 7.5)])).to_dict()
        # The same bases in theta in [0, pi/2], phi in [0, 2*pi).
        folded = [(math.pi - 2.0, math.pi - 1.0), (3.5 - math.pi, 7.5 - 2 * math.pi)]
        want = full_report(state, basis_from_angles(folded)).to_dict()
        assert given["reference_basis"] == [{"theta": 2.0, "phi": -1.0}, {"theta": 3.5, "phi": 7.5}]
        for name, value in want["quantifiers"].items():
            assert abs(given["quantifiers"][name] - value) <= 1e-12, name

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_rejected(self, theta):
        for pair in ((theta, 0.0), (0.0, theta)):
            with pytest.raises(BadParams):
                QubitBasisAngles(*pair)

    def test_qudit_dims_rejected(self):
        with pytest.raises(NotAllQubits):
            basis_from_angles([(0.1, 0.0), (0.2, 0.0)], dims=(2, 3))

    def test_caller_array_stays_writable(self):
        u = np.eye(2, dtype=complex)
        basis = ProductBasis((u, u))
        u[0, 0] = -1
        assert basis.is_identity() and basis.factors[0][0, 0] == 1
        with pytest.raises(ValueError):
            basis.factors[0][0, 0] = 0

    def test_non_unitary_factor_rejected(self):
        with pytest.raises(NotUnitary):
            ProductBasis((np.array([[1, 1], [0, 1]], dtype=complex),))
        # A NaN deviation compares False against any tolerance.
        with pytest.raises(NotUnitary):
            ProductBasis((np.array([[np.nan, 0], [0, 1]], dtype=complex),))


class TestCanonicalAngles:
    @given(
        st.floats(0, math.pi / 2, allow_nan=False),
        st.floats(0, 2 * math.pi, exclude_max=True, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_gives_same_projectors(self, theta, phi):
        u = qubit_unitary(theta, phi)
        folded = axis_angles(first_column_axis(u))
        v = qubit_unitary(folded.theta, folded.phi)
        p_u = sorted(
            np.round([np.outer(c, c.conj()) for c in u.T], 9).tolist(),
            key=str,
        )
        p_v = sorted(
            np.round([np.outer(c, c.conj()) for c in v.T], 9).tolist(),
            key=str,
        )
        assert np.allclose(np.array(p_u, dtype=complex), np.array(p_v, dtype=complex), atol=1e-8)

    def test_identity_on_fundamental_domain(self):
        folded = axis_angles(first_column_axis(qubit_unitary(0.6, 2.5)))
        assert abs(folded.theta - 0.6) < 1e-12
        assert abs(folded.phi - 2.5) < 1e-12

    def test_theta_capped_at_quarter_pi(self):
        folded = axis_angles(first_column_axis(qubit_unitary(1.2, 0.7)))
        assert 0 <= folded.theta <= math.pi / 4 + 1e-12

    def test_phi_below_two_pi(self):
        # A y-component a few ulps below 0 gives an atan2 that rounds to 2*pi under %.
        assert axis_angles(np.array([-0.6, -1e-17, 0.8])).phi == 0.0


class TestDephase:
    def test_diagonal_fixed_point(self):
        state = preset("classical-correlated")
        assert np.array_equal(dephase(state).matrix, state.matrix)

    def test_bell_comp_basis(self):
        out = dephase(preset("bell"))
        assert np.allclose(out.matrix, np.diag([0.5, 0, 0, 0.5]))

    def test_bell_mixture_gives_maximally_mixed(self):
        # Diagonal of the worked example is (1/4, 1/4, 1/4, 1/4) by hand.
        out = dephase(preset("paper-example"))
        assert np.allclose(out.matrix, np.eye(4) / 4)

    def test_basis_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dephase(preset("bell"), basis_from_angles([(0.1, 0.0)]))

    @pytest.mark.parametrize("fn", [dephase, dephased_probs])
    def test_computational_basis_dim_mismatch(self, fn):
        # Checked too, though the computational basis needs no rotation.
        with pytest.raises(DimensionMismatch):
            fn(preset("bell"), computational_basis((4,)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_and_valid(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, (2, 2))
        basis = random_product_basis(rng, (2, 2))
        once = dephase(state, basis)
        twice = dephase(once, basis)
        assert np.max(np.abs(once.matrix - twice.matrix)) <= 1e-12
        assert abs(np.trace(once.matrix) - 1) <= 1e-12
        assert validate(once).ok
        rotated = basis.matrix().conj().T @ once.matrix @ basis.matrix()
        off = rotated - np.diag(np.diag(rotated))
        assert np.max(np.abs(off)) <= 1e-12


class TestMarginalProduct:
    def test_product_state_fixed_point(self):
        rng = np.random.default_rng(1)
        a = random_state(rng, (2,)).matrix
        b = random_state(rng, (3,)).matrix
        state = DensityMatrix((2, 3), np.kron(a, b))
        assert np.max(np.abs(marginal_product(state).matrix - state.matrix)) <= 1e-12

    def test_bell_gives_maximally_mixed(self):
        assert np.allclose(marginal_product(preset("bell")).matrix, np.eye(4) / 4)

    def test_mdms_construction(self):
        eps = 0.62
        state = preset("mdms", epsilon=eps)
        expected = np.kron(np.diag([eps / 2, 1 - eps / 2]), np.diag([1 - eps / 2, eps / 2]))
        assert np.allclose(marginal_product(state).matrix, expected)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_trace_preserving(self, seed):
        rng = np.random.default_rng(seed)
        dims = (2, 3) if seed % 2 else (2, 2)
        state = random_state(rng, dims)
        once = marginal_product(state)
        assert np.max(np.abs(marginal_product(once).matrix - once.matrix)) <= 1e-12
        assert abs(np.trace(once.matrix) - 1) <= 1e-12
        assert validate(once).ok


class TestCommutation:
    def test_product_diagonal_exactly_zero(self):
        state = DensityMatrix((2, 2), np.diag([0.28, 0.42, 0.12, 0.18]))
        assert commutation_check(state) == 0.0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_two_qubit_random(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, (2, 2))
        basis = random_product_basis(rng, (2, 2))
        assert commutation_check(state, basis) <= 1e-10

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_qubit_qutrit_random(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, (2, 3))
        basis = random_product_basis(rng, (2, 3))
        assert commutation_check(state, basis) <= 1e-10
        assert commutation_check(state, computational_basis((2, 3))) <= 1e-10

    def test_mixed_dims_1000_random(self):
        rng = np.random.default_rng(99)
        choices = [(2, 2), (2, 3), (3, 2), (2, 2, 2), (4, 2)]
        worst = 0.0
        for i in range(1000):
            dims = choices[i % len(choices)]
            state = random_state(rng, dims)
            basis = random_product_basis(rng, dims)
            worst = max(worst, commutation_check(state, basis))
        assert worst <= 1e-10

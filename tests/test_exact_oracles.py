"""The product-basis search against closed-form optima.

Each oracle is plain numpy: the exact discord and classical correlations of
Bell-diagonal states (Modi et al., PRL 104, 080501, 2010), D = J = S(rho_A)
and L = 0 for pure two-qubit states, near-product ones included, D = 1 for
GHZ(4), and D = 0 for classical states under local unitaries, near the
computational basis included.  The ``mdms`` family is checked against a
symmetry-reduced grid oracle over three angles with a local polish.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import (
    PAULIS,
    _bloch_entropy,
    bloch_axes,
    bloch_form,
    random_pure_state,
    random_unitary,
    recorded_searches,
    second_order_certificate,
)
from hookup import DensityMatrix, closest_classical, preset, qubit_unitary

# Bell states Phi+, Phi-, Psi+, Psi- as correlation vectors (c_x, c_y, c_z) of
# (I + sum_i c_i sigma_i x sigma_i) / 4.
BELL_CORRELATIONS = np.array([[1, -1, 1], [-1, 1, 1], [1, 1, -1], [-1, -1, -1]], dtype=float)


def shannon(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def binary_entropy(q: float) -> float:
    return shannon([q, 1 - q])


@pytest.mark.parametrize("seed", range(6))
def test_bell_diagonal_discord_and_classical_correlations(seed):
    rng = np.random.default_rng(4100 + seed)
    weights = rng.dirichlet(np.ones(4))
    c = weights @ BELL_CORRELATIONS
    matrix = (np.eye(4) + sum(ci * np.kron(s, s) for ci, s in zip(c, PAULIS))) / 4
    h = binary_entropy((1 + np.max(np.abs(c))) / 2)

    cc = closest_classical(DensityMatrix((2, 2), matrix))
    assert abs(cc.discord - (1 + h - shannon(weights))) <= 1e-6
    assert abs(cc.classical_correlations - (1 - h)) <= 1e-6


@pytest.mark.parametrize("seed", range(24))
def test_pure_state_discord_is_the_entanglement_entropy(seed):
    # The closest classical state of a pure state is its dephasing in the
    # Schmidt basis, so D = J = S(rho_A) and L = 0.  Every third state lies
    # within 1e-3 of a product state, where Schmidt weights approach 0.
    rng = np.random.default_rng(4300 + seed)
    if seed % 3:
        state = random_pure_state(rng, (2, 2))
    else:
        a, b = (random_unitary(rng, 2)[:, 0] for _ in range(2))
        kick = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = np.kron(a, b) + 10 ** rng.uniform(-6, -3.5) * kick / np.linalg.norm(kick)
        v /= np.linalg.norm(v)
        state = DensityMatrix((2, 2), np.outer(v, v.conj()))
    s_a = shannon(np.linalg.eigvalsh(np.einsum("ajbj->ab", state.matrix.reshape(2, 2, 2, 2))))

    cc = closest_classical(state)
    assert abs(cc.discord - s_a) <= 1e-8
    assert abs(cc.classical_correlations - s_a) <= 1e-8
    assert abs(cc.excess) <= 1e-8


def test_ghz4_discord_is_one():
    assert abs(closest_classical(preset("ghz", n=4)).discord - 1.0) <= 1e-6


@pytest.mark.parametrize("n_qubits", [3, 4])
def test_locally_rotated_classical_state_has_no_discord(n_qubits):
    rng = np.random.default_rng(4200 + n_qubits)
    u = random_unitary(rng, 2)
    for _ in range(n_qubits - 1):
        u = np.kron(u, random_unitary(rng, 2))
    classical = np.diag(rng.dirichlet(np.ones(2**n_qubits)))
    state = DensityMatrix((2,) * n_qubits, u @ classical @ u.conj().T)
    assert closest_classical(state).discord <= 1e-6


@pytest.mark.parametrize("n_qubits, seed", [(2, 0), (2, 2), (2, 3), (3, 0), (3, 1), (3, 2)])
def test_classical_state_near_the_pole_has_no_discord(n_qubits, seed):
    # Qubit 0's optimal axis sits 0.04 rad from the computational one, where a
    # (theta, phi) chart is singular: its phi direction goes flat and a
    # refinement there stops short of the minimum.
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(2**n_qubits))
    u = qubit_unitary(0.02, np.pi / 2)
    for _ in range(n_qubits - 1):
        u = np.kron(u, random_unitary(rng, 2))
    state = DensityMatrix((2,) * n_qubits, u @ np.diag(weights) @ u.conj().T)
    assert closest_classical(state).discord <= 1e-6


def reduced_min_dephased_entropy(matrix: np.ndarray) -> float:
    """Minimum dephased entropy of a two-qubit state invariant under Rz(phi) x Rz(-phi).

    The invariance fixes qubit A's azimuth at 0, leaving theta_A, theta_B and
    phi_B: a 129 x (129 x 128) grid in the Bloch form, then one Nelder-Mead
    polish from its minimum.
    """
    a, b, corr = bloch_form(matrix)
    thetas = np.linspace(0, np.pi / 2, 129)
    tt, pp = np.meshgrid(thetas, np.linspace(0, 2 * np.pi, 128, endpoint=False), indexing="ij")
    grid_b = np.stack([tt.ravel(), pp.ravel()], axis=-1)
    axes_b = bloch_axes(grid_b[:, 0], grid_b[:, 1])
    values = np.array(
        [_bloch_entropy(n @ a, axes_b @ b, n @ corr @ axes_b.T) for n in bloch_axes(thetas, 0.0)]
    )
    i, j = np.unravel_index(values.argmin(), values.shape)

    def objective(x):
        n, m = bloch_axes(x[0], 0.0), bloch_axes(x[1], x[2])
        return float(_bloch_entropy(n @ a, m @ b, n @ corr @ m))

    x0 = [thetas[i], *grid_b[j]]
    result = minimize(objective, x0, method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-15})
    return min(float(values[i, j]), float(result.fun))


# Just below eps'' the x basis is a saddle: a joint turn of both polar angles
# lies up to 6.2e-6 lower, which only a second-order step finds from there.
MDMS_EPSILONS = [
    0.3, 0.6, 0.66, 0.6667, 0.67, 0.7, 0.75, 0.7605,
    0.7608, 0.7610, 0.7612, 0.7614, 0.7616, 0.77, 0.9,
]


@pytest.mark.parametrize("epsilon", MDMS_EPSILONS)
def test_mdms_family_matches_reduced_oracle(epsilon):
    state = preset("mdms", epsilon=epsilon)
    # The reduction rests on invariance under Rz(phi) x Rz(-phi), diagonal
    # (1, e^-i phi, e^i phi, 1).
    rz = np.diag(np.exp(0.7j * np.array([0, -1, 1, 0])))
    assert np.allclose(rz @ state.matrix @ rz.conj().T, state.matrix, rtol=0, atol=1e-15)
    entropy = shannon(np.linalg.eigvalsh(state.matrix))
    oracle = reduced_min_dephased_entropy(state.matrix) - entropy
    assert abs(closest_classical(state).discord - oracle) <= 1e-9


@pytest.mark.parametrize("epsilon", MDMS_EPSILONS)
def test_mdms_family_refines_to_second_order_stationary_points(monkeypatch, epsilon):
    # The basis the D and G searches return has no tangent gradient and no
    # direction that curves down, the saddle window below eps'' included.  At
    # 0.6667 the computational basis, a saddle, lies 5e-10 above the refined
    # minimum, within the 1e-9 tie, so the winner must be a refined start.
    state = preset("mdms", epsilon=epsilon)
    for objective, returned in recorded_searches(monkeypatch, state):
        gradient, curvature = second_order_certificate(objective, returned)
        assert gradient <= 1e-7
        assert curvature >= -1e-5

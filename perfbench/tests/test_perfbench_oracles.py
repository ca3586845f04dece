"""The reference formulas against hand-checked values."""

import math

import numpy as np
import pytest

import oracles


def test_entropies():
    assert oracles.shannon([0.5, 0.5]) == pytest.approx(1.0)
    assert oracles.shannon([1.0, 0.0, 0.0]) == 0.0
    assert oracles.binary_entropy(0.25) == pytest.approx(0.8112781244591328)
    assert oracles.vn_entropy(np.eye(4) / 4) == pytest.approx(2.0)
    bell = oracles.bell_diagonal([1, 0, 0, 0])
    assert oracles.vn_entropy(bell) == pytest.approx(0.0, abs=1e-12)
    assert oracles.mutual_information(bell, (2, 2)) == pytest.approx(2.0)


@pytest.mark.parametrize(
    "weights, d, j",
    [
        ((1, 0, 0, 0), 1.0, 1.0),  # a Bell state: one bit of discord, one of J
        ((0.25, 0.25, 0.25, 0.25), 0.0, 0.0),  # maximally mixed
        ((0.5, 0.5, 0, 0), 0.0, 1.0),  # (|00><00| + |11><11|) / 2, classical
    ],
)
def test_bell_diagonal_discord(weights, d, j):
    got_d, got_j = oracles.bell_diagonal_discord(oracles.bell_diagonal(weights))
    assert got_d == pytest.approx(d, abs=1e-12)
    assert got_j == pytest.approx(j, abs=1e-12)


def test_paper_example_fixed_basis_values():
    v = oracles.fixed_basis_values(oracles.paper_example(), (2, 2))
    assert v["M"] == pytest.approx(0.5) and v["C"] == pytest.approx(0.5)
    assert v["K"] == pytest.approx(0.0, abs=1e-12)
    # M = T + C_L = C + K
    assert v["T"] + v["C_L"] == pytest.approx(v["M"])


def test_decomposition_identities_on_qutrits():
    rng = np.random.default_rng(7)
    m = oracles.random_state(rng, 27, 27)
    v = oracles.fixed_basis_values(m, (3, 3, 3))
    assert v["M"] == pytest.approx(v["T"] + v["C_L"], abs=1e-12)
    assert v["M"] == pytest.approx(v["C"] + v["K"], abs=1e-12)


def test_relative_entropy_to_maximally_mixed():
    rng = np.random.default_rng(3)
    m = oracles.random_state(rng, 4, 2)
    assert oracles.relative_entropy(m, np.eye(4) / 4) == pytest.approx(2 - oracles.vn_entropy(m))
    assert oracles.relative_entropy(np.eye(4) / 4, m) == math.inf


def test_marginal_of_product():
    a, b = np.diag([0.2, 0.8]), np.diag([0.1, 0.3, 0.6])
    m = np.kron(a, b)
    assert np.allclose(oracles.marginal(m, (2, 3), 0), a)
    assert np.allclose(oracles.marginal(m, (2, 3), 1), b)


def test_rotation_convention_matches_library():
    import hookup

    for theta, phi in ((0.0, 0.0), (math.pi / 4, 0.0), (0.3, 1.7)):
        assert np.allclose(oracles.qubit_rotation(theta, phi),
                           hookup.linalg.qubit_unitary(theta, phi))


def test_states_with_known_answers():
    rng = np.random.default_rng(5)
    for m, dim in ((oracles.w_mixture(), 8), (oracles.ghz(4), 16),
                   (oracles.rotated_classical(rng, 3), 8), (oracles.mdms_state(0.4, 0.2, 1.0), 4)):
        assert m.shape == (dim, dim)
        assert np.trace(m).real == pytest.approx(1.0)
        assert np.allclose(m, m.conj().T)
        assert np.linalg.eigvalsh(m).min() > -1e-12
    # A classical state dephased in its own basis is itself: zero discord.
    p = np.array([0.1, 0.2, 0.3, 0.4])
    assert oracles.vn_entropy(oracles.dephased_in(np.diag(p).astype(complex), [(0, 0), (0, 0)])) \
        == pytest.approx(oracles.shannon(p))

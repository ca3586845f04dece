"""Reference formulas the benchmark checks the program against.

Everything here is plain numpy and shares no code with ``hookup``: entropies
come from ``numpy.linalg.eigvalsh`` or from known spectra, partial traces from
reshapes, and basis rotations from the documented angle convention.  All
entropies are in bits.
"""

from __future__ import annotations

import math

import numpy as np

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def shannon(p) -> float:
    p = np.clip(np.asarray(p, dtype=float).ravel(), 0.0, None)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def binary_entropy(x: float) -> float:
    return shannon([x, 1.0 - x])


def vn_entropy(m: np.ndarray) -> float:
    return shannon(np.linalg.eigvalsh((m + m.conj().T) / 2))


def marginal(m: np.ndarray, dims, keep: int) -> np.ndarray:
    """Reduced matrix of subsystem ``keep`` (subsystem 0 most significant)."""
    n = len(dims)
    t = np.moveaxis(m.reshape(tuple(dims) * 2), (keep, n + keep), (0, n))
    d = dims[keep]
    rest = int(np.prod(dims)) // d
    return np.trace(t.reshape(d, rest, d, rest), axis1=1, axis2=3)


def mutual_information(m: np.ndarray, dims) -> float:
    return sum(vn_entropy(marginal(m, dims, q)) for q in range(len(dims))) - vn_entropy(m)


def fixed_basis_values(m: np.ndarray, dims) -> dict:
    """T, C, C_L, K and M of a state in the computational basis."""
    s = vn_entropy(m)
    diag = np.real(np.diag(m))
    margs = [marginal(m, dims, q) for q in range(len(dims))]
    marg_diag_h = [shannon(np.real(np.diag(r))) for r in margs]
    c_l = sum(h - vn_entropy(r) for h, r in zip(marg_diag_h, margs))
    return {
        "T": sum(vn_entropy(r) for r in margs) - s,
        "C": shannon(diag) - s,
        "C_L": c_l,
        # Dephasing keeps the diagonal, whose marginals are the marginals' diagonals.
        "K": sum(marg_diag_h) - shannon(diag),
        # The closest incoherent product state is the product of dephased marginals.
        "M": sum(marg_diag_h) - s,
    }


def relative_entropy(rho: np.ndarray, sigma: np.ndarray, support_tol: float = 1e-10) -> float:
    w, v = np.linalg.eigh((sigma + sigma.conj().T) / 2)
    q = np.real(np.einsum("ik,ij,jk->k", v.conj(), rho, v))
    if q[w <= support_tol].sum() > 1e-9:
        return math.inf
    keep = w > support_tol
    return float(-(q[keep] * np.log2(w[keep])).sum()) - vn_entropy(rho)


def product_of_marginals(m: np.ndarray, dims) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for q in range(len(dims)):
        out = np.kron(out, marginal(m, dims, q))
    return out


def qubit_rotation(theta: float, phi: float) -> np.ndarray:
    """Columns ``(cos t, -e^{-ip} sin t)`` and ``(e^{ip} sin t, cos t)``."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, np.exp(1j * phi) * s], [-np.exp(-1j * phi) * s, c]])


def product_rotation(angles) -> np.ndarray:
    out = np.ones((1, 1), dtype=complex)
    for theta, phi in angles:
        out = np.kron(out, qubit_rotation(theta, phi))
    return out


def dephased_in(m: np.ndarray, angles) -> np.ndarray:
    """The state with every off-diagonal element removed in the angle basis."""
    u = product_rotation(angles)
    p = np.real(np.einsum("ik,ij,jk->k", u.conj(), m, u))
    return (u * p) @ u.conj().T


def excess(m: np.ndarray, chi: np.ndarray, dims) -> tuple[float, float]:
    """L = D + J - T from entropies, and its relative-entropy cross form."""
    d = vn_entropy(chi) - vn_entropy(m)
    primary = d + mutual_information(chi, dims) - mutual_information(m, dims)
    cross = relative_entropy(product_of_marginals(m, dims), product_of_marginals(chi, dims))
    return primary, cross


# ---------------------------------------------------------------------------
# States with exactly known answers
# ---------------------------------------------------------------------------

_S = 1 / math.sqrt(2)
BELL_VECTORS = (
    np.array([_S, 0, 0, _S]),  # Phi+
    np.array([_S, 0, 0, -_S]),  # Phi-
    np.array([0, _S, _S, 0]),  # Psi+
    np.array([0, _S, -_S, 0]),  # Psi-
)


def bell_diagonal(weights) -> np.ndarray:
    return sum(w * np.outer(v, v).astype(complex) for w, v in zip(weights, BELL_VECTORS))


def bell_diagonal_discord(m: np.ndarray) -> tuple[float, float]:
    """Exact D and J of a Bell-diagonal state ``(I + sum_i c_i s_i x s_i) / 4``.

    Dephased weights in ``n x m`` are ``(1 +- n.Tm) / 4``; a Pauli axis pair
    maximizes ``|n.Tm|``, so ``D = 1 + h((1 + c) / 2) - S`` and
    ``J = 1 - h((1 + c) / 2)`` with ``c = max_i |c_i|``.
    """
    c = max(abs(np.real(np.trace(m @ np.kron(p, p)))) for p in PAULI)
    h = binary_entropy((1 + c) / 2)
    return 1 + h - vn_entropy(m), 1 - h


def mdms_state(eps: float, theta: float, phi: float) -> np.ndarray:
    """``eps |Phi+><Phi+| + (1-eps) |10><10|`` under ``U(theta, phi) x U(theta, -phi)``."""
    base = eps * np.outer(BELL_VECTORS[0], BELL_VECTORS[0]).astype(complex)
    base[2, 2] += 1 - eps
    u = np.kron(qubit_rotation(theta, phi), qubit_rotation(theta, -phi))
    return u @ base @ u.conj().T


def ghz(n: int) -> np.ndarray:
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = _S
    return np.outer(v, v.conj())


def w_mixture() -> np.ndarray:
    """8/27 |000> + 12/27 |W> + 6/27 |W-bar> + 1/27 |111>, as projectors."""
    def ket(*idx):
        v = np.zeros(8, dtype=complex)
        v[list(idx)] = 1 / math.sqrt(len(idx))
        return v

    parts = ((8, ket(0)), (12, ket(1, 2, 4)), (6, ket(3, 5, 6)), (1, ket(7)))
    return sum(w / 27 * np.outer(v, v.conj()) for w, v in parts)


def paper_example() -> np.ndarray:
    m = 0.5 * np.outer(BELL_VECTORS[0], BELL_VECTORS[0]).astype(complex)
    m[1, 1] += 0.25
    m[2, 2] += 0.25
    return m


def random_state(rng: np.random.Generator, dim: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def haar_qubit_unitary(rng: np.random.Generator) -> np.ndarray:
    z = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rotated_classical(rng: np.random.Generator, n: int) -> np.ndarray:
    """A diagonal n-qubit state turned by a random local unitary: its discord is 0."""
    p = rng.dirichlet(np.ones(2**n))
    u = np.ones((1, 1), dtype=complex)
    for _ in range(n):
        u = np.kron(u, haar_qubit_unitary(rng))
    return (u * p) @ u.conj().T

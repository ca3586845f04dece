"""Direct search over product dephasing bases.

A coarse angle grid seeds several Nelder-Mead refinements; the best refined
point wins, with deterministic tie-breaking toward the basis with the smallest
canonical angle norm (the computational basis wins exact ties).  Everything is
deterministic for a fixed configuration, so repeated runs are bit-identical.
The grid contraction (``joint_dephased_entropies``) and the refinement kernel
(``angle_factors`` then ``product_probs``) share one basis parameterization;
the kernel builds no basis or state object per objective call.

Angle vectors are ordered ``(theta_1, phi_1, theta_2, phi_2, ...)``; grid cell
indices are theta-major per qubit (``option = i_theta * n_phi + i_phi``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import xlogy

from .channels import QubitBasisAngles, canonical_angles
from .errors import BadParams, NotUnitary
from .linalg import UNITARITY_TOL, max_abs, qubit_unitary

_LN2 = math.log(2.0)

# Soft cap on coarse-grid cells; keeps 3- and 4-qubit searches at desk scale.
GRID_CELL_BUDGET = 6_000_000
_CHUNK_BYTES = 2.0e8
_EYE2 = np.eye(2)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the product-basis search.

    ``grid_points`` is the coarse grid resolution per angle, ``multistarts``
    the number of refined starts, ``tol`` the simplex shrink tolerance on the
    objective, ``max_iter`` the per-start iteration cap.  The search is fully
    deterministic, so these four values fix the result.  Raises BadParams on
    out-of-range values.
    """

    grid_points: int = 17
    multistarts: int = 8
    tol: float = 1e-9
    max_iter: int = 500

    def __post_init__(self):
        if self.grid_points < 2 or self.multistarts < 1 or self.max_iter < 1:
            raise BadParams(
                f"grid points must be at least 2 and starts and max_iter at least 1, got "
                f"grid={self.grid_points} starts={self.multistarts} max_iter={self.max_iter}"
            )
        if not self.tol > 0:
            raise BadParams(f"tol must be positive, got {self.tol!r}")


@dataclass(frozen=True)
class OptimizerResult:
    """Best product basis found, as folded per-qubit angles plus metadata."""

    angles: tuple[QubitBasisAngles, ...]
    value: float
    converged: bool
    starts: int
    nfev: int
    grid_points: int

    def angle_vector(self) -> np.ndarray:
        return np.array([x for a in self.angles for x in (a.theta, a.phi)])

    def meta(self) -> dict:
        return {
            "starts": self.starts,
            "best_objective": self.value,
            "converged": self.converged,
            "function_evals": self.nfev,
            "grid_points": self.grid_points,
        }


def effective_grid_points(requested: int, n_qubits: int) -> int:
    """Largest point count <= requested whose full grid fits the cell budget.

    Shrinks in steps that keep odd counts odd, so the midpoint theta = pi/4
    stays on the grid.
    """
    pts = max(3, int(requested))
    while pts > 3 and pts ** (2 * n_qubits) > GRID_CELL_BUDGET:
        pts -= 1 if pts % 2 == 0 else 2
    return pts


def angle_axes(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Theta axis over [0, pi/2] inclusive, phi axis over [0, 2*pi) exclusive."""
    thetas = np.linspace(0.0, math.pi / 2, points)
    phis = np.linspace(0.0, 2 * math.pi, points, endpoint=False)
    return thetas, phis


def _basis_matrices(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """``qubit_unitary(theta, phi)`` for broadcast angle arrays, shape (..., 2, 2)."""
    c, s, e = np.cos(thetas), np.sin(thetas), np.exp(1j * phis)
    lower = -np.conj(e) * s
    v = np.empty(lower.shape + (2, 2), dtype=complex)
    v[..., 0, 0] = c
    v[..., 1, 0] = lower
    v[..., 0, 1] = e * s
    v[..., 1, 1] = c
    return v


def qubit_basis_vectors(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Stack of basis-vector matrices, shape (n_theta * n_phi, 2, 2).

    ``V[o, :, k]`` is the k-th basis vector of the (theta, phi) combination
    with theta-major option index ``o``.
    """
    v = _basis_matrices(np.asarray(thetas)[:, None], np.asarray(phis)[None, :])
    return v.reshape(-1, 2, 2)


def _entropy_rows(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 0.0, None)
    return -xlogy(p, p).sum(axis=-1) / _LN2


def joint_dephased_entropies(
    matrix: np.ndarray, dims: Sequence[int], vectors: Sequence[np.ndarray]
) -> np.ndarray:
    """Dephased-state entropy for every candidate product basis.

    ``vectors[q]`` holds the candidate basis-vector matrices of subsystem q.
    Returns an array shaped ``(len(vectors[0]), ..., len(vectors[n-1]))``.
    The contraction runs one subsystem at a time and chunks over the first
    subsystem's candidates to bound memory.
    """
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    counts = [v.shape[0] for v in vectors]
    t_full = np.asarray(matrix, dtype=complex).reshape(dims + dims)

    # Integer einsum labels: ket a_q, bra b_q, option o_q, outcome s_q.
    a = [q for q in range(n)]
    b = [n + q for q in range(n)]
    o = [2 * n + q for q in range(n)]
    s = [3 * n + q for q in range(n)]

    rest = int(np.prod(counts[1:], dtype=np.int64)) if n > 1 else 1
    slice_bytes = rest * (2**n) * 16
    chunk = max(1, min(counts[0], int(_CHUNK_BYTES // max(1, slice_bytes))))

    out = np.empty(int(np.prod(counts, dtype=np.int64)), dtype=float)
    for lo in range(0, counts[0], chunk):
        hi = min(counts[0], lo + chunk)
        v0 = vectors[0][lo:hi]
        subs = [o[0], s[0]] + a[1:] + b[1:]
        t = np.einsum(v0.conj(), [o[0], a[0], s[0]], t_full, a + b, v0, [o[0], b[0], s[0]], subs)
        for q in range(1, n):
            cur = subs
            subs = cur[: 2 * q] + [o[q], s[q]] + a[q + 1 :] + b[q + 1 :]
            t = np.einsum(
                vectors[q].conj(), [o[q], a[q], s[q]], t, cur, vectors[q], [o[q], b[q], s[q]], subs
            )
        # Axes now (o0, s0, o1, s1, ...): group options first, outcomes last.
        perm = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        probs = np.real(np.transpose(t, perm)).reshape(-1, 2**n)
        out[lo * rest : hi * rest] = _entropy_rows(probs)
    return out.reshape(tuple(counts))


def marginal_dephased_entropies(marginal: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Dephased entropy of one single-qubit marginal for every basis option."""
    p = np.real(np.einsum("oas,ab,obs->os", vectors.conj(), marginal, vectors))
    return _entropy_rows(p)


def angle_factors(vector: np.ndarray) -> np.ndarray:
    """Per-qubit basis unitaries of one angle vector, shape (n_qubits, 2, 2).

    The refinement kernel's first half.  ``vector`` is ``(theta_1, phi_1,
    theta_2, phi_2, ...)``; angles outside the fundamental ranges are used as
    they are, since they give the projectors of their folded equivalent up to
    order, which leaves dephased entropies unchanged.  Raises NotUnitary when
    a factor misses unitarity by more than ``UNITARITY_TOL`` or is not finite.
    """
    v = np.asarray(vector, dtype=float)
    u = _basis_matrices(v[0::2], v[1::2])
    if not max_abs(np.einsum("qij,qkj->qik", u, u.conj()) - _EYE2) <= UNITARITY_TOL:
        raise NotUnitary("angle vector gives a basis factor that is not unitary within 1e-9")
    return u


def product_probs(matrix: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Diagonal weights of ``matrix`` in the product basis of ``factors``.

    The refinement kernel's second half.  The product basis B (subsystem 0
    most significant, as ``np.kron``) is built by broadcast outer products;
    the weights are Re sum_i conj(B) * (matrix B).
    """
    b = factors[0]
    for f in factors[1:]:
        d = b.shape[0] * f.shape[0]
        b = (b[:, None, :, None] * f[None, :, None, :]).reshape(d, d)
    return np.real((b.conj() * (matrix @ b)).sum(axis=0))


def _cell_angles(flat_index: int, counts: Sequence[int], thetas, phis) -> np.ndarray:
    """Angle vector of a flat grid cell index."""
    n_phi = len(phis)
    out = []
    remaining = int(flat_index)
    radix = list(counts)
    coords = []
    for c in reversed(radix):
        coords.append(remaining % c)
        remaining //= c
    for opt in reversed(coords):
        out.extend((thetas[opt // n_phi], phis[opt % n_phi]))
    return np.array(out)


def _canonical_pairs(angle_vector: np.ndarray) -> tuple[QubitBasisAngles, ...]:
    pairs = []
    for q in range(len(angle_vector) // 2):
        theta, phi = angle_vector[2 * q], angle_vector[2 * q + 1]
        pairs.append(canonical_angles(qubit_unitary(theta, phi)))
    return tuple(pairs)


def _tie_key(pairs: Sequence[QubitBasisAngles]) -> tuple:
    # Norms are computed on angles rounded to a microradian so that refinement
    # jitter cannot outrank a structurally smaller basis; raw angles break any
    # remaining tie deterministically.
    theta_norm = sum(round(a.theta, 6) ** 2 for a in pairs)
    phi_norm = sum(round(a.phi, 6) ** 2 for a in pairs)
    return (theta_norm, phi_norm, tuple((a.theta, a.phi) for a in pairs))


def minimize_over_product_bases(
    objective: Callable[[np.ndarray], float],
    n_qubits: int,
    cfg: OptimizerConfig | None = None,
    *,
    batch: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> OptimizerResult:
    """Minimize a continuous function of 2*n_qubits basis angles.

    ``batch(thetas, phis)`` evaluates the objective on the full coarse grid,
    one value per cell with theta-major per-qubit cells and qubit 0 most
    significant (the layout of ``joint_dephased_entropies``).  The best
    ``multistarts`` distinct cells seed Nelder-Mead refinements of
    ``objective``, and the best refined value wins.
    """
    cfg = cfg or OptimizerConfig()
    pts = effective_grid_points(cfg.grid_points, n_qubits)
    thetas, phis = angle_axes(pts)
    counts = [len(thetas) * len(phis)] * n_qubits
    values = np.asarray(batch(thetas, phis), dtype=float).ravel()

    ncells = values.size
    n_starts = min(cfg.multistarts, ncells)
    # Pull a pool several times larger than the start count so that exact ties
    # at the grid minimum are ordered by cell index, making the selection (and
    # therefore the eventual tie-break winner) deterministic and canonical.
    pool = min(ncells, max(8 * n_starts, 64))
    part = np.argpartition(values, pool - 1)[:pool] if pool < ncells else np.arange(ncells)
    order = np.lexsort((part, values[part]))
    seeds = part[order][:n_starts]

    theta_step = thetas[1] - thetas[0]
    phi_step = phis[1] - phis[0]
    steps = np.array([theta_step / 2, phi_step / 2] * n_qubits)

    candidates: list[tuple[float, np.ndarray, bool, int]] = []
    nfev = 0
    for cell in seeds:
        x0 = _cell_angles(int(cell), counts, thetas, phis)
        # Grid points themselves stay in the pool: along degenerate valleys a
        # refined point only drifts, and the tie-break should prefer the clean
        # grid representative.
        candidates.append((float(values[int(cell)]), x0, True, int(cell)))
        simplex = np.vstack(
            [x0] + [x0 + steps[i] * np.eye(2 * n_qubits)[i] for i in range(2 * n_qubits)]
        )
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "fatol": cfg.tol,
                "xatol": 1e-5,
                "maxiter": cfg.max_iter,
                "maxfev": 4 * cfg.max_iter,
                "initial_simplex": simplex,
            },
        )
        nfev += int(res.nfev)
        candidates.append((float(res.fun), np.asarray(res.x, dtype=float), bool(res.success), int(cell)))

    best_value = min(c[0] for c in candidates)
    tied = [c for c in candidates if c[0] <= best_value + 1e-9]
    keyed = sorted(tied, key=lambda c: _tie_key(_canonical_pairs(c[1])))
    value, vector, success, _ = keyed[0]

    return OptimizerResult(
        angles=_canonical_pairs(vector),
        value=value,
        converged=success,
        starts=n_starts,
        nfev=nfev,
        grid_points=pts,
    )

"""Direct search over product dephasing bases.

A coarse angle grid seeds L-BFGS-B refinements on an analytic angle gradient;
the best refined or grid point wins, with deterministic tie-breaking toward the
basis with the smallest canonical angle norm (the computational basis wins
exact ties).  Everything is deterministic for a fixed configuration, so repeated
runs are bit-identical.  The grid contraction (``joint_dephased_entropies``) and
the refinement kernel (``angle_factors``, ``angle_derivatives``, then
``dephased_entropy``) share one basis parameterization; the kernel builds no
basis or state object per objective call.

The grid is one matrix product per subsystem, last subsystem first, and holds
at most ``_CHUNK_BYTES`` of its final, full-size product at a time.  Its values
differ from a direct evaluation by ulps, and noise must not order exact ties at
the grid minimum (Bell-state continua, classical states): seeding counts values
within ``_SEED_TIE`` of the minimum as tied and takes them by cell index, so
the computational basis (cell 0) is refined whenever it is tied.  Only the first
grid option of each distinct basis seeds, so the starts leave the pole saddle.

Angle vectors are ordered ``(theta_1, phi_1, theta_2, phi_2, ...)``; grid cell
indices are theta-major per qubit (``option = i_theta * n_phi + i_phi``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
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
# Grid values this close to the grid minimum count as an exact tie when seeding.
_SEED_TIE = 1e-12
# L-BFGS-B stops once every gradient component is this small (bits per radian).
_GTOL = 1e-9
_EYE2 = np.eye(2)


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the product-basis search.

    ``grid_points`` is the coarse grid resolution per angle, ``multistarts``
    the most refined starts, ``tol`` the relative objective decrease per step
    below which an L-BFGS-B start stops (its ``ftol``), ``max_iter`` the
    per-start iteration cap.  The search is fully deterministic, so these four
    values fix the result.  Raises BadParams on out-of-range values.
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
    requested_grid_points: int

    def angle_vector(self) -> np.ndarray:
        return np.array([x for a in self.angles for x in (a.theta, a.phi)])

    def meta(self) -> dict:
        return {
            "starts": self.starts,
            "best_objective": self.value,
            "converged": self.converged,
            "function_evals": self.nfev,
            "grid_points": self.grid_points,
            "requested_grid_points": self.requested_grid_points,
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


def _projector_stack(v: np.ndarray) -> np.ndarray:
    """``P[(o, s), (a, b)] = conj(V[o, a, s]) * V[o, b, s]`` for one candidate stack."""
    k, d, _ = v.shape
    w = np.swapaxes(v, 1, 2)
    return (w.conj()[:, :, :, None] * w[:, :, None, :]).reshape(k * d, d * d)


def joint_dephased_entropies(
    matrix: np.ndarray, dims: Sequence[int], vectors: Sequence[np.ndarray]
) -> np.ndarray:
    """Dephased-state entropy for every candidate product basis.

    ``vectors[q]`` holds the candidate basis-vector matrices of subsystem q.
    Returns an array shaped ``(len(vectors[0]), ..., len(vectors[n-1]))``.

    The state, on paired ``(a_q, b_q)`` axes, meets each projector stack
    ``P_q[(o, s), (a, b)]`` in one matrix product, last subsystem first; the
    tail ``T`` left for ``P_0`` holds ``dims[0]**2`` weights per candidate and
    outcome of subsystems 1..n-1.  The full-size product with ``P_0`` runs as
    the real part ``[Re P_0, -Im P_0] @ [Re T; Im T]`` over blocks of
    first-subsystem candidates of at most ``_CHUNK_BYTES`` each, so peak memory
    is about 1.5 blocks plus ``T``; each block is clipped at 0 and reduced to
    entropies where it lies, one outcome axis at a time.
    """
    dims = tuple(int(d) for d in dims)
    counts = [v.shape[0] for v in vectors]
    stacks = [_projector_stack(v) for v in vectors]
    paired = np.arange(2 * len(dims)).reshape(2, -1).T.ravel()
    t = np.asarray(matrix, dtype=complex).reshape(dims + dims).transpose(paired)
    rest = 1
    for q in range(len(dims) - 1, 0, -1):
        t = stacks[q] @ t.reshape(-1, dims[q] ** 2, rest)
        rest *= stacks[q].shape[0]
    t = np.concatenate([t.real, t.imag]).reshape(2 * dims[0] ** 2, rest)
    p0 = np.concatenate([stacks[0].real, -stacks[0].imag], axis=1)

    chunk = max(1, min(counts[0], int(_CHUNK_BYTES // (dims[0] * rest * 8))))
    out = np.empty((counts[0], math.prod(counts[1:])))
    for lo in range(0, counts[0], chunk):
        hi = min(counts[0], lo + chunk)
        # Axes (o_0, s_0, o_1, s_1, ...); each pass sums away the next s_q.
        p = p0[lo * dims[0] : hi * dims[0]] @ t
        np.maximum(p, 0.0, out=p)
        xlogy(p, p, out=p)
        for q, d in enumerate(dims):
            slabs = p.reshape((hi - lo) * math.prod(counts[1 : q + 1]), d, -1)
            p = reduce(np.add, np.moveaxis(slabs, 1, 0))
        out[lo:hi] = p.reshape(hi - lo, -1)
    return (-out / _LN2).reshape(counts)


def marginal_dephased_entropies(marginal: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Dephased entropy of one single-qubit marginal for every basis option."""
    p = np.clip(np.real(np.einsum("oas,ab,obs->os", vectors.conj(), marginal, vectors)), 0.0, None)
    return -xlogy(p, p).sum(axis=-1) / _LN2


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


def angle_derivatives(vector: np.ndarray) -> np.ndarray:
    """d/dtheta and d/dphi of each ``angle_factors`` factor, shape (n_qubits, 2, 2, 2).

    d/dtheta is the factor at theta + pi/2; d/dphi is i [u, |1><1|].
    """
    v = np.asarray(vector, dtype=float)
    d_phi = 1j * _basis_matrices(v[0::2], v[1::2]) * np.array([[0, 1], [-1, 0]])
    return np.stack([_basis_matrices(v[0::2] + math.pi / 2, v[1::2]), d_phi], axis=1)


def product_probs(matrix: np.ndarray, factors: np.ndarray, derivatives=None):
    """Diagonal weights p of ``matrix`` in the product basis B of ``factors``.

    B (subsystem 0 most significant, as ``np.kron``) is a broadcast outer
    product and p = Re sum_i conj(B) * (matrix B).  Given the factors'
    ``angle_derivatives``, returns ``(p, dp)`` with dp[2q + a] = 2 Re sum_i
    conj(dB) * (matrix B), dB being B with factor q differentiated in angle a.
    """
    n = len(factors)
    stack = np.repeat(factors[:, None], 1 if derivatives is None else 2 * n + 1, axis=1)
    if derivatives is not None:
        stack[np.arange(n)[:, None], 1 + 2 * np.arange(n)[:, None] + np.arange(2)] = derivatives
    b = stack[0]
    for f in stack[1:]:
        k, d = b.shape[0], b.shape[1] * f.shape[1]
        b = (b[:, :, None, :, None] * f[:, None, :, None, :]).reshape(k, d, d)
    w = np.real(b.conj() * (matrix @ b[0])).sum(axis=1)
    return w[0] if derivatives is None else (w[0], 2.0 * w[1:])


def dephased_entropy(matrix: np.ndarray, factors: np.ndarray, derivatives: np.ndarray):
    """Entropy S in bits of the ``product_probs`` weights, and dS over their 2n angles.

    Weights are clipped at 0 and zero weights add 0; as sum dp = 0, dS = -sum log2(p) dp.
    """
    p, dp = product_probs(matrix, factors, derivatives)
    p = np.maximum(p, 0.0)
    log_p = np.log2(p, out=np.zeros_like(p), where=p > 0)
    return float(-p @ log_p), -(dp @ log_p)


def _cell_angles(flat_index: int, n_qubits: int, thetas, phis) -> np.ndarray:
    """Angle vector of a flat grid cell index."""
    idx = np.unravel_index(flat_index, (len(thetas), len(phis)) * n_qubits)
    return np.column_stack([thetas[list(idx[0::2])], phis[list(idx[1::2])]]).ravel()


def _first_options(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Mask of the grid options that are the first to give their basis.

    An option's basis is its projector axis pair {n, -n}, keyed by n n^T; so
    every theta in {0, pi/2} gives option 0's basis, the computational one.
    """
    t, p = np.meshgrid(2 * thetas, phis, indexing="ij")
    n = np.stack([np.cos(t), np.sin(t) * np.cos(p), np.sin(t) * np.sin(p)], -1).reshape(-1, 3)
    key = np.round(n[:, :, None] * n[:, None, :], 9).reshape(len(n), 9) + 0.0
    return np.isin(np.arange(len(n)), np.unique(key, axis=0, return_index=True)[1])


def _canonical_pairs(v: np.ndarray) -> tuple[QubitBasisAngles, ...]:
    return tuple(canonical_angles(qubit_unitary(t, p)) for t, p in zip(v[0::2], v[1::2]))


def _tie_key(pairs: Sequence[QubitBasisAngles]) -> tuple:
    # Norms are computed on angles rounded to a microradian so that refinement
    # jitter cannot outrank a structurally smaller basis; raw angles break any
    # remaining tie deterministically.
    theta_norm = sum(round(a.theta, 6) ** 2 for a in pairs)
    phi_norm = sum(round(a.phi, 6) ** 2 for a in pairs)
    return (theta_norm, phi_norm, tuple((a.theta, a.phi) for a in pairs))


def minimize_over_product_bases(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
    n_qubits: int,
    cfg: OptimizerConfig | None = None,
    *,
    batch: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> OptimizerResult:
    """Minimize a continuous function of 2*n_qubits basis angles.

    ``objective(vector)`` returns ``(value, gradient)``.  ``batch(thetas,
    phis)`` evaluates the objective on the full coarse grid, one value per cell
    with theta-major per-qubit cells and qubit 0 most significant (the layout
    of ``joint_dephased_entropies``).  The best ``multistarts`` cells made of
    first options of distinct bases seed L-BFGS-B refinements of ``objective``,
    and the best refined or seed value wins.
    """
    cfg = cfg or OptimizerConfig()
    pts = effective_grid_points(cfg.grid_points, n_qubits)
    thetas, phis = angle_axes(pts)
    values = np.asarray(batch(thetas, phis), dtype=float).ravel()

    # Only cells whose every option is the first of its basis may seed.
    first = _first_options(thetas, phis)
    allowed = reduce(lambda a, b: np.logical_and.outer(a, b).ravel(), [first] * n_qubits)
    seedable = np.where(allowed, values, np.inf)
    ncells = values.size
    n_starts = min(cfg.multistarts, int(allowed.sum()))
    # Cells within _SEED_TIE of the grid minimum are tied and go first, by cell
    # index, so the computational basis (cell 0) seeds every tie it is in.  The
    # rest follow in (value, index) order from a pool several times the start
    # count, so that their own exact ties are ordered by index as well.
    low = seedable.min() + _SEED_TIE
    pool = min(ncells, max(8 * n_starts, 64))
    part = np.argpartition(seedable, pool - 1)[:pool] if pool < ncells else np.arange(ncells)
    part = part[(seedable[part] > low) & allowed[part]]
    seeds = np.concatenate([np.flatnonzero(seedable <= low), part[np.lexsort((part, values[part]))]])
    seeds = seeds[:n_starts]

    candidates: list[tuple[float, np.ndarray, bool, int]] = []
    nfev = 0
    for cell in seeds:
        x0 = _cell_angles(int(cell), n_qubits, thetas, phis)
        # Grid points themselves stay in the pool: along degenerate valleys a
        # refined point only drifts, and the tie-break should prefer the clean
        # grid representative.
        candidates.append((float(values[int(cell)]), x0, True, int(cell)))
        res = minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"ftol": cfg.tol, "gtol": _GTOL, "maxiter": cfg.max_iter},
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
        requested_grid_points=cfg.grid_points,
    )

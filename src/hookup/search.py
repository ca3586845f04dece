"""Direct search over product dephasing bases.

Searches run on the state's real Pauli tensor R[mu_0, ..., mu_{n-1}] =
tr(rho sigma_mu_0 x ... x sigma_mu_{n-1}) (sigma_0 = I, then X, Y, Z).  The
weights dephased along one Bloch axis n_q per qubit are R contracted with the
outcome rows [1/2, +-n_q/2] of each qubit, so they are multilinear in the
axes.  One real contraction (``_tail``) serves the coarse grid
(``joint_dephased_entropies``) on the rows of the distinct grid axes, and the
refinement (``dephased_entropy``), which adds the rows [0, +-e_i/2] of the axis
derivatives and of their pairs.  Saddle-free Newton steps on the product of
spheres refine every start at once (``_refine``), escaping saddles.  The lowest
refined start wins; starts within 1e-9 of it tie, and the tie goes to the
smallest canonical angle norm (the computational basis wins exact ties).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .channels import QubitBasisAngles, axis_angles, bloch_axes
from .errors import whole_number
from .states import _clipped_log2

# Soft cap on coarse-grid cells; keeps 3- and 4-qubit searches at desk scale.
GRID_CELL_BUDGET = 6_000_000
# Tail entries times qubit-0 options per grid block, so a block's weights and
# logs fit in L2 (256 KB) unless one option's exceed it.  1 BLAS thread, 4 MiB
# L2: 2^13..2^17 ran alike, 2.5-3x faster than one product; 2^19 was slower.
_BLOCK = 2**15
# Grid values, off a direct evaluation by ulps, this close to the grid minimum
# count as an exact tie when seeding (Bell-state continua, classical states).
_SEED_TIE = 1e-12
# The refinement's tangent-gradient tolerance (bits per radian), the relative
# value decrease per step below which a start stops, the curvature it escapes
# below, its |curvature| floor, step cap (radians) and halvings, and the floor
# on the weights that the Hessian divides by.
_GRAD_TOL = 1e-9
_REL_DECREASE = 1e-9
_NEG_CURVATURE = -1e-5
_MIN_CURVATURE = 1e-8
_MAX_STEP = 0.5
_HALVINGS = 12
_P_FLOOR = 1e-12
# I, X, Y, Z as rows over (a, b), holding sigma[b, a]: row @ rho_ab = tr(rho sigma).
_PAULI_ROWS = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0], [1, 0, 0, -1]])
# The outcome rows [0, +-e_i/2]: d/dn_i of [1/2, +-n/2].
_AXIS_STEPS = np.concatenate([np.zeros((3, 1)), np.eye(3) / 2], axis=1)[:, None] * [[1], [-1]]


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the product-basis search.

    ``grid_points`` is the coarse grid resolution per angle, ``multistarts``
    the most refined starts, ``max_iter`` the per-start step cap.  The search
    is fully deterministic, so these three values fix the result: repeated
    runs are bit-identical.  Raises BadParams on out-of-range values: the
    three counts must be whole numbers, kept as ints.
    """

    grid_points: int = 17
    multistarts: int = 8
    max_iter: int = 500

    def __post_init__(self):
        for name, least in (("grid_points", 2), ("multistarts", 1), ("max_iter", 1)):
            object.__setattr__(self, name, whole_number(getattr(self, name), name, least))


@dataclass(frozen=True)
class OptimizerResult:
    """Best product basis found, as folded per-qubit angles plus metadata.

    ``converged`` says that the returned start stopped before ``max_iter``:
    its tangent gradient fell to ``_GRAD_TOL`` or a step lowered its value by
    at most ``_REL_DECREASE`` relative.  It is not a gradient certificate; on
    pure 2-qubit states converged starts keep tangent gradients up to 2e-5.
    """

    angles: tuple[QubitBasisAngles, ...]
    value: float
    converged: bool
    starts: int
    nfev: int
    grid_points: int
    requested_grid_points: int
    grid_cells: int

    def meta(self) -> dict:
        return {
            "starts": self.starts,
            "best_objective": self.value,
            "converged": self.converged,
            "function_evals": self.nfev,
            "grid_points": self.grid_points,
            "requested_grid_points": self.requested_grid_points,
            "grid_cells": self.grid_cells,
        }


def effective_grid_points(requested: int, n_qubits: int) -> int:
    """Largest point count <= requested whose pts^(2n) angle cells fit the budget.

    A count that must shrink becomes the largest odd one that fits, at least
    3, so the midpoint theta = pi/4 stays on the grid.
    """
    pts, power = max(3, whole_number(requested, "grid points")), 2 * n_qubits
    if pts**power <= GRID_CELL_BUDGET:
        return pts
    # The float root is within one of the largest count that fits.
    root = int(GRID_CELL_BUDGET ** (1 / power))
    fit = max(k for k in (root - 1, root, root + 1) if k**power <= GRID_CELL_BUDGET)
    return max(3, fit - 1 + fit % 2)


def angle_axes(points: int) -> tuple[np.ndarray, np.ndarray]:
    """Theta axis over [0, pi/2] inclusive, phi axis over [0, 2*pi) exclusive."""
    thetas = np.linspace(0.0, math.pi / 2, points)
    phis = np.linspace(0.0, 2 * math.pi, points, endpoint=False)
    return thetas, phis


def pauli_tensor(matrix: np.ndarray) -> np.ndarray:
    """Real Pauli tensor R[mu_0, ..., mu_{n-1}] of an n-qubit matrix, shape (4,) * n."""
    n = len(matrix).bit_length() - 1
    paired = np.arange(2 * n).reshape(2, -1).T.ravel()
    t = np.asarray(matrix, dtype=complex).reshape((2,) * 2 * n).transpose(paired)
    # Each pass turns the leading (a_q, b_q) pair into mu_q and moves it last.
    for _ in range(n):
        t = (_PAULI_ROWS @ t.reshape(4, -1)).T
    return t.real.reshape((4,) * n)


def _outcome_rows(axes: np.ndarray) -> np.ndarray:
    """Rows [1/2, n/2] and [1/2, -n/2] of each Bloch axis, shape (..., 2, 4)."""
    half = np.asarray(axes, dtype=float)[..., None, :] * [[0.5], [-0.5]]
    return np.concatenate([np.full(half.shape[:-1] + (1,), 0.5), half], axis=-1)


def _tail(pauli: np.ndarray, rows: Sequence[np.ndarray]) -> np.ndarray:
    """Contract qubits n-1, ..., 1 of ``pauli`` with their row stacks, last first.

    ``rows[q]`` holds (option, outcome) rows of qubit q, shape (*B, K_q, 2, 4)
    for one batch shape B.  Returns shape (*B, 4, rest): mu_0 by the (o_1,
    s_1, ..., o_{n-1}, s_{n-1}) pairs, qubit 1 most significant.  Qubit 0's
    rows times this tail are the weights of every option combination.
    """
    lead = rows[0].shape[:-3]
    t, rest = pauli.reshape(-1, 1), 1
    for r in rows[:0:-1]:
        t = r.reshape(*lead, 1, -1, 4) @ t.reshape(*t.shape[:-2], -1, 4, rest)
        rest *= t.shape[-2]
        t = t.reshape(*lead, -1, rest)
    return np.broadcast_to(t, (*lead, 4, rest))


def joint_dephased_entropies(pauli: np.ndarray, options: Sequence[np.ndarray]) -> np.ndarray:
    """Dephased-state entropy for every candidate product basis.

    ``pauli`` is the state's ``pauli_tensor`` and ``options[q]`` holds the
    candidate Bloch axes of qubit q, shape (K_q, 3).  Returns an array shaped
    ``(K_0, ..., K_{n-1})``.

    The ``_tail`` of qubits n-1..1 is contracted once.  Each block of qubit 0's
    options meets it in a product of weights, which is clipped at 0, turned
    into p log2 p and reduced to entropies where it lies, one outcome axis at
    a time, so peak memory is the K^n result, the 4 (2K)^(n-1) tail and two
    blocks: about 37 MB at the largest grid ``GRID_CELL_BUDGET`` allows (4
    qubits at 7 points).
    """
    rows = [_outcome_rows(a) for a in options]
    tail = _tail(pauli, rows)
    shape = [m for r in rows[1:] for m in (len(r), 2)]
    out = np.empty([len(r) for r in rows])
    step = max(1, _BLOCK // tail.size)
    for start in range(0, len(rows[0]), step):
        p = (rows[0][start : start + step].reshape(-1, 4) @ tail).reshape(-1, 2, *shape)
        p *= _clipped_log2(p)
        # Fold each outcome axis into its s_q = 0 half in place, the last into the result.
        for q in range(len(rows) - 1):
            lead = (slice(None),) * (q + 1)
            p[lead + (0,)] += p[lead + (1,)]
            p = p[lead + (0,)]
        np.add(p[..., 0], p[..., 1], out=out[start : start + step])
        del p  # free this block before the next is formed
    return np.negative(out, out=out)


def split_entropy(x):
    """Entropy in bits of the weights (1 +- x)/2, clipped at 0, and its first two derivatives."""
    p = np.stack([1.0 + x, 1.0 - x]) / 2
    log_p = _clipped_log2(p)
    curve = -(1 / np.maximum(p, _P_FLOOR)).sum(axis=0) / (4 * math.log(2))
    return -(p * log_p).sum(axis=0), (log_p[1] - log_p[0]) / 2, curve


def dephased_entropy(pauli: np.ndarray, axes: np.ndarray):
    """Dephased entropy S in bits at s points of one Bloch axis per qubit, shape (s, n, 3).

    Returns S, dS/dn, shape (s, n, 3), and d2S/dn dn, shape (s, n, 3, n, 3),
    of the multilinear form, normal parts included.  In one ``_tail`` of the
    axis rows and the rows [0, +-e_i/2] per qubit, e rows on one qubit give
    dp/dn_{q,i}, on two d2p/dn_{q,i} dn_{r,j} (0 inside one qubit).  Weights
    are clipped at 0; a zero weight adds 0 to S and takes log2 p = -1022, a
    finite stand-in for -inf, in dS = -sum log2(p) dp (as sum dp = 0) and in
    d2S = -sum log2(p) d2p - sum dp dp^T / (p ln 2), p floored at ``_P_FLOOR``.
    """
    s, n = axes.shape[:2]
    rows = np.concatenate(
        [_outcome_rows(axes)[:, :, None], np.broadcast_to(_AXIS_STEPS, (s, n, 3, 2, 4))], axis=2
    ).swapaxes(0, 1)
    w = (rows[0].reshape(s, -1, 4) @ _tail(pauli, rows)).reshape((s,) + (4, 2) * n)
    w = w.transpose(0, *range(1, 2 * n, 2), *range(2, 2 * n + 1, 2)).reshape(s, 4**n, 2**n)
    # Combination 0 is the axes, e_i at qubit q is (i + 1) * 4**(n-1-q), and pairs add.
    single = (4 ** np.arange(n - 1, -1, -1)[:, None] * np.arange(1, 4)).ravel()
    same = np.equal.outer(np.arange(3 * n) // 3, np.arange(3 * n) // 3)
    log_p = _clipped_log2(w[:, 0])
    # -sum w log2 p for every combination's weights w: S, dS/dn and the d2p part of d2S.
    terms = -(w @ log_p[..., None])[..., 0]
    dp = w[:, single]
    hess = np.where(same, 0.0, terms[:, np.where(same, 0, np.add.outer(single, single))])
    hess -= (dp / (np.maximum(w[:, 0], _P_FLOOR) * math.log(2))[:, None]) @ dp.swapaxes(1, 2)
    return terms[:, 0], terms[:, single].reshape(s, n, 3), hess.reshape(s, n, 3, n, 3)


def _grid_axes(pts: int) -> np.ndarray:
    """One grid axis per distinct basis: the computational one, then theta-major.

    Every theta in {0, pi/2} gives the computational basis, and for even pts
    (pi/2 - theta, phi + pi) gives that of (theta, phi), so thetas 1..pts/2-1
    remain, (pts - 2) * pts / 2 + 1 axes; odd pts keep 1..pts-2 over every phi.
    """
    thetas, phis = angle_axes(pts)
    stop = pts - 1 if pts % 2 else pts // 2
    rest = bloch_axes(*np.meshgrid(thetas[1:stop], phis, indexing="ij")).reshape(-1, 3)
    return np.concatenate([bloch_axes(thetas[:1], phis[:1]), rest])


def _tie_key(pairs: Sequence[QubitBasisAngles]) -> tuple:
    # Norms are computed on angles rounded to a microradian so that refinement
    # jitter cannot outrank a structurally smaller basis; raw angles break any
    # remaining tie deterministically.
    theta_norm = sum(round(a.theta, 6) ** 2 for a in pairs)
    phi_norm = sum(round(a.phi, 6) ** 2 for a in pairs)
    return (theta_norm, phi_norm, tuple((a.theta, a.phi) for a in pairs))


def _refine(objective, x0: np.ndarray, cfg: OptimizerConfig):
    """Saddle-free Newton refinement of every start of the stack ``x0``, shape (s, n, 3).

    A step divides the tangent gradient g by |lambda| along the eigenvectors of
    the Riemannian Hessian T^T H T - diag(n_q . grad_q), T two tangent vectors
    per axis, adds ``_MAX_STEP`` downhill along the lowest where lambda_min <
    ``_NEG_CURVATURE``, and is capped, halved until the value drops and
    renormalised.  A start converges once |g| <= ``_GRAD_TOL`` without such
    curvature or a step lowers the value by at most ``_REL_DECREASE`` relative
    (by 0 when no halving does); else it stops after ``cfg.max_iter`` steps.
    """
    x = np.array(x0, dtype=float)
    n = x.shape[1]
    f, grad, hess = objective(x)
    nfev = np.ones(len(x), dtype=int)
    active = np.arange(len(x))
    for _ in range(cfg.max_iter):
        if not active.size:
            break
        # Two orthonormal tangent vectors per axis, shape (a, n, 2, 3).
        u = np.cross(x[active], np.eye(3)[np.abs(x[active]).argmin(axis=-1)])
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        frames = np.stack([u, np.cross(x[active], u)], axis=-2)
        g = np.einsum("aqti,aqi->aqt", frames, grad[active]).reshape(-1, 2 * n)
        h = np.einsum("aqti,aqirj,aruj->aqtru", frames, hess[active], frames)
        normal = np.einsum("aqi,aqi->aq", x[active], grad[active])
        h = h.reshape(-1, 2 * n, 2 * n) - np.repeat(normal, 2, axis=1)[..., None] * np.eye(2 * n)
        lam, vec = np.linalg.eigh(h)
        coef = (g[:, None] @ vec)[:, 0]
        step = -coef / np.maximum(np.abs(lam), _MIN_CURVATURE)
        saddle = lam[:, 0] < _NEG_CURVATURE
        step[:, 0] -= saddle * np.copysign(_MAX_STEP, coef[:, 0])
        moving = (np.linalg.norm(g, axis=1) > _GRAD_TOL) | saddle
        active = active[moving]
        moves = ((vec @ step[..., None]).reshape(-1, n, 1, 2) @ frames)[moving, :, 0]
        moves *= np.minimum(1, _MAX_STEP / np.linalg.norm(moves, axis=(1, 2)))[:, None, None]
        start, left = f[active], np.arange(len(active))
        for _ in range(_HALVINGS + 1):
            if not left.size:
                break
            y = x[active[left]] + moves[left]
            y /= np.linalg.norm(y, axis=-1, keepdims=True)
            fy, gy, hy = objective(y)
            nfev[active[left]] += 1
            drop = fy < start[left]
            k = active[left[drop]]
            x[k], f[k], grad[k], hess[k] = y[drop], fy[drop], gy[drop], hy[drop]
            left = left[~drop]
            moves[left] /= 2
        scale = np.maximum(1, np.maximum(np.abs(start), np.abs(f[active])))
        active = active[start - f[active] > _REL_DECREASE * scale]
    return x, f, nfev, ~np.isin(np.arange(len(x)), active)


def minimize_over_product_bases(
    objective: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]],
    n_qubits: int,
    cfg: OptimizerConfig | None = None,
    *,
    batch: Callable[[np.ndarray], np.ndarray],
) -> OptimizerResult:
    """Minimize a twice-differentiable function of one Bloch axis per qubit.

    ``objective(axes)`` takes s points of unit axes, shape (s, n_qubits, 3),
    and returns the values, gradients, shape (s, n_qubits, 3), and Hessians,
    shape (s, n_qubits, 3, n_qubits, 3), of a smooth extension off the
    spheres.  ``batch(options)`` evaluates it on the coarse grid from the (K,
    3) grid axes, one per distinct basis with option 0 computational
    (``_grid_axes``), one value per cell with qubit 0 most significant (the
    layout of ``joint_dephased_entropies``).  The best ``multistarts`` cells
    seed ``_refine``, grid values only ordering them; the lowest refined start
    wins, the smallest ``_tie_key`` within 1e-9 of it.
    """
    cfg = cfg or OptimizerConfig()
    pts = effective_grid_points(cfg.grid_points, n_qubits)
    options = _grid_axes(pts)
    values = np.asarray(batch(options), dtype=float).ravel()

    ncells = values.size
    n_starts = min(cfg.multistarts, ncells)
    # One stable order of the cells up to the n_starts-th smallest value: cells
    # within _SEED_TIE of the grid minimum share the key ``low`` and go first by
    # index, so the computational basis (cell 0) seeds every tie it is in; the
    # rest go by value, exact ties (whole classes enter) by index.
    low = values.min() + _SEED_TIE
    pool = np.flatnonzero(values <= max(low, np.partition(values, n_starts - 1)[n_starts - 1]))
    seeds = pool[np.argsort(np.maximum(values[pool], low), kind="stable")][:n_starts]

    x0 = options[np.stack(np.unravel_index(seeds, (len(options),) * n_qubits), axis=1)]
    refined, fun, nfev, ok = _refine(objective, x0, cfg)
    tied = np.flatnonzero(fun <= fun.min() + 1e-9)
    best = min(tied, key=lambda i: _tie_key(tuple(map(axis_angles, refined[i]))))

    return OptimizerResult(
        angles=tuple(map(axis_angles, refined[best])),
        value=float(fun[best]),
        converged=bool(ok[best]),
        starts=n_starts,
        nfev=int(nfev.sum()),
        grid_points=pts,
        requested_grid_points=cfg.grid_points,
        grid_cells=ncells,
    )

"""The two idempotent "uselessness" channels and product-basis handling.

``dephase`` kills all coherence relative to a product basis, ``marginal_product``
kills all correlations.  The two commute, which several quantifier identities
rely on; ``commutation_check`` measures the residual directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import linalg
from .errors import BadParams, DimensionMismatch, NotAllQubits, NotUnitary, whole_number
from .states import DensityMatrix

TWO_PI = 2 * math.pi


@dataclass(frozen=True)
class QubitBasisAngles:
    """Coordinates of the basis ``qubit_unitary(theta, phi)``; finite angles are kept as given."""

    theta: float
    phi: float

    def __post_init__(self):
        theta, phi = float(self.theta), float(self.phi)
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise BadParams(f"basis angles must be finite, got theta={theta}, phi={phi}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)


@dataclass(frozen=True)
class ProductBasis:
    """One unitary per subsystem; columns are the measurement/dephasing vectors."""

    factors: tuple[np.ndarray, ...]
    angles: tuple[QubitBasisAngles, ...] | None = None

    def __post_init__(self):
        factors = []
        for i, f in enumerate(self.factors):
            u = linalg.as_square(f).copy()
            if not linalg.max_abs(u @ u.conj().T - np.eye(u.shape[0])) <= linalg.UNITARITY_TOL:
                raise NotUnitary(f"basis factor {i} is not unitary within 1e-9 or not finite")
            u.setflags(write=False)
            factors.append(u)
        object.__setattr__(self, "factors", tuple(factors))
        identity = not any(np.count_nonzero(f - np.eye(len(f))) for f in factors)
        object.__setattr__(self, "_identity", identity)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    def matrix(self) -> np.ndarray:
        """Full product unitary."""
        return linalg.kron_all(self.factors)

    def is_identity(self) -> bool:
        return self._identity


def computational_basis(dims: Sequence[int]) -> ProductBasis:
    dims = tuple(whole_number(d, "dims", 1) for d in dims)
    angles = tuple(QubitBasisAngles(0.0, 0.0) for _ in dims) if all(d == 2 for d in dims) else None
    return ProductBasis(tuple(np.eye(d, dtype=complex) for d in dims), angles=angles)


def basis_from_angles(
    angles: Iterable[tuple[float, float] | QubitBasisAngles],
    dims: Sequence[int] | None = None,
) -> ProductBasis:
    """Qubit product basis from (theta, phi) pairs.

    Any finite angles are used as given.  When target ``dims`` are given,
    every subsystem must be a qubit.
    """
    pairs = []
    for a in angles:
        if isinstance(a, QubitBasisAngles):
            pairs.append(a)
        else:
            theta, phi = a
            pairs.append(QubitBasisAngles(float(theta), float(phi)))
    if dims is not None:
        dims = tuple(whole_number(d, "dims") for d in dims)
        if any(d != 2 for d in dims):
            raise NotAllQubits(f"angle bases require qubit subsystems, got dims {dims}")
        if len(dims) != len(pairs):
            raise DimensionMismatch(
                f"{len(pairs)} angle pairs for {len(dims)} subsystems"
            )
    factors = tuple(linalg.qubit_unitary(a.theta, a.phi) for a in pairs)
    return ProductBasis(factors, angles=tuple(pairs))


def bloch_axes(thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Bloch axis of ``qubit_unitary(theta, phi)``'s first column, shape (..., 3)."""
    s = np.sin(2 * thetas)
    return np.stack([-s * np.cos(phis), s * np.sin(phis), np.cos(2 * thetas)], axis=-1)


def axis_angles(n: np.ndarray) -> QubitBasisAngles:
    """Angles of the projector pair (I +- n.sigma)/2 of a unit Bloch axis n.

    Folds the axis into the hemisphere with non-negative z (equator ties
    broken toward non-positive x, then non-negative y, matching the image of
    the parameterization itself), giving theta in [0, pi/4] and phi in [0, 2*pi):
    the one normal form of qubit-basis angles, used for search results.
    """
    # Fold the axis pair {n, -n} so that the parameterization's own image is a
    # fixed point: prefer positive z, on the equator prefer non-positive x,
    # then non-negative y.
    tol = 1e-12
    if n[2] < -tol or (abs(n[2]) <= tol and (n[0] > tol or (abs(n[0]) <= tol and n[1] < 0))):
        n = -n
    theta = 0.5 * math.acos(min(1.0, max(-1.0, n[2])))
    if math.sin(2 * theta) <= 1e-9:  # pole: azimuth undefined
        return QubitBasisAngles(theta, 0.0)
    # fmod: a tiny negative atan2 rounds to 2*pi under %, which is phi = 0.
    phi = math.fmod(math.atan2(n[1], -n[0]) % TWO_PI, TWO_PI)
    return QubitBasisAngles(theta, phi)


def _weights(state: DensityMatrix, basis: ProductBasis | None):
    """The state's weights in ``basis`` and its unitary, None for the computational basis."""
    if basis is not None and basis.dims != state.dims:
        raise DimensionMismatch(f"basis dims {basis.dims} != state dims {state.dims}")
    if basis is None or basis.is_identity():
        return np.diag(state.matrix).real.copy(), None
    b = basis.matrix()
    return np.real(np.einsum("ik,ij,jk->k", b.conj(), state.matrix, b)), b


def dephase(state: DensityMatrix, basis: ProductBasis | None = None) -> DensityMatrix:
    """Zero all off-diagonal elements in the given product basis: b diag(p) b^dagger.

    p holds the ``dephased_probs``.  Idempotent and trace preserving.  In the
    computational basis (``None`` included) the result is exactly diag(p).
    """
    probs, b = _weights(state, basis)
    if b is None:
        return DensityMatrix(state.dims, np.diag(probs))
    out = (b * probs) @ b.conj().T
    return DensityMatrix(state.dims, (out + out.conj().T) / 2)


def dephased_probs(state: DensityMatrix, basis: ProductBasis | None = None) -> np.ndarray:
    """Diagonal weights of the state in the given product basis."""
    return _weights(state, basis)[0]


def marginal_product(state: DensityMatrix) -> DensityMatrix:
    """Tensor product of all single-subsystem reduced states; idempotent."""
    factors = [
        linalg.partial_trace(state.matrix, state.dims, q) for q in range(state.n_parts)
    ]
    return DensityMatrix(state.dims, linalg.kron_all(factors))


def commutation_check(state: DensityMatrix, basis: ProductBasis | None = None) -> float:
    """Max-abs residual of dephase(marginals) - marginals(dephased)."""
    a = dephase(marginal_product(state), basis)
    b = marginal_product(dephase(state, basis))
    return linalg.max_abs(a.matrix - b.matrix)

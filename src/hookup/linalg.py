"""Dense complex matrix arithmetic for small multipartite operators.

Everything here works on plain ``numpy`` complex arrays.  Subsystem 0 is the
most significant tensor factor: the row index of an n-part operator is
``k_0 * (d_1 * ... * d_{n-1}) + k_1 * (d_2 * ...) + ... + k_{n-1}``, which is
exactly the convention of ``numpy.kron(factor_0, factor_1, ...)``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NonHermitian

HERMITICITY_TOL = 1e-9
UNITARITY_TOL = 1e-9


class EigenDecomposition(NamedTuple):
    """Eigenvalues sorted descending with matching orthonormal column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_square(m) -> np.ndarray:
    """Coerce to a square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def max_abs(m) -> float:
    a = np.asarray(m)
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermiticity_defect(m) -> float:
    """Max-abs deviation of ``m`` from its own conjugate transpose."""
    a = as_square(m)
    return max_abs(a - a.conj().T)


def hermitian_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Raises NonHermitian when the input deviates from Hermiticity by more than
    1e-9 in max-abs norm, and NoConvergence when the underlying LAPACK
    iteration gives up.
    """
    a = as_square(m)
    if not hermiticity_defect(a) <= HERMITICITY_TOL:
        raise NonHermitian(
            f"matrix deviates from Hermiticity by {hermiticity_defect(a):.3e}"
        )
    a = (a + a.conj().T) / 2
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NoConvergence(str(exc)) from exc
    return EigenDecomposition(np.real(w[::-1]).copy(), v[:, ::-1].copy())


def kron(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def kron_all(factors: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices, subsystem 0 first."""
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def partial_trace(m, dims: Sequence[int], keep: int) -> np.ndarray:
    """Trace out every subsystem except ``keep``.

    ``dims`` lists the subsystem dimensions in tensor order; their product
    must equal the matrix dimension.  Returns a ``dims[keep]`` square matrix
    with the same trace as the input.
    """
    a = as_square(m)
    dims = tuple(int(d) for d in dims)
    n = len(dims)
    if math.prod(dims) != a.shape[0]:
        raise DimensionMismatch(
            f"product of dims {dims} != matrix dimension {a.shape[0]}"
        )
    if not 0 <= keep < n:
        raise DimensionMismatch(f"keep index {keep} out of range for {n} subsystems")
    t = a.reshape(dims + dims)
    # Sum ket/bra index pairs of every traced subsystem; einsum handles n <= 6.
    letters = "abcdefghijkl"
    row = [letters[q] for q in range(n)]
    col = [letters[q] if q != keep else letters[n] for q in range(n)]
    subscripts = "".join(row) + "".join(col) + "->" + letters[keep] + letters[n]
    return np.einsum(subscripts, t)


def qubit_unitary(theta: float, phi: float) -> np.ndarray:
    """Two-angle single-qubit basis rotation.

    Columns are the basis vectors ``(cos t, -e^{-i p} sin t)`` and
    ``(e^{i p} sin t, cos t)``; ``theta = 0`` is the identity and
    ``theta = pi/4, phi = 0`` gives the x basis.
    """
    c, s = np.cos(theta), np.sin(theta)
    return np.array(
        [[c, np.exp(1j * phi) * s], [-np.exp(-1j * phi) * s, c]], dtype=complex
    )

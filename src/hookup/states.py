"""Density matrices: validation, entropies, relative entropy, presets, file I/O.

All entropies are in bits (log base 2).  An infinite relative entropy is a
legitimate answer (disjoint supports) and is returned as ``math.inf``, never
raised.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import linalg
from .errors import (
    BadParams,
    DimensionMismatch,
    ParseError,
    UnknownPreset,
    ValidationError,
    whole_number,
)

HERMITICITY_TOL = linalg.HERMITICITY_TOL
TRACE_TOL = 1e-9
MIN_EIG_TOL = 1e-9
# Support detection for relative entropy: one order above the eigensolver noise.
SUPPORT_TOL = 1e-10
SUPPORT_WEIGHT_TOL = 1e-9
MAX_TOTAL_DIM = 64


@dataclass(frozen=True)
class DensityMatrix:
    """A multipartite state: subsystem dimensions plus the full matrix."""

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = tuple(whole_number(d, "dims") for d in self.dims)
        m = np.array(self.matrix, dtype=complex)
        if not dims or any(d < 2 for d in dims):
            raise DimensionMismatch(f"dims need one or more subsystems, each >= 2, got {dims}")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"state matrix must be square, got shape {m.shape}")
        if math.prod(dims) != m.shape[0]:
            raise DimensionMismatch(
                f"product of dims {dims} != matrix dimension {m.shape[0]}"
            )
        if m.shape[0] > MAX_TOTAL_DIM:
            raise DimensionMismatch(
                f"total dimension {m.shape[0]} exceeds the supported maximum {MAX_TOTAL_DIM}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_parts(self) -> int:
        return len(self.dims)

    def marginal(self, keep: int) -> "DensityMatrix":
        """Reduced state of one subsystem."""
        return DensityMatrix((self.dims[keep],), linalg.partial_trace(self.matrix, self.dims, keep))


@dataclass(frozen=True)
class ValidationReport:
    """Which density-matrix invariants hold, and by how much they fail."""

    ok: bool
    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float
    messages: tuple[str, ...] = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok


def validate(state: DensityMatrix) -> ValidationReport:
    """Check finiteness, Hermiticity, unit trace and positivity; reports, never raises."""
    m = state.matrix
    bad = np.argwhere(~np.isfinite(m))
    if bad.size:  # every comparison below would pass a NaN silently
        i, j = bad[0]
        msg = f"matrix has {len(bad)} non-finite entries (NaN or infinity), the first at ({i},{j})"
        return ValidationReport(False, math.nan, math.nan, math.nan, (msg,))
    herm = linalg.hermiticity_defect(m)
    trace = abs(complex(np.trace(m)) - 1.0)
    messages = []
    if herm > HERMITICITY_TOL:
        messages.append(f"hermiticity defect {herm:.3e} exceeds {HERMITICITY_TOL:.0e}")
    min_eig = math.nan
    if herm <= 1e-6:  # eigh is meaningless on badly non-Hermitian input
        w = np.linalg.eigvalsh((m + m.conj().T) / 2)
        min_eig = float(w[0])
        if min_eig < -MIN_EIG_TOL:
            messages.append(f"minimum eigenvalue {min_eig:.3e} below -{MIN_EIG_TOL:.0e}")
    if trace > TRACE_TOL:
        messages.append(f"trace deviates from 1 by {trace:.3e}")
    return ValidationReport(
        ok=not messages,
        hermiticity_defect=herm,
        trace_defect=trace,
        min_eigenvalue=min_eig,
        messages=tuple(messages),
    )


def require_valid(state: DensityMatrix) -> DensityMatrix:
    report = validate(state)
    if not report.ok:
        raise ValidationError("; ".join(report.messages), report=report)
    return state


def entropy_of_probs(p: np.ndarray):
    """Shannon entropy in bits over the last axis, with 0 log 0 = 0.

    Clips eigensolver-scale negatives; a stack of vectors gives an array.
    """
    p = np.array(p, dtype=float)
    if p.size and float(p.min()) < -MIN_EIG_TOL:
        raise ValidationError(f"probability {p.min():.3e} below -{MIN_EIG_TOL:.0e}")
    h = -(_clipped_log2(p) * p).sum(axis=-1)
    return float(h) if h.ndim == 0 else h


def _clipped_log2(p: np.ndarray) -> np.ndarray:
    """Clip weights ``p`` at 0 in place; log2(max(p, tiny)), so p log2 p is -0.0 at p = 0."""
    np.maximum(p, 0.0, out=p)
    log_p = np.maximum(p, np.finfo(float).tiny)
    return np.log2(log_p, out=log_p)


def von_neumann_entropy(state: DensityMatrix) -> float:
    """S = -tr(rho log2 rho), non-negative, at most log2(dim)."""
    w = linalg.hermitian_eig(state.matrix).eigenvalues
    return entropy_of_probs(w)


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho || sigma) in bits; ``math.inf`` when rho's support leaks out of sigma's."""
    if rho.dims != sigma.dims:
        raise DimensionMismatch(f"dims {rho.dims} != {sigma.dims}")
    w, v = linalg.hermitian_eig(sigma.matrix)
    # Weight of rho in each sigma eigendirection.
    q = np.real(np.einsum("ik,ij,jk->k", v.conj(), rho.matrix, v))
    kernel = w <= SUPPORT_TOL
    if float(q[kernel].sum()) > SUPPORT_WEIGHT_TOL:
        return math.inf
    support = ~kernel
    cross = float(-(q[support] * np.log2(w[support])).sum())
    return cross - von_neumann_entropy(rho)


# ---------------------------------------------------------------------------
# Preset states
# ---------------------------------------------------------------------------


def _ket(bits: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    v = np.zeros(math.prod(dims), dtype=complex)
    idx = 0
    for b, d in zip(bits, dims):
        idx = idx * d + b
    v[idx] = 1.0
    return v


def _proj(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def _bell_phi_plus() -> np.ndarray:
    v = (_ket([0, 0], (2, 2)) + _ket([1, 1], (2, 2))) / math.sqrt(2)
    return _proj(v)


def bell() -> DensityMatrix:
    """Maximally entangled two-qubit state (|00> + |11>)/sqrt(2)."""
    return DensityMatrix((2, 2), _bell_phi_plus())


def bell_mixture() -> DensityMatrix:
    """Canonical worked example: 1/2 |Phi+><Phi+| + 1/4 |01><01| + 1/4 |10><10|."""
    m = 0.5 * _bell_phi_plus()
    m += 0.25 * _proj(_ket([0, 1], (2, 2)))
    m += 0.25 * _proj(_ket([1, 0], (2, 2)))
    return DensityMatrix((2, 2), m)


def w_mixture() -> DensityMatrix:
    """Three-qubit rank-4 mixture of |000>, |W>, |W-bar> and |111>.

    Weights 8/27, 12/27, 6/27, 1/27 with |W> the equal superposition of
    single-excitation states and |W-bar> its spin-flipped partner.
    """
    dims = (2, 2, 2)
    w = (_ket([0, 0, 1], dims) + _ket([0, 1, 0], dims) + _ket([1, 0, 0], dims)) / math.sqrt(3)
    wbar = (_ket([0, 1, 1], dims) + _ket([1, 1, 0], dims) + _ket([1, 0, 1], dims)) / math.sqrt(3)
    m = (
        8 / 27 * _proj(_ket([0, 0, 0], dims))
        + 12 / 27 * _proj(w)
        + 6 / 27 * _proj(wbar)
        + 1 / 27 * _proj(_ket([1, 1, 1], dims))
    )
    return DensityMatrix(dims, m)


def mdms(epsilon: float, theta: float = 0.0, phi: float = 0.0) -> DensityMatrix:
    """Rotated maximally-discordant-mixture family member.

    The base state is ``eps |Phi+><Phi+| + (1-eps) |10><10|``; it is conjugated
    by the symmetric product rotation ``U(theta, phi) x U(theta, -phi)``.  At
    ``phi = 0`` that rotation is a real O x O, which leaves Phi+ invariant and
    turns only the |10> part, so along theta K >= J for eps <= eps' = 2/3,
    with equality at theta = 0.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise BadParams(f"epsilon must lie in [0, 1], got {epsilon}")
    if not 0.0 <= theta <= math.pi / 4 + 1e-12:
        raise BadParams(f"theta must lie in [0, pi/4], got {theta}")
    if not 0.0 <= phi < 2 * math.pi:
        raise BadParams(f"phi must lie in [0, 2*pi), got {phi}")
    base = epsilon * _bell_phi_plus() + (1 - epsilon) * _proj(_ket([1, 0], (2, 2)))
    u = linalg.kron(linalg.qubit_unitary(theta, phi), linalg.qubit_unitary(theta, -phi))
    return DensityMatrix((2, 2), u @ base @ u.conj().T)


def ghz(n: int = 3) -> DensityMatrix:
    """n-qubit GHZ state (|0...0> + |1...1>)/sqrt(2)."""
    n = whole_number(n, "ghz qubit count", 2, 6)
    dims = (2,) * n
    v = (_ket([0] * n, dims) + _ket([1] * n, dims)) / math.sqrt(2)
    return DensityMatrix(dims, _proj(v))


def classical_correlated() -> DensityMatrix:
    """Perfectly correlated classical bit pair (|00><00| + |11><11|)/2."""
    m = 0.5 * _proj(_ket([0, 0], (2, 2))) + 0.5 * _proj(_ket([1, 1], (2, 2)))
    return DensityMatrix((2, 2), m)


def diagonal(probs: Sequence[float], dims: Sequence[int] | None = None) -> DensityMatrix:
    """Diagonal state from a probability vector.

    Without explicit ``dims`` a power-of-two length is split into qubits,
    anything else becomes a single subsystem.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise BadParams("probs must be a vector of at least two entries")
    if np.any(p < -1e-12) or not abs(p.sum() - 1.0) <= 1e-9:
        raise BadParams("probs must be non-negative and sum to 1")
    if dims is None:
        n = p.size
        if n & (n - 1) == 0:
            dims = (2,) * (n.bit_length() - 1)
        else:
            dims = (n,)
    return DensityMatrix(dims, np.diag(p.astype(complex)))


_PRESETS = {
    "bell": bell,
    "paper-example": bell_mixture,
    "w-mixture": w_mixture,
    "mdms": mdms,
    "ghz": ghz,
    "classical-correlated": classical_correlated,
    "diagonal": diagonal,
}


def preset(name: str, /, **params) -> DensityMatrix:
    """Build a named preset state; see ``_PRESETS`` for accepted names."""
    if name not in _PRESETS:
        raise UnknownPreset(
            f"unknown preset {name!r}; available: {', '.join(sorted(_PRESETS))}"
        )
    try:
        return _PRESETS[name](**params)
    except (TypeError, ValueError, OverflowError, BadParams) as exc:
        raise BadParams(f"bad parameters for preset {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------
#
# File format (JSON text), either an explicit matrix
#   {"dims": [2, 2], "matrix": [[{"re": x, "im": y}, ...], ...]}
# or a preset reference
#   {"preset": "mdms", "epsilon": 0.8, "theta": 0.1, "phi": 0.0}
# Matrix entries are written row-major with 17 significant digits, which
# round-trips IEEE doubles bit-exactly.


def _f17(x: float) -> float:
    # 17 significant digits parse back to the identical double.
    return float(f"{x:.17g}")


def save(state: DensityMatrix) -> str:
    """Serialize to the explicit-matrix JSON form (bit-exact round trip)."""
    rows = [
        [{"re": _f17(z.real), "im": _f17(z.imag)} for z in row]
        for row in np.asarray(state.matrix)
    ]
    return json.dumps({"dims": list(state.dims), "matrix": rows}, indent=1)


def _is_number(value) -> bool:
    # json.loads gives exactly int or float for a JSON number; a bool is neither here.
    return type(value) in (int, float)


def load(text: str) -> DensityMatrix:
    """Parse a state file; raises ParseError / ValidationError on bad input."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")

    if "preset" in doc:
        if not isinstance(doc["preset"], str):
            raise ParseError("preset must be a string naming a preset", field="preset")
        params = {k: v for k, v in doc.items() if k != "preset"}
        for key, value in params.items():
            if not all(map(_is_number, value if isinstance(value, list) else [value])):
                raise ParseError(
                    f"parameters of preset {doc['preset']!r} must be numbers or lists of numbers",
                    field=key,
                )
        return require_valid(preset(doc["preset"], **params))

    for key in ("dims", "matrix"):
        if key not in doc:
            raise ParseError("missing required field", field=key)
    dims = doc["dims"]
    if not isinstance(dims, list) or not all(type(d) is int for d in dims):
        raise ParseError("dims must be a list of integers", field="dims")
    rows = doc["matrix"]
    if not isinstance(rows, list) or not rows:
        raise ParseError("matrix must be a non-empty list of rows", field="matrix")
    n = len(rows)
    m = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"row {i} must have {n} entries", field="matrix")
        for j, entry in enumerate(row):
            try:
                re, im = entry["re"], entry["im"]
                if not (_is_number(re) and _is_number(im)):
                    raise TypeError("re and im must be JSON numbers")
                m[i, j] = complex(float(re), float(im))
            except (TypeError, KeyError, OverflowError) as exc:
                raise ParseError(
                    f"entry ({i},{j}) must be an object with numeric re/im",
                    field="matrix",
                ) from exc
    return require_valid(DensityMatrix(tuple(dims), m))

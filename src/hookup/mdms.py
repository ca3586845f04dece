"""Parameter sweeps and threshold analysis for the rotated discordant-mixture family.

The family is ``mdms(epsilon, theta, phi)``: the mixture
``eps |Phi+><Phi+| + (1-eps) |10><10|`` conjugated by the symmetric product
rotation.  Two epsilon thresholds structure its closest-classical basis: below
``eps'`` the optimal dephasing basis is computational, above ``eps''`` it is
the x basis, with a continuously rotating optimum in between.  At ``phi = 0``
the rotation is a real O x O, which leaves Phi+ invariant; so on the
(theta, epsilon) sweep K >= J for eps <= eps', with K = J at theta = 0.

The drivers read the entropy ledger of ``quantifiers``: S(rho) and S(rho_q)
once per epsilon from the theta = 0 member, H(p) and H(p_q) from the rotated
members' computational-basis weights p: one contraction of that member's Pauli
tensor (the kernel of ``search``), with no rotated member built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from io import StringIO
from typing import Callable, Sequence

import numpy as np

from .errors import BadParams, NoRootBracketed, whole_number
from .quantifiers import (
    _dephased_entropies,
    _fixed_basis_values,
    _state_entropies,
    closest_classical,
)
from .search import OptimizerConfig, _bloch_axes, _outcome_rows, dephased_entropy, pauli_tensor
from .states import DensityMatrix, mdms

SCAN_COLUMNS = ("T", "C", "C_L", "C_M", "K", "M", "D", "J", "L")
CSV_HEADER = ("theta", "epsilon") + SCAN_COLUMNS


@dataclass(frozen=True)
class ScanTable:
    """Quantifier values over a (theta, epsilon) grid, one 2-D array per column."""

    thetas: np.ndarray
    epsilons: np.ndarray
    columns: dict[str, np.ndarray]
    provenance: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        nt, ne = len(self.thetas), len(self.epsilons)
        for name, values in self.columns.items():
            if values.shape != (nt, ne):
                raise BadParams(f"column {name} has shape {values.shape}, expected {(nt, ne)}")


def _dephased_row(state: DensityMatrix, thetas_a: np.ndarray, thetas_b: np.ndarray):
    """H(p) and sum_q H(p_q) of a two-qubit ``state`` turned by U(t_a, 0) x U(t_b, 0).

    One value per angle pair, computational basis.  The turned state's weights
    are ``state``'s in the basis U(t, 0)^dagger = U(-t, 0) of each qubit: its
    Pauli tensor contracted with the outcome rows of those Bloch axes.
    """
    rows = [_outcome_rows(_bloch_axes(-t, 0.0)) for t in (thetas_a, thetas_b)]
    probs = np.einsum("kam,mn,kbn->kab", rows[0], pauli_tensor(state.matrix), rows[1])
    return _dephased_entropies(probs.reshape(len(probs), 4), (2, 2))


def _row_values(eps: float, thetas: np.ndarray, cfg: OptimizerConfig) -> dict:
    """The ``SCAN_COLUMNS`` of ``mdms(eps, theta, 0)`` along ``thetas``.

    The rotation is a local unitary, so S(rho), sum_q S(rho_q), the
    closest-classical search (D, J and L) and, through its Pauli tensor,
    every theta's dephased weights come from the theta = 0 member.
    """
    member = mdms(eps, 0.0, 0.0)
    cc = closest_classical(member, cfg)
    row = _fixed_basis_values(*_state_entropies(member), *_dephased_row(member, thetas, thetas))
    return {**row, "D": cc.discord, "J": cc.classical_correlations, "L": cc.excess}


def scan_mdms(
    theta_points: int = 65,
    epsilon_points: int = 101,
    cfg: OptimizerConfig | None = None,
    theta_max: float = math.pi / 4,
) -> ScanTable:
    """Evaluate every quantifier over the (theta, epsilon) grid.

    Quantifiers are evaluated in the computational basis, so the coherence
    family and K vary along theta.  The member at theta is the theta = 0
    member under a local unitary, which leaves S(rho), S(rho_q), T, D, J and
    L invariant; so each epsilon row runs one basis search and one set of
    eigendecompositions at theta = 0 and shares them across the row, and the
    row's dephased weights are one contraction of that member's Pauli tensor.
    The tests check the row against explicitly built rotated members.
    """
    from . import __version__

    theta_points = whole_number(theta_points, "theta_points", 2)
    epsilon_points = whole_number(epsilon_points, "epsilon_points", 2)
    if not 0.0 < theta_max <= math.pi / 4 + 1e-12:
        raise BadParams(f"theta_max must lie in (0, pi/4], got {theta_max}")
    cfg = cfg or OptimizerConfig()
    thetas = np.linspace(0.0, theta_max, theta_points)
    epsilons = np.linspace(0.0, 1.0, epsilon_points)
    cols = {name: np.empty((theta_points, epsilon_points)) for name in SCAN_COLUMNS}

    for je, eps in enumerate(epsilons):
        for name, values in _row_values(float(eps), thetas, cfg).items():
            cols[name][:, je] = values

    provenance = (
        f"hookup scan-mdms version={__version__}",
        f"theta_points={theta_points} epsilon_points={epsilon_points} theta_max={theta_max!r}",
        f"optimizer grid={cfg.grid_points} starts={cfg.multistarts} tol={cfg.tol!r} "
        f"max_iter={cfg.max_iter}",
        "columns: " + ",".join(CSV_HEADER),
    )
    return ScanTable(thetas=thetas, epsilons=epsilons, columns=cols, provenance=provenance)


def scan_to_csv(table: ScanTable) -> str:
    """Render a scan as CSV, theta-major rows, 17-significant-digit numbers."""
    buf = StringIO()
    for line in table.provenance:
        buf.write(f"# {line}\n")
    buf.write(",".join(CSV_HEADER) + "\n")
    for jt, theta in enumerate(table.thetas):
        for je, eps in enumerate(table.epsilons):
            row = [f"{theta:.17g}", f"{eps:.17g}"]
            row += [f"{table.columns[name][jt, je]:.17g}" for name in SCAN_COLUMNS]
            buf.write(",".join(row) + "\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdResult:
    """The two epsilon thresholds with their method and bisection diagnostics."""

    eps_prime: float
    eps_double_prime: float
    method: str
    brackets: dict
    residuals: dict

    def __post_init__(self):
        if not 0.0 < self.eps_prime < self.eps_double_prime < 1.0:
            raise NoRootBracketed(
                f"thresholds out of order: {self.eps_prime}, {self.eps_double_prime}"
            )


SWITCH_DELTA = 0.01  # rad; how far the argmin polar angle must move to count as switched


def _first_root(f: Callable[[float], float], tol: float) -> tuple[float, tuple[float, float]]:
    """First sign change of ``f`` on the epsilon grid, bisected to ``tol``.

    Returns the root and the grid cell that brackets it.  A zero at the low
    end of a cell does not count as a flip; a zero at its high end is the root.
    """
    grid = np.linspace(0.05, 0.99, 20)
    lo, flo = float(grid[0]), f(float(grid[0]))
    for hi in map(float, grid[1:]):
        fhi = f(hi)
        if np.sign(fhi) != np.sign(flo) and flo != 0.0:
            break
        lo, flo = hi, fhi
    else:
        raise NoRootBracketed("no sign change on (0, 1)")
    bracket = (lo, hi)
    if fhi == 0.0:
        return hi, bracket
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid, bracket
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi), bracket


def _boundary_curvatures(state: DensityMatrix) -> np.ndarray:
    """d2H(p)/dt2 of a two-qubit ``state`` turned by U(t, 0) x U(t, 0), at t = 0 and pi/4.

    Both Bloch axes are n(t) = (sin 2t, 0, cos 2t) (see ``_dephased_row``), so
    dn/dt = 2 m with m = n(t + pi/4) and d2n/dt2 = -4 n: the curvature is
    4 (m^T d2H m - dH . n), read from the exact derivatives of the kernel.
    """
    t = np.array([0.0, math.pi / 4])
    n, m = (np.repeat(_bloch_axes(-s, 0.0)[:, None], 2, axis=1) for s in (t, t + math.pi / 4))
    _, grad, hess = dephased_entropy(pauli_tensor(state.matrix), n)
    along = np.einsum("sqi,sqirj,srj->s", m, hess, m)
    return 4 * (along - np.einsum("sqi,sqi->s", grad, n))


def find_thresholds(
    method: str = "basis-switch",
    cfg: OptimizerConfig | None = None,
) -> ThresholdResult:
    """Locate both epsilon thresholds of the family.

    Both methods read one signed pair per epsilon, cached, and find the first
    sign change of each entry on one grid, bisected to 1e-6.  ``basis-switch``
    reads the largest polar angle of the unrotated member's argmin basis:
    eps' is where it first exceeds ``SWITCH_DELTA`` (the basis departs from
    computational), eps'' where it first exceeds pi/4 - ``SWITCH_DELTA`` (it
    reaches the x basis).  ``derivative`` takes the second angle-derivative of
    the dephased-state entropy at the two boundary angles 0 and pi/4 (a
    stationary direction in each regime), which changes sign exactly where
    each basis stops being a local optimum.  ``cfg`` serves the basis-switch
    searches only; BadParams when under it no epsilon reads as switched.
    """
    if method not in ("basis-switch", "derivative"):
        raise BadParams(f"unknown threshold method {method!r}")
    cfg = cfg or OptimizerConfig()

    @cache
    def pair(eps: float):
        member = mdms(eps, 0.0, 0.0)
        if method == "derivative":
            return _boundary_curvatures(member)
        angle = max(a.theta for a in closest_classical(member, cfg).basis.angles)
        return angle - SWITCH_DELTA, angle - (math.pi / 4 - SWITCH_DELTA)

    try:
        (eps_prime, bracket1), (eps_dprime, bracket2) = (
            _first_root(lambda eps: pair(eps)[k], 1e-6) for k in (0, 1)
        )
    except NoRootBracketed as exc:
        if method == "derivative":
            raise
        # A loose tol stops the searches short of the x basis when the grid misses it.
        raise BadParams(
            f"{exc}: searches at grid={cfg.grid_points} tol={cfg.tol!r} never reached the "
            "switch angles; use a finer grid or a smaller tol"
        ) from exc
    residuals = {"switch_delta": SWITCH_DELTA}
    if method == "derivative":
        residuals = {
            "eps_prime": abs(pair(eps_prime)[0]),
            "eps_double_prime": abs(pair(eps_dprime)[1]),
        }
    return ThresholdResult(
        eps_prime=eps_prime,
        eps_double_prime=eps_dprime,
        method=method,
        brackets={"eps_prime": bracket1, "eps_double_prime": bracket2},
        residuals=residuals,
    )


# ---------------------------------------------------------------------------
# K versus J comparison
# ---------------------------------------------------------------------------


def compare_jk(
    epsilons: Sequence[float],
    theta_points: int = 65,
    cfg: OptimizerConfig | None = None,
) -> list[dict]:
    """Extremes of K - J along theta for each epsilon.

    K is the computational-basis irreducible classical information of the
    rotated member; J is the (rotation-invariant) classical correlations.
    """
    theta_points = whole_number(theta_points, "theta_points", 65)
    if len(epsilons) == 0:
        raise BadParams("compare_jk needs at least one epsilon")
    cfg = cfg or OptimizerConfig()
    thetas = np.linspace(0.0, math.pi / 4, theta_points)
    rows = []
    for eps in epsilons:
        eps = float(eps)
        if not 0.0 < eps < 1.0:
            raise BadParams(f"epsilon values must lie in (0, 1), got {eps}")
        row = _row_values(eps, thetas, cfg)
        gaps = row["K"] - row["J"]
        rows.append(
            {
                "epsilon": eps,
                "J": row["J"],
                "max_K_minus_J": float(gaps.max()),
                "min_K_minus_J": float(gaps.min()),
                "theta_at_max": float(thetas[int(gaps.argmax())]),
                "theta_at_min": float(thetas[int(gaps.argmin())]),
            }
        )
    return rows

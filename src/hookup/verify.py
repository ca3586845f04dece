"""Built-in reproduction checks behind the ``verify`` command.

Four groups: the worked Bell-mixture example, the three-qubit W mixture,
the discordant-family thresholds, and the structure of the (theta, epsilon)
sweep.  Every row prints expected value, actual value, and tolerance.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .mdms import _dephased_row, find_thresholds, scan_mdms
from .quantifiers import closest_classical, full_report
from .search import OptimizerConfig
from .states import mdms, preset

X_BASIS_THETA_TOL = 0.02


@dataclass(frozen=True)
class VerifyRow:
    group: str
    name: str
    expected: str
    actual: str
    tolerance: str
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _row(group, name, expected, actual, tol) -> VerifyRow:
    passed = abs(actual - expected) <= tol
    return VerifyRow(
        group=group,
        name=name,
        expected=f"{expected:.6g}",
        actual=f"{actual:.6g}",
        tolerance=f"±{tol:.2g}",
        passed=passed,
    )


def _bound_row(group, name, value, bound, kind) -> VerifyRow:
    passed = bool(value <= bound if kind == "max" else value >= bound)
    rel = "<=" if kind == "max" else ">="
    return VerifyRow(
        group=group,
        name=name,
        expected=f"{rel} {bound:.3g}",
        actual=f"{value:.6g}",
        tolerance="bound",
        passed=passed,
    )


def check_worked_example(cfg: OptimizerConfig) -> list[VerifyRow]:
    """Bell-mixture state: hookup family in the computational basis, D and J."""
    started = time.perf_counter()
    report = full_report(preset("paper-example"), cfg=cfg)
    elapsed = time.perf_counter() - started
    g = "example"
    rows = [
        _row(g, "M", 0.5, report.hookup, 1e-6),
        _row(g, "C", 0.5, report.coherence, 1e-6),
        _row(g, "C_M", 0.5, report.multipartite_coherence, 1e-6),
        _row(g, "K", 0.0, report.irreducible_classical, 1e-9),
        _row(g, "D", 0.31, report.discord, 0.01),
        _row(g, "J", 0.19, report.classical_correlations, 0.01),
    ]
    for q, angles in enumerate(report.chi_basis.angles):
        rows.append(
            _row(g, f"chi basis theta_{q + 1}", math.pi / 4, angles.theta, X_BASIS_THETA_TOL)
        )
    rows.append(_bound_row(g, "runtime [s]", elapsed, 5.0, "max"))
    return rows


def check_w_mixture(cfg: OptimizerConfig) -> list[VerifyRow]:
    """Three-qubit W mixture: the excess term in both evaluation forms."""
    started = time.perf_counter()
    state = preset("w-mixture")
    cc = closest_classical(state, cfg)
    elapsed = time.perf_counter() - started
    g = "w-mixture"
    return [
        _row(g, "L", 0.24, cc.excess, 0.01),
        _bound_row(g, "cross-form residual", cc.excess_residual, 1e-6, "max"),
        _bound_row(g, "runtime [s]", elapsed, 30.0, "max"),
    ]


def check_thresholds(cfg: OptimizerConfig) -> list[VerifyRow]:
    g = "thresholds"
    switch = find_thresholds("basis-switch", cfg)
    deriv = find_thresholds("derivative", cfg)
    return [
        _row(g, "eps' (basis-switch)", 2 / 3, switch.eps_prime, 0.01),
        _row(g, "eps'' (basis-switch)", 0.76, switch.eps_double_prime, 0.01),
        _row(g, "eps' (derivative)", 2 / 3, deriv.eps_prime, 0.01),
        _row(g, "eps'' (derivative)", 0.76, deriv.eps_double_prime, 0.01),
        _bound_row(
            g, "methods agree eps'", abs(switch.eps_prime - deriv.eps_prime), 0.01, "max"
        ),
        _bound_row(
            g,
            "methods agree eps''",
            abs(switch.eps_double_prime - deriv.eps_double_prime),
            0.01,
            "max",
        ),
    ]


def check_scan_structure(cfg: OptimizerConfig) -> list[VerifyRow]:
    """Ordering claims across the default 65 x 101 sweep.

    Rows: K-J <= 1e-6 for eps > 0.77; at eps = 0.3 and 0.5, K-J reaches above
    0 along theta, K-J is 0 at theta = 0 and >= 0 along theta, and K-J
    reaches below 0 on the counter-rotated member; K and M maximal at
    theta = pi/4 and M minimal at theta = 0 in every epsilon row.

    The sweep's real rotation O x O leaves Phi+ invariant, and below eps' the
    argmin basis at theta = 0 is computational, so there K(0) = J to rounding
    and K - J never turns negative along theta.  The negative sign shows on the
    counter-rotation O x O^T of the same member, read from its weights with
    qubit B's angle negated: up to a relabelling of qubit B's computational
    basis, which leaves K unchanged, that is the symmetric rotation of
    eps |Psi+><Psi+| + (1-eps) |11><11|.
    """
    table = scan_mdms(65, 101, cfg)
    k, j, m = (table.columns[c] for c in "KJM")
    gaps = k - j
    eps = table.epsilons
    bounds = [("max K-J for eps > 0.77", gaps[:, eps > 0.77].max(), 1e-6, "max")]
    for target in (0.3, 0.5):
        je = int(np.argmin(np.abs(eps - target)))
        col = gaps[:, je]
        h, h_q = _dephased_row(mdms(float(eps[je])), table.thetas, -table.thetas)
        bounds += [
            (f"K-J reaches above 0 at eps={target}", col.max(), 1e-9, "min"),
            (
                f"K-J = 0 at theta=0, >= 0 along theta at eps={target} (worst violation)",
                max(abs(col[0]), -col.min()),
                1e-9,
                "max",
            ),
            (
                f"K-J reaches below 0 on the counter-rotated member at eps={target}",
                (h_q - h - j[:, je]).min(),
                -1e-9,
                "max",
            ),
        ]
    bounds += [
        ("K maximal at theta=pi/4 (worst row gap)", (k.max(axis=0) - k[-1, :]).max(), 1e-9, "max"),
        ("M maximal at theta=pi/4 (worst row gap)", (m.max(axis=0) - m[-1, :]).max(), 1e-9, "max"),
        ("M minimal at theta=0 (worst row gap)", (m[0, :] - m.min(axis=0)).max(), 1e-9, "max"),
    ]
    return [_bound_row("scan", *row) for row in bounds]


def run_all(cfg: OptimizerConfig | None = None) -> list[VerifyRow]:
    cfg = cfg or OptimizerConfig()
    rows = []
    rows += check_worked_example(cfg)
    rows += check_w_mixture(cfg)
    rows += check_thresholds(cfg)
    rows += check_scan_structure(cfg)
    return rows


def format_table(rows: list[VerifyRow], elapsed: float | None = None) -> str:
    width_name = max(len(f"{r.group}: {r.name}") for r in rows)
    lines = []
    for r in rows:
        tag = "PASS" if r.passed else "FAIL"
        lines.append(
            f"[{tag}] {r.group + ': ' + r.name:<{width_name}}  "
            f"expected {r.expected:>12}  actual {r.actual:>12}  ({r.tolerance})"
        )
    n_fail = sum(not r.passed for r in rows)
    summary = f"{len(rows) - n_fail}/{len(rows)} checks passed"
    if elapsed is not None:
        summary += f" in {elapsed:.1f} s"
    lines.append(summary)
    return "\n".join(lines)

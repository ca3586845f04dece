"""The four benchmark workloads: seeded inputs, the op each input drives, and its checks.

A workload is a fixed list of ops (one *pass*).  ``make_pass(seed, index)``
draws fresh inputs for pass ``index`` from the seed alone, so a seed fixes
every input of a run and no two passes repeat a generated state.  Every op
carries a check against ``oracles`` and a digest of its outputs, argmin angles
included.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import hookup
import oracles

RESIDUAL_MAX = 1e-8  # the library's own identity-residual warning line
AGREE = 1e-9  # program against oracle, same quantity by another route
EXACT = 1e-6  # optimizer against an exact closed form


@dataclass
class Op:
    kind: str
    label: str  # the input, in words, for failure reports
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    digest: Callable[[Any], str]


@dataclass(frozen=True)
class Workload:
    make_pass: Callable[[int, int], list[Op]]
    sizes: dict


def _rng(seed: int, index: int, tag: str) -> np.random.Generator:
    key = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, index, key])


def _near(name, got, want, tol) -> list[str]:
    if got is None or not abs(got - want) <= tol:
        return [f"{name}={got!r}, expected {want!r} +- {tol:g}"]
    return []


def _at_most(name, got, bound) -> list[str]:
    return [] if got <= bound else [f"{name}={got!r} above {bound:g}"]


def _hex(*values) -> str:
    text = []
    for v in values:
        if isinstance(v, np.ndarray):
            text.append(hashlib.sha256(np.ascontiguousarray(v).tobytes()).hexdigest())
        else:
            text.append(repr(v))
    return hashlib.sha256("|".join(text).encode()).hexdigest()


def _angles(basis) -> list[tuple[float, float]]:
    return [(a.theta, a.phi) for a in basis.angles]


# ---------------------------------------------------------------------------
# Checks shared by the report workloads
# ---------------------------------------------------------------------------

_FIXED_FIELDS = (("T", "total_correlations"), ("C", "coherence"), ("C_L", "local_coherence"),
                 ("K", "irreducible_classical"), ("M", "hookup"))


def _check_fixed_basis(m, dims, report) -> list[str]:
    fails = []
    for name, value in report.residuals.items():
        fails += _at_most(f"residual {name}", value, RESIDUAL_MAX)
    ref = oracles.fixed_basis_values(m, dims)
    for key, attr in _FIXED_FIELDS:
        fails += _near(key, getattr(report, attr), ref[key], AGREE)
    fails += _near("C_M", report.multipartite_coherence, ref["C"] - ref["C_L"], AGREE)
    return fails


def _check_optimized(m, dims, report) -> list[str]:
    """D, J, L and G against the oracle evaluated in the reported bases."""
    fails = []
    chi = oracles.dephased_in(m, _angles(report.chi_basis))
    s = oracles.vn_entropy(m)
    fails += _near("D in argmin basis", report.discord, oracles.vn_entropy(chi) - s, AGREE)
    fails += _near("J in argmin basis", report.classical_correlations,
                   oracles.mutual_information(chi, dims), AGREE)
    primary, cross = oracles.excess(m, chi, dims)
    fails += _near("L", report.excess, primary, AGREE)
    fails += _near("L cross form", cross, primary, EXACT)
    u = oracles.product_rotation(_angles(report.g_basis))
    g_ref = oracles.fixed_basis_values(u.conj().T @ m @ u, dims)
    fails += _near("G in its basis", report.global_discord, g_ref["C"] - g_ref["C_L"], AGREE)
    # The computational basis is on the grid, so the optimum can only be lower.
    fails += _at_most("D - C", report.discord - report.coherence, AGREE)
    fails += _at_most("G - C_M", report.global_discord - report.multipartite_coherence, AGREE)
    fails += _at_most("-D", -report.discord, AGREE)
    return fails


def _report_digest(report) -> str:
    values = [report.values()[k] for k in sorted(report.values())]
    chi = _angles(report.chi_basis) if report.chi_basis is not None else None
    g = _angles(report.g_basis) if report.g_basis is not None else None
    return _hex(values, chi, g, sorted(report.residuals.items()), report.optimizer_meta)


# ---------------------------------------------------------------------------
# report-2q
# ---------------------------------------------------------------------------


def _report_op(kind, label, m, cfg, extra=None) -> Op:
    dims = (2, 2)
    state = hookup.DensityMatrix(dims, m)

    def check(report):
        fails = _check_fixed_basis(m, dims, report) + _check_optimized(m, dims, report)
        return fails + (extra(report) if extra else [])

    return Op(kind, label, lambda: hookup.full_report(state, cfg=cfg), check, _report_digest)


def _paper_example_checks(report) -> list[str]:
    fails = _near("M", report.hookup, 0.5, EXACT) + _near("C", report.coherence, 0.5, EXACT)
    fails += _near("K", report.irreducible_classical, 0.0, AGREE)
    fails += _near("D", report.discord, 0.31, 0.01) + _near("J", report.classical_correlations, 0.19, 0.01)
    for q, (theta, _) in enumerate(_angles(report.chi_basis)):
        fails += _near(f"chi theta_{q + 1} (x basis)", theta, math.pi / 4, 0.02)
    return fails


def _bell_diagonal_checks(m):
    d, j = oracles.bell_diagonal_discord(m)

    def check(report):
        return (_near("D exact", report.discord, d, EXACT)
                + _near("J exact", report.classical_correlations, j, EXACT)
                + _near("L exact", report.excess, 0.0, EXACT))

    return check


def report_2q(tiny: bool = False) -> Workload:
    cfg = (hookup.OptimizerConfig(grid_points=5, multistarts=1, max_iter=40) if tiny
           else hookup.OptimizerConfig())

    def make_pass(seed, index):
        rng = _rng(seed, index, "report-2q")
        weights = rng.dirichlet(np.ones(4))
        bell = oracles.bell_diagonal(weights)
        rank = int(rng.integers(1, 4))
        eps, theta, phi = rng.uniform(0.05, 0.95), rng.uniform(0, math.pi / 4), rng.uniform(0, 2 * math.pi)
        return [
            _report_op("paper-example", "paper-example", oracles.paper_example(), cfg,
                       _paper_example_checks),
            _report_op("bell-diagonal", f"bell-diagonal weights={weights.tolist()}", bell, cfg,
                       _bell_diagonal_checks(bell)),
            _report_op("full-rank", "random rank-4", oracles.random_state(rng, 4, 4), cfg),
            _report_op("low-rank", f"random rank-{rank}", oracles.random_state(rng, 4, rank), cfg),
            _report_op("mdms", f"mdms eps={eps!r} theta={theta!r} phi={phi!r}",
                       oracles.mdms_state(eps, theta, phi), cfg),
        ]

    return Workload(
        make_pass,
        {"ops_per_pass": 5, "kinds": ["paper-example", "bell-diagonal", "full-rank", "low-rank", "mdms"],
         "optimizer": repr(cfg)},
    )


# ---------------------------------------------------------------------------
# search-3q4q
# ---------------------------------------------------------------------------


def _search_op(kind, label, m, n, cfg, exact) -> Op:
    dims = (2,) * n
    state = hookup.DensityMatrix(dims, m)

    def check(cc):
        chi = oracles.dephased_in(m, _angles(cc.basis))
        fails = _at_most("chi vs argmin dephasing", float(np.abs(cc.chi.matrix - chi).max()), AGREE)
        d = oracles.vn_entropy(chi) - oracles.vn_entropy(m)
        fails += _at_most("-D", -d, AGREE)
        fails += _at_most("D - C", d - oracles.fixed_basis_values(m, dims)["C"], AGREE)
        return fails + exact(m, chi, d)

    def digest(cc):
        opt = cc.optimizer
        return _hex(_angles(cc.basis), opt.value, opt.nfev, opt.converged, cc.chi.matrix)

    return Op(kind, label, lambda: hookup.closest_classical(state, cfg), check, digest)


def _w_mixture_exact(m, chi, d):
    primary, cross = oracles.excess(m, chi, (2, 2, 2))
    return _near("L", primary, 0.24, 0.01) + _near("L cross form", cross, primary, EXACT)


def _ghz_exact(m, chi, d):
    # Any product measurement of one GHZ qubit is uniform, so S(chi) >= 1 = S at Z^n.
    return _near("D", d, 1.0, EXACT)


def _classical_exact(m, chi, d):
    return _at_most("D", d, EXACT)


def search_3q4q(tiny: bool = False) -> Workload:
    # Reduced grids keep two passes inside a run; the default grid (13 points
    # for 3 qubits, 7 for 4) costs 10 s and 21 s per op on a 2-core machine.
    cfg3 = hookup.OptimizerConfig(grid_points=3 if tiny else 9, multistarts=1 if tiny else 8,
                                  max_iter=40 if tiny else 500)
    cfg4 = hookup.OptimizerConfig(grid_points=3 if tiny else 5, multistarts=1 if tiny else 8,
                                  max_iter=40 if tiny else 500)

    def make_pass(seed, index):
        rng = _rng(seed, index, "search-3q4q")
        return [
            _search_op("w-mixture", "w-mixture", oracles.w_mixture(), 3, cfg3, _w_mixture_exact),
            _search_op("rotated-classical-3q", f"rotated classical 3q seed={seed} pass={index}",
                       oracles.rotated_classical(rng, 3), 3, cfg3, _classical_exact),
            _search_op("ghz-4", "ghz n=4", oracles.ghz(4), 4, cfg4, _ghz_exact),
            _search_op("rotated-classical-4q", f"rotated classical 4q seed={seed} pass={index}",
                       oracles.rotated_classical(rng, 4), 4, cfg4, _classical_exact),
        ]

    return Workload(
        make_pass,
        {"ops_per_pass": 4, "optimizer_3q": repr(cfg3), "optimizer_4q": repr(cfg4),
         "grid_cells_3q": hookup.search.effective_grid_points(cfg3.grid_points, 3) ** 6,
         "grid_cells_4q": hookup.search.effective_grid_points(cfg4.grid_points, 4) ** 8},
    )


# ---------------------------------------------------------------------------
# mdms-family
# ---------------------------------------------------------------------------

THETA_POINTS = 65


def _scan_op(eps_points, theta_max, cfg, rng) -> Op:
    spots = [(int(rng.integers(THETA_POINTS)), int(rng.integers(eps_points))) for _ in range(3)]

    def check(table):
        fails = []
        cols = table.columns
        fails += _at_most("theta axis error", float(np.abs(
            table.thetas - np.linspace(0.0, theta_max, THETA_POINTS)).max()), 0.0)
        fails += _at_most("|M - T - C_L|", float(np.abs(cols["M"] - cols["T"] - cols["C_L"]).max()),
                          RESIDUAL_MAX)
        fails += _at_most("|M - C - K|", float(np.abs(cols["M"] - cols["C"] - cols["K"]).max()),
                          RESIDUAL_MAX)
        fails += _at_most("|C_M - C + C_L|",
                          float(np.abs(cols["C_M"] - cols["C"] + cols["C_L"]).max()), AGREE)
        for name in ("T", "D", "J", "L"):
            spread = float((cols[name].max(axis=0) - cols[name].min(axis=0)).max())
            fails += _at_most(f"{name} spread along theta", spread, RESIDUAL_MAX)
        fails += _at_most("-L", float(-cols["L"].min()), AGREE)
        for jt, je in spots:
            theta, eps = float(table.thetas[jt]), float(table.epsilons[je])
            ref = oracles.fixed_basis_values(oracles.mdms_state(eps, theta, 0.0), (2, 2))
            for key in ("T", "C", "C_L", "K", "M"):
                fails += _near(f"{key}[theta={theta:.4f}, eps={eps:.4f}]", cols[key][jt, je],
                               ref[key], AGREE)
        return fails

    def digest(table):
        return _hex(*(table.columns[name] for name in sorted(table.columns)))

    return Op("scan", f"scan_mdms({THETA_POINTS}, {eps_points}, theta_max={theta_max!r})",
              lambda: hookup.scan_mdms(THETA_POINTS, eps_points, cfg=cfg, theta_max=theta_max),
              check, digest)


def _thresholds_op(method, cfg) -> Op:
    def check(res):
        return (_near("eps'", res.eps_prime, 2 / 3, 0.01)
                + _near("eps''", res.eps_double_prime, 0.76, 0.01))

    def digest(res):
        return _hex(res.eps_prime, res.eps_double_prime, sorted(res.brackets.items()))

    return Op(f"thresholds-{method}", method, lambda: hookup.find_thresholds(method, cfg), check,
              digest)


def _compare_op(epsilons, cfg) -> Op:
    def check(rows):
        fails = _near("rows", len(rows), len(epsilons), 0)
        for row, eps in zip(rows, epsilons):
            fails += _near("epsilon", row["epsilon"], eps, 0.0)
            fails += _at_most("min K-J above max", row["min_K_minus_J"] - row["max_K_minus_J"], 0.0)
            fails += _at_most("-J", -row["J"], AGREE)
            for which in ("max", "min"):
                theta = row[f"theta_at_{which}"]
                k = oracles.fixed_basis_values(oracles.mdms_state(eps, theta, 0.0), (2, 2))["K"]
                fails += _near(f"{which} K-J at eps={eps:.4f}", row[f"{which}_K_minus_J"],
                               k - row["J"], AGREE)
        return fails

    def digest(rows):
        return _hex([sorted(r.items()) for r in rows])

    return Op("compare-jk", f"compare_jk({epsilons!r})",
              lambda: hookup.compare_jk(epsilons, cfg=cfg), check, digest)


def mdms_family(tiny: bool = False) -> Workload:
    cfg = (hookup.OptimizerConfig(grid_points=5, multistarts=1, max_iter=40) if tiny
           else hookup.OptimizerConfig())
    eps_range = (2, 3) if tiny else (5, 8)

    def make_pass(seed, index):
        rng = _rng(seed, index, "mdms-family")
        eps_points = int(rng.integers(*eps_range))
        theta_max = float(rng.uniform(math.pi / 8, math.pi / 4))
        epsilons = [float(x) for x in rng.uniform(0.1, 0.9, size=2)]
        ops = [_scan_op(eps_points, theta_max, cfg, rng)]
        ops += [_thresholds_op("basis-switch", cfg)] if not tiny else []
        ops += [_thresholds_op("derivative", cfg), _compare_op(epsilons, cfg)]
        return ops

    return Workload(
        make_pass,
        {"ops_per_pass": 3 if tiny else 4, "scan_theta_points": THETA_POINTS,
         "scan_epsilon_points": f"{eps_range[0]}..{eps_range[1] - 1} (seeded)",
         "compare_jk_epsilons": 2, "optimizer": repr(cfg)},
    )


# ---------------------------------------------------------------------------
# fixed-basis
# ---------------------------------------------------------------------------

FIXED_DIMS = ((3, 3), (4, 4), (3, 3, 3), (4, 4, 4), (2,) * 5, (2,) * 6)


def _fixed_op(dims, m, rank) -> Op:
    state = hookup.DensityMatrix(dims, m)

    def check(report):
        fails = _check_fixed_basis(m, dims, report)
        if report.optimizer_available or report.discord is not None or not report.unavailable_reason:
            fails.append("optimizer ran on a state it cannot search")
        return fails

    return Op(f"dims={dims}", f"dims={dims} rank={rank}",
              lambda: hookup.full_report(state), check, _report_digest)


def fixed_basis(tiny: bool = False) -> Workload:
    dims_list = FIXED_DIMS[:2] if tiny else FIXED_DIMS

    def make_pass(seed, index):
        rng = _rng(seed, index, "fixed-basis")
        ops = []
        for dims in dims_list:
            dim = int(np.prod(dims))
            rank = int(rng.integers(1, 4))
            ops.append(_fixed_op(dims, oracles.random_state(rng, dim, dim), dim))
            ops.append(_fixed_op(dims, oracles.random_state(rng, dim, rank), rank))
        return ops

    return Workload(
        make_pass,
        {"ops_per_pass": 2 * len(dims_list), "dims": [list(d) for d in dims_list],
         "ranks": "full, and 1..3 (seeded)"},
    )


WORKLOADS = {
    "report-2q": report_2q,
    "search-3q4q": search_3q4q,
    "mdms-family": mdms_family,
    "fixed-basis": fixed_basis,
}

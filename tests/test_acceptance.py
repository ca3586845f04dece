"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line; a FAIL line is followed
by the detailed reasons in the assertion message.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    oracle_min_dephased_entropy,
    random_product_basis,
    random_pure_state,
    random_state,
)
from hookup import (
    DensityMatrix,
    OptimizerConfig,
    closest_classical,
    coherence,
    commutation_check,
    full_report,
    global_discord,
    hookup,
    irreducible_classical,
    kron,
    local_coherence,
    marginal_product,
    multipartite_coherence,
    preset,
    relative_entropy,
    total_correlations,
    von_neumann_entropy,
)
from hookup import cli
from hookup.linalg import qubit_unitary
from hookup.mdms import find_thresholds, scan_mdms

CFG = OptimizerConfig()


def finish(criterion: int, failures: list, detail: str = ""):
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}")
    assert not failures, f"criterion {criterion}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def full_scan():
    return scan_mdms(theta_points=65, epsilon_points=101, cfg=CFG)


def test_criterion_1_worked_example():
    failures = []
    started = time.perf_counter()
    report = full_report(preset("paper-example"), cfg=CFG)
    elapsed = time.perf_counter() - started
    for name, expected, tol in [
        ("hookup", 0.5, 1e-6),
        ("coherence", 0.5, 1e-6),
        ("multipartite_coherence", 0.5, 1e-6),
        ("irreducible_classical", 0.0, 1e-9),
        ("discord", 0.31, 0.01),
        ("classical_correlations", 0.19, 0.01),
    ]:
        actual = getattr(report, name)
        if abs(actual - expected) > tol:
            failures.append(f"{name}={actual!r} not within {tol} of {expected}")
    for q, angles in enumerate(report.chi_basis.angles):
        if abs(angles.theta - math.pi / 4) > 0.02:
            failures.append(f"chi basis theta_{q}={angles.theta!r} not pi/4 +- 0.02")
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f} s >= 5 s")
    finish(1, failures, f"D={report.discord:.4f} J={report.classical_correlations:.4f} {elapsed:.2f} s")


def test_criterion_2_w_mixture_excess():
    failures = []
    started = time.perf_counter()
    state = preset("w-mixture")
    cc = closest_classical(state, CFG)
    d = von_neumann_entropy(cc.chi) - von_neumann_entropy(state)
    j = total_correlations(cc.chi)
    t = total_correlations(state)
    l_sum_form = d + j - t
    l_entropy_form = relative_entropy(marginal_product(state), marginal_product(cc.chi))
    elapsed = time.perf_counter() - started
    if abs(l_sum_form - 0.24) > 0.01:
        failures.append(f"L={l_sum_form!r} not within 0.01 of 0.24")
    if abs(l_sum_form - l_entropy_form) > 1e-6:
        failures.append(
            f"cross-form disagreement {abs(l_sum_form - l_entropy_form):.2e} > 1e-6"
        )
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f} s >= 30 s")
    finish(2, failures, f"L={l_sum_form:.4f} in {elapsed:.1f} s")


def test_criterion_3_thresholds():
    failures = []
    switch = find_thresholds("basis-switch", CFG)
    deriv = find_thresholds("derivative", CFG)
    checks = [
        ("basis-switch eps'", switch.eps_prime, 0.6667, 0.01),
        ("basis-switch eps''", switch.eps_double_prime, 0.76, 0.01),
        ("derivative eps'", deriv.eps_prime, 0.6667, 0.01),
        ("derivative eps''", deriv.eps_double_prime, 0.76, 0.01),
        ("methods eps'", switch.eps_prime - deriv.eps_prime, 0.0, 0.01),
        ("methods eps''", switch.eps_double_prime - deriv.eps_double_prime, 0.0, 0.01),
    ]
    for name, actual, expected, tol in checks:
        if abs(actual - expected) > tol:
            failures.append(f"{name}={actual!r} not within {tol} of {expected}")
    finish(
        3,
        failures,
        f"switch=({switch.eps_prime:.4f}, {switch.eps_double_prime:.4f}) "
        f"derivative=({deriv.eps_prime:.4f}, {deriv.eps_double_prime:.4f})",
    )


def test_criterion_4_scan_structure(full_scan):
    failures = []
    k = full_scan.columns["K"]
    j = full_scan.columns["J"]
    m = full_scan.columns["M"]
    eps = full_scan.epsilons
    gaps = k - j

    high = eps > 0.77
    worst_high = float(gaps[:, high].max())
    if worst_high > 1e-6:
        failures.append(f"max K-J over eps>0.77 is {worst_high:.2e} > 1e-6")

    for target in (0.3, 0.5):
        je = int(np.argmin(np.abs(eps - target)))
        col = gaps[:, je]
        if not float(col.max()) > 1e-9:
            failures.append(f"K-J never above 0 at eps={target} (max {col.max():.2e})")
        # O x O leaves Phi+ invariant: K(0) = J below eps', and K - J >= 0 on the sweep.
        if abs(float(col[0])) > 1e-9:
            failures.append(f"K-J at theta=0 is {col[0]:.2e}, not 0, at eps={target}")
        if float(col.min()) < -1e-9:
            failures.append(f"K-J below 0 on the sweep at eps={target} (min {col.min():.2e})")
        # The counter-rotated member U x U^dagger of the same state does take K below J.
        base = preset("mdms", epsilon=float(eps[je])).matrix
        counter = []
        for theta in full_scan.thetas:
            u = qubit_unitary(float(theta), 0.0)
            w = kron(u, u.conj().T)
            counter.append(irreducible_classical(DensityMatrix((2, 2), w @ base @ w.conj().T)))
        counter_gaps = np.array(counter) - j[:, je]
        if not float(counter_gaps.min()) < -1e-9:
            failures.append(
                f"K-J never below 0 on the counter-rotated member at eps={target} "
                f"(min {counter_gaps.min():.2e})"
            )

    tie = 1e-9
    worst = float((k.max(axis=0) - k[-1, :]).max())
    if worst > tie:
        failures.append(f"K not maximal at theta=pi/4 (worst gap {worst:.2e})")
    worst = float((m.max(axis=0) - m[-1, :]).max())
    if worst > tie:
        failures.append(f"M not maximal at theta=pi/4 (worst gap {worst:.2e})")
    worst = float((m[0, :] - m.min(axis=0)).max())
    if worst > tie:
        failures.append(f"M not minimal at theta=0 (worst gap {worst:.2e})")
    finish(4, failures)


def test_criterion_5_identity_suite():
    failures = []
    rng = np.random.default_rng(20260501)
    worst = {"commutation": 0.0, "eq14": 0.0, "eq16": 0.0, "cm_floor": 0.0, "cm_forms": 0.0}

    def run_batch(count, dims):
        for _ in range(count):
            state = random_state(rng, dims)
            basis = random_product_basis(rng, dims)
            worst["commutation"] = max(worst["commutation"], commutation_check(state, basis))
            t = total_correlations(state)
            c = coherence(state)
            c_l = local_coherence(state)
            c_m = multipartite_coherence(state)
            kk = irreducible_classical(state)
            mm = hookup(state)
            worst["eq14"] = max(worst["eq14"], abs(mm - t - c_l))
            worst["eq16"] = max(worst["eq16"], abs(mm - c - kk))
            worst["cm_floor"] = max(worst["cm_floor"], -c_m)
            worst["cm_forms"] = max(worst["cm_forms"], abs(c_m - (t - kk)))

    run_batch(500, (2, 2))
    run_batch(100, (2, 3))

    for name, bound in [
        ("commutation", 1e-10),
        ("eq14", 1e-8),
        ("eq16", 1e-8),
        ("cm_floor", 1e-9),
        ("cm_forms", 1e-9),
    ]:
        if worst[name] > bound:
            failures.append(f"{name} residual {worst[name]:.2e} > {bound}")
    finish(5, failures, " ".join(f"{k}={v:.1e}" for k, v in worst.items()))


def test_criterion_6_oracle_equivalence():
    failures = []
    rng = np.random.default_rng(20260811)
    worst_abs = 0.0
    worst_above = -math.inf
    for i in range(50):
        state = random_state(rng, (2, 2))
        opt_entropy = von_neumann_entropy(closest_classical(state, CFG).chi)
        oracle = oracle_min_dephased_entropy(state.matrix, points=64)
        gap = opt_entropy - oracle.polished
        above_grid = opt_entropy - oracle.grid
        worst_abs = max(worst_abs, abs(gap))
        worst_above = max(worst_above, above_grid)
        if abs(gap) > 1e-4:
            failures.append(f"state {i}: |optimizer - polished oracle| = {abs(gap):.2e} > 1e-4")
        if above_grid > 1e-6:
            failures.append(f"state {i}: optimizer above grid oracle by {above_grid:.2e} > 1e-6")
    finish(
        6,
        failures,
        f"worst |gap| to polished={worst_abs:.2e}, worst above grid={worst_above:+.2e} "
        "over 50 states",
    )


def test_criterion_7_bound_suite():
    failures = []
    rng = np.random.default_rng(20260707)
    worst_d_slack = worst_g_slack = -math.inf
    min_l = math.inf
    for i in range(100):
        state = random_state(rng, (2, 2))
        cc = closest_classical(state, CFG)
        d = von_neumann_entropy(cc.chi) - von_neumann_entropy(state)
        j = total_correlations(cc.chi)
        t = total_correlations(state)
        excess = d + j - t
        min_l = min(min_l, excess)
        if excess < -1e-8:
            failures.append(f"state {i}: L = {excess:.2e} < -1e-8")
        g = global_discord(state, CFG)
        for _ in range(20):
            basis = random_product_basis(rng, (2, 2))
            d_slack = coherence(state, basis) - d
            g_slack = multipartite_coherence(state, basis) - g
            worst_d_slack = max(worst_d_slack, -d_slack)
            worst_g_slack = max(worst_g_slack, -g_slack)
            if d_slack < -1e-8:
                failures.append(f"state {i}: D exceeds C by {-d_slack:.2e}")
            if g_slack < -1e-8:
                failures.append(f"state {i}: G exceeds C_M by {-g_slack:.2e}")
    for i in range(25):
        pure = random_pure_state(rng, (2, 2))
        cc = closest_classical(pure, CFG)
        excess = (
            von_neumann_entropy(cc.chi)
            - von_neumann_entropy(pure)
            + total_correlations(cc.chi)
            - total_correlations(pure)
        )
        min_l = min(min_l, excess)
        if not -1e-8 <= excess <= 1e-6:
            failures.append(f"pure state {i}: L = {excess:.2e} outside [-1e-8, 1e-6]")
    finish(
        7,
        failures,
        f"min L={min_l:.1e}, worst D slack={worst_d_slack:.1e}, worst G slack={worst_g_slack:.1e}",
    )


def test_criterion_8_verify_command():
    # The subprocess runs the package under test: its directory leads PYTHONPATH.
    src = str(Path(cli.__file__).parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    failures = []
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "hookup.cli", "verify"],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    elapsed = time.perf_counter() - started
    if proc.returncode != 0:
        failing = [ln for ln in proc.stdout.splitlines() if ln.startswith("[FAIL]")]
        failures.append(
            f"verify exited {proc.returncode}; failing rows: {failing or proc.stderr}"
        )
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f} s >= 120 s")
    finish(8, failures, f"{elapsed:.1f} s, exit {proc.returncode}")

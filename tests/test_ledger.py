"""The entropy ledger behind the fixed-basis quantifiers and the family drivers."""

import dataclasses
import json

import numpy as np
import pytest

from conftest import random_product_basis, random_state
from hookup import (
    DensityMatrix,
    OptimizerConfig,
    ProductBasis,
    closest_classical,
    coherence,
    dephase,
    full_report,
    hookup,
    irreducible_classical,
    local_coherence,
    marginal_product,
    multipartite_coherence,
    relative_entropy,
    total_correlations,
)
from hookup import linalg
from hookup import mdms as hookup_mdms
from hookup.mdms import compare_jk, find_thresholds, scan_mdms
from hookup.states import load, mdms

FAST = OptimizerConfig(grid_points=9, multistarts=4)


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ledger_matches_relative_entropy_definitions(dims, seed):
    rng = np.random.default_rng(seed)
    state = random_state(rng, dims)
    basis = random_product_basis(rng, dims)
    dephased = dephase(state, basis)
    local = sum(
        relative_entropy(
            state.marginal(q), dephase(state.marginal(q), ProductBasis((basis.factors[q],)))
        )
        for q in range(len(dims))
    )
    expected = {
        "T": relative_entropy(state, marginal_product(state)),
        "C": relative_entropy(state, dephased),
        "C_L": local,
        "K": relative_entropy(dephased, marginal_product(dephased)),
        "M": relative_entropy(state, dephase(marginal_product(state), basis)),
    }
    got = {
        "T": total_correlations(state),
        "C": coherence(state, basis),
        "C_L": local_coherence(state, basis),
        "K": irreducible_classical(state, basis),
        "M": hookup(state, basis),
    }
    for name, value in expected.items():
        assert abs(got[name] - value) <= 1e-9, name
    assert abs(multipartite_coherence(state, basis) - (got["C"] - got["C_L"])) <= 1e-12
    if dims == (2, 3):  # no basis search, so the report stays cheap
        report = full_report(state, basis)
        assert abs(report.hookup - expected["M"]) <= 1e-9
        assert max(report.residuals.values()) <= 1e-9


def test_scan_cells_match_per_state_functions():
    table = scan_mdms(9, 11, FAST)
    public = {
        "C": coherence,
        "C_L": local_coherence,
        "C_M": multipartite_coherence,
        "K": irreducible_classical,
        "M": hookup,
    }
    for jt, theta in enumerate(table.thetas):
        for je, eps in enumerate(table.epsilons):
            state = mdms(float(eps), float(theta), 0.0)
            for name, fn in public.items():
                assert abs(table.columns[name][jt, je] - fn(state)) <= 1e-12, (name, jt, je)


def test_scan_eigendecompositions_do_not_grow_with_theta(monkeypatch):
    # S(rho) and S(rho_q) are shared along theta, and every theta's dephased
    # weights come from the theta = 0 member's Pauli tensor, so a finer theta
    # grid adds neither an eigendecomposition nor a built member.
    calls = []
    counted = {"eigh": linalg.hermitian_eig, "mdms": hookup_mdms.mdms}

    def counting(name):
        def call(*args):
            calls.append(name)
            return counted[name](*args)

        return call

    monkeypatch.setattr(linalg, "hermitian_eig", counting("eigh"))
    monkeypatch.setattr(hookup_mdms, "mdms", counting("mdms"))
    counts = []
    for theta_points in (9, 17):
        calls.clear()
        scan_mdms(theta_points, 3, FAST)
        counts.append((calls.count("eigh"), calls.count("mdms")))
    assert counts[0] == counts[1]


def test_searches_read_the_ledger_not_chi(monkeypatch):
    # D, J and L come from the dephased weights at the argmin basis and G from
    # S(rho) and S(rho_q), so a search makes one full-size eigendecomposition,
    # S(rho).  The excess cross form adds its two sides on first read, and a
    # report adds the hookup residual's S(Delta(pi(rho))).
    sizes = []
    counted = linalg.hermitian_eig

    def counting(m):
        sizes.append(len(m))
        return counted(m)

    monkeypatch.setattr(linalg, "hermitian_eig", counting)
    state = random_state(np.random.default_rng(5), (2, 2))
    cc = closest_classical(state, FAST)
    assert sizes.count(4) == 1
    cc.excess_residual
    assert sizes.count(4) == 3
    cc.excess_residual
    assert sizes.count(4) == 3
    sizes.clear()
    full_report(state, cfg=FAST)
    assert sizes.count(4) == 4
    # The family sweeps read no cross form: one search and S(rho) per epsilon.
    sizes.clear()
    scan_mdms(3, 4, FAST)
    assert sizes.count(4) == 8
    sizes.clear()
    compare_jk([0.3, 0.7], cfg=FAST)
    assert sizes.count(4) == 4
    sizes.clear()
    find_thresholds(cfg=FAST)  # 48 searches, each argmin shared by both thresholds
    assert sizes.count(4) == 48


@pytest.mark.parametrize(
    "state",
    [load(json.dumps({"preset": "diagonal", "probs": [0.999999, 0, 0, 1e-6]}))]
    + [
        DensityMatrix((2, 2), (1 - p) * np.diag([1.0, 0, 0, 0]) + p * np.eye(4) / 4)
        for p in (1e-8, 1e-6, 1e-5)
    ],
)
def test_residuals_finite_where_product_weights_are_tiny(state):
    # Some product weight p_A * p_B is below 1e-10 on an outcome the state
    # populates, so S(rho || Delta(pi(rho))) needs those weights resolved.
    report = full_report(state, cfg=FAST)
    assert max(report.residuals.values()) <= 1e-8
    assert not report.numerical_warning
    json.dumps(report.to_dict(), allow_nan=False)


def test_infinite_residual_serialises_as_string():
    report = full_report(DensityMatrix((2, 3), np.eye(6) / 6))
    report = dataclasses.replace(report, residuals={"hookup_vs_C_plus_K": np.inf})
    doc = json.loads(json.dumps(report.to_dict(), allow_nan=False))
    assert doc["residuals"] == {"hookup_vs_C_plus_K": "inf"}

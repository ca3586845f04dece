"""Relative-entropy quantifiers of coherence and correlation.

Fixed-basis quantities (total correlations, coherence and its local and
multipartite parts, irreducible classical information, hookup) work for any
subsystem dimensions.  All six come from one entropy ledger of four entries:
S(rho), sum_q S(rho_q), H(p) and sum_q H(p_q), where p holds the state's
weights in the reference product basis and p_q its marginals (``_ledger``).
The optimized quantities search over qubit product bases, capped at four
qubits, and read the same ledger: in the closest-classical basis b*, which
minimizes H(p), the discord is D = C(b*), the classical correlations
J = K(b*) and the excess L = D + J - T = C_L(b*); the global discord is
G = min_b C_M(b) = T - max_b K(b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce

import numpy as np

from .channels import (
    ProductBasis,
    basis_from_angles,
    computational_basis,
    dephase,
    dephased_probs,
    marginal_product,
)
from .errors import HookupError, NotAllQubits, TooManyQubits
from .search import (
    OptimizerConfig,
    OptimizerResult,
    _minimize_stack,
    dephased_entropy,
    joint_dephased_entropies,
    minimize_over_product_bases,
    pauli_tensor,
    split_entropy,
)
from .states import (
    DensityMatrix,
    entropy_of_probs,
    relative_entropy,
    von_neumann_entropy,
)

MAX_OPT_QUBITS = 4
RESIDUAL_WARN = 1e-8
EXCESS_CROSS_TOL = 1e-7


# ---------------------------------------------------------------------------
# Fixed-basis quantifiers
# ---------------------------------------------------------------------------


def _dephased_entropies(probs: np.ndarray, dims: tuple[int, ...]):
    """H(p) and sum_q H(p_q) over the last axis of ``probs``, one per leading index.

    ``probs`` holds a state's weights in a product basis, so the weights p_q
    of marginal q in its own factor are p summed over the other subsystems.
    """
    p = probs.reshape(probs.shape[:-1] + dims)
    axes = range(probs.ndim - 1, p.ndim)
    h_q = sum(entropy_of_probs(p.sum(axis=tuple(k for k in axes if k != q))) for q in axes)
    return entropy_of_probs(probs), h_q


def _state_entropies(state: DensityMatrix) -> tuple[float, float]:
    """S(rho) and sum_q S(rho_q): the ledger entries no local unitary changes."""
    s_q = sum(von_neumann_entropy(state.marginal(q)) for q in range(state.n_parts))
    return von_neumann_entropy(state), s_q


def _fixed_basis_values(s, s_q, h, h_q) -> dict:
    """T, C, C_L, C_M, K and M by label from the ledger entries, arrays allowed.

    M = T + C_L = C + K holds term by term.
    """
    c, c_l = h - s, h_q - s_q
    return {"T": s_q - s, "C": c, "C_L": c_l, "C_M": c - c_l, "K": h_q - h, "M": h_q - s}


def _ledger(state: DensityMatrix, basis: ProductBasis | None, entropies) -> dict:
    """``_fixed_basis_values`` in ``basis``, given ``entropies = _state_entropies(state)``.

    H(p) and sum_q H(p_q) come from p = dephased_probs(state, basis).
    """
    probs = dephased_probs(state, basis)
    return _fixed_basis_values(*entropies, *_dephased_entropies(probs, state.dims))


def total_correlations(state: DensityMatrix) -> float:
    """Mutual information: the marginal entropies minus the state's."""
    s, s_q = _state_entropies(state)
    return s_q - s


def coherence(state: DensityMatrix, basis: ProductBasis | None = None) -> float:
    """Entropy gained by dephasing in the reference basis."""
    return _ledger(state, basis, _state_entropies(state))["C"]


def local_coherence(state: DensityMatrix, basis: ProductBasis | None = None) -> float:
    """Sum of the single-subsystem coherences in the reference basis."""
    return _ledger(state, basis, _state_entropies(state))["C_L"]


def multipartite_coherence(state: DensityMatrix, basis: ProductBasis | None = None) -> float:
    """Coherence beyond what the marginals carry; never negative."""
    return _ledger(state, basis, _state_entropies(state))["C_M"]


def irreducible_classical(state: DensityMatrix, basis: ProductBasis | None = None) -> float:
    """Mutual information that survives full dephasing."""
    return _ledger(state, basis, _state_entropies(state))["K"]


def hookup(state: DensityMatrix, basis: ProductBasis | None = None) -> float:
    """Distance to the closest incoherent product state.

    Equals total correlations plus local coherence, and equally coherence plus
    irreducible classical information.
    """
    return _ledger(state, basis, _state_entropies(state))["M"]


# ---------------------------------------------------------------------------
# Optimized quantifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosestClassical:
    """Argmin of the dephased-state entropy over product bases.

    The search decides ``basis`` = b*, and the ledger at b* gives ``discord``
    D = C(b*) = S(chi) - S(state), ``classical_correlations`` J = K(b*) =
    T(chi) and ``excess`` L = D + J - T(state) = C_L(b*).  Computed on first
    read and kept: ``chi``, the closest classical state (the dephasing of
    ``state`` in b*), and ``excess_residual``, the gap between L and its
    relative-entropy form S(pi_state || pi_chi) on the marginal products.
    """

    state: DensityMatrix
    basis: ProductBasis
    optimizer: OptimizerResult
    discord: float
    classical_correlations: float
    excess: float

    @cached_property
    def chi(self) -> DensityMatrix:
        return dephase(self.state, self.basis)

    @cached_property
    def excess_residual(self) -> float:
        cross = relative_entropy(marginal_product(self.state), marginal_product(self.chi))
        return abs(self.excess - cross)


def _search_inputs(state: DensityMatrix):
    """Pauli tensor of a searchable ``state`` and its joint-entropy ``batch``.

    The batch evaluates ``joint_dephased_entropies`` once per grid size.
    Raises NotAllQubits or TooManyQubits before the tensor is built.
    """
    if any(d != 2 for d in state.dims):
        raise NotAllQubits(
            f"basis optimization needs qubit subsystems, got dims {state.dims}"
        )
    if state.n_parts > MAX_OPT_QUBITS:
        raise TooManyQubits(
            f"basis optimization is capped at {MAX_OPT_QUBITS} qubits, got {state.n_parts}"
        )
    pauli = pauli_tensor(state.matrix)
    memo = {}

    def grid(options):
        if len(options) not in memo:
            memo[len(options)] = joint_dephased_entropies(pauli, [options] * state.n_parts)
        return memo[len(options)]

    return pauli, grid


def closest_classical(state: DensityMatrix, cfg: OptimizerConfig | None = None) -> ClosestClassical:
    """Classically correlated state closest to ``state``.

    Returns the entropy-minimizing product basis, found by grid seeding plus
    saddle-free Newton refinement of one Bloch axis per qubit, together with the
    discord, classical correlations and excess term it determines.
    """
    cfg = cfg or OptimizerConfig()
    return _closest_classical(state, cfg, *_search_inputs(state), _state_entropies(state))


def _closest_classical(
    state: DensityMatrix, cfg: OptimizerConfig, pauli, grid, entropies
) -> ClosestClassical:
    """``closest_classical`` given ``_search_inputs`` and ``_state_entropies``."""
    objective = partial(dephased_entropy, pauli)
    result = minimize_over_product_bases(objective, state.n_parts, cfg, batch=grid)
    return _closest_at(state, result, entropies)


def _chi_searches(states, cfg: OptimizerConfig) -> list[OptimizerResult]:
    """The closest-classical searches of same-size qubit ``states``, refined as one stack.

    Each state's grid seeds its starts and is dropped before the next one is
    formed.  Each result is the one ``closest_classical`` gives that state.
    """
    paulis = np.stack([_search_inputs(state)[0] for state in states])
    n = states[0].n_parts
    grids = (lambda options, p=p: joint_dephased_entropies(p, [options] * n) for p in paulis)
    return _minimize_stack(lambda axes, which: dephased_entropy(paulis[which], axes), n, cfg, grids)


def _closest_at(state: DensityMatrix, result: OptimizerResult, entropies) -> ClosestClassical:
    """``state``'s ``ClosestClassical`` from its search ``result`` and ``_state_entropies``.

    The ledger at the argmin basis gives D, J and L.
    """
    basis = basis_from_angles(result.angles, dims=state.dims)
    values = _ledger(state, basis, entropies)
    return ClosestClassical(
        state=state,
        basis=basis,
        optimizer=result,
        discord=values["C"],
        classical_correlations=values["K"],
        excess=values["C_L"],
    )


def discord(state: DensityMatrix, cfg: OptimizerConfig | None = None) -> float:
    """Two-sided relative-entropy discord."""
    return closest_classical(state, cfg).discord


def classical_correlations(state: DensityMatrix, cfg: OptimizerConfig | None = None) -> float:
    """Mutual information of the closest classically correlated state."""
    return closest_classical(state, cfg).classical_correlations


def excess_correlations(state: DensityMatrix, cfg: OptimizerConfig | None = None) -> float:
    """The excess D + J - T, cross-checked against its relative-entropy form."""
    cc = closest_classical(state, cfg)
    if cc.excess_residual > EXCESS_CROSS_TOL:
        raise HookupError(
            f"excess-term evaluations disagree by {cc.excess_residual!r}"
        )
    return cc.excess


def global_discord(state: DensityMatrix, cfg: OptimizerConfig | None = None) -> float:
    """Multipartite coherence minimized over all product bases."""
    cfg = cfg or OptimizerConfig()
    return _global_discord_opt(state, cfg, *_search_inputs(state), _state_entropies(state))[0]


def _global_discord_opt(
    state: DensityMatrix, cfg: OptimizerConfig, pauli, grid, entropies
) -> tuple[float, OptimizerResult]:
    """G and its search: C_M(b) = T - K(b), so minimize H(p) - sum_q H(p_q) and add T."""
    n = state.n_parts
    # The marginal Bloch vectors r_q are the entries of R with one non-identity index.
    bloch = np.array([pauli[(0,) * q + (slice(1, 4),) + (0,) * (n - q - 1)] for q in range(n)])

    def batch(options):
        marginal = split_entropy(options @ bloch.T)[0]
        return grid(options) - reduce(np.add.outer, marginal.T)

    def objective(axes):
        value, grad, hess = dephased_entropy(pauli, axes)
        h, slope, curve = split_entropy(np.einsum("sqi,qi->sq", axes, bloch))
        marginal = np.einsum("sq,qi,qj,qr->sqirj", curve, bloch, bloch, np.eye(n))
        return value - h.sum(axis=1), grad - slope[..., None] * bloch, hess - marginal

    result = minimize_over_product_bases(objective, state.n_parts, cfg, batch=batch)
    s, s_q = entropies
    return result.value + (s_q - s), result


# ---------------------------------------------------------------------------
# One-call report
# ---------------------------------------------------------------------------

# Report field: (symbol, name in the text report), in report order.
REPORT_LABELS = {
    "total_correlations": ("T", "total correlations"),
    "coherence": ("C", "coherence"),
    "local_coherence": ("C_L", "local coherence"),
    "multipartite_coherence": ("C_M", "multipartite coherence"),
    "irreducible_classical": ("K", "irreducible classical information"),
    "hookup": ("M", "hookup"),
    "discord": ("D", "discord"),
    "classical_correlations": ("J", "classical correlations"),
    "excess": ("L", "excess (D + J - T)"),
    "global_discord": ("G", "global discord"),
}


@dataclass(frozen=True)
class QuantifierReport:
    """Every quantifier of one state in one reference basis."""

    dims: tuple[int, ...]
    reference_basis: ProductBasis
    total_correlations: float
    coherence: float
    local_coherence: float
    multipartite_coherence: float
    irreducible_classical: float
    hookup: float
    discord: float | None = None
    classical_correlations: float | None = None
    excess: float | None = None
    global_discord: float | None = None
    chi_basis: ProductBasis | None = None
    g_basis: ProductBasis | None = None
    optimizer_available: bool = False
    unavailable_reason: str | None = None
    optimizer_meta: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    numerical_warning: bool = False

    def values(self) -> dict:
        return {name: getattr(self, name) for name in REPORT_LABELS}

    def to_dict(self) -> dict:
        def basis_angles(basis):
            if basis is None or basis.angles is None:
                return None
            return [{"theta": a.theta, "phi": a.phi} for a in basis.angles]

        def jsonable(x):
            if x is None:
                return None
            return "inf" if math.isinf(x) else x

        return {
            "dims": list(self.dims),
            "quantifiers": {k: jsonable(v) for k, v in self.values().items()},
            "labels": {k: symbol for k, (symbol, _) in REPORT_LABELS.items()},
            "reference_basis": basis_angles(self.reference_basis),
            "chi_basis": basis_angles(self.chi_basis),
            "g_basis": basis_angles(self.g_basis),
            "optimizer_available": self.optimizer_available,
            "unavailable_reason": self.unavailable_reason,
            "optimizer": self.optimizer_meta,
            "residuals": {k: jsonable(v) for k, v in self.residuals.items()},
            "numerical_warning": self.numerical_warning,
        }

    def format_text(self) -> str:
        lines = [f"state dims: {self.dims}"]
        for key, (symbol, name) in REPORT_LABELS.items():
            value = getattr(self, key)
            shown = "unavailable" if value is None else f"{value:.9f}"
            lines.append(f"  {symbol:<4} {name:<34} {shown}")
        if not self.optimizer_available and self.unavailable_reason:
            lines.append(f"  note: {self.unavailable_reason}")
        if self.chi_basis is not None and self.chi_basis.angles is not None:
            angles = ", ".join(
                f"(theta={a.theta:.4f}, phi={a.phi:.4f})" for a in self.chi_basis.angles
            )
            lines.append(f"  closest-classical basis: {angles}")
        if self.residuals:
            worst = max(self.residuals.values())
            lines.append(f"  identity residuals: max {worst:.2e}")
        if self.numerical_warning:
            lines.append("  numerical-warning: identity residual above 1e-8")
        return "\n".join(lines)


def full_report(
    state: DensityMatrix,
    basis: ProductBasis | None = None,
    cfg: OptimizerConfig | None = None,
) -> QuantifierReport:
    """Compute every available quantifier of ``state`` in ``basis``.

    Optimizer-based fields are filled only for systems of at most four qubits;
    otherwise they are ``None`` with the reason recorded.  The ledger makes
    M = T + C_L = C + K term by term, so the residuals compare the hookup's
    definition S(rho || Delta(pi(rho))) = S(Delta(pi(rho))) - S(rho), with
    Delta(pi(rho)) built from the partial traces, with T + C_L and with C + K,
    and the excess with its cross form; a residual above 1e-8 sets
    ``numerical_warning`` instead of failing.
    """
    cfg = cfg or OptimizerConfig()
    ref = basis if basis is not None else computational_basis(state.dims)

    entropies = _state_entropies(state)
    fixed = _ledger(state, ref, entropies)
    m = von_neumann_entropy(dephase(marginal_product(state), ref)) - entropies[0]
    residuals = {
        "hookup_vs_T_plus_CL": abs(m - fixed["T"] - fixed["C_L"]),
        "hookup_vs_C_plus_K": abs(m - fixed["C"] - fixed["K"]),
    }

    fields = {key: fixed[symbol] for key, (symbol, _) in REPORT_LABELS.items() if symbol in fixed}
    fields.update(dims=state.dims, reference_basis=ref)
    try:
        pauli, grid = _search_inputs(state)
    except (NotAllQubits, TooManyQubits) as exc:
        fields["unavailable_reason"] = str(exc)
    else:
        cc = _closest_classical(state, cfg, pauli, grid, entropies)
        g_val, g_result = _global_discord_opt(state, cfg, pauli, grid, entropies)
        residuals["excess_cross_form"] = cc.excess_residual
        fields.update(
            discord=cc.discord,
            classical_correlations=cc.classical_correlations,
            excess=cc.excess,
            global_discord=g_val,
            chi_basis=cc.basis,
            g_basis=basis_from_angles(g_result.angles, dims=state.dims),
            optimizer_available=True,
            optimizer_meta={"chi": cc.optimizer.meta(), "global": g_result.meta()},
        )

    return QuantifierReport(
        **fields,
        residuals=residuals,
        numerical_warning=any(r > RESIDUAL_WARN for r in residuals.values()),
    )

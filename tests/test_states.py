import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state, random_unitary
from hookup import (
    BadParams,
    DensityMatrix,
    DimensionMismatch,
    HookupError,
    NonHermitian,
    ParseError,
    UnknownPreset,
    ValidationError,
    dephase,
    full_report,
    load,
    marginal_product,
    preset,
    relative_entropy,
    save,
    validate,
    von_neumann_entropy,
)
from hookup.states import entropy_of_probs

S_CHI = 3 - 0.75 * math.log2(3)  # eigenvalues (3/8, 3/8, 1/8, 1/8) by hand

# Any JSON value, and documents shaped like the two state-file forms.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_ENTRIES = st.fixed_dictionaries({"re": JSON_VALUES, "im": JSON_VALUES}) | st.fixed_dictionaries(
    {"re": st.floats(-1, 1), "im": st.floats(-1, 1)}
)
JSON_DOCUMENTS = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries(
        {
            "dims": st.lists(st.integers() | st.sampled_from([2, 3, 2**62 + 1]), max_size=4)
            | JSON_VALUES,
            "matrix": st.integers(1, 4).flatmap(
                lambda n: st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
            )
            | JSON_VALUES,
        }
    ),
    st.builds(
        lambda name, params: {"preset": name, **params},
        st.sampled_from(["bell", "paper-example", "w-mixture", "mdms", "ghz", "diagonal", "nope"])
        | JSON_VALUES,
        st.dictionaries(
            st.sampled_from(["name", "epsilon", "theta", "phi", "n", "probs", "dims"]),
            JSON_VALUES | st.floats(0, 1) | st.lists(st.floats(0, 1), max_size=4),
            max_size=3,
        ),
    ),
)


def test_validate_maximally_mixed():
    report = validate(DensityMatrix((2, 2), np.eye(4) / 4))
    assert report.ok


def test_validate_reports_trace_violation():
    report = validate(DensityMatrix((2, 2), 1.5 * np.eye(4) / 4))
    assert not report.ok
    assert abs(report.trace_defect - 0.5) < 1e-12
    assert any("trace" in msg for msg in report.messages)


def test_validate_reports_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = bad
        report = validate(DensityMatrix((2, 2), m))
        assert not report.ok
        assert report.messages == (
            "matrix has 1 non-finite entries (NaN or infinity), the first at (1,2)",
        )


def test_non_finite_matrix_refused_by_the_eigensolver_gate():
    # Built directly, a state skips validate(); the Hermiticity gate of every
    # entropy must still refuse a NaN entry, on qubits and on a qutrit.
    for dims in ((2, 2), (3,)):
        m = np.eye(int(np.prod(dims)), dtype=complex) / np.prod(dims)
        m[0, 1] = np.nan
        with pytest.raises(NonHermitian):
            von_neumann_entropy(DensityMatrix(dims, m))
        with pytest.raises(NonHermitian):
            full_report(DensityMatrix(dims, m))


def test_validate_rank_one_projector():
    assert validate(DensityMatrix((2,), np.diag([1.0, 0.0]))).ok


def test_validate_negative_eigenvalue():
    m = np.diag([0.6, 0.5, -0.1, 0.0])
    report = validate(DensityMatrix((2, 2), m))
    assert not report.ok
    assert report.min_eigenvalue < -1e-9


def test_dimension_guards():
    with pytest.raises(DimensionMismatch):
        DensityMatrix((2, 3), np.eye(4) / 4)
    with pytest.raises(DimensionMismatch):
        DensityMatrix((2,) * 7, np.eye(128) / 128)
    # (2**62 + 1) * 4 wraps to 4 in int64; the exact product does not.
    with pytest.raises(DimensionMismatch):
        DensityMatrix((2**62 + 1, 4), np.eye(4) / 4)


@pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
def test_dims_must_be_whole(d):
    with pytest.raises(BadParams, match="dims"):
        DensityMatrix((d, 2), np.eye(4) / 4)


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(preset("bell")) <= 1e-12

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(DensityMatrix((2, 2), np.eye(4) / 4)) - 2) < 1e-12

    def test_bell_mixture_is_three_halves(self):
        # Eigenvalues {1/2, 1/4, 1/4, 0} from the 2x2 Phi+ block by hand.
        assert abs(von_neumann_entropy(preset("paper-example")) - 1.5) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(rng, (2, 2))
        u = random_unitary(rng, 4)
        rotated = DensityMatrix((2, 2), u @ state.matrix @ u.conj().T)
        assert abs(von_neumann_entropy(rotated) - von_neumann_entropy(state)) <= 1e-9


class TestEntropyOfProbs:
    def test_exact_zeros(self):
        assert entropy_of_probs([1.0, 0.0]) == 0.0
        assert entropy_of_probs([0.5, 0.0, 0.5, 0.0]) == 1.0
        assert entropy_of_probs([0.0] * 4 + [0.25] * 4) == 2.0

    def test_clips_eigensolver_negatives(self):
        assert entropy_of_probs([1.0, -1e-9]) == 0.0
        assert entropy_of_probs([0.5, -1e-10, 0.5]) == 1.0
        with pytest.raises(ValidationError):
            entropy_of_probs([1.0, -2e-9])

    def test_stacked_vectors(self):
        h = entropy_of_probs([[1.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0], [0.25] * 4])
        assert h.shape == (3,)
        assert np.array_equal(h, [0.0, 1.0, 2.0])

    def test_leaves_input_and_matches_positive_terms(self):
        rng = np.random.default_rng(21)
        p = rng.dirichlet(np.ones(8), size=5)
        p[:, :2] = 0.0
        p[:, 2] = -5e-10
        before = p.copy()
        h = entropy_of_probs(p)
        assert np.array_equal(p, before)
        want = [-sum(x * math.log2(x) for x in row if x > 0) for row in p]
        assert np.max(np.abs(h - want)) <= 1e-14


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rng = np.random.default_rng(0)
        state = random_state(rng, (2, 2))
        assert abs(relative_entropy(state, state)) <= 1e-9

    def test_disjoint_supports_infinite(self):
        zero = DensityMatrix((2,), np.diag([1.0, 0.0]))
        one = DensityMatrix((2,), np.diag([0.0, 1.0]))
        assert relative_entropy(zero, one) == math.inf

    def test_bell_vs_maximally_mixed(self):
        # -tr rho log2(I/4) = 2 and S(rho) = 0.
        mixed = DensityMatrix((2, 2), np.eye(4) / 4)
        assert abs(relative_entropy(preset("bell"), mixed) - 2) < 1e-12

    def test_dims_must_match(self):
        with pytest.raises(DimensionMismatch):
            relative_entropy(preset("bell"), DensityMatrix((4,), np.eye(4) / 4))

    def test_klein_inequality_1000_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            rho = random_state(rng, (2, 2))
            sigma = random_state(rng, (2, 2))  # Ginibre full rank, full support
            assert relative_entropy(rho, sigma) >= -1e-9

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_contractive_under_channels(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_state(rng, (2, 2))
        sigma = random_state(rng, (2, 2))
        before = relative_entropy(rho, sigma)
        assert relative_entropy(dephase(rho), dephase(sigma)) <= before + 1e-9
        assert (
            relative_entropy(marginal_product(rho), marginal_product(sigma))
            <= before + 1e-9
        )


class TestPresets:
    def test_all_presets_validate(self):
        states = [
            preset("bell"),
            preset("paper-example"),
            preset("w-mixture"),
            preset("mdms", epsilon=0.8, theta=0.3, phi=1.0),
            preset("ghz"),
            preset("classical-correlated"),
            preset("diagonal", probs=[0.5, 0.25, 0.125, 0.125]),
        ]
        assert all(validate(s).ok for s in states)

    def test_mdms_limits(self):
        assert np.allclose(preset("mdms", epsilon=1.0).matrix, preset("bell").matrix)
        expected = np.zeros((4, 4))
        expected[2, 2] = 1.0
        assert np.allclose(preset("mdms", epsilon=0.0).matrix, expected)

    def test_mdms_marginals(self):
        # tr_B = diag(eps/2, 1 - eps/2) and tr_A reversed, by 4x4 index sums.
        eps = 0.37
        state = preset("mdms", epsilon=eps)
        assert np.allclose(state.marginal(0).matrix, np.diag([eps / 2, 1 - eps / 2]))
        assert np.allclose(state.marginal(1).matrix, np.diag([1 - eps / 2, eps / 2]))

    def test_w_mixture_shape(self):
        state = preset("w-mixture")
        assert state.dims == (2, 2, 2)
        assert abs(np.trace(state.matrix) - 1) < 1e-12
        assert np.linalg.matrix_rank(state.matrix, tol=1e-10) == 4

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            preset("squeezed")

    def test_bad_params(self):
        with pytest.raises(BadParams):
            preset("mdms", epsilon=1.5)
        with pytest.raises(BadParams):
            preset("mdms", epsilon=0.5, theta=2.0)
        with pytest.raises(BadParams):
            preset("diagonal", probs=[0.7, 0.7])
        with pytest.raises(BadParams):
            preset("diagonal", probs=[math.nan, 1.0])
        with pytest.raises(BadParams):
            preset("bell", epsilon=0.1)
        with pytest.raises(BadParams):
            preset("bell", name="ghz")


ZERO = {"re": 0, "im": 0}


class TestSerialization:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, (2, 2))
        again = load(save(state))
        assert again.dims == state.dims
        assert np.array_equal(again.matrix, state.matrix)

    def test_qubit_qutrit_file(self):
        state = DensityMatrix((2, 3), np.eye(6) / 6)
        again = load(save(state))
        assert again.dims == (2, 3)

    def test_dims_product_mismatch(self):
        doc = json.loads(save(DensityMatrix((2, 2), np.eye(4) / 4)))
        doc["dims"] = [2, 3]
        with pytest.raises(DimensionMismatch):
            load(json.dumps(doc))

    def test_preset_form(self):
        state = load('{"preset": "mdms", "epsilon": 0.8, "theta": 0.2, "phi": 0.0}')
        assert np.allclose(state.matrix, preset("mdms", epsilon=0.8, theta=0.2).matrix)

    def test_parse_error_context(self):
        with pytest.raises(ParseError):
            load("{not json")
        with pytest.raises(ParseError):
            load('{"dims": [2]}')
        with pytest.raises(ParseError, match="nested too deeply"):
            load("[" * 200_000 + "]" * 200_000)
        rows = [[{"re": 10**400, "im": 0}, {"re": 0, "im": 0}]] * 2
        with pytest.raises(ParseError, match="entry \\(0,0\\)"):
            load(json.dumps({"dims": [2], "matrix": rows}))

    @pytest.mark.parametrize(
        "doc",
        [
            {"dims": [2], "matrix": [[{"re": "1", "im": 0}, ZERO], [ZERO, ZERO]]},
            {"dims": [2], "matrix": [[{"re": True, "im": 0}, ZERO], [ZERO, ZERO]]},
            {"dims": [2], "matrix": [[{"re": 1, "im": False}, ZERO], [ZERO, ZERO]]},
            {"dims": [True, True], "matrix": [[{"re": 1, "im": 0}]]},
            {"preset": "mdms", "epsilon": True},
            {"preset": "mdms", "epsilon": "0.5"},
            {"preset": "diagonal", "probs": [True, False]},
            {"preset": "diagonal", "probs": ["0.5", 0.5]},
        ],
        ids=["re-text", "re-bool", "im-bool", "dims-bools", "epsilon-bool", "epsilon-text",
             "probs-bools", "probs-text"],
    )
    def test_numbers_only(self, doc):
        # No field of the format is boolean, and text never stands for a number.
        with pytest.raises(ParseError):
            load(json.dumps(doc))

    @given(JSON_DOCUMENTS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_any_json_document_loads_or_raises_a_package_error(self, doc):
        try:
            state = load(json.dumps(doc))
        except HookupError:
            return
        assert isinstance(state, DensityMatrix)

    def test_invalid_state_rejected(self):
        doc = {
            "dims": [2],
            "matrix": [
                [{"re": 1.0, "im": 0.0}, {"re": 0.0, "im": 0.0}],
                [{"re": 0.0, "im": 0.0}, {"re": 0.5, "im": 0.0}],
            ],
        }
        with pytest.raises(ValidationError):
            load(json.dumps(doc))

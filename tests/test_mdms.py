
import numpy as np
import pytest

from hookup import (
    BadParams,
    DensityMatrix,
    NoRootBracketed,
    OptimizerConfig,
    closest_classical,
    irreducible_classical,
    qubit_unitary,
    total_correlations,
)
from hookup import quantifiers
from hookup.mdms import (
    ScanTable,
    _boundary_curvatures,
    _dephased_row,
    _first_roots,
    compare_jk,
    find_thresholds,
    scan_mdms,
    scan_to_csv,
)
from hookup.states import mdms

FAST = OptimizerConfig(grid_points=9, multistarts=4)


@pytest.fixture(scope="module")
def small_scan():
    return scan_mdms(theta_points=9, epsilon_points=11, cfg=FAST)


@pytest.fixture(scope="module")
def rotated_members(small_scan):
    """One theta > 0 member per epsilon row, each with its own basis search."""
    out = []
    for je, eps in enumerate(small_scan.epsilons):
        jt = 1 + je % (len(small_scan.thetas) - 1)
        state = mdms(float(eps), float(small_scan.thetas[jt]), 0.0)
        out.append((jt, je, state, closest_classical(state, FAST)))
    return out


class TestScan:
    def test_grid_shapes(self, small_scan):
        assert small_scan.thetas.shape == (9,)
        assert small_scan.epsilons.shape == (11,)
        for values in small_scan.columns.values():
            assert values.shape == (9, 11)

    # The scan shares one theta = 0 search per epsilon row; these two tests
    # check that invariance against independent searches on rotated members.
    def test_j_constant_across_theta(self, small_scan, rotated_members):
        for jt, je, _, cc in rotated_members:
            assert abs(cc.classical_correlations - small_scan.columns["J"][jt, je]) <= 1e-6

    def test_t_and_d_constant_across_theta(self, small_scan, rotated_members):
        cols = small_scan.columns
        for jt, je, state, cc in rotated_members:
            assert abs(total_correlations(state) - cols["T"][jt, je]) <= 1e-6
            assert abs(cc.discord - cols["D"][jt, je]) <= 1e-6
            assert abs(cc.excess - cols["L"][jt, je]) <= 1e-6

    def test_bell_corner(self, small_scan):
        # theta = 0, eps = 1 is the Bell state: K = 1 and C = 1.
        assert abs(small_scan.columns["K"][0, -1] - 1) <= 1e-9
        assert abs(small_scan.columns["C"][0, -1] - 1) <= 1e-9

    def test_k_maximal_at_x_basis(self, small_scan):
        k = small_scan.columns["K"]
        assert (k.max(axis=0) - k[-1, :]).max() <= 1e-9

    def test_m_extremes(self, small_scan):
        m = small_scan.columns["M"]
        assert (m.max(axis=0) - m[-1, :]).max() <= 1e-9
        assert (m[0, :] - m.min(axis=0)).max() <= 1e-9

    def test_rejects_tiny_grids(self):
        with pytest.raises(BadParams):
            scan_mdms(theta_points=1, epsilon_points=11)

    @pytest.mark.parametrize(
        "field, value",
        [("theta_points", 2.5), ("epsilon_points", 2.5), ("theta_points", float("inf")),
         ("epsilon_points", float("nan"))],
    )
    def test_grid_sizes_must_be_whole(self, field, value):
        with pytest.raises(BadParams, match=field):
            scan_mdms(**{"theta_points": 3, "epsilon_points": 3, field: value})


class TestCsv:
    def test_round_trip_bit_exact(self, small_scan):
        text = scan_to_csv(small_scan)
        lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
        rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        nt, ne = len(small_scan.thetas), len(small_scan.epsilons)
        # Rows are theta-major, one per (theta, epsilon) cell.
        assert rows.shape == (nt * ne, 2 + len(small_scan.columns))
        grid = np.meshgrid(small_scan.thetas, small_scan.epsilons, indexing="ij")
        assert np.array_equal(rows[:, 0].reshape(nt, ne), grid[0])
        assert np.array_equal(rows[:, 1].reshape(nt, ne), grid[1])
        for idx, name in enumerate(lines[0].split(",")[2:]):
            assert np.array_equal(rows[:, 2 + idx].reshape(nt, ne), small_scan.columns[name])

    def test_emission_deterministic(self):
        a = scan_to_csv(scan_mdms(theta_points=5, epsilon_points=5, cfg=FAST))
        b = scan_to_csv(scan_mdms(theta_points=5, epsilon_points=5, cfg=FAST))
        assert a == b

    def test_header_and_comments(self, small_scan):
        text = scan_to_csv(small_scan)
        lines = text.splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert comments
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "theta,epsilon,T,C,C_L,C_M,K,M,D,J,L"


@pytest.fixture(scope="module")
def switch_thresholds():
    return find_thresholds("basis-switch")


@pytest.fixture(scope="module")
def derivative_thresholds():
    return find_thresholds("derivative")


class TestThresholds:
    def test_derivative_method(self, derivative_thresholds):
        result = derivative_thresholds
        assert abs(result.eps_prime - 2 / 3) <= 1e-5
        assert abs(result.eps_double_prime - 0.76) <= 0.01
        assert 0 < result.eps_prime < result.eps_double_prime < 1

    def test_basis_switch_method(self, switch_thresholds):
        result = switch_thresholds
        assert abs(result.eps_prime - 2 / 3) <= 0.01
        assert abs(result.eps_double_prime - 0.76) <= 0.01

    def test_methods_agree(self, switch_thresholds, derivative_thresholds):
        assert abs(switch_thresholds.eps_prime - derivative_thresholds.eps_prime) <= 0.01
        assert (
            abs(switch_thresholds.eps_double_prime - derivative_thresholds.eps_double_prime)
            <= 0.01
        )

    def test_basis_switch_eps_double_prime_meets_derivative(
        self, switch_thresholds, derivative_thresholds
    ):
        # Just below eps'' the x basis is a saddle, so a search that stops on
        # saddles reports the x basis too early, by 8e-4.
        gap = abs(switch_thresholds.eps_double_prime - derivative_thresholds.eps_double_prime)
        assert gap <= 1e-4

    @pytest.mark.parametrize("grid", [4, 8, 10, 12])
    def test_even_grids_resolve_the_switch(self, grid, switch_thresholds, derivative_thresholds):
        # An even grid misses the x basis, so eps'' rests on the refinement
        # reaching it from one start.  eps' is compared with the default
        # search, since its SWITCH_DELTA bias (3.4e-4) exceeds 1e-4 there too.
        result = find_thresholds("basis-switch", OptimizerConfig(grid_points=grid, multistarts=1))
        assert abs(result.eps_double_prime - derivative_thresholds.eps_double_prime) <= 1e-4
        assert abs(result.eps_prime - switch_thresholds.eps_prime) <= 1e-4

    def test_unknown_method(self):
        with pytest.raises(BadParams):
            find_thresholds("newton")


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.5, 0.6, 2 / 3, 0.7, 0.7616, 0.8, 0.9, 0.99])
def test_boundary_curvatures_match_central_differences(eps):
    # The kernel's exact curvature at t = 0 itself, where the |01> weight of
    # every member is 0, and at pi/4, against a three-point stencil around each.
    state, step = mdms(eps), 1e-4
    (exact,) = _boundary_curvatures([state])
    for t, value in zip([0.0, np.pi / 4], exact):
        stencil = np.array([t - step, t, t + step])
        h = _dephased_row(state, stencil, stencil)[0]
        assert abs((h[2] - 2 * h[1] + h[0]) / step**2 - value) <= 1e-5


EPS_GRID = np.linspace(0.05, 0.99, 20)


def one_column(f):
    """A one-entry ``pairs`` for ``_first_roots`` from a function of one epsilon."""
    return lambda eps: np.array([[f(float(e))] for e in eps])


class TestFirstRoots:
    def test_linear_root_and_its_grid_cell(self):
        calls = []

        def f(eps):
            calls.append(eps)
            return eps - 0.3

        ((root, bracket),) = _first_roots(one_column(f), 1e-8)
        assert abs(root - 0.3) <= 1e-8
        assert bracket == (EPS_GRID[5], EPS_GRID[6])
        assert EPS_GRID[5] < 0.3 < EPS_GRID[6]
        # f(lo) is carried through the bisection: no point is evaluated twice.
        assert len(calls) == len(set(calls))

    @pytest.mark.parametrize("value", [1.0, -1.0])
    def test_constant_sign_raises(self, value):
        with pytest.raises(NoRootBracketed):
            _first_roots(one_column(lambda eps: value), 1e-6)

    def test_exact_zero_at_grid_point_is_returned(self):
        target = float(EPS_GRID[7])
        ((root, bracket),) = _first_roots(one_column(lambda eps: eps - target), 1e-6)
        assert root == target
        assert bracket == (EPS_GRID[6], EPS_GRID[7])

    def test_zero_at_low_end_is_not_a_flip(self):
        low = float(EPS_GRID[0])
        ((root, bracket),) = _first_roots(one_column(lambda eps: (eps - low) * (0.5 - eps)), 1e-8)
        assert abs(root - 0.5) <= 1e-8
        assert bracket == (EPS_GRID[9], EPS_GRID[10])


def scalar_first_root(f, tol):
    """Reference: the first sign change of one function of one epsilon, bisected alone."""
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


MIDPOINT = 0.5 * (float(EPS_GRID[5]) + float(EPS_GRID[6]))


@pytest.mark.parametrize(
    "entries",
    [
        # Both thresholds' shapes: a rising root, then a later one.
        [lambda e: e - 0.3, lambda e: e - 0.75],
        # A zero on a grid point, which is the high end of the cell below it.
        [lambda e: e - float(EPS_GRID[7]), lambda e: 0.9 - e],
        # A zero at the first midpoint ends one bisection while the other goes on.
        [lambda e: e - MIDPOINT, lambda e: (e - 0.81) ** 3],
        # Both roots in one cell: every round shares its midpoints.
        [lambda e: e - 0.31, lambda e: e - 0.32],
        [lambda e: e - 0.31, lambda e: e - 0.31],
        # A zero at a cell's low end is no flip, in either entry.
        [lambda e: (e - float(EPS_GRID[0])) * (0.5 - e), lambda e: (e - 0.05) * (e - 0.6)],
    ],
)
@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_lockstep_roots_match_the_scalar_bisection(entries, tol):
    sizes = []

    def pairs(eps):
        sizes.append(len(eps))
        return np.array([[f(float(e)) for f in entries] for e in eps])

    expected = [scalar_first_root(f, tol) for f in entries]
    assert _first_roots(pairs, tol) == expected
    # The grid, then at most one member per open root in each round.
    assert sizes[0] == len(EPS_GRID)
    assert all(1 <= size <= 2 for size in sizes[1:])


@pytest.mark.parametrize("eps", [0.3, 0.5])
def test_counter_rotated_row_matches_built_members(eps):
    # U(t, 0) x U(-t, 0) = U(t, 0) x U(t, 0)^dagger, the counter-rotation
    # behind verify's negative K - J row, against members built explicitly.
    state = mdms(eps)
    thetas = np.linspace(0.0, np.pi / 4, 65)
    h, h_q = _dephased_row(state, thetas, -thetas)
    for t, k in zip(thetas, h_q - h):
        u = qubit_unitary(float(t), 0.0)
        w = np.kron(u, u.conj().T)
        member = DensityMatrix((2, 2), w @ state.matrix @ w.conj().T)
        assert abs(k - irreducible_classical(member)) <= 1e-12


class TestCompareJk:
    def test_high_epsilon_bounded_above(self):
        (row,) = compare_jk([0.9], theta_points=65, cfg=FAST)
        assert row["max_K_minus_J"] <= 1e-6
        assert row["min_K_minus_J"] < -1e-3

    def test_between_thresholds_both_signs(self):
        (row,) = compare_jk([0.7], theta_points=65, cfg=FAST)
        assert row["max_K_minus_J"] > 1e-3
        assert row["min_K_minus_J"] < -1e-3

    def test_small_epsilon_vanishes(self):
        (row,) = compare_jk([1e-4], theta_points=65, cfg=FAST)
        assert row["J"] <= 1e-3
        assert abs(row["max_K_minus_J"]) <= 1e-3

    def test_input_validation(self):
        with pytest.raises(BadParams):
            compare_jk([0.5], theta_points=30)
        with pytest.raises(BadParams):
            compare_jk([1.2])

    @pytest.mark.parametrize("theta_points", [65.5, float("nan"), float("inf"), "65"])
    def test_theta_points_must_be_whole(self, theta_points):
        with pytest.raises(BadParams, match="theta_points"):
            compare_jk([0.5], theta_points=theta_points)

    def test_needs_an_epsilon(self):
        with pytest.raises(BadParams, match="epsilon"):
            compare_jk([])

    def test_rejects_every_epsilon_before_any_search(self, monkeypatch):
        # 1.2 is out of range, so the valid 0.5 before it must not be searched.
        grids = []
        contract = quantifiers.joint_dephased_entropies

        def counting(*args):
            grids.append(args)
            return contract(*args)

        monkeypatch.setattr(quantifiers, "joint_dephased_entropies", counting)
        with pytest.raises(BadParams, match="1.2"):
            compare_jk([0.5, 1.2], cfg=FAST)
        assert grids == []
        compare_jk([0.5], cfg=FAST)
        assert len(grids) == 1


def test_stacked_drivers_match_one_search_per_member():
    # The drivers refine every member's starts in one stack; D, J and L must
    # be those of one closest_classical search per epsilon, to the bit.
    table = scan_mdms(9, 5, FAST)
    for je, eps in enumerate(table.epsilons):
        cc = closest_classical(mdms(float(eps)), FAST)
        for name, value in (("D", cc.discord), ("J", cc.classical_correlations), ("L", cc.excess)):
            assert np.all(table.columns[name][:, je] == value), (name, eps)
    for row in compare_jk([0.3, 0.7], cfg=FAST):
        assert row["J"] == closest_classical(mdms(row["epsilon"]), FAST).classical_correlations


class TestParams:
    def test_threshold_result_ordering_guard(self):
        from hookup.mdms import ThresholdResult

        with pytest.raises(NoRootBracketed):
            ThresholdResult(0.8, 0.7, "derivative", {}, {})

    def test_scan_table_shape_guard(self):
        with pytest.raises(BadParams):
            ScanTable(
                thetas=np.zeros(3),
                epsilons=np.zeros(4),
                columns={"T": np.zeros((2, 4))},
            )

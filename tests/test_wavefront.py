"""Contour extraction on analytic grids and real small-system front ordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderxx import core, wavefront
from ladderxx.core import (
    LadderParams,
    SectorBasis,
    build_hamiltonian,
    diagonalize,
    diagonalize_sectors,
    sample_disorder,
    sigma_z_operator,
)
from ladderxx.otoc import default_lightcone_times, exact_otoc, multi_distance_otoc_values
from ladderxx.wavefront import (
    Contour,
    WavefrontGrid,
    build_spacetime_grid,
    extract_contour,
    fit_dynamical_exponent,
)


def synthetic_grid(distances, times, func):
    values = np.array([[func(dx, t) for t in times] for dx in distances])
    return WavefrontGrid(
        distances=np.asarray(distances), times=np.asarray(times), values=values
    )


# ---------------------------------------------------------------- contours

def test_separable_exponential_grid_inverts_analytically():
    # F(dx, t) = exp(-t / dx) crosses eta at t = -dx ln(eta): a linear front.
    times = np.linspace(0.0, 20.0, 2001)
    distances = [1, 2, 3, 4, 5]
    grid = synthetic_grid(distances, times, lambda dx, t: np.exp(-t / dx))
    for eta in (0.9, 0.5, 0.2):
        contour = extract_contour(grid, eta)
        expected = -np.array(distances) * np.log(eta)
        assert np.max(np.abs(contour.t_cross - expected)) < 2e-3
        assert contour.meta["missing"] == []


def test_linear_front_fits_gamma_one():
    times = np.linspace(0.0, 20.0, 4001)
    grid = synthetic_grid([1, 2, 3, 4, 5], times, lambda dx, t: np.exp(-t / dx))
    contour = extract_contour(grid, 0.5)
    fit = fit_dynamical_exponent(contour, min_dx=1)
    assert fit.params["gamma"] == pytest.approx(1.0, abs=1e-3)


def test_quadratic_crossings_give_gamma_half():
    # t_cross = dx^2 means dx = t^(1/2).
    contour = Contour(
        eta=0.5,
        distances=np.array([1, 2, 3, 4, 5]),
        t_cross=np.array([1.0, 4.0, 9.0, 16.0, 25.0]),
    )
    fit = fit_dynamical_exponent(contour, min_dx=1)
    assert fit.params["gamma"] == pytest.approx(0.5, rel=1e-12)
    assert fit.params["a"] == pytest.approx(1.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_never_crossing_rows_are_flagged():
    times = np.linspace(0.0, 5.0, 51)
    grid = synthetic_grid(
        [1, 2, 3], times, lambda dx, t: np.exp(-t) if dx == 1 else 1.0
    )
    contour = extract_contour(grid, 0.5)
    assert list(contour.distances) == [1]
    assert contour.meta["missing"] == [2, 3]
    empty = extract_contour(synthetic_grid([1, 2], times, lambda dx, t: 1.0), 0.5)
    assert empty.distances.size == 0
    assert empty.meta["missing"] == [1, 2]


def test_per_realization_contour_misses_a_distance_some_rows_never_cross():
    # One row drops through 0.5 at t = 1.75, the other stays at 1: the mean
    # grid never crosses, and neither may the per-realization contour.
    times = np.arange(5.0)
    rows = np.array([[[1.0, 0.8, 0.4, 0.2, 0.1]], [[1.0] * 5]])
    grid = WavefrontGrid(
        distances=[1], times=times, values=rows.mean(axis=0), per_realization=rows
    )
    for per_realization in (False, True):
        contour = extract_contour(grid, 0.5, per_realization=per_realization)
        assert contour.distances.size == 0
        assert contour.meta["missing"] == [1]
    assert contour.meta["crossings"] == [1]
    both = WavefrontGrid(
        distances=[1], times=times, values=rows[0], per_realization=rows[[0, 0]]
    )
    contour = extract_contour(both, 0.5, per_realization=True)
    assert contour.points == [(1, 1.75)]
    assert contour.meta["crossings"] == [2]
    assert extract_contour(both, 0.5).meta["crossings"] == [1]


@pytest.mark.parametrize(
    "shape",
    [(1, 3, 2), (2, 2, 2), (2, 3), (0, 2, 3)],
    ids=["swapped-axes", "too-few-times", "no-realization-axis", "no-realizations"],
)
def test_grid_rejects_per_realization_values_of_another_shape(shape):
    # Each would give extract_contour(per_realization=True) a wrong contour
    # without an error: every distance missing, or crossings dated on the
    # wrong times.
    times = np.array([0.0, 1.0, 2.0])
    values = np.array([[1.0, 0.6, 0.2], [1.0, 0.8, 0.4]])
    with pytest.raises(ValueError, match="per_realization has shape"):
        WavefrontGrid(
            distances=[1, 2], times=times, values=values, per_realization=np.ones(shape)
        )
    grid = WavefrontGrid(
        distances=[1, 2], times=times, values=values, per_realization=[values.tolist()]
    )
    assert grid.per_realization.dtype == float
    assert extract_contour(grid, 0.5, per_realization=True).points == [(1, 1.25), (2, 1.75)]


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    n_dist=st.integers(min_value=1, max_value=4),
    n_times=st.integers(min_value=2, max_value=12),
)
def test_contour_is_monotone_in_eta(data, n_dist, n_times):
    # Lowering eta can only delay a first crossing or lose it. Integer times
    # keep t0 + (t1 - t0) exact, so an interpolated crossing never rounds
    # past the grid point that brackets it.
    steps = data.draw(st.lists(st.integers(1, 10), min_size=n_times, max_size=n_times))
    row = st.lists(st.floats(-0.5, 1.5), min_size=n_times, max_size=n_times)
    values = data.draw(st.lists(row, min_size=n_dist, max_size=n_dist))
    level = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    etas = sorted(data.draw(st.lists(level, min_size=2, max_size=6, unique=True)), reverse=True)
    grid = WavefrontGrid(
        distances=np.arange(1, n_dist + 1), times=np.cumsum(steps), values=values
    )
    contours = [extract_contour(grid, eta) for eta in etas]
    for high, low in zip(contours, contours[1:]):
        assert set(high.meta["missing"]) <= set(low.meta["missing"])
        t_high = dict(high.points)
        for dx, t in low.points:
            assert t >= t_high[dx]


def test_eta_bounds_are_enforced():
    times = np.linspace(0.0, 1.0, 5)
    grid = synthetic_grid([1], times, lambda dx, t: 1.0)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            extract_contour(grid, bad)


def test_gamma_is_invariant_under_time_rescaling():
    contour_a = Contour(
        eta=0.5,
        distances=np.array([2, 3, 4, 5]),
        t_cross=np.array([1.3, 2.9, 4.4, 6.8]),
    )
    contour_b = Contour(
        eta=0.5, distances=contour_a.distances, t_cross=7.3 * contour_a.t_cross
    )
    g_a = fit_dynamical_exponent(contour_a, min_dx=1).params["gamma"]
    g_b = fit_dynamical_exponent(contour_b, min_dx=1).params["gamma"]
    assert g_a == pytest.approx(g_b, rel=1e-10)


def test_deep_eta_excludes_short_distances_by_default():
    contour = Contour(
        eta=0.1,
        distances=np.array([1, 2, 3, 4, 5]),
        t_cross=np.array([0.5, 1.0, 2.0, 2.7, 3.5]),
    )
    fit = fit_dynamical_exponent(contour)
    assert fit.meta["min_dx"] == 3
    shallow = Contour(
        eta=0.9, distances=contour.distances, t_cross=contour.t_cross
    )
    assert fit_dynamical_exponent(shallow).meta["min_dx"] == 1


def test_too_few_points_rejected():
    contour = Contour(
        eta=0.5, distances=np.array([3, 4]), t_cross=np.array([1.0, 2.0])
    )
    with pytest.raises(ValueError):
        fit_dynamical_exponent(contour)


# ---------------------------------------------------------------- real grids

@pytest.fixture(scope="module")
def small_real_grid():
    params = LadderParams(L=4, alpha=1.0, h=1.0)
    ensemble = [sample_disorder(params, seed) for seed in range(600, 620)]
    times = np.linspace(0.0, 6.0, 61)
    return build_spacetime_grid(params, ensemble, times)


def test_real_grid_shape_and_bounds(small_real_grid):
    grid = small_real_grid
    assert grid.values.shape == (3, 61)
    assert np.allclose(grid.values[:, 0], 1.0, atol=1e-9)
    assert np.max(np.abs(grid.values)) <= 1.0 + 1e-9
    assert grid.meta["realizations"] == 20
    assert grid.per_realization.shape == (20, 3, 61)
    assert np.allclose(grid.per_realization.mean(axis=0), grid.values, atol=1e-14)
    assert grid.meta["health_defect"] < 1e-9


def test_real_grid_outer_front_is_ordered(small_real_grid):
    contour = extract_contour(small_real_grid, 0.9)
    by_dx = dict(contour.points)
    assert by_dx[1] < by_dx[3]


def test_per_realization_contour_option(small_real_grid):
    mean_contour = extract_contour(small_real_grid, 0.9)
    per_contour = extract_contour(small_real_grid, 0.9, per_realization=True)
    assert per_contour.meta["per_realization"] is True
    assert per_contour.distances.size >= mean_contour.distances.size - 1
    # both see the same qualitative front; crossing times stay positive
    assert np.all(per_contour.t_cross > 0)


@pytest.mark.parametrize("h", [0.0, 1.0])
def test_light_cone_is_sublinear(h):
    # The abstract's effective light cone, dx ~ t^gamma with gamma < 1, on the
    # levels near 1; gamma grows towards the scrambled region. Levels
    # eta <= 0.25 keep only dx >= 3, 3 points at L = 6: too few to judge
    # the butterfly cone.
    params = LadderParams(L=6, h=h)
    grid = build_spacetime_grid(params, [sample_disorder(params, 1)], default_lightcone_times(100))
    fits = {eta: fit_dynamical_exponent(extract_contour(grid, eta)) for eta in (0.99, 0.9, 0.75, 0.5)}
    gamma = [fit.params["gamma"] for fit in fits.values()]
    assert gamma == sorted(gamma) and len(set(gamma)) == len(gamma)
    assert gamma[-1] + 2 * fits[0.5].meta["stderr"]["gamma"] < 1.0


def test_two_realization_grid_is_bitwise_the_stack_of_one_realization_grids():
    # The realizations of one grid share the basis and its Hadamard plan,
    # which must carry nothing from one realization to the next.
    params = LadderParams(L=4, alpha=1.0, h=1.0)
    ensemble = [sample_disorder(params, seed) for seed in (31, 32)]
    times = np.linspace(0.0, 6.0, 31)
    both = build_spacetime_grid(params, ensemble, times)
    alone = [build_spacetime_grid(params, [dis], times).values for dis in ensemble]
    assert np.array_equal(both.per_realization, np.stack(alone))


def test_grid_requires_realizations():
    params = LadderParams(L=3, alpha=1.0, h=1.0)
    with pytest.raises(ValueError):
        build_spacetime_grid(params, [], np.linspace(0, 1, 5))


def counted_eigensolves(monkeypatch):
    """Count the eigensolves that build_spacetime_grid makes, by kind: its
    calls of diagonalize_sectors, and the full solves that one makes."""
    counts = {"diagonalize": 0, "diagonalize_sectors": 0}
    for module, name in ((core, "diagonalize"), (wavefront, "diagonalize_sectors")):
        solve = getattr(module, name)

        def counted(*args, name=name, solve=solve):
            counts[name] += 1
            return solve(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize(
    "times, message",
    [([], "at least one time"), ([0.0, float("nan")], "finite"), ([[0.0, 1.0]], "1-D")],
    ids=["empty", "nan", "two-dimensional"],
)
def test_grid_refuses_a_bad_time_grid_before_any_eigensolve(times, message, monkeypatch):
    counts = counted_eigensolves(monkeypatch)
    params = LadderParams(L=3, alpha=1.0, h=1.0)
    with pytest.raises(ValueError, match=message):
        build_spacetime_grid(params, [sample_disorder(params, 1)], times)
    assert counts == {"diagonalize": 0, "diagonalize_sectors": 0}


def test_grid_solves_charge_sectors_only_with_shared_fields(monkeypatch):
    # Independent legs conserve no charge, so an ensemble that holds one is
    # refused before its first realization is solved.
    counts = counted_eigensolves(monkeypatch)
    params = LadderParams(L=4, alpha=1.3, h=2.0)
    basis = SectorBasis(4)
    shared = sample_disorder(params, 5)
    times = np.linspace(0.0, 4.0, 9)
    with pytest.raises(ValueError, match="seed=6 has independent legs"):
        build_spacetime_grid(params, [shared, sample_disorder(params, 6, independent_legs=True)], times)
    assert counts == {"diagonalize": 0, "diagonalize_sectors": 0}
    grid = build_spacetime_grid(params, [shared], times)
    assert counts == {"diagonalize": 0, "diagonalize_sectors": 1}
    eig = diagonalize(build_hamiltonian(params, shared, basis))
    d_1 = sigma_z_operator(basis, 1, 1)
    for dx, got in zip((1, 2, 3), grid.values):
        want = exact_otoc(eig, sigma_z_operator(basis, 1, 1 + dx), d_1, times)
        assert np.max(np.abs(got - want.values)) < 1e-12


def test_decoupled_legs_never_scramble_across():
    # alpha = 0 splits the ladder; an OTOC probing the other leg stays at 1,
    # the caricature of a never-crossing grid row.
    params = LadderParams(L=3, alpha=0.0, h=1.0)
    basis = SectorBasis(3)
    eig = diagonalize_sectors(build_hamiltonian(params, sample_disorder(params, 3), basis))
    d_1 = sigma_z_operator(basis, 1, 1)
    d_other = sigma_z_operator(basis, 2, 3)
    values, _ = multi_distance_otoc_values(eig, d_other[None, :], d_1, np.linspace(0.0, 8.0, 17))
    assert np.max(np.abs(values - 1.0)) < 1e-10
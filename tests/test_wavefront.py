"""Contour extraction on analytic grids and real small-system front ordering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderxx.core import (
    LadderParams,
    SectorBasis,
    build_hamiltonian,
    diagonalize,
    sample_disorder,
    sigma_z_operator,
)
from ladderxx.otoc import multi_distance_otoc_values
from ladderxx.wavefront import (
    Contour,
    WavefrontGrid,
    build_spacetime_grid,
    extract_contour,
    fit_dynamical_exponent,
    wavefront_rates,
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


# ---------------------------------------------------------------- rates

def test_rates_constant_for_ballistic_front():
    contour = Contour(
        eta=0.5,
        distances=np.array([1, 2, 3, 4]),
        t_cross=np.array([0.5, 1.0, 1.5, 2.0]),
    )
    fit_dynamical_exponent(contour, min_dx=1)
    rates = wavefront_rates(contour)
    fitted_values = [r for _, r in rates.fitted]
    assert np.allclose(fitted_values, fitted_values[0], rtol=1e-9)
    raw_values = [r for _, r in rates.raw]
    assert np.allclose(raw_values, 2.0, rtol=1e-9)


def test_rates_decrease_for_sublinear_front():
    contour = Contour(
        eta=0.5,
        distances=np.array([1, 2, 3, 4, 5]),
        t_cross=np.array([1.0, 4.0, 9.0, 16.0, 25.0]),
    )
    fit_dynamical_exponent(contour, min_dx=1)
    rates = wavefront_rates(contour)
    ts = np.array([t for t, _ in rates.fitted])
    vs = np.array([v for _, v in rates.fitted])
    assert np.allclose(vs, 0.5 * ts**-0.5, rtol=1e-9)
    assert np.all(np.diff(vs) < 0)


def test_rates_require_fit():
    contour = Contour(
        eta=0.5, distances=np.array([1, 2, 3]), t_cross=np.array([1.0, 2.0, 3.0])
    )
    with pytest.raises(ValueError):
        wavefront_rates(contour)


# ---------------------------------------------------------------- real grids

@pytest.fixture(scope="module")
def small_real_grid():
    params = LadderParams(L=4, alpha=1.0, h=1.0)
    ensemble = [sample_disorder(params, seed) for seed in range(600, 620)]
    times = np.linspace(0.0, 6.0, 61)
    return build_spacetime_grid(params, ensemble, times, keep_per_realization=True)


def test_real_grid_shape_and_bounds(small_real_grid):
    grid = small_real_grid
    assert grid.values.shape == (3, 61)
    assert np.allclose(grid.values[:, 0], 1.0, atol=1e-9)
    assert np.max(np.abs(grid.values)) <= 1.0 + 1e-9
    assert grid.meta["realizations"] == 20
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


def test_grid_requires_realizations():
    params = LadderParams(L=3, alpha=1.0, h=1.0)
    with pytest.raises(ValueError):
        build_spacetime_grid(params, [], np.linspace(0, 1, 5))


def test_decoupled_legs_never_scramble_across():
    # alpha = 0 splits the ladder; an OTOC probing the other leg stays at 1,
    # the caricature of a never-crossing grid row.
    params = LadderParams(L=3, alpha=0.0, h=1.0)
    basis = SectorBasis(3)
    eig = diagonalize(build_hamiltonian(params, sample_disorder(params, 3), basis))
    d_1 = sigma_z_operator(basis, 1, 1)
    d_other = sigma_z_operator(basis, 2, 3)
    values, _ = multi_distance_otoc_values(eig, d_other[None, :], d_1, np.linspace(0.0, 8.0, 17))
    assert np.max(np.abs(values - 1.0)) < 1e-10
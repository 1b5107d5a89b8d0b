"""Fit recovery on synthetic curves, scaling laws, and error signals."""

import numpy as np
import pytest
import scipy.optimize
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
from ladderxx.fits import (
    ErrorSignal,
    FitConvergenceError,
    decay_onset,
    error_signal,
    fit_error_scaling,
    fit_exponential,
    fit_mbl_form,
    fit_power_law,
    logarithmic_window,
    mbl_curve,
)
from ladderxx.otoc import (
    OtocSeries,
    complete_fock_basis,
    exact_otoc,
    fock_state,
    sampled_otoc,
)


def series_from(t, y):
    t = np.asarray(t, dtype=float)
    return OtocSeries(times=t, values=np.asarray(y, dtype=complex))


# ---------------------------------------------------------------- exponential

def test_exponential_exact_recovery():
    t = np.linspace(0.1, 4.0, 40)
    fit = fit_exponential(series_from(t, 2.0 * np.exp(-1.3 * t)))
    assert fit.params["a"] == pytest.approx(2.0, rel=1e-10)
    assert fit.params["lam"] == pytest.approx(1.3, rel=1e-10)
    assert fit.r_squared > 0.9999


def test_exponential_window_restriction():
    t = np.linspace(0.1, 10.0, 100)
    y = 0.5 * np.exp(-0.7 * t)
    y[t > 5] = 0.2  # grid points outside the window would spoil the fit
    fit = fit_exponential(series_from(t, y), window=(0.0, 5.0))
    assert fit.params["lam"] == pytest.approx(0.7, rel=1e-9)
    assert fit.window == (0.0, 5.0)


def test_exponential_rejects_nonpositive():
    t = np.linspace(0.0, 1.0, 10)
    y = np.linspace(1.0, -0.1, 10)
    with pytest.raises(ValueError):
        fit_exponential(series_from(t, y + 0j))


def test_exponential_rejects_short_window():
    t = np.array([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        fit_exponential(series_from(t, np.exp(-t)))


# ---------------------------------------------------------------- power law

def test_power_law_exact_recovery():
    t = np.geomspace(0.5, 50.0, 30)
    fit = fit_power_law(series_from(t, 5.0 * t**-2.5))
    assert fit.params["a"] == pytest.approx(5.0, rel=1e-12)
    assert fit.params["b"] == pytest.approx(2.5, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_power_law_accepts_raw_pairs():
    x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = fit_power_law((x, 0.3 * x**0.5))
    assert fit.params["b"] == pytest.approx(-0.5, rel=1e-12)  # growing data: negative b


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(min_value=0.1, max_value=10.0),
    lam=st.floats(min_value=0.05, max_value=3.0),
    b=st.floats(min_value=0.1, max_value=4.0),
)
def test_log_space_fits_are_exact_on_their_own_forms(a, lam, b):
    t = np.geomspace(0.2, 8.0, 25)
    efit = fit_exponential(series_from(t, a * np.exp(-lam * t)))
    assert efit.params["a"] == pytest.approx(a, rel=1e-8)
    assert efit.params["lam"] == pytest.approx(lam, rel=1e-8, abs=1e-10)
    assert np.max(np.abs(efit.residuals)) < 1e-10
    pfit = fit_power_law(series_from(t, a * t**-b))
    assert pfit.params["b"] == pytest.approx(b, rel=1e-8)
    assert np.max(np.abs(pfit.residuals)) < 1e-10


def test_fit_is_invariant_under_point_reordering():
    rng = np.random.default_rng(1)
    t = np.linspace(0.1, 5.0, 30)
    y = 1.4 * np.exp(-0.9 * t) * np.exp(rng.normal(0, 0.02, t.size))
    perm = rng.permutation(t.size)
    a = fit_exponential(series_from(t, y))
    b = fit_exponential(series_from(t[perm], y[perm]))
    assert a.params["a"] == b.params["a"]
    assert a.params["lam"] == b.params["lam"]


# ---------------------------------------------------------------- stretched form

def test_mbl_exact_recovery():
    t = np.geomspace(0.1, 1000.0, 60)
    fit = fit_mbl_form(series_from(t, mbl_curve(t, 0.7, 5.0, -0.8)))
    assert fit.params["a"] == pytest.approx(0.70, rel=0.01)
    assert fit.params["b"] == pytest.approx(5.0, rel=0.01)
    assert fit.params["c"] == pytest.approx(-0.80, rel=0.01)


def test_mbl_fitted_curve_invariants():
    t = np.geomspace(0.1, 1000.0, 80)
    y = mbl_curve(t, 0.4, 7.0, -0.5) + 0.003 * np.sin(np.log(t) * 3.0)
    fit = fit_mbl_form(series_from(t, y))
    a, b, c = fit.params["a"], fit.params["b"], fit.params["c"]
    assert c < 0
    curve = mbl_curve(t, a, b, c)
    assert mbl_curve(np.array([1e-12]), a, b, c)[0] == pytest.approx(1.0, abs=1e-9)
    if 0 < a < 1:
        assert np.all(np.diff(curve) <= 1e-12)


def test_mbl_needs_two_decades():
    t = np.linspace(1.0, 10.0, 30)
    with pytest.raises(ValueError):
        fit_mbl_form(series_from(t, mbl_curve(t, 0.5, 3.0, -0.5)))


def test_logarithmic_window_against_numeric_solution():
    t = np.geomspace(0.1, 1000.0, 60)
    for a, b, c in ((0.725, 5.727, -0.812), (0.154, 8.661, -0.519)):
        fit = fit_mbl_form(series_from(t, mbl_curve(t, a, b, c)))
        t_center, slope = logarithmic_window(fit)
        # independent check: solve b t^c = 1 numerically, differentiate numerically
        t_root = scipy.optimize.brentq(lambda x: b * x**c - 1.0, 1e-3, 1e6)
        assert t_center == pytest.approx(t_root, rel=1e-6)
        dlnt = 1e-6
        f = lambda x: mbl_curve(np.array([x]), a, b, c)[0]
        numeric_slope = (f(t_root * np.exp(dlnt)) - f(t_root * np.exp(-dlnt))) / (2 * dlnt)
        assert slope == pytest.approx(numeric_slope, rel=1e-4)
    # the two cases sit at order 10 and order 100
    fit5 = fit_mbl_form(series_from(t, mbl_curve(t, 0.725, 5.727, -0.812)))
    assert 5 < logarithmic_window(fit5)[0] < 20
    fit10 = fit_mbl_form(series_from(t, mbl_curve(t, 0.154, 8.661, -0.519)))
    assert 40 < logarithmic_window(fit10)[0] < 100


def test_logarithmic_window_diverges_as_c_to_zero():
    centers = []
    for c in (-0.4, -0.2, -0.1):
        fit_params = {"a": 0.3, "b": 5.0, "c": c}
        from ladderxx.fits import FitResult

        fit = FitResult(
            form="mbl", params=fit_params, r_squared=1.0, window=(0.1, 1e3),
            residuals=np.zeros(5),
        )
        centers.append(logarithmic_window(fit)[0])
    assert centers[0] < centers[1] < centers[2]
    assert centers[2] > 1e6


def test_logarithmic_window_rejects_wrong_form():
    t = np.linspace(0.1, 5, 20)
    fit = fit_exponential(series_from(t, np.exp(-t)))
    with pytest.raises(ValueError):
        logarithmic_window(fit)


# ---------------------------------------------------------------- error signals

@pytest.fixture(scope="module")
def small_system():
    params = LadderParams(L=3, alpha=1.0, h=1.0)
    basis = SectorBasis(3)
    eig = diagonalize(build_hamiltonian(params, sample_disorder(params, 4), basis))
    d_i = sigma_z_operator(basis, 1, 3)
    d_1 = sigma_z_operator(basis, 1, 1)
    return basis, eig, d_i, d_1


def test_error_signal_of_identical_series_is_zero(small_system):
    basis, eig, d_i, d_1 = small_system
    t = np.linspace(0.0, 5.0, 11)
    ex = exact_otoc(eig, d_i, d_1, t)
    sig = error_signal(ex, ex, "eps1")
    assert np.allclose(sig.eps, 0.0)


def test_error_signal_complete_fock_basis(small_system):
    basis, eig, d_i, d_1 = small_system
    t = np.linspace(0.0, 5.0, 11)
    ex = exact_otoc(eig, d_i, d_1, t)
    sam = sampled_otoc(eig, d_i, d_1, complete_fock_basis(basis), t)
    sig1 = error_signal(ex, sam, "eps1", n_dim=basis.dim)
    assert np.max(sig1.eps) <= 1e-9
    assert sig1.M == basis.dim and sig1.N == basis.dim
    sig2 = error_signal(ex, sam, "eps2")
    assert sig2.kind == "eps2"
    assert np.all(sig2.eps >= 0)


def test_error_signal_grid_mismatch(small_system):
    basis, eig, d_i, d_1 = small_system
    ex = exact_otoc(eig, d_i, d_1, np.linspace(0, 5, 11))
    sam = sampled_otoc(
        eig, d_i, d_1, [fock_state(basis, 0)], np.linspace(0, 5, 12)
    )
    with pytest.raises(ValueError):
        error_signal(ex, sam, "eps1")


def test_saturation_mean_uses_trailing_quarter():
    sig = ErrorSignal(
        times=np.arange(8.0), eps=np.array([9, 9, 9, 9, 9, 9, 1, 3.0]),
        kind="eps1", M=1,
    )
    assert sig.saturation_mean() == pytest.approx(2.0)


def test_saturation_mean_keeps_the_last_point_of_short_grids():
    for eps in ([3.0], [9.0, 3.0]):
        sig = ErrorSignal(times=np.arange(len(eps), dtype=float), eps=np.array(eps), kind="eps1", M=1)
        assert sig.saturation_mean() == 3.0


def test_saturation_mean_rejects_fractions_outside_unit_interval():
    sig = ErrorSignal(times=np.arange(8.0), eps=np.arange(8.0), kind="eps1", M=1)
    assert sig.saturation_mean(1.0) == pytest.approx(3.5)
    for fraction in (0.0, -0.25, 1.5, float("nan")):
        with pytest.raises(ValueError, match="fraction"):
            sig.saturation_mean(fraction)


def test_saturation_mean_of_the_decay_grid_is_the_trailing_15_points():
    # The decay study's 60-point grid: the same window, and bits, as before.
    eps = np.random.default_rng(0).random(60)
    sig = ErrorSignal(times=np.geomspace(0.1, 1000.0, 60), eps=eps, kind="eps2", M=4)
    assert sig.saturation_mean() == float(eps[45:].mean())


# ---------------------------------------------------------------- scaling fits

def test_scaling_exp_exact():
    x = np.linspace(0.0, 1.0, 9)
    fit = fit_error_scaling((x, 0.1 * np.exp(-2.5 * x)), "scaling_exp")
    assert fit.params["a"] == pytest.approx(0.1, rel=1e-12)
    assert fit.params["b"] == pytest.approx(-2.5, rel=1e-12)


def test_scaling_power_exact():
    x = np.geomspace(0.01, 1.0, 7)
    fit = fit_error_scaling((x, 0.2 * x**-0.5), "scaling_power")
    assert fit.params["a"] == pytest.approx(0.2, rel=1e-12)
    assert fit.params["b"] == pytest.approx(-0.5, rel=1e-12)


def test_scaling_rejects_degenerate_input():
    with pytest.raises(ValueError):
        fit_error_scaling((np.ones(4), np.ones(4)), "scaling_exp")
    with pytest.raises(ValueError):
        fit_error_scaling((np.array([1.0, 2.0]), np.array([1.0, 2.0])), "scaling_exp")
    with pytest.raises(ValueError):
        fit_error_scaling((np.arange(4.0), np.ones(4)), "scaling_sqrt")


# ---------------------------------------------------------------- onset helper

def test_decay_onset():
    t = np.linspace(0.0, 2.0, 21)
    y = np.ones_like(t)
    y[t >= 1.0] = 0.9
    s = series_from(t, y)
    assert decay_onset(s) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        decay_onset(series_from(t, np.ones_like(t)))


def test_fit_result_serialization():
    t = np.linspace(0.1, 5.0, 20)
    fit = fit_exponential(series_from(t, 2.0 * np.exp(-t)))
    import json

    payload = json.loads(fit.to_json())
    assert payload["form"] == "exp"
    assert payload["coordinates"] == "semilog"
    assert payload["n_points"] == 20

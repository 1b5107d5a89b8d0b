"""Fit recovery on synthetic curves, scaling laws, and error signals."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fock_oracles import complete_fock_basis
from ladderxx.core import (
    LadderParams,
    SectorBasis,
    build_hamiltonian,
    derive_seed,
    diagonalize,
    diagonalize_sectors,
    sample_disorder,
    sigma_z_operator,
)
from ladderxx.fits import (
    ErrorSignal,
    FitConvergenceError,
    error_signal,
    fit_error_scaling,
    fit_mbl_form,
    mbl_curve,
)
from ladderxx.otoc import (
    OtocSeries,
    default_decay_times,
    exact_otoc,
    fock_state,
    multi_distance_otoc_values,
    sampled_otoc,
)


def series_from(t, y):
    t = np.asarray(t, dtype=float)
    return OtocSeries(times=t, values=np.asarray(y, dtype=complex))


# ---------------------------------------------------------------- log-space laws

def test_exponential_exact_recovery():
    t = np.linspace(0.1, 4.0, 40)
    fit = fit_error_scaling((t, 2.0 * np.exp(-1.3 * t)), "scaling_exp")
    assert fit.params["a"] == pytest.approx(2.0, rel=1e-10)
    assert fit.params["b"] == pytest.approx(-1.3, rel=1e-10)
    assert fit.r_squared > 0.9999


def test_exponential_rejects_nonpositive():
    t = np.linspace(0.0, 1.0, 10)
    y = np.linspace(1.0, -0.1, 10)
    with pytest.raises(ValueError, match="positive y"):
        fit_error_scaling((t, y), "scaling_exp")


def test_exponential_rejects_short_window():
    t = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="need at least 3 points, have 2"):
        fit_error_scaling((t, np.exp(-t)), "scaling_exp")


def test_power_law_exact_recovery():
    t = np.geomspace(0.5, 50.0, 30)
    fit = fit_error_scaling((t, 5.0 * t**-2.5), "scaling_power")
    assert fit.params["a"] == pytest.approx(5.0, rel=1e-12)
    assert fit.params["b"] == pytest.approx(-2.5, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    a=st.floats(min_value=0.1, max_value=10.0),
    lam=st.floats(min_value=0.05, max_value=3.0),
    b=st.floats(min_value=0.1, max_value=4.0),
)
def test_log_space_fits_are_exact_on_their_own_forms(a, lam, b):
    t = np.geomspace(0.2, 8.0, 25)
    efit = fit_error_scaling((t, a * np.exp(-lam * t)), "scaling_exp")
    assert efit.params["a"] == pytest.approx(a, rel=1e-8)
    assert efit.params["b"] == pytest.approx(-lam, rel=1e-8, abs=1e-10)
    assert np.max(np.abs(efit.residuals)) < 1e-10
    pfit = fit_error_scaling((t, a * t**-b), "scaling_power")
    assert pfit.params["b"] == pytest.approx(-b, rel=1e-8)
    assert np.max(np.abs(pfit.residuals)) < 1e-10


def test_fit_is_invariant_under_point_reordering():
    rng = np.random.default_rng(1)
    t = np.linspace(0.1, 5.0, 30)
    y = 1.4 * np.exp(-0.9 * t) * np.exp(rng.normal(0, 0.02, t.size))
    perm = rng.permutation(t.size)
    a = fit_error_scaling((t, y), "scaling_exp")
    b = fit_error_scaling((t[perm], y[perm]), "scaling_exp")
    assert a.params["a"] == b.params["a"]
    assert a.params["b"] == b.params["b"]


def noisy_log_law_fits(rng):
    """(fit, X, Y) of each log-space form on noisy data: X, Y are its coordinates."""
    x = np.geomspace(2.0, 64.0, 6)
    err = 0.3 * x**-0.5 * np.exp(rng.normal(0, 0.1, x.size))
    return [
        (fit_error_scaling((x, err), "scaling_power"), "b", np.log(x), np.log(err)),
        (fit_error_scaling((x, err), "scaling_exp"), "b", x, np.log(err)),
    ]


def test_log_law_standard_errors_match_the_polyfit_covariance():
    for fit, name, X, Y in noisy_log_law_fits(np.random.default_rng(3)):
        _, cov = np.polyfit(X, Y, 1, cov=True)
        se = fit.meta["stderr"]
        assert se[name] == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-12)
        assert se["ln_a"] == pytest.approx(np.sqrt(cov[1, 1]), rel=1e-12)


def test_log_law_standard_errors_vanish_on_exact_data():
    t = np.geomspace(0.2, 8.0, 25)
    for fit in (
        fit_error_scaling((t, 2.0 * np.exp(-1.3 * t)), "scaling_exp"),
        fit_error_scaling((t, 5.0 * t**-2.5), "scaling_power"),
    ):
        assert all(abs(v) < 1e-12 for v in fit.meta["stderr"].values())


def test_log_law_standard_errors_are_invariant_under_point_reordering():
    rng = np.random.default_rng(4)
    t = np.linspace(0.1, 5.0, 30)
    y = 1.4 * np.exp(-0.9 * t) * np.exp(rng.normal(0, 0.02, t.size))
    perm = rng.permutation(t.size)
    for form in ("scaling_exp", "scaling_power"):
        want = fit_error_scaling((t, y), form).meta["stderr"]
        assert fit_error_scaling((t[perm], y[perm]), form).meta["stderr"] == want


# ---------------------------------------------------------------- stretched form

def test_fits_that_drop_nonpositive_times_leave_them_out_of_the_window():
    t = np.concatenate([[-1.0, 0.0], np.geomspace(0.1, 1000.0, 60)])
    positive = np.maximum(t, 0.1)
    mbl = fit_mbl_form((t, mbl_curve(positive, 0.7, 5.0, -0.8)))
    assert mbl.window == (0.1, 1000.0)


def test_mbl_refuses_non_finite_times():
    # -inf is not dropped with the times t <= 0: it reaches the finiteness check.
    for bad in (np.nan, np.inf, -np.inf):
        t = default_decay_times(60)
        y = mbl_curve(t, 0.7, 5.0, -0.8)
        t[30] = bad
        with pytest.raises(ValueError, match="fit needs finite"):
            fit_mbl_form((t, y))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("column", ["t", "y"])
def test_mbl_refuses_non_finite_input(column, bad):
    t = np.geomspace(0.1, 1000.0, 60)
    y = mbl_curve(t, 0.7, 5.0, -0.8)
    (t if column == "t" else y)[30] = bad
    with pytest.raises(ValueError, match="mbl fit needs finite t and y on its positive-t points"):
        fit_mbl_form((t, y))


def test_mbl_fit_does_not_depend_on_the_warnings_filter():
    # An exact series at L = 5, h = 2, on which a trial c sends t^c to inf.
    # A filter that raised on that overflow dropped the start, and b moved by
    # 7.7e-8 relative.
    params = LadderParams(L=5, alpha=1.0, h=2.0)
    basis = SectorBasis(5)
    disorder = sample_disorder(params, derive_seed(7, "decayform", 5, 2.0, 1))
    eig = diagonalize_sectors(build_hamiltonian(params, disorder, basis))
    times = default_decay_times(60)
    probe, op_1 = sigma_z_operator(basis, 1, 5), sigma_z_operator(basis, 1, 1)
    values, _ = multi_distance_otoc_values(eig, probe[None], op_1, times)
    fits = []
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            fits.append(fit_mbl_form((times, values[0])))
    assert fits[0].params == fits[1].params
    assert np.array_equal(fits[0].residuals, fits[1].residuals)


def test_mbl_fit_raises_when_every_start_fails(monkeypatch):
    import scipy.optimize

    def fail(fun, x0, **kwargs):
        x0 = np.asarray(x0, dtype=float)
        return SimpleNamespace(x=x0, status=0, cost=0.0, fun=fun(x0))

    monkeypatch.setattr(scipy.optimize, "least_squares", fail)
    t = np.geomspace(0.1, 1000.0, 60)
    with pytest.raises(FitConvergenceError, match="failed from all 8 start points"):
        fit_mbl_form((t, mbl_curve(t, 0.7, 5.0, -0.8)))


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
    sig1 = error_signal(ex, sam, "eps1")
    assert np.max(sig1.eps) <= 1e-9
    assert sig1.M == basis.dim
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

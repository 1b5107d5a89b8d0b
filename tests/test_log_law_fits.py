"""The log-space law fits against their earlier per-function formulas, bit for bit.

Each reference below is one front-end as it was written before the fits
shared one routine: its own checks, transform and least squares. The
front-ends must reproduce a, the slope, R^2, the residuals and the window
exactly, whatever the order of the input points.
"""

import numpy as np
import pytest

from ladderxx.fits import fit_error_scaling
from ladderxx.wavefront import Contour, fit_dynamical_exponent


def reference_least_squares(x, y):
    order = np.argsort(x, kind="stable")
    x, y = x[order], y[order]
    A = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    residuals = y - (slope * x + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res < 1e-28 else 1.0 - ss_res / max(ss_tot, 1e-300)
    return slope, intercept, r2, residuals


def reference_scaling(x, y, form):
    X = np.log(x) if form == "scaling_power" else x
    slope, intercept, r2, res = reference_least_squares(X, np.log(y))
    return float(np.exp(intercept)), float(slope), r2, res, (float(x.min()), float(x.max()))


def reference_dynamical_exponent(distances, t_cross, min_dx):
    keep = distances >= min_dx
    dx = distances[keep].astype(float)
    t = t_cross[keep]
    gamma, log_a, r2, res = reference_least_squares(np.log(t), np.log(dx))
    return float(np.exp(log_a)), float(gamma), r2, res, (float(t.min()), float(t.max()))


def assert_bitwise(fit, slope_name, reference):
    a, slope, r2, residuals, window = reference
    assert fit.params["a"] == a
    assert fit.params[slope_name] == slope
    assert fit.r_squared == r2
    assert np.array_equal(fit.residuals, residuals)
    assert fit.window == window


def shuffled_draws(n_draws=20):
    rng = np.random.default_rng(20)
    for _ in range(n_draws):
        n = int(rng.integers(5, 40))
        yield rng, n, rng.permutation(n)


@pytest.mark.parametrize("form", ["scaling_exp", "scaling_power"])
def test_error_scaling_matches_its_reference(form):
    for rng, n, perm in shuffled_draws():
        x = rng.uniform(0.5, 64.0, n)
        y = rng.uniform(0.01, 1.0) * x ** rng.uniform(-1.0, 0.2) * np.exp(rng.normal(0, 0.1, n))
        for order in (np.arange(n), perm):
            fit = fit_error_scaling((x[order], y[order]), form)
            assert_bitwise(fit, "b", reference_scaling(x, y, form))


def test_dynamical_exponent_matches_its_reference():
    for rng, n, perm in shuffled_draws():
        distances = np.arange(1, n + 1)
        t_cross = distances ** rng.uniform(0.5, 2.0) * np.exp(rng.normal(0, 0.1, n))
        min_dx = int(rng.integers(1, 3))
        for order in (np.arange(n), perm):
            contour = Contour(eta=0.5, distances=distances[order], t_cross=t_cross[order])
            fit = fit_dynamical_exponent(contour, min_dx=min_dx)
            assert_bitwise(fit, "gamma", reference_dynamical_exponent(distances, t_cross, min_dx))
            stderr = fit.meta["stderr"]
            assert fit.meta == {"coordinates": "loglog", "stderr": stderr, "eta": 0.5, "min_dx": min_dx}
            assert set(stderr) == {"gamma", "ln_a"}


def test_bad_input_is_named_in_the_error():
    contour = Contour(eta=0.25, distances=np.array([3, 4]), t_cross=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="3 contour points with dx >= 3, have 2"):
        fit_dynamical_exponent(contour)
    contour = Contour(eta=0.9, distances=np.arange(1, 5), t_cross=np.array([0.0, 1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="positive x on its contour points with dx >= 1"):
        fit_dynamical_exponent(contour)
    t = np.linspace(0.0, 1.0, 6)
    with pytest.raises(ValueError, match="positive y on its points"):
        fit_error_scaling((t, 1.0 - t), "scaling_exp")
    with pytest.raises(ValueError, match="abscissae of the points are degenerate"):
        fit_error_scaling((np.ones(5), np.arange(1.0, 6.0)), "scaling_power")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("column", ["x", "y"])
def test_non_finite_input_is_named_in_the_error(column, bad):
    x = np.arange(1.0, 7.0)
    y = np.exp(-x)
    (x if column == "x" else y)[2] = bad
    front_ends = [
        (lambda: fit_error_scaling((x, y), "scaling_exp"), "scaling_exp", "points"),
        (lambda: fit_error_scaling((x, y), "scaling_power"), "scaling_power", "points"),
    ]
    if column == "x":
        contour = Contour(eta=0.9, distances=np.arange(1, 7), t_cross=x)
        front_ends.append(
            (lambda: fit_dynamical_exponent(contour), "power", "contour points with dx >= 1")
        )
    for fit, form, points in front_ends:
        with pytest.raises(ValueError, match=f"{form} fit needs finite x and y on its {points}$"):
            fit()

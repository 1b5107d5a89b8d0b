"""Decay-law and scaling-law fits, and sampling-error signals.

Two families of fits cover everything measured here:

* log-space laws y = a exp(b x) and y = a x^b, by linear least squares of
  ln y against x or ln x, with R^2 quoted in those coordinates:
  `fit_error_scaling` (the sampling-error collapses, b kept signed) and
  `wavefront.fit_dynamical_exponent` (the front dx = a t^gamma);
* the stretched form Re F = 1 - a exp(-b t^c) of the localized regime
  (`fit_mbl_form`), a damped nonlinear least-squares fit with c < 0
  enforced through c = -exp(u).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .otoc import OtocSeries

__all__ = [
    "FitResult",
    "ErrorSignal",
    "FitConvergenceError",
    "fit_mbl_form",
    "error_signal",
    "fit_error_scaling",
]

SATURATION_FRACTION = 0.25  # trailing fraction of the grid used for "saturated" means


@dataclass
class FitResult:
    """One fitted law: functional form tag, named parameters, fit quality, window."""

    form: str
    params: dict
    r_squared: float
    window: tuple
    residuals: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.residuals = np.asarray(self.residuals, dtype=float)
        if not all(np.isfinite(v) for v in self.params.values()):
            raise ValueError(f"non-finite fit parameters: {self.params}")
        if not self.r_squared <= 1.0 + 1e-12:
            raise ValueError(f"r_squared cannot exceed 1, got {self.r_squared}")


class FitConvergenceError(RuntimeError):
    """No start point converged; the message says how many were tried."""


@dataclass
class ErrorSignal:
    """Pointwise deviation of a sampled OTOC from the exact curve."""

    times: np.ndarray
    eps: np.ndarray
    kind: str
    M: int

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.eps = np.asarray(self.eps, dtype=float)
        if self.kind not in ("eps1", "eps2"):
            raise ValueError(f"kind must be eps1 or eps2, got {self.kind!r}")
        if not np.all(self.eps >= 0):
            raise ValueError("error signal must be nonnegative")

    def saturation_mean(self) -> float:
        """Mean over the trailing `SATURATION_FRACTION` of the grid, where the
        signal has flattened; at least the last point, however short the grid."""
        start = min(int(round((1.0 - SATURATION_FRACTION) * self.times.size)), self.times.size - 1)
        return float(self.eps[start:].mean())


def _extract_txy(series):
    """Pull (t, Re y) from an OtocSeries or an (x, y) pair, without the points
    at t <= 0. Only finite times are dropped: a NaN or infinite one reaches
    the fit's finiteness check."""
    if isinstance(series, OtocSeries):
        t = series.times
        y = series.values.real
    else:
        t, y = series
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float).real
    keep = (t > 0) | ~np.isfinite(t)
    return t[keep], y[keep]


def _r_squared(y: np.ndarray, residuals: np.ndarray) -> float:
    """Coefficient of determination; 1 for an exact fit of constant data."""
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0 and ss_res < 1e-28:
        return 1.0
    return 1.0 - ss_res / max(ss_tot, 1e-300)


def _fit_log_law(x, y, form: str, slope: tuple, min_points: int, points="points"):
    """Least squares of ln y against x (the exp forms) or ln x (the power forms).

    Returns a = exp(intercept) and, under the name slope[0], the fitted slope
    times slope[1]. meta["stderr"] holds the standard errors of that slope
    (under the same name) and of ln a (under "ln_a"), from the residual
    variance s^2 = sum r^2 / (n - 2): se_b = sqrt(s^2 / Sxx) and se_ln_a =
    sqrt(s^2 (1/n + mean(X)^2 / Sxx)), Sxx = sum (X - mean(X))^2. Points are
    sorted by abscissa first, so the result does not depend on their order.
    `points` names the input in error messages; the window is the range of x.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    log_x = form.endswith("power")
    if x.size < min_points:
        raise ValueError(f"need at least {min_points} {points}, have {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError(f"{form} fit needs finite x and y on its {points}")
    if np.any(y <= 0):
        raise ValueError(f"{form} fit needs positive y on its {points}")
    if log_x and np.any(x <= 0):
        raise ValueError(f"{form} fit needs positive x on its {points}")
    X = np.log(x) if log_x else x
    if np.ptp(X) == 0.0:
        raise ValueError(f"the abscissae of the {points} are degenerate")
    order = np.argsort(X, kind="stable")
    X, Y = X[order], np.log(y)[order]
    A = np.stack([X, np.ones_like(X)], axis=1)
    (b, intercept), *_ = np.linalg.lstsq(A, Y, rcond=None)
    residuals = Y - (b * X + intercept)
    s2 = float(np.sum(residuals**2)) / (X.size - 2)
    sxx = float(np.sum((X - X.mean()) ** 2))
    name, sign = slope
    stderr = {
        name: float(np.sqrt(s2 / sxx)),
        "ln_a": float(np.sqrt(s2 * (1.0 / X.size + X.mean() ** 2 / sxx))),
    }
    return FitResult(
        form=form,
        params={"a": float(np.exp(intercept)), name: float(sign * b)},
        r_squared=_r_squared(Y, residuals),
        window=(float(x.min()), float(x.max())),
        residuals=residuals,
        meta={"coordinates": "loglog" if log_x else "semilog", "stderr": stderr},
    )


def mbl_curve(t: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    """The stretched localized form 1 - a exp(-b t^c); c < 0 so F -> 1 as t -> 0."""
    return 1.0 - a * np.exp(-b * np.asarray(t, dtype=float) ** c)


def fit_mbl_form(series) -> FitResult:
    """Fit Re F = 1 - a exp(-b t^c) with c < 0 enforced via c = -exp(u).

    Damped nonlinear least squares from a grid of start points (several
    stretch exponents crossed with data-driven amplitude guesses); the best
    converged start wins. Raises FitConvergenceError when every start fails.
    Points at t <= 0 are dropped; the window is the range of the rest.
    Raises ValueError for a non-finite t or y. The starts run with numpy's
    overflow and invalid-value warnings off: a trial c = -exp(u) can send
    t^c to inf, and a warnings filter that raises on RuntimeWarning would
    otherwise drop that start and change the result.
    """
    import scipy.optimize  # here, its only use, so that importing fits stays cheap

    t, y = _extract_txy(series)
    if t.size < 5:
        raise ValueError("need at least 5 positive-t points")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
        raise ValueError("mbl fit needs finite t and y on its positive-t points")
    if t.max() / t.min() < 100.0:
        raise ValueError("stretched-form fit needs data spanning >= 2 decades in t")

    def residual(p):
        a, log_b, u = p
        return mbl_curve(t, a, np.exp(log_b), -np.exp(u)) - y

    a_data = float(np.clip(1.0 - y.min(), 0.05, 2.0))
    starts = []
    for c0 in (-0.2, -0.5, -0.9, -1.5):
        # match b t^c = ln 2 at the midpoint of the decay for the b guess
        depth = 1.0 - (y.min() + y.max()) / 2.0
        t_half = t[np.argmin(np.abs((1.0 - y) - depth))] if depth > 0 else t[t.size // 2]
        log_b0 = np.log(np.log(2.0)) - c0 * np.log(max(t_half, 1e-6))
        for a0 in (a_data, 0.5):
            starts.append((a0, log_b0, np.log(-c0)))

    best = None
    for x0 in starts:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                res = scipy.optimize.least_squares(residual, x0, method="lm", max_nfev=2000)
        except Exception:
            continue
        if not np.all(np.isfinite(res.x)):
            continue
        if res.status > 0 and (best is None or res.cost < best.cost):
            best = res
    if best is None:
        raise FitConvergenceError(f"stretched-form fit failed from all {len(starts)} start points")

    a, log_b, u = best.x
    return FitResult(
        form="mbl",
        params={"a": float(a), "b": float(np.exp(log_b)), "c": float(-np.exp(u))},
        r_squared=_r_squared(y, best.fun),
        window=(float(t.min()), float(t.max())),
        residuals=best.fun,
        meta={"coordinates": "linear", "n_starts": len(starts)},
    )


def error_signal(exact: OtocSeries, sampled: OtocSeries, kind: str) -> ErrorSignal:
    """Deviation of the M-state estimate from the exact OTOC on a shared grid.

    eps1 is |F_exact - mean_j F_j|; eps2 is ||F_exact|^2 - mean_j |F_j|^2|,
    the forms matched to overlap- and interference-style measurements. The
    signal's M is the sampled series' meta["M"], else its number of states.
    """
    if exact.times.shape != sampled.times.shape or np.any(exact.times != sampled.times):
        raise ValueError("exact and sampled series must share one time grid")
    if kind == "eps1":
        eps = np.abs(exact.values - sampled.values)
    elif kind == "eps2":
        if sampled.per_sample is None:
            raise ValueError("eps2 needs per-state values on the sampled series")
        mean_sq = np.mean(np.abs(sampled.per_sample) ** 2, axis=0)
        eps = np.abs(np.abs(exact.values) ** 2 - mean_sq)
    else:
        raise ValueError(f"kind must be eps1 or eps2, got {kind!r}")
    M = sampled.meta.get("M") or (
        sampled.per_sample.shape[0] if sampled.per_sample is not None else 1
    )
    return ErrorSignal(times=exact.times, eps=eps, kind=kind, M=int(M))


def fit_error_scaling(points, form: str) -> FitResult:
    """Scaling-law fit of error magnitudes: y = a exp(b x) or y = a x^b.

    `points` is an (x, y) pair of sequences. The slope b keeps its sign, so
    decaying errors give negative b in both forms.
    """
    if form not in ("scaling_exp", "scaling_power"):
        raise ValueError(f"form must be scaling_exp or scaling_power, got {form!r}")
    x, y = points
    return _fit_log_law(x, y, form, ("b", 1), 3)

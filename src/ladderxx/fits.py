"""Decay-law and scaling-law fits, and sampling-error signals.

Four decay/scaling families cover everything measured here:

* exponential   Re F = a exp(-lambda t)       (early-time chaotic decay)
* power law     Re F = a t^(-b)               (wavefront tail, b > 0 decaying)
* stretched     Re F = 1 - a exp(-b t^c)      (localized regime, c < 0)
* scaling laws  y = a exp(b x), y = a x^b     (sampling-error collapses,
                                               b kept signed)

Log-space fits are plain linear least squares in the transformed
coordinates and quote R^2 there; the stretched form is a damped nonlinear
least-squares fit with c < 0 enforced through c = -exp(u).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .otoc import OtocSeries

__all__ = [
    "FitResult",
    "ErrorSignal",
    "FitConvergenceError",
    "fit_exponential",
    "fit_power_law",
    "fit_mbl_form",
    "logarithmic_window",
    "error_signal",
    "fit_error_scaling",
    "decay_onset",
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
        if self.r_squared > 1.0 + 1e-12:
            raise ValueError("r_squared cannot exceed 1")

    def to_json(self) -> str:
        return json.dumps(
            {
                "form": self.form,
                "params": self.params,
                "r_squared": self.r_squared,
                "window": list(self.window),
                "n_points": int(self.residuals.size),
                "coordinates": self.meta.get("coordinates", "linear"),
            }
        )


class FitConvergenceError(RuntimeError):
    """No start point converged; carries the best residual seen."""


@dataclass
class ErrorSignal:
    """Pointwise deviation of a sampled OTOC from the exact curve."""

    times: np.ndarray
    eps: np.ndarray
    kind: str
    M: int
    N: int | None = None

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.eps = np.asarray(self.eps, dtype=float)
        if self.kind not in ("eps1", "eps2"):
            raise ValueError(f"kind must be eps1 or eps2, got {self.kind!r}")
        if np.any(self.eps < 0):
            raise ValueError("error signal must be nonnegative")

    def saturation_mean(self, fraction: float = SATURATION_FRACTION) -> float:
        """Mean over the trailing `fraction` of the grid, where the signal has
        flattened; at least the last point, however short the grid."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        start = min(int(round((1.0 - fraction) * self.times.size)), self.times.size - 1)
        return float(self.eps[start:].mean())


def _extract_txy(series, window):
    """Pull (t, Re y) from an OtocSeries or an (x, y) pair, window-restricted."""
    if isinstance(series, OtocSeries):
        t = series.times
        y = series.values.real
    else:
        t, y = series
        t = np.asarray(t, dtype=float)
        y = np.asarray(y, dtype=float).real
    if window is not None:
        lo, hi = window
        keep = (t >= lo) & (t <= hi)
        t, y = t[keep], y[keep]
    else:
        window = (float(t.min()), float(t.max())) if t.size else (0.0, 0.0)
    return t, y, (float(window[0]), float(window[1]))


def _r_squared(y: np.ndarray, residuals: np.ndarray) -> float:
    """Coefficient of determination; 1 for an exact fit of constant data."""
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0 and ss_res < 1e-28:
        return 1.0
    return 1.0 - ss_res / max(ss_tot, 1e-300)


def _linear_least_squares(x: np.ndarray, y: np.ndarray):
    """Plain 1D least squares, input sorted by x so results are order-independent."""
    order = np.argsort(x, kind="stable")
    x, y = x[order], y[order]
    A = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    residuals = y - (slope * x + intercept)
    return slope, intercept, _r_squared(y, residuals), residuals


def fit_exponential(series, window=None) -> FitResult:
    """Fit Re F = a exp(-lambda t) by linear least squares on (t, ln Re F)."""
    t, y, window = _extract_txy(series, window)
    if t.size < 4:
        raise ValueError(f"need at least 4 points in the window, have {t.size}")
    if np.any(y <= 0):
        raise ValueError("exponential fit needs positive values on the window")
    slope, intercept, r2, residuals = _linear_least_squares(t, np.log(y))
    return FitResult(
        form="exp",
        params={"a": float(np.exp(intercept)), "lam": float(-slope)},
        r_squared=r2,
        window=window,
        residuals=residuals,
        meta={"coordinates": "semilog"},
    )


def fit_power_law(series_or_xy, window=None) -> FitResult:
    """Fit Re F = a t^(-b) on (ln t, ln Re F); b is positive for decaying data."""
    t, y, window = _extract_txy(series_or_xy, window)
    keep = t > 0
    t, y = t[keep], y[keep]
    if t.size < 4:
        raise ValueError(f"need at least 4 positive-t points in the window, have {t.size}")
    if np.any(y <= 0):
        raise ValueError("power-law fit needs positive values on the window")
    slope, intercept, r2, residuals = _linear_least_squares(np.log(t), np.log(y))
    return FitResult(
        form="power",
        params={"a": float(np.exp(intercept)), "b": float(-slope)},
        r_squared=r2,
        window=window,
        residuals=residuals,
        meta={"coordinates": "loglog"},
    )


def mbl_curve(t: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    """The stretched localized form 1 - a exp(-b t^c); c < 0 so F -> 1 as t -> 0."""
    return 1.0 - a * np.exp(-b * np.asarray(t, dtype=float) ** c)


def fit_mbl_form(series, window=None, max_starts: int | None = None) -> FitResult:
    """Fit Re F = 1 - a exp(-b t^c) with c < 0 enforced via c = -exp(u).

    Damped nonlinear least squares from a grid of start points (several
    stretch exponents crossed with data-driven amplitude guesses); the best
    converged start wins. Raises FitConvergenceError when every start fails.
    """
    t, y, window = _extract_txy(series, window)
    keep = t > 0
    t, y = t[keep], y[keep]
    if t.size < 5:
        raise ValueError("need at least 5 positive-t points")
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
    if max_starts is not None:
        starts = starts[:max_starts]

    best = None
    for x0 in starts:
        try:
            res = scipy.optimize.least_squares(residual, x0, method="lm", max_nfev=2000)
        except Exception:
            continue
        if not np.all(np.isfinite(res.x)):
            continue
        if res.status > 0 and (best is None or res.cost < best.cost):
            best = res
    if best is None:
        raise FitConvergenceError("stretched-form fit failed from every start point")

    a, log_b, u = best.x
    return FitResult(
        form="mbl",
        params={"a": float(a), "b": float(np.exp(log_b)), "c": float(-np.exp(u))},
        r_squared=_r_squared(y, best.fun),
        window=window,
        residuals=best.fun,
        meta={"coordinates": "linear", "n_starts": len(starts)},
    )


def logarithmic_window(fit: FitResult) -> tuple[float, float]:
    """Center and slope of the logarithmic-decay regime of a stretched fit.

    Around b t^c = 1 the fitted curve is locally 1 - a/e + (a c / e) ln(...),
    so the window center is t = b^(-1/c) and the local slope against ln t is
    a c / e (negative for decaying fits).
    """
    if fit.form != "mbl":
        raise ValueError(f"needs an mbl fit, got form {fit.form!r}")
    a, b, c = fit.params["a"], fit.params["b"], fit.params["c"]
    t_center = b ** (-1.0 / c)
    slope = a * c / np.e
    return float(t_center), float(slope)


def error_signal(
    exact: OtocSeries, sampled: OtocSeries, kind: str, n_dim: int | None = None
) -> ErrorSignal:
    """Deviation of the M-state estimate from the exact OTOC on a shared grid.

    eps1 is |F_exact - mean_j F_j|; eps2 is ||F_exact|^2 - mean_j |F_j|^2|,
    the forms matched to overlap- and interference-style measurements.
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
    if n_dim is None:
        n_dim = sampled.meta.get("N") or exact.meta.get("N")
    return ErrorSignal(times=exact.times, eps=eps, kind=kind, M=int(M), N=n_dim)


def fit_error_scaling(points, form: str) -> FitResult:
    """Scaling-law fit of error magnitudes: y = a exp(b x) or y = a x^b.

    `points` is an (x, y) pair of sequences. The slope b keeps its sign, so
    decaying errors give negative b in both forms.
    """
    x, y = points
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 3:
        raise ValueError("need at least 3 points")
    if np.ptp(x) == 0.0:
        raise ValueError("abscissae are degenerate")
    if np.any(y <= 0):
        raise ValueError("scaling fits need positive error values")
    if form == "scaling_exp":
        slope, intercept, r2, residuals = _linear_least_squares(x, np.log(y))
        coords = "semilog"
    elif form == "scaling_power":
        if np.any(x <= 0):
            raise ValueError("scaling_power needs positive abscissae")
        slope, intercept, r2, residuals = _linear_least_squares(np.log(x), np.log(y))
        coords = "loglog"
    else:
        raise ValueError(f"form must be scaling_exp or scaling_power, got {form!r}")
    return FitResult(
        form=form,
        params={"a": float(np.exp(intercept)), "b": float(slope)},
        r_squared=r2,
        window=(float(x.min()), float(x.max())),
        residuals=residuals,
        meta={"coordinates": coords},
    )


def decay_onset(series: OtocSeries, threshold: float = 0.999) -> float:
    """First grid time where Re F drops below the threshold (default 0.999)."""
    below = np.flatnonzero(series.values.real < threshold)
    if below.size == 0:
        raise ValueError(f"series never drops below {threshold}")
    return float(series.times[below[0]])

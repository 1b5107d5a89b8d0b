"""Space-time OTOC grids along the lower leg, contours, and dynamical exponents.

The probe operator walks down leg 1: row dx of a grid holds the ensemble-mean
exact OTOC of sz_{1,1} against sz_{1,1+dx}. A contour at level eta collects,
per distance, the first time Re F drops below eta (linear interpolation
between bracketing grid points; later re-crossings are ignored, fronts are
leading edges). Fitting ln dx against ln t_cross gives the dynamical exponent
gamma of the front x ~ t^gamma: sublinear gamma < 1 for levels near 1, growing
past 1 toward the low-eta butterfly cone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DisorderRealization,
    LadderParams,
    SectorBasis,
    build_hamiltonian,
    diagonalize,
    sigma_z_operator,
)
from .fits import FitResult, _linear_least_squares
from .otoc import multi_distance_otoc_values

__all__ = [
    "WavefrontGrid",
    "Contour",
    "WavefrontRates",
    "DEFAULT_ETA_GRID",
    "build_spacetime_grid",
    "extract_contour",
    "fit_dynamical_exponent",
    "wavefront_rates",
]

DEFAULT_ETA_GRID = (0.99, 0.9, 0.75, 0.5, 0.25, 0.1, 0.05, 0.01)


@dataclass
class WavefrontGrid:
    """Ensemble-mean Re F on a (distance x time) grid, distances along leg 1."""

    distances: np.ndarray
    times: np.ndarray
    values: np.ndarray
    per_realization: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.distances = np.asarray(self.distances, dtype=int)
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.distances.size, self.times.size):
            raise ValueError("values must be (n_distances, n_times)")
        at_zero = self.values[:, self.times == 0.0]
        if at_zero.size and np.max(np.abs(at_zero - 1.0)) > 1e-9:
            raise ValueError("grid must equal 1 at t = 0")


@dataclass
class Contour:
    """First-crossing times of one OTOC level eta, per distance."""

    eta: float
    distances: np.ndarray
    t_cross: np.ndarray
    fit: FitResult | None = None
    meta: dict = field(default_factory=dict)

    @property
    def points(self) -> list[tuple[int, float]]:
        return list(zip(self.distances.tolist(), self.t_cross.tolist()))


@dataclass
class WavefrontRates:
    """Front velocities: the fitted power law's derivative, and raw finite differences."""

    fitted: list[tuple[float, float]]
    raw: list[tuple[float, float]]


def build_spacetime_grid(
    params: LadderParams,
    disorder_ensemble: list[DisorderRealization],
    times: np.ndarray,
    keep_per_realization: bool = False,
) -> WavefrontGrid:
    """Ensemble-mean exact OTOC for every distance 1..L-1 on a shared grid.

    One diagonalization per realization serves all distances at once (the
    probe-independent part of the trace is computed once per time).
    """
    if len(disorder_ensemble) == 0:
        raise ValueError("need at least one disorder realization")
    times = np.asarray(times, dtype=float)
    basis = SectorBasis(params.L)
    distances = np.arange(1, params.L)
    probes = np.stack(
        [sigma_z_operator(basis, 1, 1 + dx) for dx in distances]
    )
    d_1 = sigma_z_operator(basis, 1, 1)

    total = np.zeros((distances.size, times.size))
    per_real = [] if keep_per_realization else None
    worst_defect = 0.0
    for dis in disorder_ensemble:
        eig = diagonalize(build_hamiltonian(params, dis, basis))
        vals, defect = multi_distance_otoc_values(eig, probes, d_1, times)
        worst_defect = max(worst_defect, defect)
        total += vals
        if per_real is not None:
            per_real.append(vals)
    mean = total / len(disorder_ensemble)

    return WavefrontGrid(
        distances=distances,
        times=times,
        values=mean,
        per_realization=np.stack(per_real) if per_real else None,
        meta={
            "L": params.L,
            "alpha": params.alpha,
            "h": params.h,
            "realizations": len(disorder_ensemble),
            "seeds": [d.seed for d in disorder_ensemble],
            "health_defect": worst_defect,
        },
    )


def _first_crossing(times: np.ndarray, values: np.ndarray, eta: float) -> float | None:
    """First time the series drops below eta, linearly interpolated; None if never."""
    below = values < eta
    if not below.any():
        return None
    k = int(np.argmax(below))
    if k == 0:
        # already below at the first grid point; clip to the grid start
        return float(times[0])
    t0, t1 = times[k - 1], times[k]
    v0, v1 = values[k - 1], values[k]
    return float(t0 + (t1 - t0) * (v0 - eta) / (v0 - v1))


def extract_contour(grid: WavefrontGrid, eta: float, per_realization: bool = False) -> Contour:
    """First-crossing contour of one level.

    Distances that never cross are omitted from the contour and listed in
    meta["missing"]. With ``per_realization=True`` (needs a grid built with
    ``keep_per_realization``) the crossing time is the mean of the
    per-realization crossings instead of the crossing of the mean grid.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie strictly inside (0, 1), got {eta}")
    dists, crossings, missing = [], [], []
    if per_realization:
        if grid.per_realization is None:
            raise ValueError("grid was built without per-realization values")
        for i, dx in enumerate(grid.distances):
            per = [
                _first_crossing(grid.times, row[i], eta)
                for row in grid.per_realization
            ]
            found = [t for t in per if t is not None]
            if found:
                dists.append(int(dx))
                crossings.append(float(np.mean(found)))
            else:
                missing.append(int(dx))
    else:
        for i, dx in enumerate(grid.distances):
            t = _first_crossing(grid.times, grid.values[i], eta)
            if t is None:
                missing.append(int(dx))
            else:
                dists.append(int(dx))
                crossings.append(t)
    return Contour(
        eta=eta,
        distances=np.array(dists, dtype=int),
        t_cross=np.array(crossings, dtype=float),
        meta={"missing": missing, "per_realization": per_realization},
    )


def fit_dynamical_exponent(contour: Contour, min_dx: int | None = None) -> FitResult:
    """Power-law front fit dx = a t^gamma from the contour's log-log slope.

    For levels deep in the scrambled region (eta < 0.5) distances dx <= 2 are
    excluded by default; near-unity levels keep every point. Override with
    ``min_dx``. The fitted contour is also stored on the input contour.
    """
    if min_dx is None:
        min_dx = 3 if contour.eta < 0.5 else 1
    keep = contour.distances >= min_dx
    dx = contour.distances[keep].astype(float)
    t = contour.t_cross[keep]
    if dx.size < 3:
        raise ValueError(
            f"need at least 3 contour points with dx >= {min_dx}, have {dx.size}"
        )
    if np.any(t <= 0):
        raise ValueError("crossing times must be positive for a log-log fit")
    gamma, log_a, r2, residuals = _linear_least_squares(np.log(t), np.log(dx))
    fit = FitResult(
        form="power",
        params={"a": float(np.exp(log_a)), "gamma": float(gamma)},
        r_squared=r2,
        window=(float(t.min()), float(t.max())),
        residuals=residuals,
        meta={"coordinates": "loglog", "eta": contour.eta, "min_dx": min_dx},
    )
    contour.fit = fit
    return fit


def wavefront_rates(contour: Contour) -> WavefrontRates:
    """Front speed dx/dt: the fitted law's derivative a gamma t^(gamma-1) on the
    contour's times, plus finite-difference rates of the raw points (at midpoints)."""
    if contour.fit is None:
        raise ValueError("contour has no fitted exponent; run fit_dynamical_exponent")
    a = contour.fit.params["a"]
    gamma = contour.fit.params["gamma"]
    fitted = [
        (float(t), float(a * gamma * t ** (gamma - 1.0))) for t in contour.t_cross
    ]
    raw = []
    for k in range(contour.distances.size - 1):
        dt = contour.t_cross[k + 1] - contour.t_cross[k]
        if dt != 0:
            mid = 0.5 * (contour.t_cross[k + 1] + contour.t_cross[k])
            raw.append(
                (float(mid), float((contour.distances[k + 1] - contour.distances[k]) / dt))
            )
    return WavefrontRates(fitted=fitted, raw=raw)

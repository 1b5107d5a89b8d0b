"""Space-time OTOC grids along the lower leg, contours, and dynamical exponents.

The probe operator walks down leg 1: row dx of a grid holds the ensemble-mean
exact OTOC of sz_{1,1} against sz_{1,1+dx}, all rows from one W-route call
per realization on its charge-sector eigensystems, so every realization
must have shared fields. A contour at level eta collects, per distance, the
first time Re F drops below eta (linear interpolation between bracketing
grid points; later re-crossings are ignored, fronts are leading edges).
Fitting ln dx against ln t_cross gives the dynamical exponent gamma of the
front x ~ t^gamma: sublinear gamma < 1 for levels near 1, growing past 1
toward the low-eta butterfly cone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    DisorderRealization,
    LadderParams,
    SectorBasis,
    build_hamiltonian,
    diagonalize_sectors,
    sigma_z_operator,
)
from .fits import FitResult, _fit_log_law
from .otoc import _checked_times, multi_distance_otoc_values

__all__ = [
    "WavefrontGrid",
    "Contour",
    "DEFAULT_ETA_GRID",
    "build_spacetime_grid",
    "extract_contour",
    "fit_dynamical_exponent",
]

DEFAULT_ETA_GRID = (0.99, 0.9, 0.75, 0.5, 0.25, 0.1, 0.05, 0.01)


@dataclass
class WavefrontGrid:
    """Ensemble-mean Re F on a (distance x time) grid, distances along leg 1.

    ``per_realization``, if given, is realizations x distances x times.
    """

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
        if self.per_realization is not None:
            self.per_realization = np.asarray(self.per_realization, dtype=float)
            shape = self.per_realization.shape
            if len(shape) != 3 or shape[0] < 1 or shape[1:] != self.values.shape:
                raise ValueError(
                    f"per_realization has shape {shape}, expected (R >= 1, n_distances, n_times)"
                )
        at_zero = self.values[:, self.times == 0.0]
        if at_zero.size and not np.max(np.abs(at_zero - 1.0)) <= 1e-9:
            raise ValueError("grid must equal 1 at t = 0")


@dataclass
class Contour:
    """First-crossing times of one OTOC level eta, per distance."""

    eta: float
    distances: np.ndarray
    t_cross: np.ndarray
    meta: dict = field(default_factory=dict)

    @property
    def points(self) -> list[tuple[int, float]]:
        return list(zip(self.distances.tolist(), self.t_cross.tolist()))


def build_spacetime_grid(
    params: LadderParams,
    disorder_ensemble: list[DisorderRealization],
    times: np.ndarray,
) -> WavefrontGrid:
    """Ensemble-mean exact OTOC for every distance 1..L-1 on a shared grid.

    One eigensolve per realization, `diagonalize_sectors`, serves all
    distances at once (W(t), which does not depend on the probe, is formed
    once per time). The time grid is checked, and an ensemble that holds a
    realization with independent legs refused with ValueError, before any
    eigensolve. Each realization's own grid is kept in ``per_realization``,
    realizations x distances x times, for
    `extract_contour(per_realization=True)`.
    """
    if len(disorder_ensemble) == 0:
        raise ValueError("need at least one disorder realization")
    times = _checked_times(times)
    for dis in disorder_ensemble:
        if dis.fields_for_leg(1) != dis.fields_for_leg(2):
            raise ValueError(f"realization seed={dis.seed} has independent legs, not shared fields")
    basis = SectorBasis(params.L)
    distances = np.arange(1, params.L)
    probes = np.stack(
        [sigma_z_operator(basis, 1, 1 + dx) for dx in distances]
    )
    d_1 = sigma_z_operator(basis, 1, 1)

    per_real = []
    worst_defect = 0.0
    for dis in disorder_ensemble:
        eig = diagonalize_sectors(build_hamiltonian(params, dis, basis))
        vals, defect = multi_distance_otoc_values(eig, probes, d_1, times)
        worst_defect = max(worst_defect, defect)
        per_real.append(vals)
    per_real = np.stack(per_real)

    return WavefrontGrid(
        distances=distances,
        times=times,
        values=per_real.mean(axis=0),
        per_realization=per_real,
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
    meta["missing"]. With ``per_realization=True`` (needs the grid's
    ``per_realization`` values, which every `build_spacetime_grid` grid has)
    the crossing time is the mean of the per-realization crossings instead of
    the crossing of the mean grid, and a distance that some realization never
    crosses is missing too: the mean of the others' crossings would date the
    front too early. meta["crossings"] counts, per grid distance, the rows
    that cross.
    """
    if not (0.0 < eta < 1.0):
        raise ValueError(f"eta must lie strictly inside (0, 1), got {eta}")
    if not per_realization:
        rows = grid.values[None]
    elif grid.per_realization is None:
        raise ValueError("grid was built without per-realization values")
    else:
        rows = grid.per_realization
    dists, t_cross, missing, crossings = [], [], [], []
    for i, dx in enumerate(grid.distances):
        # The mean of a single crossing time is that time exactly.
        per = [_first_crossing(grid.times, row[i], eta) for row in rows]
        found = [t for t in per if t is not None]
        crossings.append(len(found))
        if len(found) == len(rows):
            dists.append(int(dx))
            t_cross.append(float(np.mean(found)))
        else:
            missing.append(int(dx))
    return Contour(
        eta=eta,
        distances=np.array(dists, dtype=int),
        t_cross=np.array(t_cross, dtype=float),
        meta={"missing": missing, "crossings": crossings, "per_realization": per_realization},
    )


def fit_dynamical_exponent(contour: Contour, min_dx: int | None = None) -> FitResult:
    """Power-law front fit dx = a t^gamma from the contour's log-log slope.

    For levels deep in the scrambled region (eta < 0.5) distances dx <= 2 are
    excluded by default; near-unity levels keep every point. Override with
    ``min_dx``.
    """
    if min_dx is None:
        min_dx = 3 if contour.eta < 0.5 else 1
    keep = contour.distances >= min_dx
    fit = _fit_log_law(
        contour.t_cross[keep],
        contour.distances[keep],
        "power",
        "gamma",
        f"contour points with dx >= {min_dx}",
    )
    fit.meta.update(eta=contour.eta, min_dx=min_dx)
    return fit

"""Adjacent-gap-ratio level statistics across the ergodic to localized crossover.

The diagnostic is r_n = min(d_n, d_{n+1}) / max(d_n, d_{n+1}) with
d_n = E_n - E_{n-1} the adjacent level spacings. Its ensemble mean sits near
0.5307 for GOE (ergodic) spectra and near 2 ln 2 - 1 = 0.3863 for Poisson
(localized) spectra, so sweeping the disorder strength traces the crossover.

Note on the disorder mode: with the default column-identical fields H
conserves, whatever alpha and the fields, the dressed rung charge Q
(`core._rung_sectors`). Its sectors q = -L, -L+2, ..., L have
sizes C(L, (L+q)/2)^2, and the gap ratio is defined within one sector: the
mean ratio of the merged spectrum mixes independent sectors and never
reaches the GOE value (it lands near 0.41 at L=5, h=1). Each report
therefore carries, besides the merged mean, the mean ratio of every solved
sector in meta["sector_mean_r"], keyed by |q| (sectors q and -q have
mirrored spectra, `core._check_chiral_symmetry`, so one of them stands for
both). The q = 0 spectrum of even L is symmetric under E -> -E, so its
ratios come from its upper half. ``middle_fraction`` applies to each sector
on its own, and sectors of fewer than three levels are left out.
Independent legs (``independent_legs=True``) break Q and restore the
GOE/Poisson dichotomy of the merged spectrum; their reports hold no sectors.

The spectra come from ``diagonalize(H, vectors=False)``, eigenvalues only
and one sector block at a time, each built in the rung basis
(`core.diagonalize`); shared fields never form the N x N Hamiltonian. The
merged spectrum agrees with a full solve to rounding (below 1e-12 at L <= 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    LadderParams,
    SectorBasis,
    _checked_int,
    build_hamiltonian,
    derive_seed,
    diagonalize,
    sample_disorder,
)

__all__ = [
    "R_GOE",
    "R_POISSON",
    "GapRatioReport",
    "gap_ratios",
    "ensemble_gap_ratio",
]

R_GOE = 0.5307
R_POISSON = 2.0 * np.log(2.0) - 1.0
ZERO_GAP_TOL = 1e-12


@dataclass
class GapRatioReport:
    """Gap-ratio statistics of one disorder ensemble at fixed (L, alpha, h)."""

    per_realization_means: np.ndarray
    ensemble_mean: float
    stderr: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not (0.0 <= self.ensemble_mean <= 1.0):
            raise ValueError(f"mean ratio {self.ensemble_mean} outside [0, 1]")


def gap_ratios(eigenvalues: np.ndarray) -> np.ndarray:
    """Ratios of adjacent spacings for one ascending spectrum.

    Pairs whose two spacings are both below ``ZERO_GAP_TOL`` (exact degeneracies)
    are excluded; a single vanishing spacing gives r = 0. Returns the N - 2
    ratios minus exclusions, so N - 2 - size is the number excluded.
    Raises ValueError for a non-finite eigenvalue.
    """
    E = np.asarray(eigenvalues, dtype=float)
    if E.ndim != 1 or E.size < 3:
        raise ValueError("need at least three eigenvalues")
    if not np.all(np.isfinite(E)):
        raise ValueError("eigenvalues must be finite")
    if np.any(np.diff(E) < -ZERO_GAP_TOL):
        raise ValueError("eigenvalues must be ascending")
    gaps = np.abs(np.diff(E))
    lo = np.minimum(gaps[:-1], gaps[1:])
    hi = np.maximum(gaps[:-1], gaps[1:])
    keep = hi >= ZERO_GAP_TOL
    return lo[keep] / hi[keep]


def _middle(E: np.ndarray, fraction: float | None) -> np.ndarray:
    """The central ``fraction`` of an ascending spectrum, at least three levels."""
    if fraction is None:
        return E
    keep = max(3, int(round(fraction * E.size)))
    start = (E.size - keep) // 2
    return E[start : start + keep]


def _stderr(means) -> float:
    """Standard error of the mean of per-realization values; NaN for one value."""
    means = np.asarray(means)
    return float(means.std(ddof=1) / np.sqrt(means.size)) if means.size > 1 else float("nan")


def ensemble_gap_ratio(
    params: LadderParams,
    h_list,
    realizations: int,
    seed: int,
    independent_legs: bool = False,
    middle_fraction: float | None = None,
) -> list[GapRatioReport]:
    """Mean gap ratio per disorder strength, one report per h.

    For each h, ``realizations`` Hamiltonians are drawn (streams keyed by the
    master seed, h, and the realization index), diagonalized, and reduced to
    a per-realization mean ratio; the report carries the ensemble mean and
    the standard error of the per-realization means, meta["sector_mean_r"]
    the ensemble mean per charge sector |q| (module notes) and
    meta["sector_stderr"] its standard error, NaN with one realization as
    ``stderr`` is. ``middle_fraction``
    optionally keeps only that central fraction of each spectrum and of each
    sector, default off (the full spectrum enters the average).
    """
    realizations = _checked_int("realizations", realizations, 1)
    if middle_fraction is not None and not (0.0 < middle_fraction <= 1.0):
        raise ValueError("middle_fraction must be in (0, 1]")
    basis = SectorBasis(params.L)
    reports = []
    for h in h_list:
        p = replace(params, h=float(h))
        means = np.empty(realizations)
        sector_means: dict[int, list[float]] = {}
        dropped_total = 0
        for k in range(realizations):
            stream = derive_seed(seed, "level_stats", p.L, p.alpha, p.h, k)
            dis = sample_disorder(p, stream, independent_legs=independent_legs)
            spectra = diagonalize(build_hamiltonian(p, dis, basis), vectors=False)
            E = _middle(spectra.eigenvalues, middle_fraction)
            ratios = gap_ratios(E)
            means[k] = ratios.mean()
            dropped_total += E.size - 2 - ratios.size
            for q, E in spectra.sectors.items():
                E = E[E.size // 2 :] if q == 0 else E
                if E.size >= 3:
                    mean = gap_ratios(_middle(E, middle_fraction)).mean()
                    sector_means.setdefault(q, []).append(float(mean))
        reports.append(
            GapRatioReport(
                per_realization_means=means,
                ensemble_mean=float(means.mean()),
                stderr=_stderr(means),
                meta={
                    "L": p.L,
                    "alpha": p.alpha,
                    "h": p.h,
                    "realizations": realizations,
                    "seed": seed,
                    "independent_legs": independent_legs,
                    "middle_fraction": middle_fraction,
                    "dropped_pairs": dropped_total,
                    "sector_mean_r": {q: float(np.mean(v)) for q, v in sector_means.items()},
                    "sector_stderr": {q: _stderr(v) for q, v in sector_means.items()},
                },
            )
        )
    return reports

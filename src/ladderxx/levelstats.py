"""Adjacent-gap-ratio level statistics across the ergodic to localized crossover.

The diagnostic is r_n = min(d_n, d_{n+1}) / max(d_n, d_{n+1}) with
d_n = E_n - E_{n-1} the adjacent level spacings. Its ensemble mean sits near
0.5307 for GOE (ergodic) spectra and near 2 ln 2 - 1 = 0.3863 for Poisson
(localized) spectra, so sweeping the disorder strength traces the crossover.

Note on the disorder mode: with the default column-identical fields the
ladder keeps its exact leg-swap symmetry, so the spectrum is a superposition
of two independent blocks and the mean ratio never reaches the GOE value
(it lands near 0.41 at L=5, h=1, and shows excess near-degeneracies deep in
the localized regime). Gap-ratio ensembles therefore accept
``independent_legs=True``, which breaks the symmetry and restores the
single-block GOE/Poisson dichotomy.

The spectra come from ``diagonalize(leg_swap_blocks(...))``, eigenvalues
only, without forming the N x N Hamiltonian: each block is scattered straight
from the diagonal and the hop list of the bonds. With shared fields the
blocks are the leg-swap sectors P = -1 and P = +1, merged into the full
ascending spectrum, so the statistic is still the ratio of the merged
spectrum; it agrees with a full solve to rounding (below 5e-13 in the mean
ratio at L = 7). At odd L only the P = -1 block is solved: the product of the
sublattice sign and the global spin flip anticommutes with H and, at odd L,
with the leg swap, so the P = +1 spectrum is its mirror image E -> -E.
`leg_swap_blocks` checks what that needs of H, a diagonal odd under the
flip and bonds only between the two sublattices, and raises otherwise.
Per-block ratios are not computed; at odd L the two blocks' means would not
be independent samples anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    LadderParams,
    SectorBasis,
    derive_seed,
    diagonalize,
    leg_swap_blocks,
    sample_disorder,
)

__all__ = [
    "R_GOE",
    "R_POISSON",
    "GapRatioReport",
    "gap_ratios",
    "ensemble_gap_ratio",
    "reports_to_csv",
]

R_GOE = 0.5307
R_POISSON = 2.0 * np.log(2.0) - 1.0


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


def gap_ratios(
    eigenvalues: np.ndarray,
    zero_tol: float = 1e-12,
    return_dropped: bool = False,
):
    """Ratios of adjacent spacings for one ascending spectrum.

    Pairs whose two spacings are both below ``zero_tol`` (exact degeneracies)
    are excluded; a single vanishing spacing gives r = 0. Returns the N - 2
    ratios minus exclusions, optionally with the exclusion count.
    """
    E = np.asarray(eigenvalues, dtype=float)
    if E.ndim != 1 or E.size < 3:
        raise ValueError("need at least three eigenvalues")
    if np.any(np.diff(E) < -zero_tol):
        raise ValueError("eigenvalues must be ascending")
    gaps = np.abs(np.diff(E))
    lo = np.minimum(gaps[:-1], gaps[1:])
    hi = np.maximum(gaps[:-1], gaps[1:])
    keep = hi >= zero_tol
    ratios = lo[keep] / hi[keep]
    if return_dropped:
        return ratios, int(np.count_nonzero(~keep))
    return ratios


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
    the standard error of the per-realization means. ``middle_fraction``
    optionally keeps only that central fraction of each spectrum, default
    off (the full spectrum enters the average).
    """
    if realizations < 1:
        raise ValueError("need at least one realization")
    if middle_fraction is not None and not (0.0 < middle_fraction <= 1.0):
        raise ValueError("middle_fraction must be in (0, 1]")
    basis = SectorBasis(params.L)
    reports = []
    for h in h_list:
        p = LadderParams(L=params.L, J_par=params.J_par, alpha=params.alpha, h=float(h))
        means = np.empty(realizations)
        dropped_total = 0
        for k in range(realizations):
            stream = derive_seed(seed, "level_stats", p.L, p.alpha, p.h, k)
            dis = sample_disorder(p, stream, independent_legs=independent_legs)
            E = diagonalize(leg_swap_blocks(p, dis, basis))
            if middle_fraction is not None:
                n = E.size
                keep = max(3, int(round(middle_fraction * n)))
                start = (n - keep) // 2
                E = E[start : start + keep]
            ratios, dropped = gap_ratios(E, return_dropped=True)
            means[k] = ratios.mean()
            dropped_total += dropped
        stderr = (
            float(means.std(ddof=1) / np.sqrt(realizations))
            if realizations > 1
            else float("nan")
        )
        reports.append(
            GapRatioReport(
                per_realization_means=means,
                ensemble_mean=float(means.mean()),
                stderr=stderr,
                meta={
                    "L": p.L,
                    "alpha": p.alpha,
                    "h": p.h,
                    "realizations": realizations,
                    "seed": seed,
                    "independent_legs": independent_legs,
                    "middle_fraction": middle_fraction,
                    "dropped_pairs": dropped_total,
                },
            )
        )
    return reports


def reports_to_csv(reports: list[GapRatioReport]) -> str:
    """Serialize reports as the standard (h, L, alpha, realizations, mean_r, stderr) table."""
    lines = ["h,L,alpha,realizations,mean_r,stderr"]
    for rep in reports:
        m = rep.meta
        lines.append(
            f"{m['h']!r},{m['L']},{m['alpha']!r},{m['realizations']},"
            f"{rep.ensemble_mean!r},{rep.stderr!r}"
        )
    return "\n".join(lines) + "\n"

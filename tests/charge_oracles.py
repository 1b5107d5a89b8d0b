"""Dense references for the ladder's symmetries, built state by state."""

import numpy as np

from ladderxx.core import SectorBasis, bit_position


def dressed_rung_charge(basis: SectorBasis) -> np.ndarray:
    """Q = sum_i (-1)^(N_<i) (s+_{1,i} s-_{2,i} + h.c.) on the sector basis, where
    N_<i counts the up spins in columns 1..i-1 (a Jordan-Wigner string)."""
    L = basis.L
    Q = np.zeros((basis.dim, basis.dim))
    for k, state in enumerate(basis.states.tolist()):
        for site in range(1, L + 1):
            b1, b2 = bit_position(L, 1, site), bit_position(L, 2, site)
            if (state >> b1 & 1) == (state >> b2 & 1):
                continue
            below = (1 << (site - 1)) - 1
            n_below = bin(state & (below | below << L)).count("1")
            target = np.searchsorted(basis.states, state ^ (1 << b1 | 1 << b2))
            Q[target, k] = (-1.0) ** n_below
    return Q


def leg_swap(basis: SectorBasis) -> np.ndarray:
    """Index map of the leg exchange P: states[leg_swap(basis)[k]] is states[k]
    with the two legs' bit halves swapped."""
    low = (1 << basis.L) - 1
    swapped = ((basis.states & low) << basis.L) | (basis.states >> basis.L)
    return np.searchsorted(basis.states, swapped)

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


def charge_map(basis: SectorBasis) -> dict[int, np.ndarray]:
    """U_q per charge q, by ascending q: the N x C(L, (L + q)/2)^2 map from
    sector q's rung labels, in `ChargeLabels.order`, to the states.

    Row by row: the state whose leg-2 bits on its z singly occupied columns
    read b has entry 2^(-z/2) (-1)^popcount(b & m) on label m of its column
    pattern, the label in slot slot[k] - b + m, where slot inverts
    `ChargeLabels.state`.
    """
    L, labels = basis.L, basis.charge_labels
    order, charge = labels.order, labels.charge
    slot = np.argsort(labels.state)
    charges, counts = np.unique(charge, return_counts=True)
    U = {int(q): np.zeros((basis.dim, count)) for q, count in zip(charges, counts)}
    column = np.empty(basis.dim, dtype=np.int64)
    for q in U:
        slots = order[charge[order] == q]
        column[slots] = np.arange(slots.size)
    for k, state in enumerate(basis.states.tolist()):
        leg1, leg2 = state & ((1 << L) - 1), state >> L
        singles = [i for i in range(L) if (leg1 ^ leg2) >> i & 1]
        b = sum((leg2 >> i & 1) << t for t, i in enumerate(singles))
        first = slot[k] - b
        for m in range(1 << len(singles)):
            entry = 2.0 ** (-len(singles) / 2) * (-1) ** bin(b & m).count("1")
            U[int(charge[first + m])][k, column[first + m]] = entry
    return U


def leg_swap(basis: SectorBasis) -> np.ndarray:
    """Index map of the leg exchange P: states[leg_swap(basis)[k]] is states[k]
    with the two legs' bit halves swapped."""
    low = (1 << basis.L) - 1
    swapped = ((basis.states & low) << basis.L) | (basis.states >> basis.L)
    return np.searchsorted(basis.states, swapped)

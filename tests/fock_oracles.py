"""The complete Fock basis, whose sampled OTOC mean is the exact OTOC."""

import numpy as np

from ladderxx.core import SectorBasis
from ladderxx.otoc import InitialState


def complete_fock_basis(basis: SectorBasis) -> list[InitialState]:
    """All N one-hot sector states, in basis order: views of one complex N x N identity."""
    eye = np.eye(basis.dim, dtype=complex)
    return [InitialState(amplitudes=eye[:, j], kind="fock") for j in range(basis.dim)]

"""Sector basis, Hamiltonian assembly, and eigensolves for the disordered ladder-XX model.

The model is two XX chains of L sites each (legs 1 and 2, open ends) with
intra-leg coupling J_par, rung coupling J_perp = alpha * J_par, and a random
longitudinal field h_i drawn uniformly from [-h, h]. By default the same
field acts on both legs of column i; independent per-leg draws are available
as an option. All work happens in the half-filling sector (total Sz = 0),
whose dimension is C(2L, L).

Conventions
-----------
* Bit position of spin (leg, site) in a basis bitmask: (leg - 1) * L + (site - 1).
* Basis states are the C(2L, L) bitmasks with exactly L set bits, in ascending
  numeric order. The sigma^z eigenvalue is +1 where the bit is set.
* The hopping term sx.sx + sy.sy moves one excitation across a bond and
  contributes matrix element 2J per allowed swap.
* Energies are stated in units of J_par, times in 1/J_par.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.linalg

__all__ = [
    "LadderParams",
    "DisorderRealization",
    "SectorBasis",
    "SectorHamiltonian",
    "EigenSystem",
    "DiagonalizationError",
    "sample_disorder",
    "build_hamiltonian",
    "diagonalize",
    "evolve_state",
    "sigma_z_operator",
    "bit_position",
    "derive_seed",
]

L_MIN = 2
L_MAX = 8
# Relative tolerance per basis state on sum(lambda^2) = ||H||_F^2 in diagonalize:
# backward-stable eigensolvers move each eigenvalue by O(N eps ||H||).
SPECTRAL_WEIGHT_RTOL = 16 * np.finfo(float).eps


@dataclass(frozen=True)
class LadderParams:
    """Couplings of one ladder: L sites per leg, J_perp = alpha * J_par, field strength h."""

    L: int
    J_par: float = 1.0
    alpha: float = 1.0
    h: float = 0.0

    def __post_init__(self) -> None:
        if not (isinstance(self.L, (int, np.integer)) and self.L >= 2):
            raise ValueError(f"L must be an integer >= 2, got {self.L!r}")
        # Store plain Python numbers so that how a value was typed (1, 1.0,
        # np.float64(1.0)) never reaches the seed labels built from it.
        object.__setattr__(self, "L", int(self.L))
        for name in ("J_par", "alpha", "h"):
            value = float(getattr(self, name))
            # NaN slips through every comparison below, so test it first.
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.J_par <= 0:
            raise ValueError(f"J_par must be positive, got {self.J_par}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.h < 0:
            raise ValueError(f"h must be nonnegative, got {self.h}")

    @property
    def J_perp(self) -> float:
        return self.alpha * self.J_par


@dataclass(frozen=True)
class DisorderRealization:
    """One draw of the random fields.

    ``fields[i]`` acts on column i + 1. When ``leg2_fields`` is None the same
    value multiplies sigma^z on both legs of the column, which is the default
    model; otherwise leg 1 sees ``fields`` and leg 2 sees ``leg2_fields``.
    """

    fields: tuple[float, ...]
    seed: int
    leg2_fields: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.leg2_fields is not None and len(self.leg2_fields) != len(self.fields):
            raise ValueError("leg2_fields must match fields in length")

    def fields_for_leg(self, leg: int) -> tuple[float, ...]:
        if leg == 1 or self.leg2_fields is None:
            return self.fields
        return self.leg2_fields

    @property
    def L(self) -> int:
        return len(self.fields)


class SectorBasis:
    """Half-filling (Sz = 0) basis of the 2 x L ladder.

    Attributes
    ----------
    L : sites per leg.
    num_spins : 2 L.
    states : int64 array of the C(2L, L) bitmasks with L set bits, ascending
        (so ``np.searchsorted(states, mask)`` is the index of a bitmask).
    dim : sector dimension.
    leg_swap : int64 index array of the leg exchange P: ``states[leg_swap[k]]``
        is ``states[k]`` with the two legs' bit halves swapped. P is an
        involution; its fixed points (``leg_swap[k] == k``) exist for even L.
    """

    def __init__(self, L: int):
        if not (L_MIN <= L <= L_MAX):
            raise ValueError(
                f"L={L} outside the supported dense-diagonalization range "
                f"[{L_MIN}, {L_MAX}]"
            )
        self.L = int(L)
        self.num_spins = 2 * self.L
        masks = [
            sum(1 << p for p in positions)
            for positions in itertools.combinations(range(self.num_spins), self.L)
        ]
        masks.sort()
        self.states = np.array(masks, dtype=np.int64)
        self.dim = len(masks)
        if self.dim != comb(self.num_spins, self.L):
            raise RuntimeError(
                f"enumerated {self.dim} states, expected C({self.num_spins}, {self.L})"
            )
        low = (1 << self.L) - 1
        swapped = ((self.states & low) << self.L) | (self.states >> self.L)
        self.leg_swap = np.searchsorted(self.states, swapped)

    def __len__(self) -> int:
        return self.dim

    def __repr__(self) -> str:
        return f"SectorBasis(L={self.L}, dim={self.dim})"


@dataclass(frozen=True)
class SectorHamiltonian:
    """Dense real symmetric Hamiltonian restricted to the Sz = 0 sector of ``basis``."""

    matrix: np.ndarray
    params: LadderParams
    disorder: DisorderRealization
    basis: SectorBasis

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class EigenSystem:
    """Full spectrum of one realization: ascending eigenvalues, orthonormal column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


class DiagonalizationError(RuntimeError):
    """Eigensolver failure, annotated with the realization that triggered it."""


def derive_seed(master_seed: int, *components) -> int:
    """Stable 128-bit stream key from a master seed plus arbitrary labels.

    Ensembles key each realization as derive_seed(master, kind, parameters,
    index). Hashing keeps streams independent and means extending a sweep
    with new parameter points never perturbs existing realizations. NumPy
    scalars are keyed as the Python numbers they hold.
    """
    plain = tuple(c.item() if isinstance(c, np.generic) else c for c in components)
    text = repr((int(master_seed),) + plain)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:16], "little")


def bit_position(L: int, leg: int, site: int) -> int:
    """Bit index of spin (leg, site) with leg in {1, 2} and site in 1..L."""
    if leg not in (1, 2):
        raise ValueError(f"leg must be 1 or 2, got {leg}")
    if not (1 <= site <= L):
        raise ValueError(f"site must be in 1..{L}, got {site}")
    return (leg - 1) * L + (site - 1)


def sample_disorder(
    params: LadderParams, seed: int, independent_legs: bool = False
) -> DisorderRealization:
    """Draw one disorder realization, reproducible from the seed.

    Fields are i.i.d. uniform on [-h, h], generated by a counter-based
    (Philox) stream keyed by ``seed`` so that ensembles can be produced in
    parallel without coordination.

    By default the L values are shared by both legs, mirroring the model's
    field term h_i (sz_{1,i} + sz_{2,i}). With ``independent_legs=True`` a
    second, independent set of L values is drawn for leg 2 from the same
    stream; level statistics in the ergodic regime need this variant because
    column-identical fields leave the leg-swap symmetry of the clean ladder
    intact (see levelstats module notes).
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = 2 * params.L if independent_legs else params.L
    values = rng.uniform(-params.h, params.h, size=n)
    if independent_legs:
        return DisorderRealization(
            fields=tuple(values[: params.L]),
            seed=seed,
            leg2_fields=tuple(values[params.L :]),
        )
    return DisorderRealization(fields=tuple(values), seed=seed)


def _bonds(params: LadderParams) -> list[tuple[int, int, float]]:
    """All hopping bonds as (bit_a, bit_b, J). Open boundaries."""
    L = params.L
    bonds: list[tuple[int, int, float]] = []
    for leg in (1, 2):
        for site in range(1, L):
            bonds.append(
                (bit_position(L, leg, site), bit_position(L, leg, site + 1), params.J_par)
            )
    for site in range(1, L + 1):
        bonds.append(
            (bit_position(L, 1, site), bit_position(L, 2, site), params.J_perp)
        )
    return bonds


def build_hamiltonian(
    params: LadderParams,
    disorder: DisorderRealization,
    basis: SectorBasis,
) -> SectorHamiltonian:
    """Assemble the dense sector Hamiltonian.

    Off-diagonal elements are 2 J for every bond whose two occupations differ
    (J = J_par on intra-leg bonds, alpha * J_par on rungs); the diagonal is
    sum_i h_i^(leg) s_{leg,i} with s = +-1 read off the bitmask.
    """
    if disorder.L != params.L:
        raise ValueError(
            f"disorder has {disorder.L} columns but params.L = {params.L}"
        )
    if basis.L != params.L:
        raise ValueError(f"basis was built for L={basis.L}, params have L={params.L}")

    L = params.L
    n = basis.dim
    h1 = np.asarray(disorder.fields_for_leg(1))
    h2 = np.asarray(disorder.fields_for_leg(2))
    states = basis.states
    cols = np.arange(n)
    H = np.zeros((n, n))

    # Diagonal: fields only. s = +1 for a set bit, -1 otherwise.
    for site in range(1, L + 1):
        s1 = np.where((states >> bit_position(L, 1, site)) & 1 == 1, 1.0, -1.0)
        s2 = np.where((states >> bit_position(L, 2, site)) & 1 == 1, 1.0, -1.0)
        H[cols, cols] += h1[site - 1] * s1 + h2[site - 1] * s2

    # Off-diagonal: one excitation hop per bond, amplitude 2J. A bond's hops
    # hit distinct (row, column) pairs, so the indexed += adds each once.
    hop_rows, hop_cols = [], []
    for a, b, J in _bonds(params):
        if J == 0.0:
            continue
        hops = ((states >> a) ^ (states >> b)) & 1 == 1
        src = cols[hops]
        swapped = states[hops] ^ ((1 << a) | (1 << b))
        rows = np.searchsorted(states, swapped)
        # A swap conserves total population, so the image must be in the
        # sector; this is the structural [H, Sz] = 0 check.
        if np.any(states.take(rows, mode="clip") != swapped):
            raise RuntimeError(f"hop across bits {a}, {b} leaves the Sz = 0 sector")
        H[rows, src] += 2.0 * J
        hop_rows.append(rows)
        hop_cols.append(src)

    # Symmetry: every other off-diagonal entry is zero, so comparing the
    # written entries with their transposes checks the whole matrix.
    r, c = np.concatenate(hop_rows), np.concatenate(hop_cols)
    asymmetry = np.max(np.abs(H[r, c] - H[c, r]), initial=0.0)
    if not asymmetry <= 1e-12:
        raise RuntimeError(f"assembled Hamiltonian is not symmetric ({asymmetry:.3e})")
    return SectorHamiltonian(matrix=H, params=params, disorder=disorder, basis=basis)


def _spectral_blocks(H: SectorHamiltonian) -> list[np.ndarray]:
    """Symmetric matrices whose spectra together make up the spectrum of H.

    With the same fields on both legs, H commutes with the leg swap P, and the
    blocks are the projections Q^T H Q onto P = -1 and P = +1. The columns of
    Q are (|s> -+ |Ps>)/sqrt(2) for the states s < Ps, plus the fixed points
    |f> = |Pf> in the + block at even L; for a P-symmetric H the - block is
    H[s, s] - H[s, Ps], the + block H[s, s] + H[s, Ps] bordered by
    sqrt(2) H[s, f] and H[f, f]. Otherwise H is the only block.
    """
    if H.disorder.fields_for_leg(1) != H.disorder.fields_for_leg(2):
        return [H.matrix]
    M = H.matrix
    k = np.arange(H.dim)
    swap = H.basis.leg_swap
    if H.basis.L % 2:
        # No fixed points at odd L, so both blocks pair the same states
        # (a, b): gather the quarters M[a, a], M[a, b], M[b, a], M[b, b] once
        # and combine them as (M[a, a] -+ M[b, a]) -+ (M[a, b] -+ M[b, b]).
        a = k[k < swap]
        b = swap[a]
        rows = M[a]
        aa, ab = rows.take(a, axis=1), rows.take(b, axis=1)
        rows = M[b]
        ba, bb = rows.take(a, axis=1), rows.take(b, axis=1)
        del rows
        minus = aa - ba
        minus -= ab - bb
        plus = aa
        plus += ba
        ab += bb
        plus += ab
        for block in (minus, plus):
            block *= np.sqrt(0.5)
            block *= np.sqrt(0.5)
        return [minus, plus]
    blocks = []
    for combine, keep in ((np.subtract, k < swap), (np.add, k <= swap)):
        a, b = k[keep], swap[keep]
        # Column j of Q is w_j (|a_j> -+ |b_j>); a fixed point has a_j = b_j.
        rows = M[a]
        combine(rows, M[b], out=rows)
        block = rows.take(a, axis=1)
        combine(block, rows.take(b, axis=1), out=block)
        w = np.where(a == b, 0.5, np.sqrt(0.5))
        block *= w[:, None]
        block *= w
        blocks.append(block)
    return blocks


def diagonalize(H: SectorHamiltonian, vectors: bool = True) -> EigenSystem | np.ndarray:
    """Dense symmetric eigensolve of one realization.

    ``vectors=True`` (the default): one full ``eigh``, returned as an
    EigenSystem with ascending eigenvalues and column eigenvectors.

    ``vectors=False``: the ascending spectrum alone, as an ndarray. When both
    legs see the same fields it is merged from the eigenvalues-only solves of
    the leg-swap blocks P = -1 and P = +1 (see `_spectral_blocks`); each is
    about N/2 wide, so the two cost about a quarter of one full solve.
    Otherwise it is one eigenvalues-only solve of the full matrix. It agrees
    with the eigenvalues of ``vectors=True`` to rounding, not bit for bit.
    Raises RuntimeError unless sum(lambda^2) equals ||H||_F^2 to rounding:
    the blocks are projections, so weight goes missing exactly when H couples
    them, i.e. is not leg-swap symmetric although its fields say it is.
    """
    try:
        if vectors:
            w, v = scipy.linalg.eigh(H.matrix)
            return EigenSystem(eigenvalues=w, eigenvectors=v)
        w = np.sort(
            np.concatenate(
                [scipy.linalg.eigh(b, eigvals_only=True) for b in _spectral_blocks(H)]
            )
        )
    except scipy.linalg.LinAlgError as exc:
        raise DiagonalizationError(
            f"eigensolver failed for L={H.params.L}, alpha={H.params.alpha}, "
            f"h={H.params.h}, seed={H.disorder.seed}"
        ) from exc
    frobenius2 = float(np.vdot(H.matrix, H.matrix))
    lost = abs(float(w @ w) - frobenius2)
    if not lost <= SPECTRAL_WEIGHT_RTOL * H.dim * frobenius2:
        raise RuntimeError(
            f"spectrum misses weight of H: |sum(lambda^2) - ||H||_F^2| = {lost:.3e} "
            f"of {frobenius2:.3e} (L={H.params.L}, seed={H.disorder.seed})"
        )
    return w


def evolve_state(eig: EigenSystem, psi: np.ndarray, t: float) -> np.ndarray:
    """Apply U(t) = V exp(-i E t) V^T to a normalized state. Negative t runs backward."""
    psi = np.asarray(psi)
    if psi.shape != (eig.dim,):
        raise ValueError(f"state has shape {psi.shape}, expected ({eig.dim},)")
    norm = np.linalg.norm(psi)
    if abs(norm - 1.0) > 1e-10:
        raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-10")
    coeff = eig.eigenvectors.T @ psi
    coeff = coeff * np.exp(-1j * eig.eigenvalues * t)
    out = eig.eigenvectors @ coeff
    out_norm = np.linalg.norm(out)
    if abs(out_norm - 1.0) > 1e-10:
        raise RuntimeError(f"evolution broke unitarity: output norm {out_norm}")
    return out


def sigma_z_operator(basis: SectorBasis, leg: int, site: int) -> np.ndarray:
    """Diagonal of sigma^z on (leg, site) over the sector basis: +-1 entries."""
    pos = bit_position(basis.L, leg, site)
    return np.where((basis.states >> pos) & 1 == 1, 1.0, -1.0)

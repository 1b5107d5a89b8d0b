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
import os
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.linalg

__all__ = [
    "LadderParams",
    "DisorderRealization",
    "SectorBasis",
    "SectorHamiltonian",
    "LegSwapBlocks",
    "EigenSystem",
    "DiagonalizationError",
    "sample_disorder",
    "build_hamiltonian",
    "leg_swap_blocks",
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
# Peak memory of each dense step in units of one N x N float64 array (8 N^2
# bytes): the larger tracemalloc peak of L = 5 and 6, rounded up.
BUILD_COPIES = 1.2  # H and the hop list
BLOCK_COPIES = 1.7  # per m x m block: the block, its scatter indices and weights
EIGH_COPIES = 2.2  # eigenvectors and LAPACK's copy of H
EIGVALS_COPIES = 1.4  # per m x m block: LAPACK's copy of it and its workspace


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
            # + 0.0 turns -0.0 into 0.0, whose repr, and so seed label, differs.
            value = float(getattr(self, name)) + 0.0
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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class LegSwapBlocks:
    """Symmetric blocks whose spectra make up the spectrum of one realization.

    When ``mirrored``, the spectrum is that of ``blocks`` together with its
    negation. ``frobenius2`` is ||H||_F^2 of the N x N Hamiltonian they
    come from, for the spectral-weight check in `diagonalize`.
    """

    blocks: tuple[np.ndarray, ...]
    mirrored: bool
    frobenius2: float
    params: LadderParams
    disorder: DisorderRealization

    @property
    def dim(self) -> int:
        return sum(b.shape[0] for b in self.blocks) * (2 if self.mirrored else 1)


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


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def check_memory(caller: str, n: int, copies: float) -> None:
    """Raise MemoryError before `caller` allocates `copies` dense N x N float64
    arrays, if together they exceed the machine's physical memory."""
    need = int(copies * 8 * n * n)
    have = _physical_memory()
    if need > have:
        raise MemoryError(
            f"{caller} at N={n} needs about {need} bytes ({need / 2**30:.1f} GiB), "
            f"more than the {have} bytes ({have / 2**30:.1f} GiB) of physical memory"
        )


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


def _hamiltonian_entries(
    params: LadderParams,
    disorder: DisorderRealization,
    basis: SectorBasis,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The nonzero entries of the sector Hamiltonian, without forming it.

    Returns the diagonal d (the fields: sum_i h_i^(leg) s_{leg,i} with
    s = +-1 read off the bitmask) and the hop list (rows, cols, values): one
    entry 2 J per bond and per state whose two occupations across the bond
    differ (J = J_par on intra-leg bonds, alpha * J_par on rungs). Every hop
    appears in both directions, and no (row, col) pair appears twice.
    """
    if disorder.L != params.L:
        raise ValueError(
            f"disorder has {disorder.L} columns but params.L = {params.L}"
        )
    if basis.L != params.L:
        raise ValueError(f"basis was built for L={basis.L}, params have L={params.L}")

    L = params.L
    h1 = np.asarray(disorder.fields_for_leg(1))
    h2 = np.asarray(disorder.fields_for_leg(2))
    states = basis.states
    index = np.arange(basis.dim)
    d = np.zeros(basis.dim)
    for site in range(1, L + 1):
        s1 = np.where((states >> bit_position(L, 1, site)) & 1 == 1, 1.0, -1.0)
        s2 = np.where((states >> bit_position(L, 2, site)) & 1 == 1, 1.0, -1.0)
        d += h1[site - 1] * s1 + h2[site - 1] * s2

    rows, cols, values = [], [], []
    for a, b, J in _bonds(params):
        if J == 0.0:
            continue
        hops = ((states >> a) ^ (states >> b)) & 1 == 1
        swapped = states[hops] ^ ((1 << a) | (1 << b))
        target = np.searchsorted(states, swapped)
        # A swap conserves total population, so the image must be in the
        # sector; this is the structural [H, Sz] = 0 check.
        if np.any(states.take(target, mode="clip") != swapped):
            raise RuntimeError(f"hop across bits {a}, {b} leaves the Sz = 0 sector")
        rows.append(target)
        cols.append(index[hops])
        values.append(np.full(target.size, 2.0 * J))
    return d, np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


def build_hamiltonian(
    params: LadderParams,
    disorder: DisorderRealization,
    basis: SectorBasis,
) -> SectorHamiltonian:
    """Assemble the dense sector Hamiltonian from its nonzero entries.

    The diagonal holds the fields, the off-diagonal the hops of amplitude 2 J
    across every bond (see `_hamiltonian_entries`).
    """
    d, rows, cols, values = _hamiltonian_entries(params, disorder, basis)
    n = basis.dim
    check_memory("build_hamiltonian", n, BUILD_COPIES)
    H = np.zeros((n, n))
    np.fill_diagonal(H, d)
    H[rows, cols] = values

    # Symmetry: every other off-diagonal entry is zero, so comparing the
    # written entries with their transposes checks the whole matrix.
    asymmetry = np.max(np.abs(H[rows, cols] - H[cols, rows]), initial=0.0)
    if not asymmetry <= 1e-12:
        raise RuntimeError(f"assembled Hamiltonian is not symmetric ({asymmetry:.3e})")
    return SectorHamiltonian(matrix=H, params=params, disorder=disorder)


def _leg_swap_map(leg_swap: np.ndarray, parity: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Each state's row and coefficient in the P = parity block, and the block size.

    The block's basis is (|a_j> + parity |b_j>)/sqrt(2) for the pairs
    (a_j, b_j = P a_j) with a_j < b_j, and in the + block also the fixed
    points |a_j> = |b_j> of P (even L only), in the order of a_j. A fixed
    point outside the block keeps coefficient 0.
    """
    k = np.arange(leg_swap.size)
    a = k[k < leg_swap if parity < 0 else k <= leg_swap]
    b = leg_swap[a]
    row = np.zeros(k.size, dtype=np.int64)
    coef = np.zeros(k.size)
    row[a] = row[b] = np.arange(a.size)
    coef[b] = parity * np.sqrt(0.5)
    coef[a] = np.where(a == b, 1.0, np.sqrt(0.5))
    return row, coef, a.size


def _scatter_block(entries, row: np.ndarray, coef: np.ndarray, size: int) -> np.ndarray:
    """The block Q^T H Q, where column row[s] of Q has coef[s] on state s."""
    d, rows, cols, values = entries
    flat = np.bincount(
        row[rows] * size + row[cols],
        weights=coef[rows] * coef[cols] * values,
        minlength=size * size,
    )
    block = flat.reshape(size, size)
    block[np.diag_indices(size)] += np.bincount(row, weights=coef * coef * d, minlength=size)
    return block


def _check_chiral_symmetry(params: LadderParams, d: np.ndarray) -> None:
    """Raise unless the sublattice sign times the global spin flip anticommutes with H.

    That operator maps E -> -E and, at odd L, anticommutes with the leg swap,
    so the P = +1 spectrum is the negated P = -1 spectrum. It anticommutes
    with H when the diagonal is odd under the flip and every hop joins the two
    sublattices, (leg + site) even and odd. The flip of states[k] is
    states[N - 1 - k]: the complement of a bitmask decreases as it increases.
    """
    if not np.max(np.abs(d + d[::-1])) <= 1e-12 * (1.0 + np.max(np.abs(d))):
        raise RuntimeError("diagonal is not odd under the global spin flip")
    L = params.L
    for a, b, J in _bonds(params):
        # Bit p is spin (leg, site) = (p // L + 1, p % L + 1).
        if (a // L + a % L - b // L - b % L) % 2 == 0:
            raise RuntimeError(f"bond across bits {a}, {b} joins one sublattice")


def leg_swap_blocks(
    params: LadderParams,
    disorder: DisorderRealization,
    basis: SectorBasis,
) -> LegSwapBlocks:
    """Blocks for an eigenvalues-only solve, assembled without the N x N matrix.

    With the same fields on both legs, H commutes with the leg swap P and the
    blocks are its projections onto P = -1 and P = +1, each about N/2 wide
    (`_leg_swap_map`). At odd L only the P = -1 block is kept: the P = +1
    spectrum is its mirror image (`_check_chiral_symmetry`, which raises if a
    term of H breaks that). With independent legs the one block is H.
    """
    entries = _hamiltonian_entries(params, disorder, basis)
    d, _, _, values = entries
    n = basis.dim
    mirrored = False
    if disorder.fields_for_leg(1) != disorder.fields_for_leg(2):
        maps = [(np.arange(n), np.ones(n), n)]
    else:
        mirrored = basis.L % 2 == 1
        if mirrored:
            _check_chiral_symmetry(params, d)
        maps = [_leg_swap_map(basis.leg_swap, p) for p in ((-1,) if mirrored else (-1, 1))]
    block_elements = sum(size * size for _, _, size in maps)
    check_memory("leg_swap_blocks", n, BLOCK_COPIES * block_elements / n**2)
    return LegSwapBlocks(
        blocks=tuple(_scatter_block(entries, *m) for m in maps),
        mirrored=mirrored,
        frobenius2=float(d @ d + values @ values),
        params=params,
        disorder=disorder,
    )


def diagonalize(H: SectorHamiltonian | LegSwapBlocks) -> EigenSystem | np.ndarray:
    """Dense symmetric eigensolve of one realization.

    A SectorHamiltonian gets one full ``eigh``: an EigenSystem with ascending
    eigenvalues and column eigenvectors, as the OTOC routes need them.

    LegSwapBlocks get the ascending spectrum alone, as an ndarray: an
    eigenvalues-only solve per block, merged, with the mirrored P = +1 half
    appended at odd L. Two blocks of about N/2 cost about a quarter of one
    full solve, the one mirrored block an eighth. It agrees with a full solve
    to rounding, not bit for bit. Raises RuntimeError unless sum(lambda^2)
    equals ||H||_F^2 to rounding: the blocks are projections, so weight goes
    missing exactly when H couples them, i.e. is not leg-swap symmetric
    although its fields say it is.
    """
    blocks = isinstance(H, LegSwapBlocks)
    if blocks:
        check_memory("diagonalize", max(b.shape[0] for b in H.blocks), EIGVALS_COPIES)
    else:
        check_memory("diagonalize", H.dim, EIGH_COPIES)
    try:
        if not blocks:
            w, v = scipy.linalg.eigh(H.matrix)
            return EigenSystem(eigenvalues=w, eigenvectors=v)
        parts = [scipy.linalg.eigh(b, eigvals_only=True) for b in H.blocks]
    except scipy.linalg.LinAlgError as exc:
        raise DiagonalizationError(
            f"eigensolver failed for L={H.params.L}, alpha={H.params.alpha}, "
            f"h={H.params.h}, seed={H.disorder.seed}"
        ) from exc
    if H.mirrored:
        parts.append(-parts[0])
    w = np.sort(np.concatenate(parts))
    lost = abs(float(w @ w) - H.frobenius2)
    if not lost <= SPECTRAL_WEIGHT_RTOL * H.dim * H.frobenius2:
        raise RuntimeError(
            f"spectrum misses weight of H: |sum(lambda^2) - ||H||_F^2| = {lost:.3e} "
            f"of {H.frobenius2:.3e} (L={H.params.L}, seed={H.disorder.seed})"
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

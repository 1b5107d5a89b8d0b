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

import functools
import hashlib
import itertools
import os
from dataclasses import dataclass, field
from math import comb

import numpy as np
import scipy.sparse

__all__ = [
    "LadderParams",
    "DisorderRealization",
    "SectorBasis",
    "SectorHamiltonian",
    "ChargeBlocks",
    "EigenSystem",
    "SectorSpectra",
    "ChargeLabels",
    "ChargeEigenSystem",
    "DiagonalizationError",
    "sample_disorder",
    "build_hamiltonian",
    "diagonalize",
    "diagonalize_sectors",
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
EIGH_COPIES = 2.2  # eigenvectors and the dense copy of H that LAPACK overwrites
# Eigenvalues only, in units of the widest m x m block (H with independent
# legs): the block, its sparse product and, when first built, the charge
# map; then LAPACK's copy of the block and its workspace.
EIGVALS_COPIES = 3.4
# diagonalize_sectors: the eigenvectors of every block, and this many copies of
# the largest one: the block, and numpy's eigh of it, whose input copy,
# eigenvectors and workspace raise the RSS by 4.3-4.5 block copies outside
# tracemalloc's view; then the sparse products and, when first built, the
# charge map (2.2 copies at L = 5 under tracemalloc).
SECTOR_EIGH_COPIES = 6.0
# The cgroup mount, and the file that names this process's group in each
# hierarchy: a v2 line reads "0::<path>", a v1 line "<id>:<controllers>:<path>".
_CGROUP_ROOT = "/sys/fs/cgroup"
_SELF_CGROUP = "/proc/self/cgroup"
# Bit t is set where the t-th singly occupied column of a column pattern
# carries the Jordan-Wigner sign s_t = -1 in the dressed rung charge (see
# SectorBasis.charge_sectors): s_t = (-1)^t.
_STRING_SIGNS = sum(1 << t for t in range(1, L_MAX, 2))
_POPCOUNT = np.array([bin(k).count("1") for k in range(1 << L_MAX)])


def _checked_int(name: str, value, minimum: int) -> int:
    """value as a plain int; raises unless it is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class LadderParams:
    """Couplings of one ladder: L sites per leg, J_perp = alpha * J_par, field strength h."""

    L: int
    J_par: float = 1.0
    alpha: float = 1.0
    h: float = 0.0

    def __post_init__(self) -> None:
        # Store plain Python numbers so that how a value was typed (1, 1.0,
        # np.float64(1.0)) never reaches the seed labels built from it.
        object.__setattr__(self, "L", _checked_int("L", self.L, L_MIN))
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
        # NaN or inf would otherwise surface late, as a failed symmetry check.
        if not np.all(np.isfinite(np.concatenate([self.fields, self.leg2_fields or ()]))):
            raise ValueError("fields must be finite")

    def fields_for_leg(self, leg: int) -> tuple[float, ...]:
        if leg == 1 or self.leg2_fields is None:
            return self.fields
        return self.leg2_fields

    @property
    def L(self) -> int:
        return len(self.fields)


@dataclass(frozen=True)
class ChargeLabels:
    """Bookkeeping of the charge map (`SectorBasis.charge_sectors`), in slots.

    The states of one column-occupation pattern with z singly occupied
    columns are numbered b = 0 .. 2^z - 1 by leg 2's bits on those columns,
    and its Hadamard labels m likewise. Patterns take consecutive runs of
    slots, so slot s holds state b = s - first and label m = s - first of one
    pattern. ``slot[k]`` is the slot of state k and ``state[s]`` the state in
    slot s. Per slot: ``z`` and the pattern's ``single`` and ``double``
    (doubly occupied) column bits, ``index`` = b = m, and ``charge``, the q
    of label m.

    ``order`` lists the slots by (z, m, flip half, slot). The global spin
    flip keeps z and complements b, so the flip half is b's top bit; for
    z = 0 it swaps the doubly occupied columns with the empty ones, and the
    flip half is whether the doubly occupied columns, read as a bit mask,
    exceed the empty ones. A sector's labels in this order are the columns
    of its U_q (`SectorBasis.charge_sectors`) and the rows of its block, and
    the W-route's Hadamard input (`otoc._SectorRoute`) holds all labels in it.
    """

    slot: np.ndarray
    state: np.ndarray
    z: np.ndarray
    index: np.ndarray
    single: np.ndarray
    double: np.ndarray
    charge: np.ndarray
    order: np.ndarray


class SectorBasis:
    """Half-filling (Sz = 0) basis of the 2 x L ladder.

    Attributes
    ----------
    L : sites per leg.
    num_spins : 2 L.
    states : int64 array of the C(2L, L) bitmasks with L set bits, ascending
        (so ``np.searchsorted(states, mask)`` is the index of a bitmask).
    dim : sector dimension.
    charge_labels : the slots of the charge map's states and labels
        (`ChargeLabels`); built on first use.
    charge_sectors : the eigenvectors of the dressed rung charge, per
        eigenvalue; built on first use.
    """

    def __init__(self, L: int):
        self.L = _checked_int("L", L, L_MIN)
        if self.L > L_MAX:
            raise ValueError(
                f"L={L} outside the supported dense-diagonalization range "
                f"[{L_MIN}, {L_MAX}]"
            )
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

    @functools.cached_property
    def charge_labels(self) -> ChargeLabels:
        """Slots of the charge map's states and labels; see `ChargeLabels`."""
        L, states = self.L, self.states
        leg1, leg2 = states & ((1 << L) - 1), states >> L
        single, double = leg1 ^ leg2, leg1 & leg2
        # b: leg 2's bits on the singly occupied columns, packed; z counts them.
        b = np.zeros_like(states)
        z = np.zeros_like(states)
        for i in range(L):
            on = (single >> i) & 1
            b |= (leg2 >> i & on) << z
            z += on
        _, pattern = np.unique(single | double << L, return_inverse=True)
        size = np.bincount(pattern)
        slot = (np.cumsum(size) - size)[pattern] + b
        state = np.empty_like(slot)
        state[slot] = np.arange(self.dim)
        z, index, single, double = z[state], b[state], single[state], double[state]
        empty = ((1 << L) - 1) & ~(single | double)
        flipped_half = np.where(z > 0, index >> np.maximum(z - 1, 0), double > empty)
        return ChargeLabels(
            slot=slot,
            state=state,
            z=z,
            index=index,
            single=single,
            double=double,
            charge=z - 2 * _POPCOUNT[(index ^ _STRING_SIGNS) & ((1 << z) - 1)],
            order=np.lexsort((flipped_half, index, z)),
        )

    @functools.cached_property
    def charge_sectors(self) -> dict[int, scipy.sparse.csc_array]:
        """Orthonormal eigenvectors of the dressed rung charge, one N x C(L, k)^2
        sparse matrix U_q per eigenvalue q = 2k - L.

        Q = sum_i (-1)^(N_<i) (s+_{1,i} s-_{2,i} + h.c.), with N_<i the up spins
        in columns 1..i-1, commutes with H when both legs see the same fields.
        Q keeps each column's occupation n_i in {0, 1, 2}; on one occupation
        pattern it is sum_t s_t X_t over the z columns with n_i = 1, where X_t
        moves that column's up spin to the other leg. The columns between two
        such columns hold 0 or 2 up spins, so s_t = (-1)^t. The eigenvectors
        are therefore the z-fold Hadamard transform of the pattern: label m
        (bit t set where X_t = -1) has entry 2^(-z/2) (-1)^popcount(b & m) on
        the state whose leg-2 bits on those columns read b, and
        q = z - 2 popcount((m ^ _STRING_SIGNS) & (2^z - 1)). Within a sector
        the labels come in `ChargeLabels.order`.
        """
        labels = self.charge_labels
        order = labels.order
        column = np.empty(self.dim, dtype=np.int64)
        column[order[np.argsort(labels.charge[order], kind="stable")]] = np.arange(self.dim)
        z, b = labels.z[labels.slot], labels.index[labels.slot]
        first = labels.slot - b
        rows, cols, coefs = [], [], []
        for width in np.unique(z):
            on = np.flatnonzero(z == width)
            m = np.arange(1 << width)
            sign = 1 - 2 * (_POPCOUNT[b[on, None] & m] & 1)
            rows.append(np.repeat(on, m.size))
            cols.append(column[first[on, None] + m].ravel())
            coefs.append((sign * 2.0 ** (-width / 2)).ravel())
        U = scipy.sparse.csc_array(
            (np.concatenate(coefs), (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.dim, self.dim),
        )
        charges, counts = np.unique(labels.charge, return_counts=True)
        ends = np.cumsum(counts)
        return {
            int(q): U[:, end - count : end] for q, count, end in zip(charges, counts, ends)
        }

    def __len__(self) -> int:
        return self.dim

    def __repr__(self) -> str:
        return f"SectorBasis(L={self.L}, dim={self.dim})"


@dataclass(frozen=True)
class SectorHamiltonian:
    """Real symmetric Hamiltonian restricted to the Sz = 0 sector of ``basis``,
    as a sparse CSR matrix; `diagonalize` forms its one dense copy."""

    matrix: scipy.sparse.csr_array
    params: LadderParams
    disorder: DisorderRealization
    basis: SectorBasis


@dataclass(frozen=True)
class ChargeBlocks:
    """``H``, to be solved by `diagonalize` for its eigenvalues alone, block by block."""

    H: SectorHamiltonian


@dataclass(frozen=True)
class EigenSystem:
    """Full spectrum of one realization: ascending eigenvalues, orthonormal column eigenvectors.

    The OTOC routines keep up to two diagonal operators rotated into this
    eigenbasis, read-only N x N arrays, in a private memo, so the arrays
    must not be changed in place once an OTOC has been evaluated.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    _rotated: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class SectorSpectra:
    """Eigenvalues of one realization from an eigenvalues-only solve.

    ``eigenvalues`` is the whole ascending spectrum, mirrored sectors
    included; ``sectors`` maps each solved charge q >= 0 to its ascending
    spectrum, and is empty when H conserves no charge.
    """

    eigenvalues: np.ndarray
    sectors: dict[int, np.ndarray]


@dataclass(frozen=True)
class ChargeEigenSystem:
    """Full spectrum of one realization with shared fields, sector by sector.

    ``sectors[q] = (E_q, V_q)`` for every charge q, negative ones included:
    ascending eigenvalues and orthonormal column eigenvectors of the block
    U_q^T H U_q, whose rows are sector q's labels in `ChargeLabels.order`.
    So U(t) = U_Q (+)_q V_q exp(-i E_q t) V_q^T U_Q^T, U_Q the charge map.
    """

    basis: SectorBasis
    sectors: dict[int, tuple[np.ndarray, np.ndarray]]

    @property
    def dim(self) -> int:
        return self.basis.dim


class DiagonalizationError(RuntimeError):
    """Eigensolver failure, annotated with the realization that triggered it."""


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _read_text(path: str) -> str:
    """The file's text, or "" when it cannot be read."""
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def _memory_limit() -> int:
    """The smallest of physical memory and the cgroup memory limits on this process.

    Those are the limits of the group that `_SELF_CGROUP` names for this
    process and of every group above it: memory.max in cgroup v2, and
    memory.limit_in_bytes under v1's memory controller. A file that is
    missing or reads "max" sets no limit (v1 writes a huge number instead,
    which min() passes over).
    """
    limits = [_physical_memory()]
    for line in _read_text(_SELF_CGROUP).splitlines():
        hierarchy, controllers, path = line.split(":", 2)
        if hierarchy == "0" and controllers == "":
            top, name = _CGROUP_ROOT, "memory.max"
        elif "memory" in controllers.split(","):
            top, name = os.path.join(_CGROUP_ROOT, "memory"), "memory.limit_in_bytes"
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for k in range(len(parts) + 1):
            text = _read_text(os.path.join(top, *parts[:k], name)).strip()
            if text.isdigit():
                limits.append(int(text))
    return min(limits)


def check_memory(caller: str, n: int, copies: float) -> None:
    """Raise MemoryError before `caller` allocates `copies` dense N x N float64
    arrays, if together they exceed physical memory or the cgroup limit."""
    need = int(copies * 8 * n * n)
    have = _memory_limit()
    if need > have:
        raise MemoryError(
            f"{caller} at N={n} needs about {need} bytes ({need / 2**30:.1f} GiB), "
            f"more than the {have} bytes ({have / 2**30:.1f} GiB) of memory this "
            "process may use"
        )


def derive_seed(master_seed: int, *components) -> int:
    """Stable 128-bit stream key from a master seed plus arbitrary labels.

    Ensembles key each realization as derive_seed(master, kind, parameters,
    index). Hashing keeps streams independent and means extending a sweep
    with new parameter points never perturbs existing realizations. NumPy
    scalars key as the Python numbers they hold; master_seed must be an int >= 0.
    """
    plain = tuple(c.item() if isinstance(c, np.generic) else c for c in components)
    text = repr((_checked_int("master_seed", master_seed, 0),) + plain)
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
    column-identical fields keep a charge conserved
    (`SectorBasis.charge_sectors`). ``seed`` must be an integer >= 0.
    """
    seed = _checked_int("seed", seed, 0)
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
    """Assemble the sparse sector Hamiltonian.

    The diagonal holds the fields, sum_i h_i^(leg) s_{leg,i} with s = +-1
    read off the bitmask. Off the diagonal there is one entry 2 J per bond
    and per state whose two occupations across the bond differ (J = J_par
    on intra-leg bonds, alpha * J_par on rungs): 3 L - 2 bonds, so the CSR
    matrix holds O(L N) entries and no N x N array is formed. Every hop
    appears in both directions, and no (row, col) pair appears twice.
    """
    if disorder.L != params.L:
        raise ValueError(
            f"disorder has {disorder.L} columns but params.L = {params.L}"
        )
    if basis.L != params.L:
        raise ValueError(f"basis was built for L={basis.L}, params have L={params.L}")

    h1 = np.asarray(disorder.fields_for_leg(1))
    h2 = np.asarray(disorder.fields_for_leg(2))
    states = basis.states
    index = np.arange(basis.dim)
    d = np.zeros(basis.dim)
    for site in range(1, params.L + 1):
        s1, s2 = (sigma_z_operator(basis, leg, site) for leg in (1, 2))
        d += h1[site - 1] * s1 + h2[site - 1] * s2

    rows, cols, values = [index], [index], [d]
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
    H = scipy.sparse.csr_array(
        (np.concatenate(values), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim),
    )
    asymmetry = abs(H - H.T).max()
    if not asymmetry <= 1e-12:
        raise RuntimeError(f"assembled Hamiltonian is not symmetric ({asymmetry:.3e})")
    return SectorHamiltonian(matrix=H, params=params, disorder=disorder, basis=basis)


def _check_chiral_symmetry(params: LadderParams, d: np.ndarray) -> None:
    """Raise unless the sublattice sign times the global spin flip anticommutes with H.

    That operator maps E -> -E and anticommutes with the dressed rung charge
    (the flip keeps Q, the sublattice sign negates each rung exchange), so the
    sector -q spectrum is the negated sector q spectrum. It anticommutes with
    H when the diagonal is odd under the flip and every hop joins the two
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


def diagonalize(H: SectorHamiltonian | ChargeBlocks) -> EigenSystem | SectorSpectra:
    """Dense symmetric eigensolve of one realization.

    A SectorHamiltonian gets one full ``eigh``: an EigenSystem with ascending
    eigenvalues and column eigenvectors, as the OTOC routes need them. Its
    CSR matrix is made dense here, once and in Fortran order, and LAPACK
    overwrites that copy in place, so the solve holds about two N x N arrays.

    ChargeBlocks(H) gets SectorSpectra, from eigenvalues-only solves. With
    the same fields on both legs, H conserves the dressed rung charge, and
    each block U_q^T H U_q of a sector q >= 0 (`SectorBasis.charge_sectors`)
    is multiplied out from the CSR matrix and solved before the next one is
    formed, so the peak holds one block. The negation of each q > 0
    spectrum stands for sector -q (`_check_chiral_symmetry`, which raises if
    a term of H breaks that). With independent legs the one block is H made
    dense. The merged spectrum agrees with a full solve to rounding, not
    bit for bit. Raises RuntimeError when the spectrum misses weight of H
    (`_check_spectral_weight`).

    scipy.linalg is imported here, by this function alone, and not at
    module load: a process that never calls it never loads scipy's LAPACK
    and its OpenBLAS copy.
    """
    import scipy.linalg

    if not isinstance(H, ChargeBlocks):
        check_memory("diagonalize", H.matrix.shape[0], EIGH_COPIES)
        try:
            w, v = scipy.linalg.eigh(H.matrix.toarray(order="F"), overwrite_a=True)
        except scipy.linalg.LinAlgError as exc:
            raise _solve_failed(H) from exc
        return EigenSystem(eigenvalues=w, eigenvectors=v)
    H = H.H
    n = H.basis.dim
    if H.disorder.fields_for_leg(1) != H.disorder.fields_for_leg(2):
        charges, blocks, width = (), [H.matrix], n
    else:
        _check_chiral_symmetry(H.params, H.matrix.diagonal())
        sectors = {q: U for q, U in H.basis.charge_sectors.items() if q >= 0}
        charges, width = tuple(sectors), max(U.shape[1] for U in sectors.values())
        blocks = (U.T @ (H.matrix @ U) for U in sectors.values())
    check_memory("diagonalize", n, EIGVALS_COPIES * width**2 / n**2)
    try:
        parts = [scipy.linalg.eigh(b.toarray(), eigvals_only=True) for b in blocks]
    except scipy.linalg.LinAlgError as exc:
        raise _solve_failed(H) from exc
    sectors = dict(zip(charges, parts))
    mirrors = [-e for q, e in sectors.items() if q > 0]
    w = np.sort(np.concatenate(parts + mirrors))
    _check_spectral_weight(H, w)
    return SectorSpectra(eigenvalues=w, sectors=sectors)


def diagonalize_sectors(H: SectorHamiltonian) -> ChargeEigenSystem | EigenSystem:
    """Eigensystem of every charge sector of a ladder with shared fields.

    Each block U_q^T H U_q (`SectorBasis.charge_sectors`) is multiplied out
    from the CSR matrix and solved with vectors, the q < 0 sectors included.
    The solver is numpy's ``eigh`` (LAPACK ``syevd``), not scipy's: the two
    packages link separate OpenBLAS copies, and the W-route's GEMMs run in
    numpy's, whose threads still spin when the next realization is solved;
    scipy's copy then competes with them for the cores. A `wavefront`
    process with shared fields never loads scipy's copy (`diagonalize`
    imports it). Raises RuntimeError when the spectrum misses weight of H
    (`_check_spectral_weight`).

    When the legs see different fields, H conserves no charge, and the
    result is `diagonalize(H)`'s full EigenSystem.
    """
    if H.disorder.fields_for_leg(1) != H.disorder.fields_for_leg(2):
        return diagonalize(H)
    basis = H.basis
    n = basis.dim
    widths = [U.shape[1] for U in basis.charge_sectors.values()]
    copies = (sum(w**2 for w in widths) + SECTOR_EIGH_COPIES * max(widths) ** 2) / n**2
    check_memory("diagonalize_sectors", n, copies)
    sectors = {}
    try:
        for q, U in basis.charge_sectors.items():
            sectors[q] = np.linalg.eigh((U.T @ (H.matrix @ U)).toarray())
    except np.linalg.LinAlgError as exc:
        raise _solve_failed(H) from exc
    _check_spectral_weight(H, np.concatenate([E for E, _ in sectors.values()]))
    return ChargeEigenSystem(basis=basis, sectors=sectors)


def _full_eigensystem(caller: str, eig) -> None:
    """Raise TypeError unless eig is the full EigenSystem of `diagonalize(H)`."""
    if not isinstance(eig, EigenSystem):
        raise TypeError(
            f"{caller} needs the full EigenSystem of diagonalize(H), not {type(eig).__name__}"
        )


def _solve_failed(H: SectorHamiltonian) -> DiagonalizationError:
    return DiagonalizationError(
        f"eigensolver failed for L={H.params.L}, alpha={H.params.alpha}, "
        f"h={H.params.h}, seed={H.disorder.seed}"
    )


def _check_spectral_weight(H: SectorHamiltonian, w: np.ndarray) -> None:
    """Raise RuntimeError unless sum(w^2) equals ||H||_F^2 to rounding.

    A block solve sees projections of H, so weight goes missing exactly when
    H couples the blocks, i.e. does not conserve the charge although its
    fields say it does. ||H||_F^2 is the sum of the squared stored entries
    of H. Both sums are numpy reductions, not BLAS dots: a dot that long
    (~4e4 entries at L = 7) starts OpenBLAS's thread pool, after which the
    next LAPACK eigensolve runs slower.
    """
    frobenius2 = float(np.square(H.matrix.data).sum())
    lost = abs(float(np.square(w).sum()) - frobenius2)
    if not lost <= SPECTRAL_WEIGHT_RTOL * w.size * frobenius2:
        raise RuntimeError(
            f"spectrum misses weight of H: |sum(lambda^2) - ||H||_F^2| = {lost:.3e} "
            f"of {frobenius2:.3e} (L={H.params.L}, seed={H.disorder.seed})"
        )


def evolve_state(eig: EigenSystem, psi: np.ndarray, t: float) -> np.ndarray:
    """Apply U(t) = V exp(-i E t) V^T to a normalized state. Negative t runs backward.

    V is applied to the real and imaginary parts apart, so the real V is
    never cast to a complex N x N copy. ``eig`` must be the full EigenSystem
    of `diagonalize`; anything else raises TypeError.
    """
    _full_eigensystem("evolve_state", eig)
    psi = np.asarray(psi)
    if psi.shape != (eig.dim,):
        raise ValueError(f"state has shape {psi.shape}, expected ({eig.dim},)")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= 1e-10:
        raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-10")
    V = eig.eigenvectors
    coeff = V.T @ psi.real + 1j * (V.T @ psi.imag)
    coeff *= np.exp(-1j * eig.eigenvalues * t)
    out = V @ coeff.real + 1j * (V @ coeff.imag)
    out_norm = np.linalg.norm(out)
    if not abs(out_norm - 1.0) <= 1e-10:
        raise RuntimeError(f"evolution broke unitarity: output norm {out_norm}")
    return out


def sigma_z_operator(basis: SectorBasis, leg: int, site: int) -> np.ndarray:
    """Diagonal of sigma^z on (leg, site) over the sector basis: +-1 entries."""
    pos = bit_position(basis.L, leg, site)
    return np.where((basis.states >> pos) & 1 == 1, 1.0, -1.0)

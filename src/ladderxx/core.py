"""Sector basis, Hamiltonian assembly, and eigensolves for the disordered ladder-XX model.

The model is two XX chains of L sites each (legs 1 and 2, open ends) with
intra-leg coupling J, rung coupling alpha * J, and a random longitudinal
field h_i drawn uniformly from [-h, h]. By default the same field acts on
both legs of column i; independent per-leg draws are available as an
option. All work happens in the half-filling sector (total Sz = 0),
whose dimension is C(2L, L).

Conventions
-----------
* Bit position of spin (leg, site) in a basis bitmask: (leg - 1) * L + (site - 1).
* Basis states are the C(2L, L) bitmasks with exactly L set bits, in ascending
  numeric order. The sigma^z eigenvalue is +1 where the bit is set.
* The hopping term sx.sx + sy.sy moves one excitation across a bond and
  contributes matrix element 2J per allowed swap.
* J = 1 is the unit of energy, so the rung coupling is alpha, and times are
  in 1/J. No generality is lost: H(J, alpha, h) = J H(1, alpha, h / J).
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass, field
from math import comb

import numpy as np

__all__ = [
    "LadderParams",
    "DisorderRealization",
    "SectorBasis",
    "SectorHamiltonian",
    "EigenSystem",
    "SectorSpectra",
    "ChargeLabels",
    "ChargeEigenSystem",
    "DiagonalizationError",
    "sample_disorder",
    "build_hamiltonian",
    "diagonalize",
    "diagonalize_sectors",
    "sigma_z_operator",
    "bit_position",
    "derive_seed",
]

L_MIN = 2
L_MAX = 8
# Relative tolerance per basis state on sum(lambda^2) = ||H||_F^2 and, in units
# of ||H||_F, on sum(lambda) = tr H in diagonalize: backward-stable
# eigensolvers move each eigenvalue by O(N eps ||H||).
SPECTRAL_WEIGHT_RTOL = 16 * np.finfo(float).eps
# Peak memory of each dense step in units of one N x N float64 array (8 N^2
# bytes): the larger tracemalloc peak of L = 5 and 6, rounded up.
EIGH_COPIES = 2.2  # eigenvectors and the dense copy of H that LAPACK overwrites
# Eigenvalues only, in units of the widest m x m block (H with independent
# legs): the block, which LAPACK overwrites in place, its workspace, and the
# O(L N) rung-basis entries of every block (cold peaks 1.65 and 1.16 at L = 5,
# 1.18 and 1.04 at L = 6, with shared and with independent legs).
EIGVALS_COPIES = 2.0
# diagonalize_sectors: the eigenvectors of every block, and this many copies of
# the largest one: the block and the rung-basis entries (1.6 at L = 5, 0.8 at
# L = 6 under tracemalloc), and numpy's eigh of it, whose input copy,
# eigenvectors and workspace lie outside tracemalloc's view. The RSS grew by
# 5.5-5.7 such copies beyond the eigenvectors at L = 6 and by 4.2-4.3 at L = 7.
SECTOR_EIGH_COPIES = 6.0
# The cgroup mount, and the file that names this process's group in each
# hierarchy: a v2 line reads "0::<path>", a v1 line "<id>:<controllers>:<path>".
_CGROUP_ROOT = "/sys/fs/cgroup"
_SELF_CGROUP = "/proc/self/cgroup"
# Bit t is set where the t-th singly occupied column of a column pattern
# carries the Jordan-Wigner sign s_t = -1 in the dressed rung charge (see
# _rung_sectors): s_t = (-1)^t.
_STRING_SIGNS = sum(1 << t for t in range(1, L_MAX, 2))
_POPCOUNT = np.array([bin(k).count("1") for k in range(1 << L_MAX)])
# The Hadamard plan maps label rows in pieces of about this many rows, and at
# least one pattern: up to L = 7 a piece of N/2 floats a row fits in a 2 MiB
# L2 cache.
_PIECE_ROWS = 64


def _checked_int(name: str, value, minimum: int) -> int:
    """value as a plain int; raises unless it is an integer (not a bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class LadderParams:
    """One ladder, J = 1: L sites per leg, rung coupling alpha, field strength h."""

    L: int
    alpha: float = 1.0
    h: float = 0.0

    def __post_init__(self) -> None:
        # Store plain Python numbers so that how a value was typed (1, 1.0,
        # np.float64(1.0)) never reaches the seed labels built from it.
        object.__setattr__(self, "L", _checked_int("L", self.L, L_MIN))
        for name in ("alpha", "h"):
            # + 0.0 turns -0.0 into 0.0, whose repr, and so seed label, differs.
            value = float(getattr(self, name)) + 0.0
            # NaN slips through every comparison below, so test it first.
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, value)
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.h < 0:
            raise ValueError(f"h must be nonnegative, got {self.h}")


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
    """Bookkeeping of the rung basis (`_rung_sectors`), in slots.

    The states of one column-occupation pattern with z singly occupied
    columns are numbered b = 0 .. 2^z - 1 by leg 2's bits on those columns,
    and its rung labels m likewise (bit t set where the t-th singly occupied
    column is antibonding). Patterns take consecutive runs of slots, by
    ascending ``single | double << L``, so slot s holds state b = s - first
    and label m = s - first of one pattern. ``state[s]`` is the state in
    slot s. Per slot: ``z`` and the pattern's ``single`` and ``double``
    (doubly occupied) column bits, ``index`` = b = m, and ``charge``, the q
    of label m.

    ``order`` lists the slots by (z, m, flip half, slot). The global spin
    flip keeps z and complements b, so the flip half is b's top bit; for
    z = 0 it swaps the doubly occupied columns with the empty ones, and the
    flip half is whether the doubly occupied columns, read as a bit mask,
    exceed the empty ones. A sector's labels in this order are the rows of
    its block H_q, and the input of `SectorBasis.hadamard_plan` holds all
    labels in it. ``rank[s]`` is the position of slot s among its
    sector's slots in ``order``: label s's row in H_q and in V_q.
    """

    state: np.ndarray
    z: np.ndarray
    index: np.ndarray
    single: np.ndarray
    double: np.ndarray
    charge: np.ndarray
    order: np.ndarray
    rank: np.ndarray


@dataclass(frozen=True)
class _HadamardPlan:
    """U_Q, the map from the rung labels to the states, in row pieces.

    U_Q is the normalized Sylvester-Hadamard matrix H_z on each pattern. In
    `ChargeLabels.order` each z is a (2^z, patterns) array of label rows, so
    a GEMM with H_z maps the rows of a few patterns at once; its top half
    gives states b < 2^(z-1), which go to the first half of the result, and
    its bottom half the others. The spin flip complements b, so each mirror
    pair has one state in each half. A z = 0 pattern holds one state, and
    the flip maps it to another z = 0 pattern; `ChargeLabels.order` puts one
    of each such pair in the first half of the z = 0 rows, and the z = 0
    group's matrix is the 2 x 2 identity, which sends the two halves of
    those rows to the two halves of the result.

    ``pieces`` holds, for a few patterns of one z (about `_PIECE_ROWS`
    rows), (H_z, its input rows, its pattern columns (p0, p1), its result
    rows). ``rows[r]`` is the state of result row r. The plan depends on the
    labels alone, so `SectorBasis.hadamard_plan` builds it once per basis,
    with read-only arrays.
    """

    pieces: tuple
    rows: np.ndarray

    def apply(self, inputs: np.ndarray, scratch: np.ndarray):
        """U_Q applied to the label columns in `inputs`, rows in
        `ChargeLabels.order`, as (at, piece): row i of the piece, in
        `scratch`'s storage, is row at[i] of the result."""
        width = inputs.shape[1]
        for hadamard, label_rows, (p0, p1), at in self.pieces:
            flat = inputs[label_rows].reshape(hadamard.shape[0], -1)
            piece = scratch[: at.size * width].reshape(hadamard.shape[0], -1)
            np.matmul(hadamard, flat[:, p0 * width : p1 * width], out=piece)
            yield at, piece.reshape(-1, width)


class SectorBasis:
    """Half-filling (Sz = 0) basis of the 2 x L ladder.

    Attributes
    ----------
    L : sites per leg.
    num_spins : 2 L.
    states : int64 array of the C(2L, L) bitmasks with L set bits, ascending
        (so ``np.searchsorted(states, mask)`` is the index of a bitmask).
    dim : sector dimension.
    charge_labels : the slots of the states and rung labels
        (`ChargeLabels`); built on first use.
    hadamard_plan : U_Q in row pieces (`_HadamardPlan`); built on first use.
    """

    def __init__(self, L: int):
        self.L = _checked_int("L", L, L_MIN)
        if self.L > L_MAX:
            raise ValueError(
                f"L={L} outside the supported dense-diagonalization range "
                f"[{L_MIN}, {L_MAX}]"
            )
        self.num_spins = 2 * self.L
        masks = np.arange(1 << self.num_spins, dtype=np.int64)
        self.states = masks[_POPCOUNT[masks & 255] + _POPCOUNT[masks >> 8] == self.L]
        self.dim = self.states.size
        if self.dim != comb(self.num_spins, self.L):
            raise RuntimeError(
                f"enumerated {self.dim} states, expected C({self.num_spins}, {self.L})"
            )

    @functools.cached_property
    def charge_labels(self) -> ChargeLabels:
        """Slots of the states and rung labels; see `ChargeLabels`."""
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
        charge = z - 2 * _POPCOUNT[(index ^ _STRING_SIGNS) & ((1 << z) - 1)]
        order = np.lexsort((flipped_half, index, z))
        # The slots by (charge, position in order); rank counts from each sector's first.
        by_charge = order[np.argsort(charge[order], kind="stable")]
        sorted_charge = charge[by_charge]
        rank = np.empty_like(order)
        rank[by_charge] = np.arange(self.dim) - np.searchsorted(sorted_charge, sorted_charge)
        return ChargeLabels(
            state=state,
            z=z,
            index=index,
            single=single,
            double=double,
            charge=charge,
            order=order,
            rank=rank,
        )

    @functools.cached_property
    def hadamard_plan(self) -> _HadamardPlan:
        """U_Q in row pieces; see `_HadamardPlan`."""
        labels = self.charge_labels
        order, half = labels.order, self.dim // 2
        pieces = []
        # The first half of each z's rows maps to the first half of the result.
        top_half = np.zeros(self.dim, dtype=bool)
        # Row (b, p) of a piece is result row top + b patterns + p, or N/2
        # below for the bottom half of b.
        top = 0
        z_order = labels.z[order]
        for z in np.unique(z_order):
            first = np.searchsorted(z_order, z)
            count = np.count_nonzero(z_order == z) // 2
            m = np.arange(1 << z)
            hadamard = (1 - 2 * (_POPCOUNT[np.bitwise_and.outer(m, m)] & 1)) * 2.0 ** (-z / 2)
            # z = 0: one state per pattern, and the identity keeps both halves.
            hadamard = np.eye(2) if z == 0 else hadamard
            hadamard.flags.writeable = False
            h = hadamard.shape[0] // 2
            patterns = count // h
            step = max(1, _PIECE_ROWS // (2 * h))
            for p0 in range(0, patterns, step):
                p1 = min(p0 + step, patterns)
                b = top + np.arange(h)[:, None] * patterns + np.arange(p0, p1)
                at = np.concatenate([b, half + b]).reshape(-1)
                at.flags.writeable = False
                pieces.append((hadamard, slice(first, first + 2 * count), (p0, p1), at))
            top_half[first : first + count] = True
            top += count
        rows = labels.state[np.concatenate([order[top_half], order[~top_half]])]
        rows.flags.writeable = False
        return _HadamardPlan(pieces=tuple(pieces), rows=rows)

    def __repr__(self) -> str:
        return f"SectorBasis(L={self.L}, dim={self.dim})"


@dataclass(frozen=True)
class SectorHamiltonian:
    """Real symmetric Hamiltonian restricted to the Sz = 0 sector of ``basis``.

    It is kept as its entries, each (row, col) once: ``diagonal`` over the
    states, and ``values[k]`` at (``rows[k]``, ``cols[k]``) off the
    diagonal. `dense` forms the N x N matrix. Construction, by
    `build_hamiltonian` or ``dataclasses.replace``, raises ValueError for a
    NaN or infinite entry; this O(L N) check is the only finiteness check
    before `diagonalize`'s LAPACK calls.
    """

    diagonal: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray
    params: LadderParams
    disorder: DisorderRealization
    basis: SectorBasis

    def __post_init__(self) -> None:
        for name in ("diagonal", "values"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(
                    f"H has a non-finite entry in {name} "
                    f"(L={self.params.L}, seed={self.disorder.seed})"
                )

    def dense(self) -> np.ndarray:
        """H as an N x N Fortran-order array."""
        return _dense(self.diagonal, self.rows, self.cols, self.values)


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
    H_q of H in the rung basis (`_rung_sectors`), whose rows are sector q's
    labels in `ChargeLabels.order`. So U(t) = U_Q (+)_q V_q exp(-i E_q t)
    V_q^T U_Q^T, U_Q the map from the rung labels to the states.
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


def check_memory(caller: str, n: int, copies: float, fixed_bytes: int = 0) -> None:
    """Raise MemoryError before `caller` allocates `copies` dense N x N float64
    arrays and `fixed_bytes` more, if together they exceed physical memory or
    the cgroup limit."""
    need = int(copies * 8 * n * n) + fixed_bytes
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
    (`_rung_sectors`). Such a realization has no charge sectors, so
    `diagonalize_sectors`, and with it the W-route, refuse it; its OTOCs
    come from `diagonalize` and `exact_otoc`. ``seed`` must be an integer
    >= 0.
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
    """All hopping bonds as (bit_a, bit_b, J): 1 on the legs, alpha on the rungs. Open ends.

    `_rung_sectors` restates the same bonds, leg bonds and rungs, in the
    rung basis without reading this list, so a change to the model edits
    both; test_rung_blocks_match_the_charge_map_oracle pins them together.
    """
    L = params.L
    bonds: list[tuple[int, int, float]] = []
    for leg in (1, 2):
        for site in range(1, L):
            bonds.append((bit_position(L, leg, site), bit_position(L, leg, site + 1), 1.0))
    for site in range(1, L + 1):
        bonds.append((bit_position(L, 1, site), bit_position(L, 2, site), params.alpha))
    return bonds


def build_hamiltonian(
    params: LadderParams,
    disorder: DisorderRealization,
    basis: SectorBasis,
) -> SectorHamiltonian:
    """Assemble the sector Hamiltonian's entries.

    The diagonal holds the fields, sum_i h_i^(leg) s_{leg,i} with s = +-1
    read off the bitmask. Off the diagonal there is one entry 2 J per bond
    and per state whose two occupations across the bond differ (J = 1 on
    intra-leg bonds, alpha on rungs): 3 L - 2 bonds, so H holds
    O(L N) entries and no N x N array is formed. Every hop appears in both
    directions, and no (row, col) pair appears twice.
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
    n = basis.dim
    index = np.arange(n)
    d = np.zeros(n)
    for site in range(1, params.L + 1):
        s1, s2 = (sigma_z_operator(basis, leg, site) for leg in (1, 2))
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
    rows, cols, values = (np.concatenate(x) for x in (rows, cols, values))
    # Made first, so that an entry that overflowed fails as such.
    H = SectorHamiltonian(
        diagonal=d, rows=rows, cols=cols, values=values,
        params=params, disorder=disorder, basis=basis,
    )
    # Sorted by (row, col) and by (col, row), the pairs of a symmetric H,
    # each once, read the same, and so do their values.
    key, mirror = rows * n + cols, cols * n + rows
    by_key, by_mirror = np.argsort(key), np.argsort(mirror)
    paired = np.array_equal(key[by_key], mirror[by_mirror]) and np.all(np.diff(key[by_key]) > 0)
    asymmetry = np.max(np.abs(values[by_key] - values[by_mirror])) if paired else np.inf
    if not asymmetry <= 1e-12:
        raise RuntimeError(f"assembled Hamiltonian is not symmetric ({asymmetry:.3e})")
    return H


def _dense(
    diagonal: np.ndarray, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """The square array with ``diagonal`` and ``values[k]`` at (rows[k], cols[k]).

    It is Fortran-order, so LAPACK can overwrite it in place; a symmetric
    array holds the same bytes in either order.
    """
    out = np.zeros((diagonal.size, diagonal.size), order="F")
    np.fill_diagonal(out, diagonal)
    out[rows, cols] = values
    return out


def _rung_sectors(H: SectorHamiltonian) -> dict[int, tuple[np.ndarray, ...]]:
    """The entries of the block H_q of each charge q, built in the rung basis.

    With the same fields on both legs, H conserves the dressed rung charge
    Q = sum_i (-1)^(N_<i) (s+_{1,i} s-_{2,i} + h.c.), with N_<i the up spins
    in columns 1..i-1. Q keeps each column's occupation: E (empty), D
    (doubly occupied) or single. On one occupation pattern it is
    sum_t s_t X_t over its z singles, where X_t moves the t-th single's up
    spin to the other leg; the columns between two singles hold 0 or 2 up
    spins, so s_t = (-1)^t. Its eigenvectors are therefore rung product
    states: each single is bonding, B = (|up down> + |down up>) / sqrt 2
    with leg 1 written first (X_t = +1, label bit t clear), or antibonding,
    A = (|up down> - |down up>) / sqrt 2 (bit t set). In the states of the
    pattern, label m has entry 2^(-z/2) (-1)^popcount(b & m) on the state
    whose leg-2 bits on the singles read b, and charge
    q = z - 2 popcount((m ^ _STRING_SIGNS) & (2^z - 1)).

    H is a sum of one- and two-column terms without a string, so in these
    labels it reads:
    * diagonal: +2 h_i on a D column, -2 h_i on an E column, and, from the
      rung exchange, +2 alpha per B and -2 alpha per A;
    * leg bond (i, i + 1), coefficient 2 (J = 1): a single moves,
      (x, E) <-> (E, x) and (x, D) <-> (D, x), keeping its label bit;
      (E, D) and (D, E) go to BB - AA, two label bits inserted at the
      single rank t of column i; BB goes to ED + DE, AA to -(ED + DE), and
      BA and AB to zero.
    A hop keeps q since s_t + s_(t+1) = 0; RuntimeError is raised if one
    does not. Returns, by ascending q, the block's (diagonal, rows, cols,
    values), each (row, col) once, rows and columns in the order of sector
    q's labels in `ChargeLabels.order`.
    """
    params, labels = H.params, H.basis.charge_labels
    L = params.L
    single, double, m = labels.single, labels.double, labels.index
    empty = ((1 << L) - 1) & ~(single | double)
    diagonal = 2.0 * params.alpha * (labels.z - 2 * _POPCOUNT[m])
    for i, h in enumerate(H.disorder.fields):
        diagonal += 2.0 * h * ((double >> i & 1) - (empty >> i & 1))
    # Slots run by pattern, patterns by ascending key: a pattern's first
    # slot is where its key sorts in.
    key = single | double << L
    src, dst, values = [], [], []
    for i in range(L - 1):
        pair, t = 3 << i, _POPCOUNT[single & ((1 << i) - 1)]
        s, d = single >> i & 3, double >> i & 3
        move = np.flatnonzero(s == 1)
        moved = key[move] ^ pair ^ ((d[move] >> 1) * pair) << L
        src.append(move)
        dst.append(np.searchsorted(key, moved) + m[move])
        values.append(np.full(move.size, 2.0))
        split = np.flatnonzero((s == 0) & ((d == 1) | (d == 2)))
        first = np.searchsorted(key, key[split] ^ pair ^ (double[split] & pair) << L)
        ms, ts = m[split], t[split]
        spread = (ms & ((1 << ts) - 1)) | (ms >> ts) << (ts + 2)
        for inserted, sign in ((0, 1.0), (3, -1.0)):
            src.append(split)
            dst.append(first + (spread | inserted << ts))
            values.append(np.full(split.size, 2.0 * sign))
    src, dst, values = (np.concatenate(x) for x in (src, dst, values))
    src, dst, values = np.concatenate([src, dst]), np.concatenate([dst, src]), np.tile(values, 2)
    charge, order, rank = labels.charge, labels.order, labels.rank
    if np.any(charge[src] != charge[dst]):
        raise RuntimeError(
            "a hop of H leaves its charge sector: the rung labels do not "
            "diagonalize the dressed rung charge"
        )
    sectors = {}
    for q in np.unique(charge).tolist():
        slots = order[charge[order] == q]
        mine = np.flatnonzero(charge[src] == q)
        sectors[q] = (diagonal[slots], rank[dst[mine]], rank[src[mine]], values[mine])
    return sectors


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


def diagonalize(H: SectorHamiltonian, vectors: bool = True) -> EigenSystem | SectorSpectra:
    """Dense symmetric eigensolve of one realization.

    By default H gets one full ``eigh``: an EigenSystem with ascending
    eigenvalues and column eigenvectors, as the OTOC routes need them. H is
    made dense here, once and in Fortran order, and LAPACK overwrites that
    copy in place, so the solve holds about two N x N arrays. Each ``eigh``
    passes check_finite=False, so scipy makes no boolean copy of a block:
    the entries of H were checked when H was constructed
    (`SectorHamiltonian`), and the rung blocks are built from the checked
    ``H.params`` and ``H.disorder``.

    With ``vectors=False`` H gets SectorSpectra, from eigenvalues-only
    solves. With the same fields on both legs, H conserves the dressed rung
    charge, and the block H_q of each sector q >= 0 is built in the rung
    basis (`_rung_sectors`) and solved before the next one is made dense;
    LAPACK overwrites each dense block in place, so the peak holds one
    block. The negation of each q > 0 spectrum stands for sector -q
    (`_check_chiral_symmetry`, which raises if a term of H breaks that).
    These blocks hold the model given by ``H.params`` and ``H.disorder``,
    not H's arrays; `_check_spectral_weight` compares their spectrum with
    H's entries through ||H||_F^2 and the trace, so an edit of H that
    keeps both goes unseen. With independent legs the one block is H made
    dense. The merged spectrum agrees with a full solve to rounding, not
    bit for bit.

    Both modes raise RuntimeError when the spectrum misses weight or trace
    of H (`_check_spectral_weight`), as a non-finite spectrum does.

    scipy.linalg is imported here, by this function alone, and not at
    module load: a process that never calls it never loads scipy's LAPACK
    and its OpenBLAS copy.
    """
    import scipy.linalg

    sectors = {}
    if not vectors and H.disorder.fields_for_leg(1) == H.disorder.fields_for_leg(2):
        _check_chiral_symmetry(H.params, H.diagonal)
        sectors = {q: block for q, block in _rung_sectors(H).items() if q >= 0}
    blocks = list(sectors.values()) or [(H.diagonal, H.rows, H.cols, H.values)]
    eigh = functools.partial(scipy.linalg.eigh, overwrite_a=True, check_finite=False)
    if vectors:
        [(w, v)] = _solve_blocks("diagonalize", H, blocks, eigh, EIGH_COPIES)
        _check_spectral_weight(H, w)
        return EigenSystem(eigenvalues=w, eigenvectors=v)
    solve = functools.partial(eigh, eigvals_only=True)
    parts = _solve_blocks("diagonalize", H, blocks, solve, EIGVALS_COPIES)
    sectors = dict(zip(sectors, parts))
    mirrors = [-e for q, e in sectors.items() if q > 0]
    w = np.sort(np.concatenate(parts + mirrors))
    _check_spectral_weight(H, w)
    return SectorSpectra(eigenvalues=w, sectors=sectors)


def diagonalize_sectors(H: SectorHamiltonian) -> ChargeEigenSystem:
    """Eigensystem of every charge sector of a ladder with shared fields.

    The block H_q of each sector, the q < 0 ones included, is built in the
    rung basis (`_rung_sectors`) and solved with vectors. The solver is
    numpy's ``eigh`` (LAPACK ``syevd``), not scipy's: the two packages link
    separate OpenBLAS copies, and the W-route's GEMMs run in numpy's, whose
    threads still spin when the next realization is solved; scipy's copy
    then competes with them for the cores. A `wavefront` process with
    shared fields never loads scipy's copy (`diagonalize` imports it).
    The blocks hold the model given by ``H.params`` and ``H.disorder``, not
    H's arrays, as in `diagonalize(H, vectors=False)`. Raises RuntimeError
    when the spectrum misses weight or trace of H (`_check_spectral_weight`).

    When the legs see different fields, H conserves no charge, and
    ValueError is raised before any block is built; `diagonalize(H)` solves
    such a ladder.
    """
    if H.disorder.fields_for_leg(1) != H.disorder.fields_for_leg(2):
        raise ValueError(
            "diagonalize_sectors needs shared fields; diagonalize(H) solves independent legs"
        )
    blocks = _rung_sectors(H)
    parts = _solve_blocks(
        "diagonalize_sectors", H, blocks.values(), np.linalg.eigh, SECTOR_EIGH_COPIES, held=1.0
    )
    sectors = dict(zip(blocks, parts))
    _check_spectral_weight(H, np.concatenate([E for E, _ in parts]))
    return ChargeEigenSystem(basis=H.basis, sectors=sectors)


def _solve_blocks(caller: str, H: SectorHamiltonian, blocks, solve, copies: float, held=0.0):
    """``solve`` of each block, given as `_dense`'s arguments, in a list.

    Each block is made dense just before its solve. One memory check comes
    first: ``held`` m x m float64 arrays per block (the results the caller
    keeps) and ``copies`` of the widest block's (the dense block and the
    solver's work). A LAPACK failure (scipy.linalg.LinAlgError is numpy's
    class) is raised as a DiagonalizationError that names the realization.
    """
    n = H.basis.dim
    widths = [diagonal.size for diagonal, *_ in blocks]
    check_memory(caller, n, (held * sum(m**2 for m in widths) + copies * max(widths) ** 2) / n**2)
    try:
        return [solve(_dense(*block)) for block in blocks]
    except np.linalg.LinAlgError as exc:
        raise DiagonalizationError(
            f"eigensolver failed for L={H.params.L}, alpha={H.params.alpha}, "
            f"h={H.params.h}, seed={H.disorder.seed}"
        ) from exc


def _check_spectral_weight(H: SectorHamiltonian, w: np.ndarray) -> None:
    """Raise RuntimeError unless sum(w^2) equals ||H||_F^2 and sum(w) tr H to rounding.

    ||H||_F^2 and tr H are sums over the entries that `build_hamiltonian`
    assembles in the states. A block solve takes its blocks from the
    independent rung-basis builder (`_rung_sectors`), so this cross-checks
    the two: weight goes missing, or appears, when they disagree, as when H
    holds a term that couples the blocks although its fields say it
    conserves the charge; the trace also catches a diagonal edit that keeps
    the weight. H and w are first divided by H's largest |entry|, so the
    squares of entries beyond ~1e154 do not overflow; the messages give the
    sums in those units. The sums are numpy reductions, not BLAS dots: a
    dot that long (~4e4 entries at L = 7) starts OpenBLAS's thread pool,
    after which the next LAPACK eigensolve runs slower.
    """
    scale = max(np.abs(H.diagonal).max(), np.abs(H.values).max())
    diagonal, values, w = H.diagonal / scale, H.values / scale, w / scale
    frobenius2 = float(np.square(diagonal).sum() + np.square(values).sum())
    lost = abs(float(np.square(w).sum()) - frobenius2)
    if not lost <= SPECTRAL_WEIGHT_RTOL * w.size * frobenius2:
        raise RuntimeError(
            f"spectrum misses weight of H: |sum(lambda^2) - ||H||_F^2| = {lost:.3e} "
            f"of {frobenius2:.3e}, in units of max |H_ab|^2 "
            f"(L={H.params.L}, seed={H.disorder.seed})"
        )
    trace_gap = abs(float(w.sum()) - float(diagonal.sum()))
    if not trace_gap <= SPECTRAL_WEIGHT_RTOL * w.size * np.sqrt(frobenius2):
        raise RuntimeError(
            f"spectrum misses the trace of H: |sum(lambda) - tr H| = {trace_gap:.3e}, "
            f"in units of max |H_ab| (L={H.params.L}, seed={H.disorder.seed})"
        )


def sigma_z_operator(basis: SectorBasis, leg: int, site: int) -> np.ndarray:
    """Diagonal of sigma^z on (leg, site) over the sector basis: +-1 entries."""
    pos = bit_position(basis.L, leg, site)
    return np.where((basis.states >> pos) & 1 == 1, 1.0, -1.0)

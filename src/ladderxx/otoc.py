"""Infinite-temperature and sampled out-of-time-order correlators.

The central object is F(t) = (1/N) Tr[sz_i(t) sz_1 sz_i(t) sz_1] with
sz_i(t) = U+(t) sz_i U(t), evaluated exactly over the Sz = 0 sector, and its
estimator: the mean of F_j(t) = <psi_j| sz_i(t) sz_1 sz_i(t) sz_1 |psi_j>
over M random initial states (Haar vectors or Fock basis states).

`exact_otoc` is the reference implementation, the trace route, valid for
any real symmetric H. Its steps work in one block of 2 N^2 floats and one
N x N array, bitwise as a loop of fresh temporaries. `sampled_otoc`
evolves its M states in the eigenbasis and never returns to the
computational basis. Both rotate their diagonal operators through
`_eigenbasis_diagonal`, which keeps the two most recently used rotations
on the `EigenSystem`: an exact OTOC and its sampled estimators of the same
operator pair rotate each operator once per eigensystem.

The W-route, `multi_distance_otoc_values`, builds W(t) = U(t) sz_1 U+(t) in
the computational basis. It is the fast kernel of ensemble loops, where one
W per time serves every probe operator; the tests compare it with
`exact_otoc`. It evaluates half the rows of W through the chiral mirror of
the ladder. C, the sublattice sign times the global spin flip, anticommutes
with every ladder H (`core._check_chiral_symmetry`). H is real, so
C U(t) C^-1 = conj U(t), and sz_1 is odd under the flip, so
C W C^-1 = -conj W. Hence |W_f(a)f(b)| = |W_ab|, where f(a) = N - 1 - a is
the flip in the sorted basis. For probes that are odd under the flip too,
half the rows, one of each mirror pair, carry the whole OTOC. The route
takes the `ChargeEigenSystem` of `diagonalize_sectors`, so it needs shared
fields; a ladder with independent legs gets its OTOC from `exact_otoc`. It
forms the columns of U(t) sector by sector, maps them to the states by
Hadamard transforms, and takes the column side of each step's two
N x N/2 products, Y and K, from the same blocks (`_sector_blocks` and
`core._HadamardPlan` state the identities). A step keeps only the mirror
half of the rows of U(t) and the squared norm of every row, and takes Y
and K in pieces that are contracted while they are in cache, so the route
holds about two N x N arrays in all (`MULTI_DISTANCE_COPIES`).

All three routines refuse a time grid that is empty, not 1-D or not finite,
and check their operators before any O(N^3) work. Their memory checks count
the eigensystem that the caller holds beside the call's own operators
(`_held_copies`), so a memoized rotation is counted once, and each checks a
unitarity figure to `DEFECT_TOL`, raising RuntimeError that names
non-orthonormal eigenvectors as the cause.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    _POPCOUNT,
    ChargeEigenSystem,
    EigenSystem,
    SectorBasis,
    _checked_int,
    check_memory,
    sigma_z_operator,
)

__all__ = [
    "OtocSeries",
    "InitialState",
    "exact_otoc",
    "sampled_otoc",
    "haar_state",
    "fock_state",
    "multi_distance_otoc_values",
    "default_decay_times",
    "default_lightcone_times",
]


# Peak memory in units of one N x N float64 array (8 N^2 bytes), from the
# tracemalloc peak of one call that rotates both its operators. Each memory
# check adds what the caller's eigensystem holds beside them
# (`_held_copies`). exact_otoc and the W-route also ask for FIXED_BYTES:
# numpy's ufunc buffers (up to 8192 elements per buffered operand) and the
# per-call tables, which weigh most at L = 5. Their copies are the L = 6 peak
# less that allowance, rounded up with 0.04 copies to spare at least; with
# it they cover L = 5.
FIXED_BYTES = 256 * 1024
# exact_otoc holds A~ and B~, its block of 2 N^2 floats, Re P and a scratch
# piece of N^2 / 8 floats (peaks less the allowance: 5.16 at L = 6, 4.99 at
# L = 5).
EXACT_COPIES = 5.2
# multi_distance_otoc_values holds S_R, N/2 x N, its N x N/2 Hadamard input,
# W_q, P_q and a scratch array as large as a block's m_q x N/2 product
# (1.99 at L = 6, 1.73 at L = 5; 1.86 at L = 7 with the allowance in).
MULTI_DISTANCE_COPIES = 2.05
# sampled_otoc asks for the larger of its two phases: 3.1 while it rotates
# the two operators, then 2 for them plus (12 M + 2) K / N for the state
# coefficients, two chunk buffers of 4 M K real columns each and the chunk's
# N x K complex phases, with M states and K steps per chunk.
SAMPLED_COPIES = 3.1
SAMPLED_COPIES_PER_STATE = 12.0
# sampled_otoc puts this many real columns, the 4M of each of its M states'
# steps, into one GEMM with A~, and at least one step.
_CHUNK_COLUMNS = 1024
# Each of the five checks of an identity that orthonormal eigenvectors keep
# raises when its figure misses by more than this: exact_otoc's
# ||A(t) sz_1||_F^2 / N = 1, the W-route's half-row sum of |W_ab|^2 = 1 and
# its chiral mirror W_f(a)f(a) = -W_aa, sampled_otoc's ||V^T psi_j||^2 = 1
# and its |F_j(t)| <= 1.
DEFECT_TOL = 1e-9
# Rotated diagonals kept per eigensystem: the two operators of one OTOC.
_ROTATED_KEPT = 2
# exact_otoc phases A(t) and squares P in row pieces of about N / this many
# rows, so its one scratch piece holds about N^2 / 8 floats.
_EXACT_PIECES = 16


def default_decay_times(n: int = 60) -> np.ndarray:
    """Log-spaced grid 0.1 .. 1000 (units 1/J) used for decay studies."""
    return np.geomspace(0.1, 1000.0, n)


def default_lightcone_times(n: int = 200, t_max: float = 10.0) -> np.ndarray:
    """Linear grid 0 .. t_max used for space-time (lightcone) scans."""
    return np.linspace(0.0, t_max, n)


@dataclass
class OtocSeries:
    """OTOC values on a time grid.

    values[k] is the mean at times[k] (over states and/or realizations,
    depending on producer); per_sample, when present, holds one row per
    initial state or realization. meta records what was averaged: estimator
    tag ("exact", "haar", "fock"), operator pair, seeds, sample count M, and
    numerical-health figures from the evaluation routes.
    """

    times: np.ndarray
    values: np.ndarray
    per_sample: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have identical shapes")
        if self.per_sample is not None:
            self.per_sample = np.asarray(self.per_sample)
            if self.per_sample.shape[-1] != self.times.shape[0]:
                raise ValueError("per_sample rows must match the time grid")
        at_zero = np.abs(self.values[self.times == 0.0] - 1.0)
        if at_zero.size and not at_zero.max() <= 1e-10:
            raise ValueError("OTOC must equal 1 at t = 0")


@dataclass
class InitialState:
    """Normalized sector state vector, tagged by how it was drawn."""

    amplitudes: np.ndarray
    kind: str
    seed: int | None = None

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        norm = np.linalg.norm(self.amplitudes)
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"initial state norm {norm} deviates from 1")
        if self.kind == "fock":
            nonzero = np.abs(self.amplitudes) > 1e-15
            if nonzero.sum() != 1 or not abs(np.abs(self.amplitudes[nonzero][0]) - 1.0) <= 1e-12:
                raise ValueError("fock state must have a single unit-modulus amplitude")


def _checked_times(times: np.ndarray) -> np.ndarray:
    """The time grid as a float array; a scalar is a one-point grid.

    Raises ValueError unless the grid is 1-D, non-empty and finite.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-D grid, not an array of shape {times.shape}")
    if times.size == 0:
        raise ValueError("times must hold at least one time")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    return times


def _checked_operators(
    n: int, probe_ops: np.ndarray, op_1: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Probe diagonals (n_probes, N) and op_1 as float arrays, checked for the W-route.

    Raises ValueError unless every diagonal has length N, op_1 is a +-1
    diagonal and op_1 and every probe are odd under the global spin flip.
    """
    D = np.asarray(probe_ops, dtype=float)
    if D.ndim != 2 or D.shape[1] != n:
        raise ValueError(f"operator diagonals must have length N = {n}")
    d1 = _pm1_diagonal("op_1", op_1, n)
    # Oddness also forces N even and N/2 states with (sz_1)_a = +1.
    if np.any(d1[::-1] != -d1) or np.any(D[:, ::-1] != -D):
        raise ValueError("op_1 and every probe must be odd under the global spin flip")
    return D, d1


def _pm1_diagonal(name: str, d: np.ndarray, n: int) -> np.ndarray:
    """d as a float array; raises ValueError unless it is a +-1 diagonal of length N."""
    d = np.asarray(d, dtype=float)
    if d.shape != (n,):
        raise ValueError(f"{name} must be a diagonal of length N = {n}")
    if not np.all(np.abs(d) == 1.0):
        raise ValueError(f"{name} must be a +-1 diagonal")
    return d


def _full_eigensystem(caller: str, eig) -> None:
    """Raise TypeError unless eig is the full EigenSystem of `diagonalize(H)`."""
    if not isinstance(eig, EigenSystem):
        raise TypeError(
            f"{caller} needs the full EigenSystem of diagonalize(H), not {type(eig).__name__}"
        )


def _held_copies(eig: EigenSystem | ChargeEigenSystem, *own: np.ndarray) -> float:
    """What the caller's eigensystem holds beside the call's own figures, in
    N x N float64 arrays: the eigenvectors (the sector blocks of a
    ChargeEigenSystem) and the rotation memo's entries for diagonals other
    than `own`, which stay allocated while the call rotates its operators.
    The call's constant counts the rotations of `own`, memoized or not."""
    if isinstance(eig, ChargeEigenSystem):
        return sum(V.size for _, V in eig.sectors.values()) / eig.dim**2
    keys = {d.tobytes() for d in own}
    return 1.0 + sum(key not in keys for key in eig._rotated)


def _eigenbasis_diagonal(eig: EigenSystem, diag: np.ndarray) -> np.ndarray:
    """Rotate a computational-basis diagonal operator into the eigenbasis.

    The result is memoized on `eig`, keyed by the diagonal's bytes, for the
    `_ROTATED_KEPT` most recently used diagonals, and returned read-only: the
    calls of one OTOC study then rotate its two operators once, not once per
    call, with the same bits.
    """
    memo = eig._rotated
    key = diag.tobytes()
    # Popped and put back, so the least recently used entry comes first.
    rotated = memo.pop(key, None)
    if rotated is None:
        V = eig.eigenvectors
        rotated = V.T @ (diag[:, None] * V)
        rotated.flags.writeable = False
        if len(memo) == _ROTATED_KEPT:
            del memo[next(iter(memo))]
    memo[key] = rotated
    return rotated


def exact_otoc(
    eig: EigenSystem,
    op_i: np.ndarray,
    op_1: np.ndarray,
    times: np.ndarray,
) -> OtocSeries:
    """Exact infinite-temperature OTOC by the trace route.

    With A = V^T sz_i V and B = V^T sz_1 V, each step forms P = A(t) B with
    A(t) = Phi* A Phi, Phi = diag(exp(-i E t)), and returns Tr[P^2] / N.
    Since A(t)^2 = B^2 = 1, ||P||_F^2 = N for an orthonormal eigensystem;
    the largest |<P, P> / N - 1| over the grid is stored in meta["defect"],
    and RuntimeError is raised above `DEFECT_TOL` or when it is NaN; the
    check is O(N^2) a step.

    A and B come from the rotation memo on `eig`. Each step works in one
    block of 2 N^2 floats and one of N^2, allocated once per call. A(t) is
    formed in row pieces, each split into the block's Re and Im halves; two
    real GEMMs (kept apart: one stacked GEMM rounds differently) put
    Re A(t) B in the N^2 array and Im A(t) B over Re A(t); P is interleaved
    into the block from its last rows to its first, and P * P^T is formed
    there in place and summed. Every entry goes through the ufuncs and GEMMs
    that fresh temporaries would take, with the same operands, so the values
    are bitwise those of an unbuffered loop; the peak is about 5.2 N x N
    arrays with A and B (`EXACT_COPIES`).

    Parameters
    ----------
    eig : the full EigenSystem of `diagonalize(H)`; anything else raises
    TypeError.
    op_i, op_1 : +-1 diagonals from `sigma_z_operator`. Unless both are +-1
    and odd under the global spin flip, ValueError is raised before any
    O(N^3) work.
    times : evaluation grid in units of 1/J, the inverse leg coupling.
    """
    _full_eigensystem("exact_otoc", eig)
    E = eig.eigenvalues
    n = eig.dim
    # The defect check below holds only for A(t)^2 = 1.
    D, d1 = _checked_operators(n, [_pm1_diagonal("op_i", op_i, n)], op_1)
    times = _checked_times(times)
    check_memory("exact_otoc", n, EXACT_COPIES + _held_copies(eig, D[0], d1), FIXED_BYTES)

    A = _eigenbasis_diagonal(eig, D[0])
    B = _eigenbasis_diagonal(eig, d1)

    # One block of 2 N^2 floats, one of N^2 and a scratch piece. The block
    # holds Re A(t) and Im A(t), then Im P over Re A(t), then P, then
    # P * P^T; `re_p` holds Re P.
    block = np.empty(2 * n * n)
    parts = block.reshape(2, n, n)
    P = block.view(complex).reshape(n, n)
    re_p = np.empty((n, n))
    # An even number of rows, so every piece has two at least (N is even):
    # numpy takes an in-place product of one element for a reduction, which
    # rounds differently.
    step = 2 * -(-n // (2 * _EXACT_PIECES))
    scratch = np.empty(step * n, dtype=complex)
    pieces = [slice(r0, min(r0 + step, n)) for r0 in range(0, n, step)]
    values = np.empty(times.shape, dtype=complex)
    defects = np.empty(times.shape)
    for k, t in enumerate(times):
        u = np.exp(1j * E * t)
        u_conj = u.conj()[None, :]
        for rows in pieces:
            At = scratch[: (rows.stop - rows.start) * n].reshape(-1, n)
            np.multiply(u[rows, None], A[rows], out=At)
            np.multiply(At, u_conj, out=At)
            parts[0, rows] = At.real
            parts[1, rows] = At.imag
        # Two real products keep BLAS in dgemm.
        np.matmul(parts[0], B, out=re_p)
        np.matmul(parts[1], B, out=parts[0])
        # Row i of P covers rows 2i and 2i + 1 of Im P, so from the last rows
        # to the first every Im P row is read before it is overwritten; numpy
        # copies the one source that overlaps its target, the first piece.
        for rows in reversed(pieces):
            P.imag[rows] = parts[0, rows]
            P.real[rows] = re_p[rows]
        defects[k] = abs(np.vdot(P, P).real / n - 1.0)
        # P * P^T in place, a piece of columns (the diagonal square in) and
        # then its mirror rows left of the diagonal. Each entry keeps the
        # operand order P_ij P_ji (complex multiplication does not commute
        # bit for bit), so the bits are those of the whole product.
        for rows in pieces:
            upto, left = slice(0, rows.stop), slice(0, rows.start)
            upper = scratch[: rows.stop * (rows.stop - rows.start)].reshape(rows.stop, -1)
            np.multiply(P[upto, rows], P[rows, upto].T, out=upper)
            P[rows, left] *= P[left, rows].T
            P[upto, rows] = upper
        values[k] = np.sum(P) / n
    defect = np.max(defects)
    if not defect <= DEFECT_TOL:
        raise RuntimeError(
            f"exact OTOC defect ||A(t) sz_1||_F^2 / N - 1 reached {defect:.3e} "
            f"(tolerance {DEFECT_TOL:.1e}): the eigenvectors are not orthonormal enough"
        )
    if not np.max(np.abs(values.imag)) <= 1e-10:
        raise RuntimeError("exact OTOC acquired an imaginary part above 1e-10")

    return OtocSeries(
        times=times,
        values=values,
        meta={"estimator": "exact", "defect": float(defect)},
    )


def multi_distance_otoc_values(
    eig: ChargeEigenSystem,
    probe_ops: np.ndarray,
    op_1: np.ndarray,
    times: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Exact OTOC of sz_1 against many probe diagonals on a shared time grid.

    By trace cyclicity F_i(t) = (1/N) sum_ab (d_i)_a (d_i)_b |W_ab(t)|^2 with
    W(t) = U(t) sz_1 U+(t), so one O(N^3) evaluation of W per time serves
    every probe operator at O(N^2) extra cost each. Since sz_1 = 2 P - 1
    with P the projector on its +1 states, W = 2 G G^dagger - 1, where
    G = U(t) B holds U(t) on any real orthonormal basis B of those states
    (N x N/2 in the Sz = 0 sector). Let S hold the columns of Re G and of
    Im G, and X = Im G Re G^T; then Re W = 2 S S^T - 1 and
    Im W = 2 (X - X^T). Neither changes when B is rotated, so the route
    forms G = U_Q G_Q in the rung labels, block by block (`_sector_blocks`),
    and maps it to the states with the Hadamard transforms U_Q
    (`SectorBasis.hadamard_plan`).

    The rows of S come in the plan's `rows` order, whose first half R holds
    one state of every mirror pair, and each step forms only the rows R of W.
    By the chiral mirror (module notes) and d_f(a) = -d_a for every probe,
    F_i = (2/N) sum_{a in R} sum_b d_a d_b |W_ab|^2. A step keeps S_R, the
    rows R of S, and the squared norm of every row of S. With S J^T the
    columns of -Im G in place of those of Re G and of Re G in place of
    those of Im G, the two N x N/2 products K = S S_R^T and
    Y = (S J^T) S_R^T hold in column a row a of S S^T and of X - X^T. Their
    column side follows from S = U_Q S_Q, S_Q = [Re G_Q, Im G_Q]: the rows
    of S_Q S_R^T in sector q are P_q S_R[:, span]^T, and with
    P_q J^T = i P_q those of Y are (i P_q) S_R[:, span]^T, GEMM work
    sum_q m_q 2 c_q N in place of N^3. The plan maps them to the states in
    pieces of a few rows, and each piece is squared and contracted with the
    probes while it is in cache, so neither product exists whole. Off the
    diagonal |W_ab|^2 = 4 (K_ab^2 + Y_ab^2). On it Im W vanishes and
    Y_aa = 0, so |W_aa|^2 = 4 (K_aa - 1/2)^2 = 4 (K_aa^2 + 1/4 - K_aa)
    with K_aa = ||S_a||^2: the pieces are squared whole, and one term after
    them adds 1/4 - K_aa for each diagonal entry. Every step checks the
    data: it raises RuntimeError on non-finite data, then when the health
    figure below exceeds `DEFECT_TOL` (non-orthonormal eigenvectors), then
    unless W_f(a)f(a) = -W_aa, i.e. ||S_a||^2 + ||S_f(a)||^2 = 1, to
    `DEFECT_TOL` too. Rounding in the computed eigensystem breaks the mirror
    slightly, so the half-row values differ from a full-row sum by up to
    about eps ||H|| t.

    Parameters
    ----------
    eig : the ChargeEigenSystem of `diagonalize_sectors(H)`; anything else
    raises TypeError before any O(N^3) work.
    probe_ops : array (n_probes, N) of diagonals, each odd under the flip.
    op_1 : sz of one spin. Any other op_1, or a probe even under the flip,
    raises ValueError.

    Returns
    -------
    values : real array (n_probes, n_times); a numerical-health figure,
    max over the grid of | 2 sum_{a in R} sum_b |W_ab|^2 / N - 1 |, which
    is 0 for exactly unitary evolution and so bounds the rounding error.
    """
    if not isinstance(eig, ChargeEigenSystem):
        raise TypeError(
            "multi_distance_otoc_values needs the ChargeEigenSystem of "
            f"diagonalize_sectors(H), not {type(eig).__name__}"
        )
    n = eig.dim
    D, d1 = _checked_operators(n, probe_ops, op_1)
    times = _checked_times(times)
    check_memory(
        "multi_distance_otoc_values", n, MULTI_DISTANCE_COPIES + _held_copies(eig), FIXED_BYTES
    )
    blocks = _sector_blocks(eig, d1)
    plan = eig.basis.hadamard_plan
    half = n // 2
    # The Hadamard input has every label's row in `ChargeLabels.order`, as
    # V_q has sector q's. One scratch array serves a block's phased columns,
    # its m_q x N/2 product and a mapped piece, each dead before the next is
    # written.
    inputs = np.empty((n, half))
    scratch = np.empty(max(
        [P.shape[0] * max(P.shape[1], half) for *_, P in blocks]
        + [at.size * half for *_, at in plan.pieces]
    ))
    S_R = np.empty((half, n))
    norms = np.empty(n)
    # Row r of S is state plan.rows[r]; its mirror f(a) = N - 1 - a is row
    # mirror[r] >= N/2 for r < N/2.
    mirror = np.argsort(plan.rows)[n - 1 - plan.rows[:half]]
    # A last row of ones makes the probe GEMMs sum |W_ab|^2 too, for the defect.
    D = np.vstack([D[:, plan.rows], np.ones(n)])
    D_R = D[:, :half]
    probes = [np.ascontiguousarray(D[:, at]) for *_, at in plan.pieces]
    weighted = np.empty((D.shape[0], half))
    term = np.empty_like(weighted)

    values = np.empty((D.shape[0] - 1, times.shape[0]), dtype=float)
    defects = np.empty(times.shape)
    for k, t in enumerate(times):
        for E, V, W, span, sector_rows, P in blocks:
            np.matmul(V, _phased(E, t, W, scratch), out=P)
        # S_R and the squared norm of every row of S, one column half of S_Q
        # at a time: the blocks' slices of it and zeros elsewhere.
        norms.fill(0.0)
        for c0 in (0, half):
            inputs.fill(0.0)
            for *_, span, sector_rows, P in blocks:
                lo, hi = max(span.start, c0), min(span.stop, c0 + half)
                if lo < hi:
                    inputs[sector_rows, lo - c0 : hi - c0] = P[:, lo - span.start : hi - span.start]
            for at, piece in plan.apply(inputs, scratch):
                low = piece.shape[0] // 2
                S_R[at[:low], c0 : c0 + half] = piece[:low]
                norms[at] += np.einsum("ij,ij->i", piece, piece)
        k_diag = norms[:half]
        weighted.fill(0.0)
        # K's pieces, then Y's. The rows of K in sector q's labels are
        # P_q S_R[:, span]^T, and those of Y (i P_q) S_R[:, span]^T.
        for y_side in (False, True):
            for *_, span, sector_rows, P in blocks:
                if y_side:
                    P.view(complex)[...] *= 1j
                block = scratch[: P.shape[0] * half].reshape(-1, half)
                np.matmul(P, S_R[:, span].T, out=block)
                inputs[sector_rows] = block
            for probe, (at, piece) in zip(probes, plan.apply(inputs, scratch)):
                np.square(piece, out=piece)
                np.matmul(probe, piece, out=term)
                weighted += term
        # The diagonal entries: (K_aa - 1/2)^2 in place of K_aa^2.
        weighted += D_R * (0.25 - k_diag)
        # Re W_aa = 2 ||S_a||^2 - 1 must be odd under the flip.
        mismatch = np.max(np.abs(k_diag + norms[mirror] - 1.0))
        if not np.isfinite(mismatch):
            raise RuntimeError(f"W(t={t}) is not finite: the eigensystem holds NaN or inf")
        defects[k] = abs(8.0 * weighted[-1].sum() / n - 1.0)
        # Every row of a unitary W has norm 1, mirror or not.
        if not defects[k] <= DEFECT_TOL:
            raise RuntimeError(
                f"W(t={t}) misses unitarity by {defects[k]:.3e} (tolerance "
                f"{DEFECT_TOL:.1e}): the eigenvectors are not orthonormal enough"
            )
        if not mismatch <= DEFECT_TOL:
            raise RuntimeError(
                f"W(t={t}) breaks the chiral mirror by {mismatch:.3e}: "
                "H does not anticommute with the sublattice sign times the spin flip"
            )
        values[:, k] = np.sum(weighted[:-1] * D_R[:-1], axis=1) * (8.0 / n)
    return values, float(np.max(defects))


def _phased(E: np.ndarray, t: float, W: np.ndarray, free: np.ndarray) -> np.ndarray:
    """[cos(E t) W, -sin(E t) W], Re and Im of each column of exp(-i E t) W
    side by side, in `free`'s storage."""
    m, c = W.shape
    phased = free.reshape(-1)[: 2 * m * c].reshape(m, c, 2)
    np.multiply(np.cos(E * t)[:, None], W, out=phased[:, :, 0])
    np.multiply(-np.sin(E * t)[:, None], W, out=phased[:, :, 1])
    return phased.reshape(m, 2 * c)


def _sector_blocks(eig: ChargeEigenSystem, d1: np.ndarray) -> list[tuple]:
    """Each sector's (E_q, V_q, W_q, span, sector rows, P_q) for op_1 = d1.

    Write G = U_Q G_Q with U_Q the map from the rung labels to the states
    (`core._HadamardPlan`) and G_Q = (+)_q V_q exp(-i E_q t) V_q^T B_Q,
    B_Q = U_Q^T B. sz of spin (leg, site) is +1 on every label of a pattern
    that doubly occupies the site's column and -1 on every one that leaves
    it empty. Where the column is the t-th singly occupied one, the Hadamard
    transform turns sz into +-X_t (- on leg 2), which flips bit t of the
    label m, so its +1 states are (e_m +- e_(m ^ 2^t)) / sqrt 2 for m with
    bit t clear. Bit t of `_STRING_SIGNS` is t's parity, so the partner lies
    in sector q - 2 for even t and q + 2 for odd t. With the columns of B_Q
    sorted by the edge {q, q + 2} of each pair, and the doubly occupied
    labels of sector q between the edges below and above q, the columns
    that touch sector q are one range, and each holds one weighted row of
    V_q. With Re and Im of each column side by side, block q's columns of
    S_Q = [Re G_Q, Im G_Q] are one slice, `span`, and the block costs one
    real GEMM P_q = V_q [cos, -sin] (E_q t) * W_q per step, W_q the
    weighted rows of V_q^T. The sector rows are the block's rows among all
    labels in `ChargeLabels.order`.

    Raises ValueError unless d1 is sz of one spin, and RuntimeError when a
    sector meets no contiguous range of the +1 states.
    """
    basis = eig.basis
    labels = basis.charge_labels
    spins = [(leg, site) for leg in (1, 2) for site in range(1, basis.L + 1)]
    match = [s for s in spins if np.array_equal(d1, sigma_z_operator(basis, *s))]
    if not match:
        raise ValueError("op_1 must be sz of one spin for a ChargeEigenSystem")
    leg, site = match[0]
    charge = labels.charge
    # B_Q's columns: doubly occupied labels alone, pairs by their leading label.
    bit = 1 << (site - 1)
    bit_rank = _POPCOUNT[labels.single & (bit - 1)]
    alone = np.flatnonzero(labels.double & bit)
    lead = np.flatnonzero((labels.single & bit != 0) & ((labels.index >> bit_rank) & 1 == 0))
    partner = lead + (1 << bit_rank[lead])
    key = np.concatenate([2 * charge[alone], charge[lead] + charge[partner]])
    column = np.empty(key.size, dtype=np.int64)
    column[np.argsort(key, kind="stable")] = np.arange(key.size)
    # B_Q's nonzero entries: one per lone label, two per pair.
    entry_slot = np.concatenate([alone, lead, partner])
    entry_column = np.concatenate([column, column[alone.size :]])
    pair = np.full(lead.size, 0.5**0.5)
    entry_weight = np.concatenate([np.ones(alone.size), pair, (-1) ** (leg - 1) * pair])
    blocks = []
    for q, (E, V) in eig.sectors.items():
        sector_rows = np.flatnonzero(charge[labels.order] == q)
        mine = np.flatnonzero(charge[entry_slot] == q)
        mine = mine[np.argsort(entry_column[mine])]
        cols = entry_column[mine]
        # Every sector meets the +1 states of every spin for L <= 8, so the
        # K and Y products write every row of the Hadamard input.
        if cols.size == 0 or not np.array_equal(cols, np.arange(cols[0], cols[0] + cols.size)):
            raise RuntimeError(f"sector {q} meets no contiguous range of +1 states")
        local = labels.rank[entry_slot[mine]]
        W = np.ascontiguousarray((V[local] * entry_weight[mine, None]).T)
        span = slice(2 * cols[0], 2 * (cols[0] + cols.size))
        blocks.append((E, V, W, span, sector_rows, np.empty((V.shape[0], 2 * cols.size))))
    return blocks


def sampled_otoc(
    eig: EigenSystem,
    op_i: np.ndarray,
    op_1: np.ndarray,
    states: list[InitialState],
    times: np.ndarray,
) -> OtocSeries:
    """OTOC estimator from M initial states, evolved in the eigenbasis.

    With A(t) = U+(t) sz_i U(t) Hermitian, each
    F_j(t) = <psi_j| A sz_1 A sz_1 |psi_j> = (A psi_j)^dagger sz_1 (A sz_1 psi_j).
    In the eigenbasis A(t) = V Phi* A~ Phi V^T and sz_1 = V B~ V^T, with
    Phi = diag(exp(-i E t)), A~ = V^T sz_i V and B~ = V^T sz_1 V. A~ and B~
    come from the rotation memo on `eig`; the coefficients
    [b, c] = V^T [sz_1 psi, psi] (N x 2M) are computed once per call. With
    [y, z] = Phi* A~ Phi [b, c], F_j = z_j^dagger B~ y_j.

    The time steps go in chunks of consecutive steps, as many as fit in
    `_CHUNK_COLUMNS` real columns and at least one. Per chunk the phased
    columns Phi [b, c] of every step form one complex array, which one real
    GEMM with A~ takes as its real view, [Re, Im] columns side by side. The
    phases exp(+i E t) turn the product into [y, z], and a second real GEMM
    applies B~ to the y columns alone. A step thus costs 6M real columns of
    N x N GEMM, and A~ and B~ are read once per chunk, not once per step.

    values holds the mean over states, per_sample the individual complex
    F_j series. Each F_j is the expectation of a unitary, so RuntimeError is
    raised when some |F_j| exceeds 1 by more than `DEFECT_TOL`, or is NaN.
    That needs op_i and op_1 to be +-1 diagonals; any other raises
    ValueError before any O(N^3) work. The coefficients must keep the
    states' norms, ||V^T psi_j||^2 = ||V^T sz_1 psi_j||^2 = 1; above
    `DEFECT_TOL` RuntimeError is raised. ``eig`` must be the full
    EigenSystem of `diagonalize(H)`; anything else raises TypeError.
    """
    _full_eigensystem("sampled_otoc", eig)
    if len(states) == 0:
        raise ValueError("need at least one initial state")
    times = _checked_times(times)
    V = eig.eigenvectors
    E = eig.eigenvalues
    n = eig.dim
    d_i, d_1 = _pm1_diagonal("op_i", op_i, n), _pm1_diagonal("op_1", op_1, n)
    if any(s.amplitudes.shape != (n,) for s in states):
        raise ValueError(f"every initial state must have {n} amplitudes")
    m = len(states)
    steps = max(1, min(times.size, _CHUNK_COLUMNS // (4 * m)))
    per_state = 2.0 + (SAMPLED_COPIES_PER_STATE * m + 2) * steps / n
    check_memory("sampled_otoc", n, max(SAMPLED_COPIES, per_state) + _held_copies(eig, d_i, d_1))

    A = _eigenbasis_diagonal(eig, d_i)
    B = _eigenbasis_diagonal(eig, d_1)
    psi = np.stack([s.amplitudes for s in states], axis=1)  # (N, M)
    bc = np.stack([d_1[:, None] * psi, psi], axis=1)  # (N, 2, M)
    del psi
    # A complex array viewed as real holds its Re and Im columns side by side.
    bc = (V.T @ bc.view(float).reshape(n, -1)).view(complex).reshape(n, 2, 1, m)
    # Summed over Re and Im in place, so no N x M temporary is formed.
    re_im = bc.view(float).reshape(n, 2, m, 2)
    defect = np.max(np.abs(np.einsum("ajmr,ajmr->jm", re_im, re_im) - 1.0))
    if not defect <= DEFECT_TOL:
        raise RuntimeError(
            f"sampled OTOC reached | ||V^T psi_j||^2 - 1 | = {defect:.3e}, above "
            f"{DEFECT_TOL:.0e}: the eigenvectors are not orthonormal enough"
        )
    per_sample = np.empty((m, times.shape[0]), dtype=complex)
    # Flat buffers, viewed per chunk, so that a short last chunk is contiguous too.
    phased = np.empty(n * 2 * steps * m, dtype=complex)
    product = np.empty(n * 2 * steps * m, dtype=complex)

    for start in range(0, times.size, steps):
        chunk = times[start : start + steps]
        k = chunk.size
        phase = np.multiply.outer(E, -1j * chunk)
        np.exp(phase, out=phase)
        phase = phase[:, None, :, None]  # (N, 1, K, 1)
        g = phased[: n * 2 * k * m].reshape(n, 2, k, m)
        np.multiply(phase, bc, out=g)
        yz = product[: n * 2 * k * m].reshape(n, 2, k, m)
        np.matmul(A, g.view(float).reshape(n, -1), out=yz.view(float).reshape(n, -1))
        yz *= np.conjugate(phase, out=phase)
        y, z = yz[:, 0], yz[:, 1]
        By = phased[: n * k * m].reshape(n, k, m)
        np.matmul(B, y.view(float).reshape(n, -1), out=By.view(float).reshape(n, -1))
        np.conjugate(z, out=z)
        per_sample[:, start : start + k] = np.einsum("akj,akj->jk", z, By)
    # Each F_j is the expectation of a unitary, so |F_j| <= 1.
    largest = np.max(np.abs(per_sample))
    if not largest <= 1.0 + DEFECT_TOL:
        raise RuntimeError(
            f"sampled OTOC reached |F_j| - 1 = {largest - 1.0:.3e}, above {DEFECT_TOL:.0e}: "
            "the eigenvectors are not orthonormal enough"
        )

    kinds = {s.kind for s in states}
    return OtocSeries(
        times=times,
        values=per_sample.mean(axis=0),
        per_sample=per_sample,
        meta={
            "estimator": kinds.pop() if len(kinds) == 1 else "mixed",
            "M": len(states),
            "seeds": [s.seed for s in states],
        },
    )


def haar_state(basis: SectorBasis, seed: int) -> InitialState:
    """Haar-random sector state: normalized i.i.d. complex Gaussian amplitudes.

    ``seed``, an integer >= 0, keys the stream as in `core.sample_disorder`.
    """
    seed = _checked_int("seed", seed, 0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
    return InitialState(amplitudes=z / np.linalg.norm(z), kind="haar", seed=seed)


def fock_state(basis: SectorBasis, seed: int) -> InitialState:
    """Uniformly random computational basis state of the sector, keyed as `haar_state`."""
    seed = _checked_int("seed", seed, 0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    index = int(rng.integers(basis.dim))
    amplitudes = np.zeros(basis.dim, dtype=complex)
    amplitudes[index] = 1.0
    return InitialState(amplitudes=amplitudes, kind="fock", seed=seed)
